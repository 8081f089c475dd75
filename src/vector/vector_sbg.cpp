#include "vector/vector_sbg.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "trim/trim.hpp"

namespace ftmao {

void VectorSbgConfig::validate() const {
  FTMAO_EXPECTS(n > 3 * f);
  FTMAO_EXPECTS(dim >= 1);
  FTMAO_EXPECTS(constraint.empty() || constraint.size() == dim);
}

VectorSbgAgent::VectorSbgAgent(AgentId id, VectorFunctionPtr cost,
                               Vec initial_state, const StepSchedule& schedule,
                               const VectorSbgConfig& config)
    : id_(id),
      cost_(std::move(cost)),
      state_(std::move(initial_state)),
      schedule_(&schedule),
      config_(config) {
  FTMAO_EXPECTS(cost_ != nullptr);
  config_.validate();
  FTMAO_EXPECTS(state_.dim() == config_.dim);
  FTMAO_EXPECTS(cost_->dim() == config_.dim);
  if (!config_.constraint.empty()) {
    for (std::size_t k = 0; k < config_.dim; ++k)
      state_[k] = config_.constraint[k].project(state_[k]);
  }
  if (config_.default_payload.state.dim() == 0)
    config_.default_payload.state = Vec(config_.dim, 0.0);
  if (config_.default_payload.gradient.dim() == 0)
    config_.default_payload.gradient = Vec(config_.dim, 0.0);
}

VecPayload VectorSbgAgent::broadcast(Round t) {
  FTMAO_EXPECTS(t.value >= 1);
  return VecPayload{state_, cost_->gradient(state_)};
}

void VectorSbgAgent::step(Round t,
                          std::span<const Received<VecPayload>> inbox) {
  FTMAO_EXPECTS(t.value >= 1);
  FTMAO_EXPECTS(inbox.size() <= config_.n - 1);

  const Vec own_gradient = cost_->gradient(state_);
  const std::size_t missing = (config_.n - 1) - inbox.size();
  const double lambda = schedule_->at(t.value - 1);

  Vec next(config_.dim);
  std::vector<double> states;
  std::vector<double> gradients;
  states.reserve(config_.n);
  gradients.reserve(config_.n);
  for (std::size_t k = 0; k < config_.dim; ++k) {
    states.clear();
    gradients.clear();
    states.push_back(state_[k]);
    gradients.push_back(own_gradient[k]);
    for (const auto& msg : inbox) {
      FTMAO_EXPECTS(msg.payload.state.dim() == config_.dim);
      states.push_back(msg.payload.state[k]);
      gradients.push_back(msg.payload.gradient[k]);
    }
    for (std::size_t i = 0; i < missing; ++i) {
      states.push_back(config_.default_payload.state[k]);
      gradients.push_back(config_.default_payload.gradient[k]);
    }
    next[k] = trim_value(states, config_.f) -
              lambda * trim_value(gradients, config_.f);
    if (!config_.constraint.empty())
      next[k] = config_.constraint[k].project(next[k]);
  }
  state_ = next;
}

std::optional<VecPayload> VectorAdversary::send_to(
    AgentId, AgentId recipient, const RoundView<VecPayload>& view) {
  if (summarized_ != view.round) {
    const auto& msgs = view.honest_broadcasts;
    summaries_.clear();
    const std::size_t d = msgs.empty() ? 0 : msgs[0].payload.state.dim();
    std::vector<Received<SbgPayload>> coordinate(msgs.size());
    for (std::size_t k = 0; k < d; ++k) {
      for (std::size_t j = 0; j < msgs.size(); ++j)
        coordinate[j] = {msgs[j].from, {msgs[j].payload.state[k],
                                        msgs[j].payload.gradient[k]}};
      summaries_.push_back(HonestSummary::of({view.round, coordinate}));
    }
    summarized_ = view.round;
  }
  return summary_payload(summaries_, view.round, recipient);
}

VectorRunResult run_vector_sbg(
    const VectorSbgConfig& config,
    const std::vector<VectorFunctionPtr>& honest_costs,
    const std::vector<Vec>& honest_initial, std::size_t byzantine_count,
    VectorAdversary* adversary, const StepSchedule& schedule,
    std::size_t rounds, bool record_series) {
  config.validate();
  FTMAO_EXPECTS(honest_costs.size() + byzantine_count == config.n);
  FTMAO_EXPECTS(honest_initial.size() == honest_costs.size());
  FTMAO_EXPECTS(byzantine_count <= config.f);

  std::vector<std::unique_ptr<VectorSbgAgent>> agents;
  SyncEngine<VecPayload> engine;
  for (std::size_t i = 0; i < honest_costs.size(); ++i) {
    agents.push_back(std::make_unique<VectorSbgAgent>(
        AgentId{static_cast<std::uint32_t>(i)}, honest_costs[i],
        honest_initial[i], schedule, config));
    engine.add_honest(AgentId{static_cast<std::uint32_t>(i)},
                      agents.back().get());
  }
  for (std::size_t b = 0; b < byzantine_count; ++b) {
    FTMAO_EXPECTS(adversary != nullptr);
    engine.add_byzantine(
        AgentId{static_cast<std::uint32_t>(honest_costs.size() + b)},
        adversary);
  }

  VectorRunResult result;
  // Reference point: the failure-free uniform-average optimum.
  {
    std::vector<VectorWeightedSum::Term> terms;
    const double w = 1.0 / static_cast<double>(honest_costs.size());
    for (const auto& fn : honest_costs) terms.push_back({w, fn});
    result.failure_free_optimum =
        VectorWeightedSum(std::move(terms)).a_minimizer();
  }

  auto record = [&] {
    double diam = 0.0;
    double dist = 0.0;
    for (std::size_t a = 0; a < agents.size(); ++a) {
      dist = std::max(dist, agents[a]->state().distance_to(
                                result.failure_free_optimum));
      for (std::size_t b = a + 1; b < agents.size(); ++b) {
        Vec diff = agents[a]->state();
        diff -= agents[b]->state();
        diam = std::max(diam, diff.norm_inf());
      }
    }
    result.disagreement.push(diam);
    result.dist_to_average_optimum.push(dist);
  };
  for (std::size_t t = 1; t <= rounds; ++t) {
    if (record_series) record();  // the state round t starts from
    engine.run_round(Round{static_cast<std::uint32_t>(t)});
  }
  record();
  for (const auto& a : agents) result.final_states.push_back(a->state());
  return result;
}

}  // namespace ftmao
