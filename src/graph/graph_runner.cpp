#include "graph/graph_runner.hpp"

#include <algorithm>
#include <memory>

#include "common/contracts.hpp"
#include "core/valid_set.hpp"
#include "trim/trim.hpp"

namespace ftmao {

GraphSbgAgent::GraphSbgAgent(AgentId id, ScalarFunctionPtr cost,
                             double initial_state, const StepSchedule& schedule,
                             std::size_t in_degree, std::size_t f,
                             SbgPayload default_payload)
    : id_(id),
      cost_(std::move(cost)),
      state_(initial_state),
      schedule_(&schedule),
      in_degree_(in_degree),
      f_(f),
      default_payload_(default_payload) {
  FTMAO_EXPECTS(cost_ != nullptr);
  // The f-trim over own value + in-neighbours needs >= 2f + 1 entries.
  FTMAO_EXPECTS(in_degree_ + 1 >= 2 * f_ + 1);
}

SbgPayload GraphSbgAgent::broadcast(Round t) {
  FTMAO_EXPECTS(t.value >= 1);
  return SbgPayload{state_, cost_->derivative(state_)};
}

void GraphSbgAgent::step(Round t, std::span<const Received<SbgPayload>> inbox) {
  FTMAO_EXPECTS(t.value >= 1);
  FTMAO_EXPECTS(inbox.size() <= in_degree_);
  std::vector<double> states, gradients;
  states.reserve(in_degree_ + 1);
  gradients.reserve(in_degree_ + 1);
  states.push_back(state_);
  gradients.push_back(cost_->derivative(state_));
  for (const auto& msg : inbox) {
    states.push_back(msg.payload.state);
    gradients.push_back(msg.payload.gradient);
  }
  for (std::size_t i = inbox.size(); i < in_degree_; ++i) {
    states.push_back(default_payload_.state);
    gradients.push_back(default_payload_.gradient);
  }
  const double lambda = schedule_->at(t.value - 1);
  state_ = trim_value(states, f_) - lambda * trim_value(gradients, f_);
}

void GraphScenario::validate() const {
  const std::size_t n = topology.n();
  FTMAO_EXPECTS(n > 3 * f);
  FTMAO_EXPECTS(faulty.size() <= f);
  FTMAO_EXPECTS(functions.size() == n);
  FTMAO_EXPECTS(initial_states.size() == n);
  FTMAO_EXPECTS(rounds >= 1);
  FTMAO_EXPECTS(topology.supports_trim(f));
  for (std::size_t i : faulty) FTMAO_EXPECTS(i < n);
  // The consistency restriction (baseline/consistent.hpp) is modelled
  // for synchronous rounds on the complete network only, so a consistent
  // attack is refused here although make_adversary would wrap it.
  FTMAO_EXPECTS(!attack.consistent);
}

GraphRunMetrics run_graph_sbg(const GraphScenario& scenario) {
  scenario.validate();
  const std::size_t n = scenario.topology.n();
  const std::unique_ptr<StepSchedule> schedule = make_schedule(scenario.step);

  auto is_faulty = [&](std::size_t i) {
    return std::find(scenario.faulty.begin(), scenario.faulty.end(), i) !=
           scenario.faulty.end();
  };

  std::vector<ScalarFunctionPtr> honest_fns;
  for (std::size_t i = 0; i < n; ++i)
    if (!is_faulty(i)) honest_fns.push_back(scenario.functions[i]);
  const ValidFamily family(honest_fns, scenario.f);

  SyncEngine<SbgPayload> engine;
  // The topology gates all deliveries, honest and Byzantine alike.
  const Topology& topo = scenario.topology;
  engine.set_delivery_filter([&topo](AgentId from, AgentId to, Round) {
    return topo.has_edge(from.value, to.value);
  });

  std::vector<std::unique_ptr<GraphSbgAgent>> agents;
  std::vector<std::unique_ptr<SbgAdversary>> adversaries;
  Rng rng(scenario.seed);
  for (std::size_t i = 0; i < n; ++i) {
    const AgentId id{static_cast<std::uint32_t>(i)};
    if (is_faulty(i)) {
      adversaries.push_back(
          make_adversary(scenario.attack, rng.substream("adversary", i)));
      engine.add_byzantine(id, adversaries.back().get());
    } else {
      agents.push_back(std::make_unique<GraphSbgAgent>(
          id, scenario.functions[i], scenario.initial_states[i], *schedule,
          scenario.topology.in_degree(i), scenario.f));
      engine.add_honest(id, agents.back().get());
    }
  }

  GraphRunMetrics metrics;
  metrics.optima = family.optima_set();
  auto record = [&] {
    double lo = agents.front()->state();
    double hi = lo;
    double dist = 0.0;
    for (const auto& a : agents) {
      lo = std::min(lo, a->state());
      hi = std::max(hi, a->state());
      dist = std::max(dist, family.distance_to_optima(a->state()));
    }
    metrics.disagreement.push(hi - lo);
    metrics.max_dist_to_y.push(dist);
  };
  record();
  for (std::size_t t = 1; t <= scenario.rounds; ++t) {
    engine.run_round(Round{static_cast<std::uint32_t>(t)});
    record();
  }
  for (const auto& a : agents) metrics.final_states.push_back(a->state());
  return metrics;
}

}  // namespace ftmao
