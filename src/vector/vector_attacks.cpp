#include "vector/vector_attacks.hpp"

#include <utility>

#include "common/contracts.hpp"

namespace ftmao {

// ------------------------------------------------------ Coordinatewise

CoordinatewiseAdversary::CoordinatewiseAdversary(
    std::unique_ptr<SbgAdversary> scalar, bool negate_odd)
    : scalar_(std::move(scalar)), negate_odd_(negate_odd) {
  FTMAO_EXPECTS(scalar_ != nullptr);
  FTMAO_EXPECTS(scalar_->recipient_class(AgentId{0}) != kPerMessage);
}

std::optional<VecPayload> CoordinatewiseAdversary::send_to(
    AgentId, AgentId recipient, const RoundView<VecPayload>& view) {
  const auto& msgs = view.honest_broadcasts;
  if (summarized_ != view.round.value) {
    summarized_ = view.round.value;
    summaries_.clear();
    const std::size_t d = msgs.empty() ? 0 : msgs[0].payload.state.dim();
    std::vector<Received<SbgPayload>> coordinate(msgs.size());
    for (std::size_t k = 0; k < d; ++k) {
      for (std::size_t j = 0; j < msgs.size(); ++j)
        coordinate[j] = {msgs[j].from, {msgs[j].payload.state[k],
                                        msgs[j].payload.gradient[k]}};
      summaries_.push_back(HonestSummary::of({view.round, coordinate}));
    }
  }
  return summary_payload(summaries_, view.round, recipient);
}

std::optional<VecPayload> CoordinatewiseAdversary::summary_payload(
    std::span<const HonestSummary> summaries, Round round,
    AgentId recipient) {
  if (summaries.empty() || summaries.front().count == 0) return std::nullopt;
  const std::size_t d = summaries.size();
  VecPayload p{Vec(d), Vec(d)};
  for (std::size_t k = 0; k < d; ++k) {
    const std::optional<SbgPayload> c =
        scalar_->summary_payload(summaries[k], round, recipient);
    if (!c) return std::nullopt;
    const bool negate = negate_odd_ && k % 2 == 1;
    p.state[k] = negate ? -c->state : c->state;
    p.gradient[k] = negate ? -c->gradient : c->gradient;
  }
  return p;
}

// ---------------------------------------------------------- RandomNoise

VectorRandomNoise::VectorRandomNoise(Rng rng, std::size_t dim,
                                     double state_range, double gradient_range)
    : rng_(rng),
      dim_(dim),
      state_range_(state_range),
      gradient_range_(gradient_range) {
  FTMAO_EXPECTS(dim >= 1);
  FTMAO_EXPECTS(state_range >= 0.0);
  FTMAO_EXPECTS(gradient_range >= 0.0);
}

std::optional<VecPayload> VectorRandomNoise::send_to(
    AgentId, AgentId recipient, const RoundView<VecPayload>& view) {
  return summary_payload({}, view.round, recipient);
}

std::optional<VecPayload> VectorRandomNoise::summary_payload(
    std::span<const HonestSummary>, Round, AgentId) {
  VecPayload p{Vec(dim_), Vec(dim_)};
  for (std::size_t k = 0; k < dim_; ++k)
    p.state[k] = rng_.uniform(-state_range_, state_range_);
  for (std::size_t k = 0; k < dim_; ++k)
    p.gradient[k] = rng_.uniform(-gradient_range_, gradient_range_);
  return p;
}

}  // namespace ftmao
