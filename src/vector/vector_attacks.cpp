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
