#pragma once

// The vector algorithm's Byzantine catalogue: the scalar strategies
// (adversary/strategies.hpp) lifted per coordinate. Coordinate k of a
// lifted payload is the scalar strategy's summary_payload for the
// HonestSummary of coordinate k of the honest broadcasts, so at
// dim == 1 a lifting is its scalar strategy by construction, recipient
// classes included. The one rule the lifting adds: fixed-value and
// split-brain negate odd coordinates, so their payload is not a scaled
// all-ones vector.
//
// Random noise stays its own class: it is asked per message and draws
// all state coordinates before all gradient coordinates, an order no
// per-coordinate call of the scalar noise reproduces.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "adversary/strategies.hpp"
#include "common/rng.hpp"
#include "vector/vector_sbg.hpp"

namespace ftmao {

/// A class-declaring scalar strategy applied to every coordinate; it is
/// asked only through summary_payload. send_to summarizes each
/// coordinate of the view once per round. An empty view gives no
/// payload.
class CoordinatewiseAdversary final : public VectorAdversary {
 public:
  CoordinatewiseAdversary(std::unique_ptr<SbgAdversary> scalar,
                          bool negate_odd);
  std::optional<VecPayload> send_to(AgentId self, AgentId recipient,
                                    const RoundView<VecPayload>& view) override;
  RecipientClass recipient_class(AgentId recipient) const override {
    return scalar_->recipient_class(recipient);
  }
  std::optional<VecPayload> summary_payload(
      std::span<const HonestSummary> summaries, Round round,
      AgentId recipient) override;

 private:
  std::unique_ptr<SbgAdversary> scalar_;
  bool negate_odd_;
  std::optional<std::uint32_t> summarized_;  ///< round of summaries_
  std::vector<HonestSummary> summaries_;     ///< one per coordinate
};

/// Independent uniform noise per (recipient, round, coordinate);
/// deterministic per seed. Draws all state coordinates, then all
/// gradient coordinates (dim == 1 reproduces the scalar draw order).
/// Never reads the view: send_to is summary_payload.
class VectorRandomNoise final : public VectorAdversary {
 public:
  VectorRandomNoise(Rng rng, std::size_t dim, double state_range,
                    double gradient_range);
  std::optional<VecPayload> send_to(AgentId, AgentId recipient,
                                    const RoundView<VecPayload>& view) override;
  std::optional<VecPayload> summary_payload(std::span<const HonestSummary>,
                                            Round, AgentId) override;

 private:
  Rng rng_;
  std::size_t dim_;
  double state_range_;
  double gradient_range_;
};

}  // namespace ftmao
