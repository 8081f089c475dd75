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
//
// Both classes implement only summary_payload. VectorAdversary::send_to
// (vector/vector_sbg.hpp) summarizes each coordinate of the round view
// once per round and asks it, as the batch engine asks it with the
// summaries of its own selected rows.

#include <memory>
#include <optional>
#include <span>

#include "adversary/strategies.hpp"
#include "common/rng.hpp"
#include "vector/vector_sbg.hpp"

namespace ftmao {

/// A class-declaring scalar strategy applied to every coordinate: it is
/// asked summary_payload with that coordinate's summary. An empty view
/// gives no payload.
class CoordinatewiseAdversary final : public VectorAdversary {
 public:
  CoordinatewiseAdversary(std::unique_ptr<SbgAdversary> scalar,
                          bool negate_odd);
  RecipientClass recipient_class(AgentId recipient) const override {
    return scalar_->recipient_class(recipient);
  }
  std::optional<VecPayload> summary_payload(
      std::span<const HonestSummary> summaries, Round round,
      AgentId recipient) override;

 private:
  std::unique_ptr<SbgAdversary> scalar_;
  bool negate_odd_;
};

/// Independent uniform noise per (recipient, round, coordinate);
/// deterministic per seed. Draws all state coordinates, then all
/// gradient coordinates (dim == 1 reproduces the scalar draw order).
/// Never reads the summaries.
class VectorRandomNoise final : public VectorAdversary {
 public:
  VectorRandomNoise(Rng rng, std::size_t dim, double state_range,
                    double gradient_range);
  std::optional<VecPayload> summary_payload(std::span<const HonestSummary>,
                                            Round, AgentId) override;

 private:
  Rng rng_;
  std::size_t dim_;
  double state_range_;
  double gradient_range_;
};

}  // namespace ftmao
