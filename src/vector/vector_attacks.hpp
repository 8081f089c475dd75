#pragma once

// Coordinate-wise liftings of the scalar Byzantine strategies
// (adversary/strategies.hpp) to the vector algorithm: each strategy
// applies the scalar payload derivation to every coordinate of the
// honest broadcasts independently, so at dim == 1 every lifting is
// bit-identical to its scalar counterpart (the d=1 collapse the batched
// vector engine's tests pin).
//
// View-derived strategies (hull-edge, sign-flip, pull-to-target,
// flip-flop, the dormant phase of delayed activation) are recipient-
// independent and memoize the whole d-dimensional payload per round via
// BasicRoundPayloadCache<VecPayload> — one derivation per round, replayed
// for the other n-1 recipients, exactly like the scalar
// RoundPayloadCache. Recipient-dependent (split-brain) and stateful
// (random-noise) strategies are never cached. Each lifting declares the
// recipient classes of its scalar counterpart.

#include <memory>
#include <optional>

#include "adversary/strategies.hpp"
#include "common/rng.hpp"
#include "vector/vector_sbg.hpp"

namespace ftmao {

using VecPayloadCache = BasicRoundPayloadCache<VecPayload>;

/// Omission in every coordinate: recipients substitute the default tuple.
class VectorSilent final : public VectorAdversary {
 public:
  std::optional<VecPayload> send_to(AgentId, AgentId,
                                    const RoundView<VecPayload>&) override;
  RecipientClass recipient_class(AgentId) const override { return 0; }
};

/// The same fixed tuple to everyone, every round; the per-coordinate sign
/// alternates like VectorSplitBrain's so the payload is not a scaled
/// all-ones vector (dim == 1 matches the scalar FixedValueAdversary).
class VectorFixedValue final : public VectorAdversary {
 public:
  VectorFixedValue(std::size_t dim, double state_magnitude,
                   double gradient_magnitude);
  std::optional<VecPayload> send_to(AgentId, AgentId,
                                    const RoundView<VecPayload>&) override;
  RecipientClass recipient_class(AgentId) const override { return 0; }

 private:
  VecPayload payload_;
};

/// Per-coordinate hull edge: the extreme honest state paired with the
/// opposite-extreme honest gradient, coordinate by coordinate. Cached.
class VectorHullEdge final : public VectorAdversary {
 public:
  explicit VectorHullEdge(bool push_up);
  std::optional<VecPayload> send_to(AgentId, AgentId,
                                    const RoundView<VecPayload>&) override;
  RecipientClass recipient_class(AgentId) const override { return 0; }

 private:
  bool push_up_;
  VecPayloadCache cache_;
};

/// Independent uniform noise per (recipient, round, coordinate);
/// deterministic per seed. Draws all state coordinates, then all
/// gradient coordinates (dim == 1 reproduces the scalar draw order).
class VectorRandomNoise final : public VectorAdversary {
 public:
  VectorRandomNoise(Rng rng, std::size_t dim, double state_range,
                    double gradient_range);
  std::optional<VecPayload> send_to(AgentId, AgentId,
                                    const RoundView<VecPayload>&) override;

 private:
  Rng rng_;
  std::size_t dim_;
  double state_range_;
  double gradient_range_;
};

/// Median honest state, negated+amplified mean honest gradient, per
/// coordinate. Cached.
class VectorSignFlip final : public VectorAdversary {
 public:
  explicit VectorSignFlip(double amplification);
  std::optional<VecPayload> send_to(AgentId, AgentId,
                                    const RoundView<VecPayload>&) override;
  RecipientClass recipient_class(AgentId) const override { return 0; }

 private:
  double amplification_;
  VecPayloadCache cache_;
};

/// Drags every coordinate toward the scalar `target` value: states at the
/// target, gradients pointing from the per-coordinate honest median
/// toward it. Cached.
class VectorPullToTarget final : public VectorAdversary {
 public:
  VectorPullToTarget(double target, double gradient_magnitude);
  std::optional<VecPayload> send_to(AgentId, AgentId,
                                    const RoundView<VecPayload>&) override;
  RecipientClass recipient_class(AgentId) const override { return 0; }

 private:
  double target_;
  double gradient_magnitude_;
  VecPayloadCache cache_;
};

/// Sleeper: per-coordinate honest medians (a perfectly plausible agent)
/// until `activation_round`, then the owned late strategy.
class VectorDelayedActivation final : public VectorAdversary {
 public:
  VectorDelayedActivation(Round activation_round,
                          std::unique_ptr<VectorAdversary> late_strategy);
  std::optional<VecPayload> send_to(AgentId self, AgentId recipient,
                                    const RoundView<VecPayload>& view) override;
  /// The late strategy's classes (the dormant payload is recipient-
  /// independent).
  RecipientClass recipient_class(AgentId recipient) const override {
    return late_->recipient_class(recipient);
  }

 private:
  Round activation_;
  std::unique_ptr<VectorAdversary> late_;
  VecPayloadCache dormant_cache_;  ///< active phase delegates uncached
};

/// Oscillator: alternates the per-coordinate extreme-high and extreme-low
/// honest tuple each `period` rounds. Cached.
class VectorFlipFlop final : public VectorAdversary {
 public:
  explicit VectorFlipFlop(std::size_t period = 1);
  std::optional<VecPayload> send_to(AgentId, AgentId,
                                    const RoundView<VecPayload>&) override;
  RecipientClass recipient_class(AgentId) const override { return 0; }

 private:
  std::size_t period_;
  VecPayloadCache cache_;
};

}  // namespace ftmao
