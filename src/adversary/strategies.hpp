#pragma once

// Byzantine strategies against SBG. Each one exploits a different weakness
// an unprotected algorithm would have:
//
//   Silent            omission; recipients substitute the default tuple
//   FixedValue        consistent extreme values (classic outlier)
//   SplitBrain        inconsistent per-recipient values — the duplicitous
//                     behaviour the paper stresses SBG must survive
//   HullEdge          collude at the honest extremes so trimming cannot
//                     discard them as outliers (they are never outside the
//                     honest range) — maximally biases the trim midpoint
//   RandomNoise       seeded random garbage, fresh per recipient
//   SignFlip          plausible states, inverted+amplified gradients (the
//                     gradient-poisoning attack from Byzantine ML)
//   PullToTarget      adaptive: fabricates tuples that drag the system
//                     toward an attacker-chosen point
//
// A strategy answers one question, summary_payload: its payload for one
// recipient given the HonestSummary of the round's honest broadcasts.
// Every strategy reads the round view only through that summary, and
// RandomNoise never reads it. The engines' question, send_to, is written
// once in SbgAdversary on top of it, and the batch engines ask
// summary_payload directly with summaries of their own selected rows.
// Each strategy also declares its recipient classes (net/batch.hpp):
// class 0 for the strategies that send everyone one payload, recipient
// parity for SplitBrain, kPerMessage for RandomNoise. The vector
// catalogue (vector/vector_attacks.hpp) asks summary_payload once per
// coordinate.

#include <memory>
#include <optional>

#include "common/rng.hpp"
#include "core/payload.hpp"
#include "net/batch.hpp"
#include "net/sync.hpp"

namespace ftmao {

/// The order statistics and mean of one round's honest broadcasts that
/// the catalogue's view-reading strategies use. of() computes them with
/// the scalar operations those strategies always used, so send_to keeps
/// its bits: min/max as std::min/std::max folds from the first
/// broadcast, the median as nth_element at rank count/2, the mean as a
/// sum in sender order divided by the count. The batch engines fill the
/// same fields from selected order statistics, which can differ from
/// these in the sign of a zero and nothing else (see summary_payload).
struct HonestSummary {
  struct Stats {
    double min = 0.0;
    double median = 0.0;
    double max = 0.0;
  };
  std::size_t count = 0;  ///< honest broadcasts; the rest is unset if 0
  Stats state;
  Stats gradient;
  double gradient_mean = 0.0;

  static HonestSummary of(const RoundView<SbgPayload>& view);
};

/// Common base of the catalogue: a strategy implements summary_payload,
/// and the engines ask send_to.
class SbgAdversary : public ByzantineNode<SbgPayload> {
 public:
  /// summary_payload(HonestSummary::of(view), view.round, recipient).
  /// The summary is computed at the first call of a round and reused for
  /// the round's other recipients: the scalar and async engines hold the
  /// view fixed while they ask a round's messages.
  std::optional<SbgPayload> send_to(AgentId self, AgentId recipient,
                                    const RoundView<SbgPayload>& view) final;

  /// Which recipients share a payload, independent of the round; see
  /// RecipientClass for the promise a class id makes. The default,
  /// kPerMessage, promises nothing. Only the batch engines ask.
  virtual RecipientClass recipient_class(AgentId /*recipient*/) const {
    return kPerMessage;
  }

  /// The payload `recipient` gets in round `round` when the round's view
  /// has HonestSummary::of(view) == `summary`. send_to asks it once per
  /// message; the batch engines ask it once per (replica, class), or once
  /// per message in the scalar engine's order for a kPerMessage strategy.
  /// Their summaries' order statistics may hold the other zero than
  /// of()'s. So the sign of a zero in `summary` may reach the answer only
  /// as a payload value passed on unchanged: a payload reaches the state
  /// only through a Trim midpoint, which has the same bits for either
  /// zero.
  virtual std::optional<SbgPayload> summary_payload(
      const HonestSummary& summary, Round round, AgentId recipient) = 0;

 private:
  std::optional<Round> summarized_;  ///< round of summary_
  HonestSummary summary_;
};

/// Sends nothing; honest agents fall back to the default tuple (Step 2).
class SilentAdversary final : public SbgAdversary {
 public:
  RecipientClass recipient_class(AgentId) const override { return 0; }
  std::optional<SbgPayload> summary_payload(const HonestSummary&, Round,
                                            AgentId) override;
};

/// Sends the same fixed tuple to everyone, every round.
class FixedValueAdversary final : public SbgAdversary {
 public:
  explicit FixedValueAdversary(SbgPayload payload);
  RecipientClass recipient_class(AgentId) const override { return 0; }
  std::optional<SbgPayload> summary_payload(const HonestSummary&, Round,
                                            AgentId) override;

 private:
  SbgPayload payload_;
};

/// Sends (+magnitude, +gradient_magnitude) to even-id recipients and the
/// negation to odd-id recipients: different agents see contradictory
/// worlds.
class SplitBrainAdversary final : public SbgAdversary {
 public:
  SplitBrainAdversary(double state_magnitude, double gradient_magnitude);
  RecipientClass recipient_class(AgentId recipient) const override {
    return recipient.value % 2;
  }
  std::optional<SbgPayload> summary_payload(const HonestSummary&, Round,
                                            AgentId recipient) override;

 private:
  double state_magnitude_;
  double gradient_magnitude_;
};

/// Observes the honest broadcasts and sends the extreme honest values
/// that coherently bias the trajectory: push_up pairs the max honest
/// state with the MIN honest gradient (a low gradient drags updates
/// upward), push_down the reverse. Because the values stay inside the
/// honest range, trimming can never identify them as outliers; this is
/// the optimal-bias strategy against trim-midpoint.
class HullEdgeAdversary final : public SbgAdversary {
 public:
  explicit HullEdgeAdversary(bool push_up);
  RecipientClass recipient_class(AgentId) const override { return 0; }
  std::optional<SbgPayload> summary_payload(const HonestSummary& summary,
                                            Round round, AgentId) override;

 private:
  bool push_up_;
};

/// Independent uniform noise per (recipient, round); deterministic per
/// seed. Never reads the summary: one state draw then one gradient draw
/// per call.
class RandomNoiseAdversary final : public SbgAdversary {
 public:
  RandomNoiseAdversary(Rng rng, double state_range, double gradient_range);
  std::optional<SbgPayload> summary_payload(const HonestSummary&, Round,
                                            AgentId) override;

 private:
  Rng rng_;
  double state_range_;
  double gradient_range_;
};

/// Echoes the median honest state (looks perfectly plausible) but sends
/// the negated mean honest gradient scaled by `amplification`.
class SignFlipAdversary final : public SbgAdversary {
 public:
  explicit SignFlipAdversary(double amplification);
  RecipientClass recipient_class(AgentId) const override { return 0; }
  std::optional<SbgPayload> summary_payload(const HonestSummary& summary,
                                            Round round, AgentId) override;

 private:
  double amplification_;
};

/// Drags the system toward `target`: states at the target, gradients of
/// magnitude `gradient_magnitude` pointing from the honest median toward
/// the target.
class PullToTargetAdversary final : public SbgAdversary {
 public:
  PullToTargetAdversary(double target, double gradient_magnitude);
  RecipientClass recipient_class(AgentId) const override { return 0; }
  std::optional<SbgPayload> summary_payload(const HonestSummary& summary,
                                            Round round, AgentId) override;

 private:
  double target_;
  double gradient_magnitude_;
};

/// Sleeper: behaves exactly like an honest median agent until
/// `activation_round`, then switches to the wrapped strategy. Probes
/// whether late activation (after trust/consensus built up) gains the
/// adversary anything — it must not, since SBG is memoryless.
class DelayedActivationAdversary final : public SbgAdversary {
 public:
  DelayedActivationAdversary(Round activation_round,
                             std::unique_ptr<SbgAdversary> late_strategy);
  /// The late strategy's classes: the dormant payload is the same for
  /// every recipient, so any partition holds before activation.
  RecipientClass recipient_class(AgentId recipient) const override {
    return late_->recipient_class(recipient);
  }
  std::optional<SbgPayload> summary_payload(const HonestSummary& summary,
                                            Round round,
                                            AgentId recipient) override;

 private:
  Round activation_;
  std::unique_ptr<SbgAdversary> late_;
};

/// Oscillator: alternates between pushing the extreme high and extreme low
/// honest tuple each round (a resonance attempt against the diminishing
/// step sizes).
class FlipFlopAdversary final : public SbgAdversary {
 public:
  FlipFlopAdversary(std::size_t period = 1);
  RecipientClass recipient_class(AgentId) const override { return 0; }
  std::optional<SbgPayload> summary_payload(const HonestSummary& summary,
                                            Round round, AgentId) override;

 private:
  std::size_t period_;
};

}  // namespace ftmao
