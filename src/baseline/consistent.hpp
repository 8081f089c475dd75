#pragma once

// Reliable-broadcast simulation (the centralized-equivalent approach of
// Su-Vaidya ACC'16 [26], discussed after Theorem 2): if every message is
// sent via Byzantine reliable broadcast, a faulty agent can no longer send
// different values to different honest agents. ConsistentWrapper enforces
// exactly that guarantee on any adversary: the wrapped strategy is
// consulted once per round and its answer is replayed verbatim to every
// recipient. make_adversary (sim/scenario.hpp) wraps its strategy when
// AttackConfig::consistent is set. Under this restriction the honest
// states acquire a limit (instead of merely consensus-in-the-limit) —
// exercised by tests/E-series.

#include <memory>
#include <optional>

#include "adversary/strategies.hpp"

namespace ftmao {

class ConsistentWrapper final : public SbgAdversary {
 public:
  explicit ConsistentWrapper(std::unique_ptr<SbgAdversary> inner);

  /// Class 0: one answer per round reaches everyone. Per-message when the
  /// inner strategy is, since the replayed answer then comes from the
  /// inner strategy's own RNG stream and so differs between senders.
  RecipientClass recipient_class(AgentId recipient) const override;
  /// The inner strategy's summary payload for the round's first
  /// recipient, replayed to the round's other recipients.
  std::optional<SbgPayload> summary_payload(const HonestSummary& summary,
                                            Round round,
                                            AgentId recipient) override;

 private:
  std::unique_ptr<SbgAdversary> inner_;
  std::optional<Round> answered_;     ///< round of answer_
  std::optional<SbgPayload> answer_;  ///< that round's answer
};

}  // namespace ftmao
