#pragma once

// Reliable-broadcast simulation (the centralized-equivalent approach of
// Su-Vaidya ACC'16 [26], discussed after Theorem 2): if every message is
// sent via Byzantine reliable broadcast, a faulty agent can no longer send
// different values to different honest agents. ConsistentWrapper enforces
// exactly that guarantee on any adversary: the wrapped strategy is
// consulted once per round and its answer is replayed verbatim to every
// recipient. Under this restriction the honest states acquire a limit
// (instead of merely consensus-in-the-limit) — exercised by tests/E-series.

#include <optional>

#include "adversary/strategies.hpp"

namespace ftmao {

class ConsistentWrapper final : public SbgAdversary {
 public:
  /// Does not own `inner`; caller keeps it alive.
  explicit ConsistentWrapper(SbgAdversary& inner);

  std::optional<SbgPayload> send_to(AgentId self, AgentId recipient,
                                    const RoundView<SbgPayload>& view) override;
  /// Class 0: one answer per round reaches everyone. Per-message when the
  /// inner strategy is, since the replayed answer then comes from the
  /// inner strategy's own RNG stream and so differs between senders.
  RecipientClass recipient_class(AgentId recipient) const override;
  /// As send_to: the inner strategy's summary payload for the round's
  /// first recipient, replayed to the round's other recipients.
  std::optional<SbgPayload> summary_payload(const HonestSummary& summary,
                                            Round round,
                                            AgentId recipient) override;

 private:
  SbgAdversary* inner_;
  RoundPayloadCache round_;  ///< this round's answer
};

}  // namespace ftmao
