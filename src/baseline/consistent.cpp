#include "baseline/consistent.hpp"

#include "common/contracts.hpp"

namespace ftmao {

ConsistentWrapper::ConsistentWrapper(SbgAdversary& inner) : inner_(&inner) {}

std::optional<SbgPayload> ConsistentWrapper::send_to(
    AgentId self, AgentId recipient, const RoundView<SbgPayload>& view) {
  if (!round_.fresh(view.round)) return round_.get();
  return round_.store(view.round, inner_->send_to(self, recipient, view));
}

RecipientClass ConsistentWrapper::recipient_class(AgentId recipient) const {
  return inner_->recipient_class(recipient) == kPerMessage ? kPerMessage : 0;
}

std::optional<SbgPayload> ConsistentWrapper::summary_payload(
    const HonestSummary& summary, Round round, AgentId recipient) {
  if (!round_.fresh(round)) return round_.get();
  return round_.store(round,
                      inner_->summary_payload(summary, round, recipient));
}

}  // namespace ftmao
