#include "baseline/consistent.hpp"

#include "common/contracts.hpp"

namespace ftmao {

ConsistentWrapper::ConsistentWrapper(SbgAdversary& inner) : inner_(&inner) {}

std::optional<SbgPayload> ConsistentWrapper::send_to(
    AgentId self, AgentId recipient, const RoundView<SbgPayload>& view) {
  if (!round_valid_ || round_ != view.round) {
    round_payload_ = inner_->send_to(self, recipient, view);
    round_ = view.round;
    round_valid_ = true;
  }
  return round_payload_;
}

RecipientClass ConsistentWrapper::recipient_class(AgentId recipient) const {
  return inner_->recipient_class(recipient) == kPerMessage ? kPerMessage : 0;
}

std::optional<SbgPayload> ConsistentWrapper::summary_payload(
    const HonestSummary& summary, Round round, AgentId recipient) {
  return inner_->summary_payload(summary, round, recipient);
}

}  // namespace ftmao
