#include "baseline/consistent.hpp"

#include <utility>

#include "common/contracts.hpp"

namespace ftmao {

ConsistentWrapper::ConsistentWrapper(std::unique_ptr<SbgAdversary> inner)
    : inner_(std::move(inner)) {
  FTMAO_EXPECTS(inner_ != nullptr);
}

RecipientClass ConsistentWrapper::recipient_class(AgentId recipient) const {
  return inner_->recipient_class(recipient) == kPerMessage ? kPerMessage : 0;
}

std::optional<SbgPayload> ConsistentWrapper::summary_payload(
    const HonestSummary& summary, Round round, AgentId recipient) {
  if (answered_ != round) {
    answer_ = inner_->summary_payload(summary, round, recipient);
    answered_ = round;
  }
  return answer_;
}

}  // namespace ftmao
