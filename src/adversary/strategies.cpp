#include "adversary/strategies.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/contracts.hpp"

namespace ftmao {

namespace {

// The rank-count/2 element, as nth_element leaves it. `scratch` is
// reordered.
double median_of(std::vector<double>& scratch) {
  FTMAO_EXPECTS(!scratch.empty());
  const auto mid =
      scratch.begin() + static_cast<std::ptrdiff_t>(scratch.size() / 2);
  std::nth_element(scratch.begin(), mid, scratch.end());
  return *mid;
}

}  // namespace

HonestSummary HonestSummary::of(const RoundView<SbgPayload>& view) {
  const auto& msgs = view.honest_broadcasts;
  HonestSummary s;
  s.count = msgs.size();
  if (msgs.empty()) return s;
  s.state.min = s.state.max = msgs.front().payload.state;
  s.gradient.min = s.gradient.max = msgs.front().payload.gradient;
  for (const auto& msg : msgs) {
    s.state.min = std::min(s.state.min, msg.payload.state);
    s.state.max = std::max(s.state.max, msg.payload.state);
    s.gradient.min = std::min(s.gradient.min, msg.payload.gradient);
    s.gradient.max = std::max(s.gradient.max, msg.payload.gradient);
    s.gradient_mean += msg.payload.gradient;
  }
  s.gradient_mean /= static_cast<double>(msgs.size());
  std::vector<double> scratch;
  scratch.reserve(msgs.size());
  for (const auto& msg : msgs) scratch.push_back(msg.payload.state);
  s.state.median = median_of(scratch);
  scratch.clear();
  for (const auto& msg : msgs) scratch.push_back(msg.payload.gradient);
  s.gradient.median = median_of(scratch);
  return s;
}

std::optional<SbgPayload> SbgAdversary::send_to(
    AgentId, AgentId recipient, const RoundView<SbgPayload>& view) {
  if (summarized_ != view.round) {
    summary_ = HonestSummary::of(view);
    summarized_ = view.round;
  }
  return summary_payload(summary_, view.round, recipient);
}

// --------------------------------------------------------------- Silent

std::optional<SbgPayload> SilentAdversary::summary_payload(const HonestSummary&,
                                                           Round, AgentId) {
  return std::nullopt;
}

// ----------------------------------------------------------- FixedValue

FixedValueAdversary::FixedValueAdversary(SbgPayload payload)
    : payload_(payload) {}

std::optional<SbgPayload> FixedValueAdversary::summary_payload(
    const HonestSummary&, Round, AgentId) {
  return payload_;
}

// ----------------------------------------------------------- SplitBrain

SplitBrainAdversary::SplitBrainAdversary(double state_magnitude,
                                         double gradient_magnitude)
    : state_magnitude_(state_magnitude),
      gradient_magnitude_(gradient_magnitude) {
  FTMAO_EXPECTS(state_magnitude >= 0.0);
  FTMAO_EXPECTS(gradient_magnitude >= 0.0);
}

std::optional<SbgPayload> SplitBrainAdversary::summary_payload(
    const HonestSummary&, Round, AgentId recipient) {
  const double sign = (recipient.value % 2 == 0) ? 1.0 : -1.0;
  return SbgPayload{sign * state_magnitude_, sign * gradient_magnitude_};
}

// ------------------------------------------------------------- HullEdge

HullEdgeAdversary::HullEdgeAdversary(bool push_up) : push_up_(push_up) {}

std::optional<SbgPayload> HullEdgeAdversary::summary_payload(
    const HonestSummary& summary, Round, AgentId) {
  if (summary.count == 0) return std::nullopt;
  // High state + low gradient both pull the update x~ - lambda*g~ up.
  if (push_up_) return SbgPayload{summary.state.max, summary.gradient.min};
  return SbgPayload{summary.state.min, summary.gradient.max};
}

// ---------------------------------------------------------- RandomNoise

RandomNoiseAdversary::RandomNoiseAdversary(Rng rng, double state_range,
                                           double gradient_range)
    : rng_(rng), state_range_(state_range), gradient_range_(gradient_range) {
  FTMAO_EXPECTS(state_range >= 0.0);
  FTMAO_EXPECTS(gradient_range >= 0.0);
}

std::optional<SbgPayload> RandomNoiseAdversary::summary_payload(
    const HonestSummary&, Round, AgentId) {
  return SbgPayload{rng_.uniform(-state_range_, state_range_),
                    rng_.uniform(-gradient_range_, gradient_range_)};
}

// ------------------------------------------------------------- SignFlip

SignFlipAdversary::SignFlipAdversary(double amplification)
    : amplification_(amplification) {
  FTMAO_EXPECTS(amplification > 0.0);
}

std::optional<SbgPayload> SignFlipAdversary::summary_payload(
    const HonestSummary& summary, Round, AgentId) {
  if (summary.count == 0) return std::nullopt;
  return SbgPayload{summary.state.median,
                    -amplification_ * summary.gradient_mean};
}

// --------------------------------------------------------- PullToTarget

PullToTargetAdversary::PullToTargetAdversary(double target,
                                             double gradient_magnitude)
    : target_(target), gradient_magnitude_(gradient_magnitude) {
  FTMAO_EXPECTS(gradient_magnitude >= 0.0);
}

std::optional<SbgPayload> PullToTargetAdversary::summary_payload(
    const HonestSummary& summary, Round, AgentId) {
  if (summary.count == 0) return SbgPayload{target_, 0.0};
  // A positive reported gradient pushes recipients' states down; point the
  // fake gradient from the honest median toward the target.
  const double direction = summary.state.median > target_ ? 1.0 : -1.0;
  return SbgPayload{target_, direction * gradient_magnitude_};
}

// ---------------------------------------------------- DelayedActivation

DelayedActivationAdversary::DelayedActivationAdversary(
    Round activation_round, std::unique_ptr<SbgAdversary> late_strategy)
    : activation_(activation_round), late_(std::move(late_strategy)) {
  FTMAO_EXPECTS(late_ != nullptr);
}

std::optional<SbgPayload> DelayedActivationAdversary::summary_payload(
    const HonestSummary& summary, Round round, AgentId recipient) {
  if (round >= activation_)
    return late_->summary_payload(summary, round, recipient);
  // Dormant phase: mimic a perfectly plausible honest agent (median state,
  // median gradient of the honest broadcasts).
  if (summary.count == 0) return std::nullopt;
  return SbgPayload{summary.state.median, summary.gradient.median};
}

// ------------------------------------------------------------- FlipFlop

FlipFlopAdversary::FlipFlopAdversary(std::size_t period) : period_(period) {
  FTMAO_EXPECTS(period >= 1);
}

std::optional<SbgPayload> FlipFlopAdversary::summary_payload(
    const HonestSummary& summary, Round round, AgentId) {
  if (summary.count == 0) return std::nullopt;
  const bool high = (round.value / period_) % 2 == 0;
  if (high) return SbgPayload{summary.state.max, summary.gradient.min};
  return SbgPayload{summary.state.min, summary.gradient.max};
}

}  // namespace ftmao
