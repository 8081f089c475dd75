#include "sim/scenario.hpp"

#include <algorithm>
#include <utility>

#include "baseline/consistent.hpp"
#include "common/contracts.hpp"
#include "func/library.hpp"

namespace ftmao {

std::vector<ScalarFunctionPtr> Scenario::honest_functions() const {
  std::vector<ScalarFunctionPtr> out;
  out.reserve(n - faulty.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!is_faulty(i) && !is_crashed(i)) out.push_back(functions[i]);
  }
  return out;
}

std::vector<std::size_t> Scenario::honest_indices() const {
  std::vector<std::size_t> out;
  out.reserve(n - faulty.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!is_faulty(i) && !is_crashed(i)) out.push_back(i);
  }
  return out;
}

bool Scenario::is_crashed(std::size_t agent) const {
  for (const auto& [who, when] : crashes) {
    if (who == agent) return true;
  }
  return false;
}

bool Scenario::is_faulty(std::size_t agent) const {
  return std::find(faulty.begin(), faulty.end(), agent) != faulty.end();
}

void Scenario::validate() const {
  FTMAO_EXPECTS(n > 3 * f);
  FTMAO_EXPECTS(faulty.size() <= f);
  FTMAO_EXPECTS(functions.size() == n);
  FTMAO_EXPECTS(initial_states.size() == n);
  FTMAO_EXPECTS(rounds >= 1);
  FTMAO_EXPECTS(drop_probability >= 0.0 && drop_probability < 1.0);
  FTMAO_EXPECTS(faulty.size() + crashes.size() <= f);
  for (const auto& [who, when] : crashes) {
    FTMAO_EXPECTS(who < n);
    FTMAO_EXPECTS(when >= 1);
    FTMAO_EXPECTS(!is_faulty(who));  // crash and Byzantine are exclusive
  }
  for (std::size_t i : faulty) FTMAO_EXPECTS(i < n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!is_faulty(i)) FTMAO_EXPECTS(functions[i] != nullptr);
  }
}

std::unique_ptr<StepSchedule> make_schedule(const StepConfig& config) {
  switch (config.kind) {
    case StepKind::Harmonic:
      return std::make_unique<HarmonicStep>(config.scale);
    case StepKind::Power:
      return std::make_unique<PowerStep>(config.scale, config.exponent);
    case StepKind::Constant:
      return std::make_unique<ConstantStep>(config.scale);
  }
  FTMAO_EXPECTS(false);
  return nullptr;
}

namespace {

std::unique_ptr<SbgAdversary> make_strategy(const AttackConfig& config,
                                            Rng rng) {
  switch (config.kind) {
    case AttackKind::None:
    case AttackKind::Silent:
      return std::make_unique<SilentAdversary>();
    case AttackKind::FixedValue:
      return std::make_unique<FixedValueAdversary>(
          SbgPayload{config.state_magnitude, config.gradient_magnitude});
    case AttackKind::SplitBrain:
      return std::make_unique<SplitBrainAdversary>(config.state_magnitude,
                                                   config.gradient_magnitude);
    case AttackKind::HullEdgeUp:
      return std::make_unique<HullEdgeAdversary>(/*push_up=*/true);
    case AttackKind::HullEdgeDown:
      return std::make_unique<HullEdgeAdversary>(/*push_up=*/false);
    case AttackKind::RandomNoise:
      return std::make_unique<RandomNoiseAdversary>(
          rng, config.state_magnitude, config.gradient_magnitude);
    case AttackKind::SignFlip:
      return std::make_unique<SignFlipAdversary>(config.amplification);
    case AttackKind::PullToTarget:
      return std::make_unique<PullToTargetAdversary>(config.target,
                                                     config.gradient_magnitude);
    case AttackKind::FlipFlop:
      return std::make_unique<FlipFlopAdversary>(config.flip_period);
    case AttackKind::DelayedStrike:
      return std::make_unique<DelayedActivationAdversary>(
          Round{static_cast<std::uint32_t>(config.activation_round)},
          std::make_unique<PullToTargetAdversary>(config.target,
                                                  config.gradient_magnitude));
  }
  FTMAO_EXPECTS(false);
  return nullptr;
}

}  // namespace

std::unique_ptr<SbgAdversary> make_adversary(const AttackConfig& config,
                                             Rng rng) {
  std::unique_ptr<SbgAdversary> strategy = make_strategy(config, rng);
  if (!config.consistent) return strategy;
  return std::make_unique<ConsistentWrapper>(std::move(strategy));
}

bool attack_reads_seed(AttackKind kind) {
  return kind == AttackKind::RandomNoise;
}

Scenario make_standard_scenario(std::size_t n, std::size_t f, double spread,
                                AttackKind attack, std::size_t rounds,
                                std::uint64_t seed) {
  FTMAO_EXPECTS(n > 3 * f);
  Scenario s;
  s.n = n;
  s.f = f;
  for (std::size_t i = n - f; i < n; ++i) s.faulty.push_back(i);
  s.functions = make_mixed_family(n, spread);
  s.initial_states.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.initial_states[i] =
        n == 1 ? 0.0
               : -spread / 2.0 + spread * static_cast<double>(i) /
                                     static_cast<double>(n - 1);
  }
  s.attack.kind = attack;
  s.rounds = rounds;
  s.seed = seed;
  return s;
}

}  // namespace ftmao
