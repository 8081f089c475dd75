#include "sim/attack_search.hpp"

#include <algorithm>
#include <cmath>

#include "common/table.hpp"
#include "sim/replica_driver.hpp"

namespace ftmao {

std::vector<AttackCandidate> standard_attack_grid() {
  std::vector<AttackCandidate> grid;
  auto add = [&grid](std::string name, AttackKind kind,
                     auto&&... setter) {
    AttackCandidate c;
    c.name = std::move(name);
    c.config.kind = kind;
    (setter(c.config), ...);
    grid.push_back(std::move(c));
  };

  add("silent", AttackKind::Silent);
  for (double mag : {10.0, 100.0, 1000.0}) {
    add("fixed@" + format_double(mag, 3), AttackKind::FixedValue,
        [mag](AttackConfig& c) {
          c.state_magnitude = mag;
          c.gradient_magnitude = mag / 10.0;
        });
    add("split-brain@" + format_double(mag, 3), AttackKind::SplitBrain,
        [mag](AttackConfig& c) {
          c.state_magnitude = mag;
          c.gradient_magnitude = mag / 10.0;
        });
  }
  add("hull-edge-up", AttackKind::HullEdgeUp);
  add("hull-edge-down", AttackKind::HullEdgeDown);
  for (double amp : {2.0, 5.0, 20.0}) {
    add("sign-flip x" + format_double(amp, 3), AttackKind::SignFlip,
        [amp](AttackConfig& c) { c.amplification = amp; });
  }
  for (double target : {-100.0, -10.0, 10.0, 100.0}) {
    add("pull->" + format_double(target, 3), AttackKind::PullToTarget,
        [target](AttackConfig& c) {
          c.target = target;
          c.gradient_magnitude = 10.0;
        });
  }
  for (std::size_t period : {1ul, 10ul, 100ul}) {
    add("flip-flop/" + std::to_string(period), AttackKind::FlipFlop,
        [period](AttackConfig& c) { c.flip_period = period; });
  }
  add("noise", AttackKind::RandomNoise);
  return grid;
}

namespace {

// The search body of both engines. S (Scenario or AsyncScenario) picks
// the engines.
template <class S>
AttackSearchResult search_attacks(
    const S& base, const std::vector<AttackCandidate>& candidates,
    const EngineKnobs& knobs) {
  FTMAO_EXPECTS(!candidates.empty());

  // The reference run, on the reference engine.
  S clean = base;
  clean.attack = AttackConfig{};
  const auto reference = run_reference(clean);
  AttackSearchResult result;
  result.reference_state = reference.final_states.front();
  result.optima = reference.optima;

  // Index-addressed evaluation: outcome i always describes candidate i,
  // so the sort below sees the same array whatever the thread count,
  // batch size or engine. Every candidate is a replica of the base's
  // shape with the candidate's attack.
  result.outcomes.resize(candidates.size());
  run_shape(
      base, candidates.size(),
      [&](std::size_t i) { return Replica{candidates[i].config, base.seed}; },
      knobs, RunOptions{},
      [&](std::size_t i, const auto& m) {
        AttackOutcome& outcome = result.outcomes[i];
        outcome.name = candidates[i].name;
        outcome.final_state = m.final_states.front();
        outcome.bias = std::abs(outcome.final_state - result.reference_state);
        outcome.dist_to_y = m.max_dist_to_y.back();
        outcome.disagreement = m.disagreement.back();
      });

  std::sort(result.outcomes.begin(), result.outcomes.end(),
            [](const AttackOutcome& a, const AttackOutcome& b) {
              return a.bias > b.bias;
            });
  return result;
}

}  // namespace

AttackSearchResult find_strongest_attack(
    const Scenario& base, const std::vector<AttackCandidate>& candidates,
    std::size_t num_threads, std::size_t batch_size, bool scalar_engine) {
  return search_attacks(base, candidates,
                        {num_threads, batch_size, scalar_engine});
}

AttackSearchResult find_strongest_attack_async(
    const AsyncScenario& base, const std::vector<AttackCandidate>& candidates,
    std::size_t num_threads, std::size_t batch_size, bool scalar_engine) {
  return search_attacks(base, candidates,
                        {num_threads, batch_size, scalar_engine});
}

}  // namespace ftmao
