#pragma once

// Empirical strongest-adversary search: evaluate a grid of attack
// configurations on a scenario template and report which one displaces
// the final consensus furthest from the attack-free outcome. Theorem 2
// upper-bounds what ANY attack can achieve (the output stays in Y); this
// measures how much of that freedom concrete attacks actually realize.

#include <string>
#include <vector>

#include "sim/async_runner.hpp"
#include "sim/metrics.hpp"
#include "sim/scenario.hpp"

namespace ftmao {

struct AttackCandidate {
  std::string name;
  AttackConfig config;
};

struct AttackOutcome {
  std::string name;
  double final_state = 0.0;   ///< consensus value reached
  double bias = 0.0;          ///< |final_state - attack-free final state|
  double dist_to_y = 0.0;     ///< must stay ~0 (Theorem 2)
  double disagreement = 0.0;  ///< final honest disagreement
};

struct AttackSearchResult {
  double reference_state = 0.0;  ///< attack-free consensus
  Interval optima{0.0};          ///< Y of the honest family
  std::vector<AttackOutcome> outcomes;  ///< sorted by bias, descending

  const AttackOutcome& strongest() const { return outcomes.front(); }
};

/// The default candidate grid: every attack kind at several magnitudes/
/// targets/amplifications.
std::vector<AttackCandidate> standard_attack_grid();

/// Runs `base` once without attack (the reference run, on the scalar
/// engine) and once per candidate. `base`'s own attack field is ignored.
/// Candidates share the base scenario's shape; the megabatch planner
/// (plan_uniform_slices, sim/megabatch.hpp) slices them into lockstep
/// batches of `batch_size` candidates through the batched engine (0 =
/// register-aligned packs of about kMegabatchAutoLaneTarget lanes), run
/// on `num_threads` workers (1 = serial, 0 = hardware concurrency).
/// `scalar_engine` runs the same plan with one candidate per task through
/// run_sbg instead. Each run writes to its own slot, so the ranking is
/// bit-identical for every thread count, batch size, and engine.
AttackSearchResult find_strongest_attack(
    const Scenario& base, const std::vector<AttackCandidate>& candidates,
    std::size_t num_threads = 1, std::size_t batch_size = 0,
    bool scalar_engine = false);

/// The asynchronous-engine counterpart: same contract, candidates
/// evaluated through run_async_sbg_batch (run_async_sbg when
/// scalar_engine). `base`'s n must satisfy n > 5f.
AttackSearchResult find_strongest_attack_async(
    const AsyncScenario& base, const std::vector<AttackCandidate>& candidates,
    std::size_t num_threads = 1, std::size_t batch_size = 0,
    bool scalar_engine = false);

}  // namespace ftmao
