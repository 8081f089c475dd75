#pragma once

// Batched replica execution of Algorithm SBG (Section 4).
//
// The grid drivers (sweep, certify, attack search; sim/replica_driver.hpp)
// run many independent replicas of one scenario *shape* — same population
// size, fault set, crash schedule, and horizon, differing only in seed,
// cost functions, initial states, attack configuration, step schedule, or
// constraint. BatchedSbgRunner advances B such replicas per round in
// lockstep through one BatchRound (sim/batch_round.hpp, d = 1: lane r of
// every agent row is replica r), which owns the lane rows, the Byzantine
// payload plane, the trims and the projected step, and holds the
// determinism contract. This engine keeps what the sync scenario owns:
// the population order (survivors, then crashing agents), the delivery
// filter (crash rounds, seeded link drops), which makes every recipient
// trim its own honest rows, the per-lane gradients, one strategy per
// sender (ConsistentWrapper included), witness audits, metrics and
// traces. tests/batch_runner_test.cpp pins bit-identity to run_sbg across
// attacks, crashes, link drops, constraints, signed zeros, audit options
// and random packs.

#include <span>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"

namespace ftmao {

/// Runs every scenario in `replicas` to completion in lockstep and returns
/// one RunMetrics per scenario, in order — bit-identical to calling
/// run_sbg(replicas[i], options) for each i.
///
/// All scenarios must share the same shape: n, f, faulty set, crash
/// schedule, and rounds, with n <= kMaxSortingNetworkN (the grid drivers
/// run larger shapes on run_sbg; sim/replica_driver.hpp). Everything else
/// (seed, functions, initial states, attack, step, constraint, default
/// payload, drop probability) may differ per replica.
std::vector<RunMetrics> run_sbg_batch(std::span<const Scenario> replicas,
                                      const RunOptions& options = {});

}  // namespace ftmao
