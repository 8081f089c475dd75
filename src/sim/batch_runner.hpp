#pragma once

// Batched replica execution of Algorithm SBG (Section 4).
//
// The grid drivers (sweep, certify, attack search; sim/replica_driver.hpp)
// run many independent replicas of one scenario *shape* — same population
// size, fault set, crash schedule, and horizon, differing only in seed,
// cost functions, initial states, attack configuration, step schedule, or
// constraint. BatchedSbgRunner advances B such replicas per round in
// lockstep over structure-of-arrays state (x[agent][replica],
// broadcast[sender][replica], inbox matrices [slot][replica]) so the
// dominant inner kernel — Trim over each recipient's fan-in — runs as a
// branchless batched comparator network across the replica lanes
// (trim/trim_batch.hpp). The honest broadcasts' order statistics are
// selected once per round (once per recipient under a delivery filter)
// and each recipient class's Byzantine rows are merged into them: one
// row where every sender sends the class one payload, else the F rows a
// per-message strategy sent the recipient, sorted on their own.
//
// Determinism contract: the output is bit-identical to running run_sbg on
// each scenario separately. Replicas never interact. Every strategy is
// asked summary_payload with the HonestSummary of its replica's selected
// broadcasts (adversary/strategies.hpp): per-message strategies once per
// (recipient, sender) in the scalar engine's exact call order (so RNG
// streams advance identically), class-declaring strategies once per
// (replica, recipient class), which their declaration makes unobservable
// (net/batch.hpp). The batched trims select the same order statistics as
// the scalar nth_element path up to the sign of zero, and a selected
// value reaches the output only through a Trim midpoint
// y_s + (y_l - y_s)/2 or a comparison (pull's median against its
// target), neither of which sees that sign; every floating-point
// reduction (metrics folds, the summary's mean gradient) runs in the
// scalar path's operation order.
// tests/batch_runner_test.cpp pins this contract across attacks,
// crashes, link drops, constraints, signed zeros, and audit options.

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
