#pragma once

// Batched (structure-of-arrays) coordinate-wise vector-SBG engine.
//
// run_vector_sbg advances one d-dimensional replica through virtual
// per-coordinate trims; this engine advances B replicas of one scenario
// shape in lockstep by packing replicas x coordinates into contiguous
// lanes. Each honest agent owns one row of L = dim * B doubles laid out
// coordinate-major, replica-minor —
//
//   lane(k, r) = k * B + r        (k < dim, r < B)
//
// — padded at the row tail (only) to Lpad, a multiple of the SIMD
// backend width. Every kernel of the round loop (comparator-network
// trim, fused projected step, masked payload blend) then runs over Lpad-lane
// rows of the width-aware backend (simd_kernels_for_lanes(L)): the d=8,
// B=3 cell that starves an 8-wide register at scalar batching (3 of 8
// lanes useful) fills three full AVX-512 registers here.
//
// Bit-identity contract: every per-field output (disagreement series,
// dist-to-optimum series, final states, failure-free optimum) equals
// run_vector_scenario's for each replica, for every backend. The same
// three rules as the scalar batch engine apply (docs/performance.md):
// identical per-lane operation sequences, conditional-swap comparators,
// std tie semantics — plus: gradients are computed once per agent per
// round (the scalar path computes the same pure gradient twice, in
// broadcast() and step(); both calls see the same state, so collapsing
// them is unobservable), and a strategy that declares recipient classes
// (net/batch.hpp) is asked once per (replica, class), with the class's
// trim pair computed once and reused by all its recipients; per-message
// strategies are asked in the scalar engine's call order. The honest
// broadcasts are selected once per round (sim/broadcast_selection.hpp):
// every strategy is asked summary_payload with each coordinate's
// HonestSummary, and a class's trim pair merges its Byzantine rows (one
// payload, or the F rows a per-message strategy sent) into the selected
// order statistics, which equal the full sort's up to the sign of zero,
// a sign neither the Trim midpoint (trim/trim_batch.hpp) nor the summary
// promise lets reach the state.

#include <span>
#include <vector>

#include "sim/vector_scenario.hpp"

namespace ftmao {

/// Runs every replica in lockstep. All replicas must share one shape
/// (n, f, dim, rounds, byzantine_count), with n <= kMaxSortingNetworkN
/// (sim/replica_driver.hpp runs larger ones on run_vector_scenario);
/// costs, initial states, attack, step schedule, seed, constraint, and
/// default payload may vary per replica. Returns one VectorRunResult per
/// replica, bit-identical per-field to run_vector_scenario(replicas[i],
/// options); of `options`, only record_series is read.
std::vector<VectorRunResult> run_vector_sbg_batch(
    std::span<const VectorScenario> replicas,
    const RunOptions& options = {});

}  // namespace ftmao
