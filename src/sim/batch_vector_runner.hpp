#pragma once

// Batched (structure-of-arrays) coordinate-wise vector-SBG engine.
//
// run_vector_sbg advances one d-dimensional replica through virtual
// per-coordinate trims; this engine advances B replicas of one scenario
// shape in lockstep through one BatchRound (sim/batch_round.hpp), whose
// rows hold d * B lanes, lane(k, r) = k * B + r, and which holds the
// determinism contract. The d = 8, B = 3 cell that starves an 8-wide
// register at scalar batching (3 of 8 lanes useful) fills three full
// AVX-512 registers here. This engine keeps what the vector scenario
// owns: per-coordinate costs, bounds, defaults and initial states, one
// strategy per replica, asked with its d coordinates' summaries, and the
// failure-free optimum. Gradients are computed once per agent per round
// (the scalar path computes the same pure gradient twice, in broadcast()
// and step(); both calls see the same state, so collapsing them is
// unobservable).

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
