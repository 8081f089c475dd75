#pragma once

// Batched asynchronous executor: advances B same-shape async replicas in
// lockstep over SoA state, bit-identical per-field to run_async_sbg run
// per replica (asserted in tests/batch_async_runner_test.cpp for every
// DelayKind, crash schedules, and attack in the menu).
//
// The asynchronous engine's event loop is inherently sequential — event
// times and adversary RNG draws differ per replica — but the *numeric*
// work it gates (two f-trims over the quorum multiset, a gradient
// evaluation, the lambda step) is the same shape every round in every
// replica. The batched runner therefore splits the execution:
//
//   Pass 1 (scheduling replay, per replica, value-free): run the real
//   AsyncEngine over lightweight recorder nodes that reproduce
//   AsyncSbgAgent's exact quorum/advance decisions while carrying
//   placeholder payload values, and record per (agent, completed round)
//   the bitmask of senders whose tuples were in the buffer at advance
//   time, plus each round's first honest publisher (the Byzantine
//   trigger view) and the engine counters. This is sound because every
//   scheduling decision — delay draws, event order, quorum timing,
//   Byzantine *presence* and RNG consumption — is independent of the
//   payload values in flight (every strategy in the menu sends/omits and
//   consumes randomness based only on round, recipient, and view
//   emptiness; async trigger views are never empty).
//
//   Pass 2 (numeric replay, lockstep across replicas): walk rounds
//   t = 1..T over SoA lane rows, rebuild each agent's trim multisets by
//   gathering the recorded sender masks (values in ascending AgentId
//   order — the same order AsyncSbgAgent's std::map iteration feeds
//   trim_value), re-run each lane's adversaries against the true trigger
//   views for the payload values, and advance every lane that completed
//   round t through the batched sorting-network trim and the fused step
//   kernel (simd/simd.hpp) — the sync batch engine's machinery, pointed
//   at the async quorum multisets. Because buffered tuples can exceed
//   the quorum (messages for round t keep accumulating until the agent's
//   delivery-driven advance), multiset sizes vary per (agent, round,
//   replica) in [n-f, n]; lanes are bucketed by multiset size and each
//   bucket trims as one batch.
//
// Shape fields (n, f, faulty, crashes, rounds) must match across the
// batch; seed, functions, initial states, attack, step, and delay model
// parameters are free per replica. n <= kMaxSortingNetworkN (64, one
// bit per agent in the sender mask); sim/replica_driver.hpp runs larger
// shapes on run_async_sbg.

#include <span>
#include <vector>

#include "sim/async_runner.hpp"

namespace ftmao {

/// Runs every replica and returns its metrics, in order. Bit-identical
/// per-field to `run_async_sbg` applied to each replica. Empty input
/// returns empty output.
std::vector<AsyncRunMetrics> run_async_sbg_batch(
    std::span<const AsyncScenario> replicas);

}  // namespace ftmao
