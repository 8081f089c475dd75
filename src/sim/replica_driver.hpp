#pragma once

// The grid drivers' shared machinery. run_sweep_cells, certify_sbg and
// both attack searches run many replicas of a few scenario shapes and
// keep each replica's result in its own slot; what they repeat is written
// once here:
//
//   - cached_pass: the one result-cache pass. Each item's canonical key
//     is looked up and its payload decoded to the last byte; the items
//     that do not decode are computed, then encoded and inserted.
//   - run_task: the one task runner. A planned task's replicas run
//     through the shape's batched engine, or one at a time through its
//     reference engine under scalar_engine or past the batched engines'
//     n <= kMaxSortingNetworkN — the only place that picks.
//   - make_replica: the one replica rule. A replica is a copy of its
//     shape's scenario with its own attack and seed. The make_standard_*
//     factories set nothing else per attack or seed, so a driver builds a
//     shape once per task (or per section) and copies it per replica.
//
// None of it changes a result bit: every replica derives its randomness
// from its own seed, the batched engines equal the reference engines per
// replica, and results land in caller-addressed slots.

#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "cache/cell_key.hpp"
#include "cache/result_cache.hpp"
#include "common/contracts.hpp"
#include "common/thread_pool.hpp"
#include "sim/batch_async_runner.hpp"
#include "sim/batch_runner.hpp"
#include "sim/batch_vector_runner.hpp"
#include "sim/megabatch.hpp"
#include "trim/trim_batch.hpp"

namespace ftmao {

/// How a driver runs its replicas. No value changes a result bit.
struct EngineKnobs {
  std::size_t num_threads = 1;  ///< 1 = serial, 0 = hardware concurrency
  std::size_t batch_size = 0;   ///< 0 = the planner's aligned packs
  bool scalar_engine = false;   ///< batch-1 tasks on the reference engine
};

/// What sets a replica apart from its shape.
struct Replica {
  AttackConfig attack;
  std::uint64_t seed = 1;
};

/// The replica rule: `shape` with the replica's attack and seed.
template <class S>
S make_replica(const S& shape, const Replica& replica) {
  S s = shape;
  s.attack = replica.attack;
  s.seed = replica.seed;
  return s;
}

/// The megabatch shape key of a scenario: its engine family, n, f and
/// dimension.
template <class S>
MegabatchKey shape_key(const S& shape) {
  if constexpr (std::is_same_v<S, AsyncScenario>)
    return {MegabatchEngine::kAsync, shape.n, shape.f, 1};
  else if constexpr (std::is_same_v<S, VectorScenario>)
    return {MegabatchEngine::kVector, shape.n, shape.f, shape.dim};
  else
    return {MegabatchEngine::kSync, shape.n, shape.f, 1};
}

/// What a driver that reads only each run's finals asks of the engines:
/// series that keep the final round's entry alone. The async engine
/// records every round regardless.
inline constexpr RunOptions kFinalsOnly{.record_series = false};

/// The reference engine of each scenario kind: run_sbg, run_async_sbg,
/// run_vector_scenario. The async engine takes no `options`.
template <class S>
auto run_reference(const S& s,
                   [[maybe_unused]] const RunOptions& options = {}) {
  if constexpr (std::is_same_v<S, AsyncScenario>)
    return run_async_sbg(s);
  else if constexpr (std::is_same_v<S, VectorScenario>)
    return run_vector_scenario(s, options);
  else
    return run_sbg(s, options);
}

/// A run's final honest disagreement and distance to the optimum: to Y
/// for the scalar engines, to the failure-free optimum for the vector
/// engine.
struct Finals {
  double disagreement = 0.0;
  double dist = 0.0;
};

template <class Result>
Finals finals_of(const Result& m) {
  if constexpr (std::is_same_v<Result, VectorRunResult>)
    return {m.disagreement.back(), m.dist_to_average_optimum.back()};
  else
    return {m.disagreement.back(), m.max_dist_to_y.back()};
}

/// Runs one planned task: item i of [task.first, task.first + task.count)
/// is the replica make_replica(shape, replica_of(i)). The replicas run
/// through the shape's batched engine, or one at a time through its
/// reference engine when `scalar_engine` or when the shape's n is past
/// kMaxSortingNetworkN, which the batched engines require. Item i's
/// result goes to deliver(i, result); it is bit-identical either way.
template <class S, class ReplicaOf, class Deliver>
void run_task(const S& shape, const MegabatchTask& task,
              const ReplicaOf& replica_of, bool scalar_engine,
              const RunOptions& options, const Deliver& deliver) {
  std::vector<S> replicas;
  replicas.reserve(task.count);
  for (std::size_t k = 0; k < task.count; ++k)
    replicas.push_back(make_replica(shape, replica_of(task.first + k)));
  if (scalar_engine || shape.n > kMaxSortingNetworkN) {
    for (std::size_t k = 0; k < task.count; ++k)
      deliver(task.first + k, run_reference(replicas[k], options));
    return;
  }
  const std::span<const S> batch(replicas);
  const auto results = [&] {
    if constexpr (std::is_same_v<S, AsyncScenario>)
      return run_async_sbg_batch(batch);
    else if constexpr (std::is_same_v<S, VectorScenario>)
      return run_vector_sbg_batch(batch, options);
    else
      return run_sbg_batch(batch, options);
  }();
  for (std::size_t k = 0; k < task.count; ++k)
    deliver(task.first + k, results[k]);
}

/// Runs the items [0, count), all replicas of one shape: the megabatch
/// planner slices them into lane-aligned tasks (plan_uniform_slices;
/// batch-1 tasks under scalar_engine), which run_task runs on
/// `knobs.num_threads` workers.
template <class S, class ReplicaOf, class Deliver>
void run_shape(const S& shape, std::size_t count, const ReplicaOf& replica_of,
               const EngineKnobs& knobs, const RunOptions& options,
               const Deliver& deliver) {
  const std::vector<MegabatchTask> tasks = plan_uniform_slices(
      count, knobs.scalar_engine ? 1 : knobs.batch_size, shape.rounds,
      shape_key(shape));
  parallel_for_each(knobs.num_threads, tasks.size(), [&](std::size_t t) {
    run_task(shape, tasks[t], replica_of, knobs.scalar_engine, options,
             deliver);
  });
}

/// The one result-cache pass over the items [0, results.size()).
///
/// Without a cache, compute(pending) fills every item. With one, item i's
/// key is make_cell_key(spec(i)); a payload found under it goes through
/// decode(PayloadReader&), which returns the item's result or throws
/// ContractViolation, and is a hit only if it is read to its last byte.
/// The items that do not decode go on `pending` in index order;
/// compute(pending) fills their results, and each is then encoded with
/// encode(PayloadWriter&, result) and inserted. An insert replaces a
/// stored payload that failed to decode, in memory and on disk.
template <class R, class Spec, class Decode, class Encode, class Compute>
void cached_pass(ResultCache* cache, std::vector<R>& results,
                 const Spec& spec, const Decode& decode, const Encode& encode,
                 const Compute& compute) {
  std::vector<std::size_t> pending;
  std::vector<CellKey> keys;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (cache != nullptr) {
      keys.push_back(make_cell_key(spec(i)));
      const auto decodes = [&](const std::string& payload) {
        try {
          PayloadReader reader(payload);
          R result = decode(reader);
          if (!reader.exhausted()) return false;
          results[i] = std::move(result);
          return true;
        } catch (const ContractViolation&) {
          return false;  // short or invalid
        }
      };
      if (cache->lookup(keys[i], decodes)) continue;
    }
    pending.push_back(i);
  }
  compute(pending);
  if (cache == nullptr) return;
  for (std::size_t i : pending) {
    PayloadWriter writer;
    encode(writer, results[i]);
    cache->insert(keys[i], writer.bytes());
  }
}

}  // namespace ftmao
