#pragma once

// The fabric worker loop and the fabric-level verifying merge.
//
// A fabric run has no resident coordinator process: coordination *is*
// the lease directory (fabric/lease.hpp). Any number of workers — local
// processes sharing the directory, or CI runners exchanging it as an
// artifact — run the same loop:
//
//   1. scan shards in a worker-rotated order; skip completed shards and
//      shards under a live (unexpired) foreign lease;
//   2. atomically claim the next attempt of anything unclaimed or stale
//      (claiming attempt k+1 of a stale attempt-k lease IS the
//      work-stealing move);
//   3. execute the shard as `ftmao_sweep --spec <dir>/grid.json
//      --shard-index i` (or an injected runner in tests), renewing the
//      lease's heartbeat from a side thread while it runs;
//   4. publish CSV + manifest + completion record first-wins;
//   5. on failure, retry under the same lease with the
//      backoff-with-deterministic-jitter policy below, up to a local
//      budget.
//
// Worker-local retries stay within one lease (the holder is alive — it
// just had a failing attempt); cross-worker re-leasing happens only when
// heartbeats go stale. The merge stage then audits completion records
// (protocol version, exactly one completion per shard, git-rev/ISA
// agreement) and manifests (each must be its shard of the pinned grid)
// before handing the per-shard artifacts to the order-free verifying
// merge (sim/shard_merge.hpp), so a complete fabric run's CSV is
// byte-identical to the single-process `run_sweep` CSV. run_local_fabric
// is the whole loop on one machine: init, one worker per shard, merge.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "fabric/lease.hpp"
#include "sim/shard_merge.hpp"

namespace ftmao::fabric {

/// Retry k of a shard waits min(max_ms, k * base_ms + jitter), the jitter
/// drawn from [0, base_ms) by splitmix64 over (shard seed ^ k). It is
/// deterministic, so retries reproduce, and seeded by the shard, so
/// shards that fail together (a wedged machine) retry staggered instead
/// of stampeding the lease directory.
struct BackoffPolicy {
  std::int64_t base_ms = 200;  ///< linear step; also the jitter window
  std::int64_t max_ms = 10'000;  ///< cap on any single delay
};

/// The shard's jitter seed: its splitmix64-finalized index.
std::uint64_t shard_backoff_seed(std::size_t shard_index);

/// Delay scheduled after attempt `attempt` (1-based) failed; 0 when
/// base_ms <= 0.
std::int64_t retry_delay_ms(const BackoffPolicy& policy, std::uint64_t seed,
                            int attempt);

/// Executes one shard of the pinned `grid`, writing the shard CSV and
/// manifest to the given scratch paths. Returns a process-style status
/// (0 = success). The default (apps/ftmao_fabric.cpp) spawns
/// `ftmao_sweep --spec <fabric>/grid.json`; tests inject an in-process
/// runner.
using ShardRunner = std::function<int(
    const GridSpec& grid, std::size_t shard, std::size_t shard_count,
    const std::string& csv_scratch, const std::string& manifest_scratch)>;

struct WorkerOptions {
  std::string fabric_dir;
  std::string worker_id;
  ShardRunner runner;

  std::uint64_t lease_ttl_ms = 60'000;  ///< heartbeat staleness threshold
  int retries = 2;              ///< extra local attempts per shard
  BackoffPolicy backoff;        ///< shared retry policy (jittered)

  /// CI-matrix slice: when fleet_size > 0, claim only shards with
  /// shard_index % fleet_size == fleet_index (each runner owns a disjoint
  /// slice; stealing across slices is the recovery worker's job).
  long fleet_index = -1;
  long fleet_size = 0;

  /// Keep polling (and stealing stragglers as their leases expire) until
  /// every shard is completed, instead of returning when nothing is
  /// claimable. Bounded by max_wall_sec when > 0.
  bool wait_all = false;
  double max_wall_sec = 0;

  /// Test hook: after claiming this shard, the worker raises SIGKILL on
  /// itself — a mid-shard death that leaves a stale lease for another
  /// worker to steal. -1 = off.
  long inject_die_shard = -1;

  std::ostream* log = nullptr;  ///< progress/retry lines (nullable)
};

struct WorkerReport {
  std::size_t claimed = 0;    ///< leases this worker won
  std::size_t completed = 0;  ///< shards this worker published
  std::size_t stolen = 0;     ///< claims that re-leased a stale foreign lease
  bool all_done = false;      ///< every shard of the grid has a completion
  bool slice_done = false;    ///< every shard this worker may claim is done
  std::vector<std::string> errors;

  bool ok(bool wait_all) const {
    return errors.empty() && (wait_all ? all_done : slice_done);
  }
};

/// Runs the worker loop until no claimable work remains (or, with
/// wait_all, until the grid is complete / the deadline passes).
WorkerReport run_fabric_worker(const WorkerOptions& options);

struct FabricMergeOptions {
  std::string fabric_dir;
  /// Completion records normally must agree on the active SIMD backend —
  /// not for correctness (all backends are bit-identical) but as a
  /// protocol-level audit that the fleet ran the configuration it was
  /// told to. A deliberately heterogeneous fleet sets this.
  bool allow_isa_mix = false;
};

struct FabricMergeReport {
  std::vector<CompletionRecord> completions;  ///< one per completed shard
  std::vector<std::string> errors;  ///< fabric-protocol violations
  MergeReport merge;                ///< the underlying verifying merge

  bool ok() const { return errors.empty() && merge.ok(); }
};

/// Audits completion records (version, double completion, git-rev/ISA
/// agreement), loads the per-shard artifacts, refuses any manifest whose
/// grid or shard differs from the pinned grid.json, and runs the
/// order-free verifying merge. Inconsistent *data* is reported, not
/// thrown.
FabricMergeReport collect_and_merge(const FabricMergeOptions& options);

/// A local run's merge; `errors` also carries the workers' errors.
struct LocalReport : FabricMergeReport {
  std::size_t claimed = 0;  ///< leases won, summed over the workers
};

/// A whole fabric run on one machine (`ftmao_fabric --mode local`): pins
/// `grid` in `worker.fabric_dir`, runs one worker per shard, each on its
/// own thread with its own runner from `make_runner` and the id local<i>
/// (the other fields of `worker` apply to all), then merges. Retry,
/// backoff and timeout are the lease protocol's. A directory already
/// pinned with the same grid resumes: completed shards are skipped.
LocalReport run_local_fabric(const FabricGrid& grid,
                             const WorkerOptions& worker,
                             const std::function<ShardRunner()>& make_runner);

}  // namespace ftmao::fabric
