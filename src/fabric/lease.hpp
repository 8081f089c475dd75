#pragma once

// Fabric lease protocol: the versioned JSON records and the
// filesystem/artifact "transport" the multi-node sweep fabric runs over.
//
// A fabric directory is shared state between workers — a real shared
// directory when workers are processes on one machine, an
// upload/download-overlaid artifact when workers are CI runners:
//
//   <root>/grid.json                       the grid, pinned at init
//   <root>/leases/shard_<i>.a<k>.lease     claim of attempt k on shard i
//   <root>/results/shard_<i>.csv           the worker's shard CSV
//   <root>/results/shard_<i>.json          the ftmao_sweep shard manifest
//   <root>/results/shard_<i>.done.json     completion record (commit point)
//
// Claims are atomic: a lease is written to a temp file and `link(2)`ed to
// its final name, which fails with EEXIST if any other worker claimed
// that (shard, attempt) first — exactly one winner per attempt, no
// locking daemon. Heartbeats rewrite the holder's own lease through a
// temp-file + rename, so readers always observe a complete document.
// Stealing is claiming attempt k+1 after attempt k's heartbeat went
// stale; completion is first-wins `link(2)` of the done record, which is
// safe even when a presumed-dead worker finishes late — the determinism
// contract makes both workers' CSVs byte-identical, and the merge
// cross-checks any overlap bit-for-bit anyway.
//
// Every record carries a protocol version (kFabricProtocolVersion);
// readers reject any other version, so a future socket transport can
// evolve the schema without silently misreading old artifacts.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/grid_spec.hpp"
#include "sim/shard.hpp"

namespace ftmao::fabric {

inline constexpr int kFabricProtocolVersion = 2;

/// The grid a fabric run computes, pinned once at `--mode init` so every
/// worker — local process or CI runner — enumerates the identical cell
/// set and partition. grid.json embeds the GridSpec JSON object, and
/// shard workers read it straight from that file (`ftmao_sweep --spec`).
struct FabricGrid {
  int version = kFabricProtocolVersion;
  std::size_t shard_count = 0;
  GridSpec spec;
  std::string git_rev = build_git_revision();  ///< build that pinned it

  friend bool operator==(const FabricGrid&, const FabricGrid&) = default;
};

std::string grid_to_json(const FabricGrid& grid);
FabricGrid grid_from_json(const std::string& json);  ///< throws on mismatch

/// One worker's claim on one attempt of one shard. The heartbeat is
/// wall-clock milliseconds (system_clock) — cross-machine skew is
/// tolerated by generous TTLs, not by clock agreement.
struct ShardLease {
  int version = kFabricProtocolVersion;
  std::size_t shard_index = 0;
  std::size_t shard_count = 0;
  int attempt = 1;  ///< lease generation; steals claim attempt + 1
  std::string worker_id;
  std::string git_rev = "unknown";
  std::string isa = "auto";
  std::uint64_t heartbeat_ms = 0;  ///< last claim/renewal, wall-clock ms

  friend bool operator==(const ShardLease&, const ShardLease&) = default;
};

std::string lease_to_json(const ShardLease& lease);
ShardLease lease_from_json(const std::string& json);  ///< throws on mismatch

/// Published when a worker finishes a shard: who computed it, under what
/// build/backend, on which lease attempt. The merge stage audits these
/// before touching the CSVs.
struct CompletionRecord {
  int version = kFabricProtocolVersion;
  std::size_t shard_index = 0;
  int attempt = 1;
  std::string worker_id;
  std::string git_rev = "unknown";
  std::string isa = "auto";
  double wall_ms = 0.0;

  friend bool operator==(const CompletionRecord&,
                         const CompletionRecord&) = default;
};

std::string completion_to_json(const CompletionRecord& record);
CompletionRecord completion_from_json(const std::string& json);

/// Wall-clock now in milliseconds since the epoch (heartbeat domain).
std::uint64_t wall_clock_ms();

/// Stale iff the heartbeat is older than ttl_ms at `now_ms`.
bool lease_expired(const ShardLease& lease, std::uint64_t now_ms,
                   std::uint64_t ttl_ms);

/// The fabric directory: layout, atomic claims, renewal, completion.
/// Pure filesystem mechanics — policy (who claims what, when a lease
/// counts as stale) lives in fabric/fabric.hpp.
class LeaseDir {
 public:
  explicit LeaseDir(std::string root);

  /// Creates the layout and atomically publishes grid.json. Re-initing
  /// with the identical grid is a no-op; a different grid throws.
  void init(const FabricGrid& grid);
  bool initialized() const;
  FabricGrid load_grid() const;  ///< throws if absent/mismatched version
  std::string grid_path() const;  ///< <root>/grid.json

  /// The highest-attempt lease on `shard`, if any worker ever claimed it.
  std::optional<ShardLease> current_lease(std::size_t shard) const;

  /// Atomically claims (lease.shard_index, lease.attempt). False iff some
  /// worker holds that exact attempt already — the duplicate-claim case.
  bool try_claim(const ShardLease& lease);

  /// Rewrites the holder's lease with a fresh heartbeat (atomic rename).
  void renew(ShardLease& lease);

  bool completed(std::size_t shard) const;

  /// First-wins publication: moves the worker's CSV + manifest from their
  /// scratch paths to the canonical names, then links the done record.
  /// False iff another worker completed the shard first (the caller's
  /// artifacts are discarded; outputs are byte-identical by contract).
  bool publish_completion(const CompletionRecord& record,
                          const std::string& csv_scratch,
                          const std::string& manifest_scratch);

  /// Every completion record in results/ (any file named
  /// shard_*.done*.json — overlaid artifact dirs can carry duplicates,
  /// which the merge stage must see to reject). Unreadable or
  /// wrong-version records are reported through `errors` and skipped, so
  /// one bad artifact degrades the merge instead of aborting it.
  std::vector<CompletionRecord> completions(
      std::vector<std::string>& errors) const;

  std::string csv_path(std::size_t shard) const;
  std::string manifest_path(std::size_t shard) const;
  std::string lease_path(std::size_t shard, int attempt) const;
  std::string done_path(std::size_t shard) const;

  /// Worker-private scratch path inside results/ (same filesystem, so the
  /// publishing rename is atomic).
  std::string scratch_path(const std::string& worker_id,
                           const std::string& name) const;

  const std::string& root() const { return root_; }

 private:
  std::string root_;
};

}  // namespace ftmao::fabric
