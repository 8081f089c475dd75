#pragma once

// Grid-level megabatch planning, the grid drivers' only scheduler: packs
// pending (cell, seed) replicas from *different* grid cells — different
// attacks and seeds, same engine shape — into lane-filling batches for the
// SoA engines, instead of one batch per cell. The batched engines are
// bit-identical to the scalar reference per replica regardless of batch
// composition (see batch_runner.hpp), so the plan changes wall-clock and
// lane occupancy, never output: results scatter back into per-(cell, seed)
// slots. A plan with batch_size 1 is the scalar reference's schedule (each
// one-replica task runs on the reference engine; sim/replica_driver.hpp).
//
// The planner is pure arithmetic over shape keys — no engine calls — so its
// slicing and occupancy accounting are unit-testable with an injected lane
// width function, independent of the machine the tests run on.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace ftmao {

/// Engine family of a replica. Families never share a batch: each has its
/// own runner with its own lane layout.
enum class MegabatchEngine : std::uint8_t {
  kSync = 0,
  kAsync = 1,
  kVector = 2
};

/// Shape key: replicas are batch-compatible iff their keys are equal. The
/// grid axes that vary per cell beyond this key (attack, seed, step) are
/// exactly the fields the batch engines already accept per replica.
struct MegabatchKey {
  MegabatchEngine engine = MegabatchEngine::kSync;
  std::size_t n = 0;
  std::size_t f = 0;
  std::size_t dim = 1;

  friend bool operator==(const MegabatchKey&, const MegabatchKey&) = default;
};

/// One (cell, seed) replica awaiting execution. `cell` and `seed` are
/// caller-side indices; the planner only groups and counts them.
struct MegabatchItem {
  MegabatchKey key;
  std::size_t cell = 0;
  std::size_t seed = 0;
};

/// One engine call: the half-open item range [first, first + count) of the
/// plan's (shape-grouped) item array, all sharing `key`.
struct MegabatchTask {
  std::size_t first = 0;
  std::size_t count = 0;
  MegabatchKey key;
  std::uint64_t cost = 0;  ///< count * rounds * n * dim (pure shape function)
};

/// Lane-occupancy accounting: useful lanes vs the padded lane slots the
/// dispatched backend actually advances.
struct EngineStats {
  std::uint64_t batches = 0;       ///< engine calls planned / executed
  std::uint64_t replicas = 0;      ///< replicas across those calls
  std::uint64_t lanes = 0;         ///< useful lanes (replicas x dim)
  std::uint64_t padded_lanes = 0;  ///< lane slots incl. padding to the width

  double occupancy() const {
    return padded_lanes > 0
               ? static_cast<double>(lanes) / static_cast<double>(padded_lanes)
               : 1.0;
  }
  EngineStats& operator+=(const EngineStats& other) {
    batches += other.batches;
    replicas += other.replicas;
    lanes += other.lanes;
    padded_lanes += other.padded_lanes;
    return *this;
  }
};

/// Resolves the SIMD lane width a batch of `lanes` lanes dispatches to.
/// Injectable so planner tests pin the slicing/occupancy arithmetic
/// machine-independently; the default consults simd_kernels_for_lanes.
using LaneWidthFn = std::function<std::size_t(std::size_t)>;

/// The width the active dispatch would pick for `lanes` lanes (honours the
/// FTMAO_ISA / simd_select overrides like the engines themselves).
std::size_t active_lane_width(std::size_t lanes);

struct MegabatchPlan {
  /// Input items stable-grouped by shape key: within a group, caller order
  /// (cell-major, seed-minor) is preserved, so same-cell replicas stay
  /// adjacent and a shape's tasks cover contiguous runs of cells.
  std::vector<MegabatchItem> items;
  /// Tasks in submission order: cost-descending, ties by first index, so
  /// heterogeneous grids start their largest shapes first and the thread
  /// pool's tail is a small task, not a big one.
  std::vector<MegabatchTask> tasks;
  EngineStats stats;  ///< accounting for the planned tasks
};

/// Plans lane-filling batches over `items`.
///
/// batch_size == 0 (auto): each shape group is sliced into full-register
/// chunks — multiples of q = width / gcd(dim, width) replicas, the smallest
/// replica count whose lane total divides the width — capped near
/// kMegabatchAutoLaneTarget lanes, plus at most one narrower tail. A
/// non-zero batch_size pins the replica count per engine call exactly,
/// preserving the --batch contract.
constexpr std::size_t kMegabatchAutoLaneTarget = 32;
MegabatchPlan plan_megabatches(std::vector<MegabatchItem> items,
                               std::size_t batch_size, std::size_t rounds,
                               const LaneWidthFn& width_for_lanes = {});

/// Convenience for the single-shape grids (certify sections, attack
/// search): slices [0, count) into lane-aligned tasks of the given key.
std::vector<MegabatchTask> plan_uniform_slices(
    std::size_t count, std::size_t batch_size, std::size_t rounds,
    const MegabatchKey& key, const LaneWidthFn& width_for_lanes = {});

/// Process-global occupancy accumulator. The three batch engines record one
/// EngineStats per engine call (thread-safe, negligible cost) so any driver
/// can be measured: reset, run, snapshot.
void engine_stats_reset();
void engine_stats_record(std::size_t replicas, std::size_t lanes,
                         std::size_t padded_lanes);
EngineStats engine_stats_snapshot();

}  // namespace ftmao
