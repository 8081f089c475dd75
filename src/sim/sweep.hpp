#pragma once

// Structured parameter sweeps: run a scenario family over a cartesian
// grid of (n, f) x attack x seed and aggregate the headline metrics. The
// backbone of the `ftmao_sweep` tool and of multi-configuration tables in
// benches.

#include <string>
#include <vector>

#include "common/stats.hpp"
#include "sim/grid_spec.hpp"
#include "sim/scenario.hpp"

namespace ftmao {

class ResultCache;  // cache/result_cache.hpp

/// A grid (sim/grid_spec.hpp) plus the engine knobs that run it. The
/// knobs never change a byte of output, so they are not part of the
/// grid's identity.
struct SweepConfig : GridSpec {
  /// Worker threads for the grid. 1 = serial (the reference path); 0 =
  /// hardware concurrency. Results are bit-identical for every value:
  /// each (cell, seed) run is independently seeded and written to its own
  /// pre-assigned output slot, so scheduling order cannot leak in.
  std::size_t num_threads = 1;

  /// Replicas per batched-engine call. The megabatch planner
  /// (sim/megabatch.hpp) packs pending (cell, seed) replicas that share an
  /// engine shape — same (n, f, dim, engine), any attack or seed — into
  /// tasks of exactly this many replicas (fewer in a shape's last task).
  /// 0 = the planner's register-aligned packs of about
  /// kMegabatchAutoLaneTarget lanes (the default). Results are
  /// bit-identical for every value, and to scalar_engine.
  std::size_t batch_size = 0;

  /// Force the scalar reference engines: the same plan with one replica
  /// per task, each run by run_sbg (run_vector_scenario, run_async_sbg).
  /// For checking and benchmarking the batched engines against their
  /// reference.
  bool scalar_engine = false;

  /// Content-addressed result cache (cache/result_cache.hpp). When set,
  /// each cell's per-seed results are looked up by their canonical key
  /// before simulating and inserted after, so repeated grids are served
  /// from memory/disk. Output is byte-identical cold vs warm vs mixed:
  /// payloads carry the raw per-seed doubles bit-exactly.
  ResultCache* cache = nullptr;
};

/// Identity of one grid cell: a (n, f) size crossed with a dimension and
/// an attack. The canonical enumeration (sweep_cell_specs) is sizes-major,
/// dims-middle, attacks-minor — the row order of the sweep CSV.
struct CellSpec {
  std::size_t n = 0;
  std::size_t f = 0;
  std::size_t dim = 1;
  AttackKind attack = AttackKind::None;

  friend bool operator==(const CellSpec&, const CellSpec&) = default;
};

/// One grid cell's aggregate over the seeds.
struct SweepCell {
  std::size_t n = 0;
  std::size_t f = 0;
  std::size_t dim = 1;
  AttackKind attack = AttackKind::None;
  Summary disagreement;  ///< final disagreement across seeds
  Summary dist_to_y;     ///< final max Dist-to-Y across seeds
};

/// The grid's cells in canonical (sizes-major, dims-middle, attacks-minor)
/// order.
std::vector<CellSpec> sweep_cell_specs(const GridSpec& grid);

/// Canonical cache-spec string for one cell of this grid: every knob that
/// can influence the cell's numbers (cell identity, cost-family tag,
/// spread, rounds, step schedule, seed axis, engine family, delay model),
/// none that provably cannot (threads, batch size, scalar engine, ISA).
/// Feed to make_cell_key (cache/cell_key.hpp); pinned by the golden-key
/// test, so accidental drift fails CI.
std::string sweep_cell_cache_spec(const GridSpec& grid,
                                  const CellSpec& spec);

/// Runs exactly the given cells (each across all seeds), in the given
/// order. Every (cell, seed) run derives its randomness solely from its
/// own seed, so a cell's aggregate does not depend on which other cells
/// run alongside it — the contract that makes sharded sweeps mergeable.
std::vector<SweepCell> run_sweep_cells(const SweepConfig& config,
                                       const std::vector<CellSpec>& specs);

/// Runs every (size, attack) cell across all seeds. Deterministic.
std::vector<SweepCell> run_sweep(const SweepConfig& config);

/// The sweep CSV header row (no trailing newline).
std::string sweep_csv_header();

/// CSV with one row per cell (medians + worst case), suitable for
/// spreadsheets/plotting.
std::string sweep_to_csv(const std::vector<SweepCell>& cells);

}  // namespace ftmao
