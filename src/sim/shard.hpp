#pragma once

// Sharded sweeps: deterministic partition of a sweep grid into K disjoint
// shards, each runnable in its own process, plus the per-shard manifest
// that makes the recombination auditable.
//
// The assignment is a pure function of the *cell identity* (n, f, attack
// name) and the shard count — not of the cell's position in the grid — so
// every worker computes the same partition regardless of how its config
// enumerates sizes and attacks, and a cell keeps its shard when unrelated
// cells are added to the grid. Together with the per-cell seeding
// contract (docs/performance.md: every (cell, seed) run derives all
// randomness from its own seed), this makes shard outputs order-free
// mergeable: the union of the K shard CSVs is byte-for-byte the
// single-process sweep CSV, which sim/shard_merge.hpp verifies at merge
// time.

#include <cstddef>
#include <string>
#include <vector>

#include "sim/grid_spec.hpp"
#include "sim/sweep.hpp"

namespace ftmao {

/// The git revision baked in at configure time ("unknown" outside a git
/// checkout). Recorded in manifests so a merge can refuse to combine
/// artifacts from different builds.
std::string build_git_revision();

/// Stable shard assignment: FNV-1a over (n, f, dim, attack name) mod
/// shard_count. Depends only on the cell identity and shard_count — not
/// on enumeration order, grid composition, or the AttackKind enum's
/// numeric values (names are the stable surface). Scalar cells (dim 1)
/// hash exactly as they did before the dim axis existed, so historical
/// assignments are preserved.
std::size_t shard_of_cell(const CellSpec& cell, std::size_t shard_count);

/// The cells of shard `shard_index` (< shard_count), in canonical grid
/// order. The K shards partition sweep_cell_specs(grid): disjoint,
/// complete, possibly empty for small grids.
std::vector<CellSpec> shard_cell_specs(const GridSpec& grid,
                                       std::size_t shard_index,
                                       std::size_t shard_count);

/// Runs exactly this shard's cells. Equivalent to filtering the rows of
/// run_sweep(config) down to the shard's cells (asserted bitwise in
/// tests/shard_test.cpp).
std::vector<SweepCell> run_sweep_shard(const SweepConfig& config,
                                       std::size_t shard_index,
                                       std::size_t shard_count);

/// "n:f:dim:attack-name" — the cell's stable textual identity (manifest
/// entries, merge diagnostics).
std::string cell_key(const CellSpec& cell);

/// cell_key() of every cell of shard_cell_specs(grid, ...), in order.
std::vector<std::string> shard_cell_keys(const GridSpec& grid,
                                         std::size_t shard_index,
                                         std::size_t shard_count);

/// Everything a merge needs to audit one shard's output: which grid it
/// believes it is part of, which cells it covered, and under what
/// conditions it ran. Written next to the shard CSV by
/// `ftmao_sweep --manifest`.
struct ShardManifest {
  int schema = 2;
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  GridSpec grid;  ///< the full grid, not just this shard's slice

  std::vector<std::string> cells;  ///< cell_key()s covered, grid order

  std::string git_rev = build_git_revision();  ///< the writing build
  std::string isa = "scalar";       ///< active SIMD backend during the run
  double wall_ms = 0.0;             ///< wall time of the shard run
  int exit_status = 0;              ///< 0 = completed

  friend bool operator==(const ShardManifest&, const ShardManifest&) = default;
};

/// JSON round-trip; the grid is the GridSpec object under "grid".
/// manifest_from_json throws ContractViolation on missing/malformed
/// fields, including counts that are negative, fractional or out of
/// range.
std::string manifest_to_json(const ShardManifest& manifest);
ShardManifest manifest_from_json(const std::string& json);

}  // namespace ftmao
