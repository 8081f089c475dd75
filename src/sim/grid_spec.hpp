#pragma once

// The grid a sweep computes: every field that decides its output CSV,
// and nothing that cannot (threads, batching, the scalar engine, the ISA
// and the cache never change a byte). SweepConfig derives from it; shard
// manifests and the fabric's grid.json embed its JSON object, which
// `ftmao_sweep --spec FILE` reads back, so a grid reaches a shard worker
// as a file, not as re-rendered flags. The object sits under the key
// "grid", every member required, doubles written to read back bitwise:
//
//   "grid": {"sizes": "7:2,10:3", "dims": "1", "attacks": "noise,pull",
//            "seeds": [3, 5], "rounds": 4000, "spread": 8,
//            "step": "harmonic:1:0.75", "engine": "sync",
//            "delay": "uniform", "delay_lo": 0.5, "delay_hi": 1.5}

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/async_runner.hpp"
#include "sim/scenario.hpp"

namespace ftmao {

struct GridSpec {
  std::vector<std::pair<std::size_t, std::size_t>> sizes;  ///< (n, f) pairs
  std::vector<AttackKind> attacks;
  std::vector<std::uint64_t> seeds;
  double spread = 8.0;
  std::size_t rounds = 4000;
  StepConfig step;
  /// 1 = the paper's scalar algorithm; d >= 2 the coordinate-wise
  /// vector-SBG heuristic cell. Async grids take only 1.
  std::vector<std::size_t> dims = {1};
  /// The Section 7 asynchronous engine (n > 5f) under the delay model
  /// below; a sync grid keeps the delay fields at these defaults.
  bool async_engine = false;
  DelayKind delay_kind = DelayKind::Uniform;
  double delay_lo = 0.5;
  double delay_hi = 1.5;

  /// Throws ContractViolation naming the first field that makes the grid
  /// unrunnable: an empty or repeated axis, n <= 3f (5f async), zero
  /// rounds, a non-finite number, step or delay values the engines
  /// refuse, or a sync grid with delays other than the defaults (the
  /// sync engine would never read them).
  void validate() const;

  friend bool operator==(const GridSpec&, const GridSpec&) = default;
};

// Axis codecs in flag syntax ("7:2,10:3", "1,2", "noise,pull",
// "harmonic:1:0.75"). The parsers are strict: an empty entry, a sign or
// trailing text throws ContractViolation naming the field.
std::string format_sizes(
    const std::vector<std::pair<std::size_t, std::size_t>>& sizes);
std::vector<std::pair<std::size_t, std::size_t>> parse_sizes(
    const std::string& text);
std::string format_dims(const std::vector<std::size_t>& dims);
std::vector<std::size_t> parse_dims(const std::string& text);
std::string format_attacks(const std::vector<AttackKind>& attacks);
std::vector<AttackKind> parse_attacks(const std::string& text);
std::string format_seeds(const std::vector<std::uint64_t>& seeds);
std::string format_step(const StepConfig& step);
StepConfig parse_step(const std::string& text);
bool parse_engine(const std::string& name);  ///< "async" true, "sync" false

/// The "grid" object, members indented for a top-level key.
std::string grid_spec_to_json(const GridSpec& grid);

/// Reads `document`'s "grid" object; throws ContractViolation naming a
/// missing or malformed member. Neither direction validates.
GridSpec grid_spec_from_json(const std::string& document);

}  // namespace ftmao
