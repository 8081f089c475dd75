#pragma once

// Content-addressed cache keys for memoized simulation cells.
//
// A cell's identity is its *canonical spec string*: an explicit, ordered
// rendering of every knob that can influence the numeric result — system
// size, dimension, attack configuration, cost-family mix, constraint box,
// seeds, rounds, step schedule, delay/fault model — prefixed with the
// engine schema revision below. Knobs that provably cannot change the
// output are deliberately absent: thread count, batch size, SIMD backend,
// and scalar-vs-batched engine all produce bit-identical results (the
// per-backend/per-chunking equivalence suites pin this), so one key is
// sound across every execution strategy.
//
// The 128-bit hash of the spec is the cell's *address* (map key, disk
// file name); the spec itself is carried alongside and echoed into every
// persistent record, so equality checks compare the full identity and a
// hash collision can never alias two different cells.

#include <cstdint>
#include <string>

namespace ftmao {

/// Engine numeric-schema revision. Bump this on ANY change that can alter
/// the bits an engine produces — trim kernels, RNG streams, scenario
/// construction, step schedules, metric definitions, aggregation order.
/// The revision is mixed into every cell key, so records written under an
/// older schema simply become unreachable (a miss, never a wrong answer).
/// Rev 2: LogCosh/SmoothAbs/SoftplusBasin derivatives moved from libm to
/// the deterministic polynomial kernels (simd/det_math_impl.hpp) — same
/// functions, different (now platform-pinned) bits.
/// Rev 3: the vector cells' failure-free optimum is minimized exactly
/// (fixed 1/L steps to a gradient tolerance), and a grid's delayed-strike
/// cells wake at round rounds / 2 + 1 instead of round 1.
inline constexpr std::uint64_t kEngineSchemaRev = 3;

/// FNV-1a over `bytes` starting from `basis`, splitmix64-finalized so
/// short inputs still avalanche. Stable across platforms by construction.
std::uint64_t cache_hash64(const std::string& bytes, std::uint64_t basis);

/// Canonical rendering of a double for spec strings: shortest
/// round-trippable form (std::to_chars), so equal bits always render
/// identically and distinct bits never collapse.
std::string cache_canon_double(double v);

struct CellKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  std::string spec;  ///< canonical spec (with rev prefix) — the identity

  /// 32 lowercase hex chars: hi then lo, zero-padded. Used as the disk
  /// record file name.
  std::string hex() const;

  friend bool operator==(const CellKey&, const CellKey&) = default;
};

/// Keys `canonical_spec` under `schema_rev` (tests pass explicit old/new
/// revisions to prove cross-version records cannot collide).
CellKey make_cell_key(const std::string& canonical_spec,
                      std::uint64_t schema_rev = kEngineSchemaRev);

}  // namespace ftmao
