#pragma once

// Content-addressed result cache: a directory of records, one per key
// (cache/cell_key.hpp), shared by every process that names it.
//
// Soundness rests on two pillars. First, every engine in this tree is
// bit-identical across thread counts, batch sizes, scalar/batched paths,
// and SIMD backends, so a cell's result is a pure function of its
// canonical spec — one cached value serves every execution strategy.
// Second, the key's spec string is echoed in full inside every record,
// so a lookup only ever returns a payload whose complete identity
// matches — a hash collision degrades to a miss, never to a wrong answer.
//
// Records are defensive by construction: magic, key echo, spec echo,
// sizes, and an FNV checksum over the payload are all verified on read,
// and any corrupt, truncated, or mismatched record is treated as a miss
// (counted in `disk_errors`), never as an error. Writes go through a
// temp-file + atomic rename, so concurrent writers (sweep shards sharing
// one --cache-dir) can only ever publish whole records.
//
// There is no in-memory tier: a driver asks for each key once per
// process (replica_driver.hpp: cached_pass), so a record read once is
// never read again by the same process.

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "cache/cell_key.hpp"

namespace ftmao {

struct CacheConfig {
  /// The record directory; required. Created on first insert if
  /// missing. It is not size-capped: records are small, immutable, and
  /// shared across processes, so eviction policy belongs to the operator.
  std::string dir;
};

/// Monotonic counters, snapshot via ResultCache::stats().
struct CacheStats {
  std::uint64_t hits = 0;        ///< lookups served
  std::uint64_t misses = 0;      ///< lookups that found nothing usable
  std::uint64_t inserts = 0;     ///< records written
  std::uint64_t disk_errors = 0; ///< corrupt records and failed writes
};

class ResultCache {
 public:
  explicit ResultCache(CacheConfig config);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// The payload of the verified record under `key`, or nullopt. A
  /// payload `usable` (when given) rejects counts as a miss.
  /// Thread-safe.
  std::optional<std::string> lookup(
      const CellKey& key,
      const std::function<bool(const std::string&)>& usable = {});

  /// Writes `payload` as the record under `key`, replacing any record
  /// there: a driver stores a recomputed result over a payload it could
  /// not decode. Counts one insert. Thread-safe.
  void insert(const CellKey& key, const std::string& payload);

  CacheStats stats() const;

 private:
  std::string record_path(const CellKey& key) const;
  /// Verified read of a record; nullopt (+ disk_errors) on any defect.
  std::optional<std::string> read_record(const CellKey& key);

  const std::string dir_;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> inserts_{0};
  std::atomic<std::uint64_t> disk_errors_{0};
};

/// "cache: hits=... misses=... inserts=... disk_errors=..." — the
/// one-line counter summary the sweep/certify tools print.
std::string cache_stats_line(const CacheStats& stats);

// --- payload codec ----------------------------------------------------
//
// Payloads are flat byte strings written and read field-by-field in an
// explicit little-endian order (independent of host endianness). Readers
// throw ContractViolation on any overrun; cache consumers catch it and
// treat the record as a miss.

class PayloadWriter {
 public:
  void put_u64(std::uint64_t v);
  void put_double(double v);  ///< bit-exact (round-trips every payload)
  void put_bool(bool v) { put_u64(v ? 1 : 0); }
  void put_string(const std::string& s);

  const std::string& bytes() const { return bytes_; }

 private:
  std::string bytes_;
};

class PayloadReader {
 public:
  explicit PayloadReader(const std::string& bytes) : bytes_(bytes) {}

  std::uint64_t get_u64();
  double get_double();
  bool get_bool() { return get_u64() != 0; }
  std::string get_string();

  /// True when every byte has been consumed (decoders check this to
  /// reject payloads with trailing garbage).
  bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  const std::string& bytes_;
  std::size_t pos_ = 0;
};

}  // namespace ftmao
