#pragma once

// Content-addressed result cache: a sharded in-memory LRU store with an
// optional persistent on-disk tier, keyed by cache/cell_key.hpp keys.
//
// Soundness rests on two pillars. First, every engine in this tree is
// bit-identical across thread counts, batch sizes, scalar/batched paths,
// and SIMD backends, so a cell's result is a pure function of its
// canonical spec — one cached value serves every execution strategy.
// Second, the key's spec string is stored with every entry (in memory as
// the map key, on disk as a full echo inside the record), so a lookup
// only ever returns a payload whose complete identity matches — a hash
// collision degrades to a miss, never to a wrong answer.
//
// Disk records are defensive by construction: magic, key echo, spec echo,
// sizes, and an FNV checksum over the payload are all verified on read,
// and any corrupt, truncated, or mismatched record is treated as a miss
// (counted in `disk_errors`), never as an error. Writes go through a
// temp-file + atomic rename, so concurrent writers (sweep shards sharing
// one --cache-dir) can only ever publish whole records.

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "cache/cell_key.hpp"

namespace ftmao {

struct CacheConfig {
  /// Directory for the persistent tier; empty = in-memory only. Created
  /// on first insert if missing.
  std::string dir;

  /// In-memory LRU capacity in bytes (spec + payload are both counted).
  /// The disk tier is not size-capped: records are small, immutable, and
  /// shared across processes, so eviction policy belongs to the operator.
  std::size_t max_memory_bytes = 256ull << 20;
};

/// Monotonic counters, snapshot via ResultCache::stats().
struct CacheStats {
  std::uint64_t hits = 0;        ///< lookups served (memory or disk)
  std::uint64_t misses = 0;      ///< lookups that found nothing usable
  std::uint64_t inserts = 0;     ///< payloads stored (new or replaced)
  std::uint64_t evictions = 0;   ///< LRU entries dropped from memory
  std::uint64_t disk_hits = 0;   ///< hits that were faulted in from disk
  std::uint64_t disk_errors = 0; ///< corrupt/truncated/mismatched records
  std::uint64_t memory_bytes = 0;  ///< resident spec+payload bytes
  std::uint64_t entries = 0;       ///< resident entry count
};

class ResultCache {
 public:
  explicit ResultCache(CacheConfig config);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// The payload stored under `key`, or nullopt. A payload `usable`
  /// (when given) rejects counts as a miss and is not faulted in from
  /// disk. Thread-safe; a hit refreshes the entry's LRU position.
  std::optional<std::string> lookup(
      const CellKey& key,
      const std::function<bool(const std::string&)>& usable = {});

  /// Stores `payload` under `key` (memory, and disk when configured).
  /// Idempotent: re-inserting a key with the payload it holds refreshes
  /// LRU and rewrites nothing. A different payload replaces the stored
  /// one in memory and on disk and counts as an insert: a driver stores a
  /// recomputed result over a payload it could not decode. Thread-safe.
  void insert(const CellKey& key, const std::string& payload);

  CacheStats stats() const;

  const CacheConfig& config() const { return config_; }

 private:
  struct Entry {
    std::string spec;  // also the map key; owned by the list node
    std::string payload;
  };
  struct Shard {
    std::mutex mutex;
    std::list<Entry> lru;  // front = most recent
    std::unordered_map<std::string_view, std::list<Entry>::iterator> map;
    std::size_t bytes = 0;
  };

  Shard& shard_for(const CellKey& key);
  std::string record_path(const CellKey& key) const;
  /// Verified read of a disk record; nullopt (+ disk_errors) on any defect.
  std::optional<std::string> read_record(const CellKey& key);
  void write_record(const CellKey& key, const std::string& payload);
  /// Stores into the shard map under its lock; returns false if the key
  /// already holds this payload.
  bool memory_insert(const CellKey& key, const std::string& payload);

  CacheConfig config_;
  static constexpr std::size_t kShards = 16;
  std::array<Shard, kShards> shards_;

  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> inserts_{0};
  mutable std::atomic<std::uint64_t> evictions_{0};
  mutable std::atomic<std::uint64_t> disk_hits_{0};
  mutable std::atomic<std::uint64_t> disk_errors_{0};
};

/// "cache: hits=... misses=... inserts=... evictions=... mem_bytes=...
/// disk_hits=... disk_errors=..." — the one-line counter summary the
/// sweep/certify tools print.
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
