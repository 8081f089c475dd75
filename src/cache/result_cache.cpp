#include "cache/result_cache.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>
#include <utility>

#include "common/contracts.hpp"

namespace ftmao {

namespace {

// Record layout (all integers explicit little-endian):
//   magic "FTMAOC1\n" | key.hi | key.lo | spec_size | spec bytes
//   | payload_size | payload bytes | checksum(spec + payload)
constexpr char kMagic[8] = {'F', 'T', 'M', 'A', 'O', 'C', '1', '\n'};
constexpr std::uint64_t kChecksumBasis = 1469598103934665603ull;

void append_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}

std::uint64_t read_u64(const std::string& bytes, std::size_t pos) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(bytes[pos + i]))
         << (8 * i);
  return v;
}

}  // namespace

ResultCache::ResultCache(CacheConfig config) : config_(std::move(config)) {}

ResultCache::Shard& ResultCache::shard_for(const CellKey& key) {
  return shards_[key.lo % kShards];
}

std::string ResultCache::record_path(const CellKey& key) const {
  return config_.dir + "/" + key.hex() + ".ftc";
}

bool ResultCache::memory_insert(const CellKey& key,
                                const std::string& payload) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto found = shard.map.find(std::string_view(key.spec));
  if (found != shard.map.end()) {
    shard.lru.splice(shard.lru.begin(), shard.lru, found->second);
    std::string& stored = found->second->payload;
    if (stored == payload) return false;
    shard.bytes = shard.bytes - stored.size() + payload.size();
    stored = payload;
  } else {
    shard.lru.push_front(Entry{key.spec, payload});
    const auto it = shard.lru.begin();
    shard.map.emplace(std::string_view(it->spec), it);
    shard.bytes += it->spec.size() + it->payload.size();
  }

  // Size-capped LRU: evict from the cold end until this shard is back
  // under its slice of the budget. The entry just inserted is never
  // evicted, even if it alone exceeds the slice.
  const std::size_t budget = config_.max_memory_bytes / kShards;
  while (shard.bytes > budget && shard.lru.size() > 1) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.spec.size() + victim.payload.size();
    shard.map.erase(std::string_view(victim.spec));
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

std::optional<std::string> ResultCache::lookup(
    const CellKey& key,
    const std::function<bool(const std::string&)>& usable) {
  std::optional<std::string> payload;
  {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto found = shard.map.find(std::string_view(key.spec));
    if (found != shard.map.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, found->second);
      payload = found->second->payload;
    }
  }
  bool from_disk = false;
  if (!payload && !config_.dir.empty()) {
    payload = read_record(key);
    from_disk = payload.has_value();
  }
  if (!payload || (usable && !usable(*payload))) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  if (from_disk) {
    memory_insert(key, *payload);
    disk_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return payload;
}

void ResultCache::insert(const CellKey& key, const std::string& payload) {
  if (!memory_insert(key, payload)) return;
  inserts_.fetch_add(1, std::memory_order_relaxed);
  if (!config_.dir.empty()) write_record(key, payload);
}

std::optional<std::string> ResultCache::read_record(const CellKey& key) {
  std::string bytes;
  {
    std::ifstream is(record_path(key), std::ios::binary);
    if (!is) return std::nullopt;  // absent: a plain miss, not an error
    std::ostringstream os;
    os << is.rdbuf();
    bytes = os.str();
  }

  // Every structural defect — short file, wrong magic, key/spec mismatch,
  // bad sizes, checksum failure — degrades to a miss.
  const auto defect = [this] {
    disk_errors_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  };
  std::size_t pos = 0;
  if (bytes.size() < sizeof(kMagic) + 3 * 8) return defect();
  if (bytes.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) != 0)
    return defect();
  pos = sizeof(kMagic);
  if (read_u64(bytes, pos) != key.hi || read_u64(bytes, pos + 8) != key.lo)
    return defect();
  pos += 16;
  const std::uint64_t spec_size = read_u64(bytes, pos);
  pos += 8;
  if (spec_size > bytes.size() - pos) return defect();
  if (bytes.compare(pos, spec_size, key.spec) != 0 ||
      spec_size != key.spec.size())
    return defect();
  pos += spec_size;
  if (bytes.size() - pos < 8) return defect();
  const std::uint64_t payload_size = read_u64(bytes, pos);
  pos += 8;
  if (payload_size > bytes.size() - pos ||
      bytes.size() - pos != payload_size + 8)
    return defect();
  std::string payload = bytes.substr(pos, payload_size);
  pos += payload_size;
  if (read_u64(bytes, pos) != cache_hash64(key.spec + payload, kChecksumBasis))
    return defect();
  return payload;
}

void ResultCache::write_record(const CellKey& key,
                               const std::string& payload) {
  // Failures here (unwritable dir, full disk) must never fail the run:
  // the cache silently degrades to compute-only and counts the defect.
  try {
    std::filesystem::create_directories(config_.dir);
    std::string record;
    record.reserve(sizeof(kMagic) + 40 + key.spec.size() + payload.size());
    record.append(kMagic, sizeof(kMagic));
    append_u64(record, key.hi);
    append_u64(record, key.lo);
    append_u64(record, key.spec.size());
    record += key.spec;
    append_u64(record, payload.size());
    record += payload;
    append_u64(record, cache_hash64(key.spec + payload, kChecksumBasis));

    // Temp-file + atomic rename: a concurrent reader (or a crashed
    // writer) can only ever observe a whole record or no record.
    const std::string path = record_path(key);
    const std::string tmp =
        path + ".tmp." +
        std::to_string(
            std::hash<std::thread::id>{}(std::this_thread::get_id()));
    {
      std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
      if (!os) throw std::runtime_error("cannot open " + tmp);
      os.write(record.data(), static_cast<std::streamsize>(record.size()));
      if (!os.flush()) throw std::runtime_error("short write to " + tmp);
    }
    std::filesystem::rename(tmp, path);
  } catch (const std::exception&) {
    disk_errors_.fetch_add(1, std::memory_order_relaxed);
  }
}

CacheStats ResultCache::stats() const {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.disk_hits = disk_hits_.load(std::memory_order_relaxed);
  s.disk_errors = disk_errors_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    // const_cast-free snapshot: the mutex is mutable state of a const
    // object in spirit; lock through a non-const view of the array.
    Shard& mutable_shard = const_cast<Shard&>(shard);
    std::lock_guard<std::mutex> lock(mutable_shard.mutex);
    s.memory_bytes += shard.bytes;
    s.entries += shard.lru.size();
  }
  return s;
}

std::string cache_stats_line(const CacheStats& s) {
  std::ostringstream os;
  os << "cache: hits=" << s.hits << " misses=" << s.misses
     << " inserts=" << s.inserts << " evictions=" << s.evictions
     << " mem_bytes=" << s.memory_bytes << " entries=" << s.entries
     << " disk_hits=" << s.disk_hits << " disk_errors=" << s.disk_errors;
  return os.str();
}

void PayloadWriter::put_u64(std::uint64_t v) { append_u64(bytes_, v); }

void PayloadWriter::put_double(double v) {
  static_assert(sizeof(double) == sizeof(std::uint64_t));
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(bits);
}

void PayloadWriter::put_string(const std::string& s) {
  put_u64(s.size());
  bytes_ += s;
}

std::uint64_t PayloadReader::get_u64() {
  if (bytes_.size() - pos_ < 8)
    throw ContractViolation("cache payload: truncated u64");
  const std::uint64_t v = read_u64(bytes_, pos_);
  pos_ += 8;
  return v;
}

double PayloadReader::get_double() {
  const std::uint64_t bits = get_u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string PayloadReader::get_string() {
  const std::uint64_t size = get_u64();
  if (size > bytes_.size() - pos_)
    throw ContractViolation("cache payload: truncated string");
  std::string s = bytes_.substr(pos_, size);
  pos_ += size;
  return s;
}

}  // namespace ftmao
