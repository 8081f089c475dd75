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

ResultCache::ResultCache(CacheConfig config) : dir_(std::move(config.dir)) {
  FTMAO_EXPECTS(!dir_.empty());
}

std::string ResultCache::record_path(const CellKey& key) const {
  return dir_ + "/" + key.hex() + ".ftc";
}

std::optional<std::string> ResultCache::lookup(
    const CellKey& key,
    const std::function<bool(const std::string&)>& usable) {
  std::optional<std::string> payload = read_record(key);
  if (!payload || (usable && !usable(*payload))) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return payload;
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

void ResultCache::insert(const CellKey& key, const std::string& payload) {
  inserts_.fetch_add(1, std::memory_order_relaxed);
  // Failures here (unwritable dir, full disk) must never fail the run:
  // the cache silently degrades to compute-only and counts the defect.
  try {
    std::filesystem::create_directories(dir_);
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
  return {.hits = hits_.load(std::memory_order_relaxed),
          .misses = misses_.load(std::memory_order_relaxed),
          .inserts = inserts_.load(std::memory_order_relaxed),
          .disk_errors = disk_errors_.load(std::memory_order_relaxed)};
}

std::string cache_stats_line(const CacheStats& s) {
  std::ostringstream os;
  os << "cache: hits=" << s.hits << " misses=" << s.misses
     << " inserts=" << s.inserts << " disk_errors=" << s.disk_errors;
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
