#include "fabric/lease.hpp"

#include <errno.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <limits>
#include <sstream>

#include "common/contracts.hpp"
#include "common/file_io.hpp"
#include "common/json_min.hpp"

namespace ftmao::fabric {

namespace fs = std::filesystem;

namespace {

constexpr std::uint64_t kIntMax = std::numeric_limits<int>::max();

void check_version(int version, const std::string& what) {
  if (version != kFabricProtocolVersion)
    throw ContractViolation(
        "fabric " + what + ": protocol version " + std::to_string(version) +
        " does not match this binary's version " +
        std::to_string(kFabricProtocolVersion));
}

/// Atomically installs `tmp` at `target` iff `target` does not exist:
/// link(2) is atomic on one filesystem and fails with EEXIST when some
/// other process installed a file there first. The temp file is removed
/// either way.
bool publish_exclusive(const std::string& tmp, const std::string& target) {
  const int rc = ::link(tmp.c_str(), target.c_str());
  const int saved_errno = errno;
  ::unlink(tmp.c_str());
  if (rc == 0) return true;
  if (saved_errno == EEXIST) return false;
  throw ContractViolation("fabric: link('" + tmp + "', '" + target +
                          "') failed: " + std::strerror(saved_errno));
}

/// Atomically replaces `target` with `tmp` (rename never exposes a
/// partial document to readers).
void publish_replace(const std::string& tmp, const std::string& target) {
  std::error_code ec;
  fs::rename(tmp, target, ec);
  if (ec)
    throw ContractViolation("fabric: rename('" + tmp + "', '" + target +
                            "') failed: " + ec.message());
}

}  // namespace

std::string grid_to_json(const FabricGrid& g) {
  std::ostringstream os;
  os << "{\n"
     << "  \"version\": " << g.version << ",\n"
     << "  \"shard_count\": " << g.shard_count << ",\n"
     << "  \"grid\": " << grid_spec_to_json(g.spec) << ",\n"
     << "  \"git_rev\": \"" << g.git_rev << "\"\n"
     << "}\n";
  return os.str();
}

FabricGrid grid_from_json(const std::string& json) {
  using namespace jsonmin;
  FabricGrid g;
  g.version = static_cast<int>(uint_field(json, "version", kIntMax));
  check_version(g.version, "grid");
  g.shard_count = uint_field(json, "shard_count");
  g.spec = grid_spec_from_json(json);
  g.git_rev = string_field(json, "git_rev");
  if (g.shard_count < 1)
    throw ContractViolation("fabric grid: shard_count must be >= 1");
  return g;
}

std::string lease_to_json(const ShardLease& l) {
  std::ostringstream os;
  os << "{\n"
     << "  \"version\": " << l.version << ",\n"
     << "  \"shard_index\": " << l.shard_index << ",\n"
     << "  \"shard_count\": " << l.shard_count << ",\n"
     << "  \"attempt\": " << l.attempt << ",\n"
     << "  \"worker_id\": \"" << l.worker_id << "\",\n"
     << "  \"git_rev\": \"" << l.git_rev << "\",\n"
     << "  \"isa\": \"" << l.isa << "\",\n"
     << "  \"heartbeat_ms\": " << l.heartbeat_ms << "\n"
     << "}\n";
  return os.str();
}

ShardLease lease_from_json(const std::string& json) {
  using namespace jsonmin;
  ShardLease l;
  l.version = static_cast<int>(uint_field(json, "version", kIntMax));
  check_version(l.version, "lease");
  l.shard_index = uint_field(json, "shard_index");
  l.shard_count = uint_field(json, "shard_count");
  l.attempt = static_cast<int>(uint_field(json, "attempt", kIntMax));
  l.worker_id = string_field(json, "worker_id");
  l.git_rev = string_field(json, "git_rev");
  l.isa = string_field(json, "isa");
  l.heartbeat_ms = uint_field(json, "heartbeat_ms");
  if (l.shard_index >= l.shard_count)
    throw ContractViolation("fabric lease: shard_index >= shard_count");
  if (l.attempt < 1)
    throw ContractViolation("fabric lease: attempt must be >= 1");
  return l;
}

std::string completion_to_json(const CompletionRecord& r) {
  std::ostringstream os;
  os << "{\n"
     << "  \"version\": " << r.version << ",\n"
     << "  \"shard_index\": " << r.shard_index << ",\n"
     << "  \"attempt\": " << r.attempt << ",\n"
     << "  \"worker_id\": \"" << r.worker_id << "\",\n"
     << "  \"git_rev\": \"" << r.git_rev << "\",\n"
     << "  \"isa\": \"" << r.isa << "\",\n"
     << "  \"wall_ms\": " << jsonmin::exact_number(r.wall_ms) << "\n"
     << "}\n";
  return os.str();
}

CompletionRecord completion_from_json(const std::string& json) {
  using namespace jsonmin;
  CompletionRecord r;
  r.version = static_cast<int>(uint_field(json, "version", kIntMax));
  check_version(r.version, "completion record");
  r.shard_index = uint_field(json, "shard_index");
  r.attempt = static_cast<int>(uint_field(json, "attempt", kIntMax));
  r.worker_id = string_field(json, "worker_id");
  r.git_rev = string_field(json, "git_rev");
  r.isa = string_field(json, "isa");
  r.wall_ms = number_field(json, "wall_ms");
  return r;
}

std::uint64_t wall_clock_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

bool lease_expired(const ShardLease& lease, std::uint64_t now_ms,
                   std::uint64_t ttl_ms) {
  return now_ms > lease.heartbeat_ms && now_ms - lease.heartbeat_ms > ttl_ms;
}

LeaseDir::LeaseDir(std::string root) : root_(std::move(root)) {
  FTMAO_EXPECTS(!root_.empty());
}

std::string LeaseDir::csv_path(std::size_t shard) const {
  return root_ + "/results/shard_" + std::to_string(shard) + ".csv";
}

std::string LeaseDir::manifest_path(std::size_t shard) const {
  return root_ + "/results/shard_" + std::to_string(shard) + ".json";
}

std::string LeaseDir::lease_path(std::size_t shard, int attempt) const {
  return root_ + "/leases/shard_" + std::to_string(shard) + ".a" +
         std::to_string(attempt) + ".lease";
}

std::string LeaseDir::done_path(std::size_t shard) const {
  return root_ + "/results/shard_" + std::to_string(shard) + ".done.json";
}

std::string LeaseDir::scratch_path(const std::string& worker_id,
                                   const std::string& name) const {
  return root_ + "/results/.wip_" + worker_id + "_" + name;
}

std::string LeaseDir::grid_path() const { return root_ + "/grid.json"; }

bool LeaseDir::initialized() const { return fs::exists(grid_path()); }

void LeaseDir::init(const FabricGrid& grid) {
  fs::create_directories(root_ + "/leases");
  fs::create_directories(root_ + "/results");
  const std::string grid_path = this->grid_path();
  const std::string json = grid_to_json(grid);
  if (fs::exists(grid_path)) {
    if (grid_from_json(read_file(grid_path)) != grid)
      throw ContractViolation(
          "fabric: '" + root_ +
          "' is already initialized with a different grid");
    return;
  }
  const std::string tmp = grid_path + ".tmp";
  write_file(tmp, json);
  if (!publish_exclusive(tmp, grid_path)) {
    // Lost an init race; the winner's grid must be ours.
    if (grid_from_json(read_file(grid_path)) != grid)
      throw ContractViolation(
          "fabric: '" + root_ +
          "' was concurrently initialized with a different grid");
  }
}

FabricGrid LeaseDir::load_grid() const {
  return grid_from_json(read_file(grid_path()));
}

std::optional<ShardLease> LeaseDir::current_lease(std::size_t shard) const {
  const std::string prefix = "shard_" + std::to_string(shard) + ".a";
  std::optional<ShardLease> best;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root_ + "/leases", ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) != 0 || name.find(".lease") == std::string::npos)
      continue;
    ShardLease lease;
    try {
      lease = lease_from_json(read_file(entry.path().string()));
    } catch (const std::exception&) {
      continue;  // partially transported artifact; a newer attempt decides
    }
    if (lease.shard_index != shard) continue;
    if (!best || lease.attempt > best->attempt) best = lease;
  }
  return best;
}

bool LeaseDir::try_claim(const ShardLease& lease) {
  const std::string target = lease_path(lease.shard_index, lease.attempt);
  const std::string tmp = scratch_path(
      lease.worker_id, "claim_" + std::to_string(lease.shard_index) + ".a" +
                           std::to_string(lease.attempt));
  write_file(tmp, lease_to_json(lease));
  return publish_exclusive(tmp, target);
}

void LeaseDir::renew(ShardLease& lease) {
  lease.heartbeat_ms = wall_clock_ms();
  const std::string tmp = scratch_path(
      lease.worker_id, "renew_" + std::to_string(lease.shard_index) + ".a" +
                           std::to_string(lease.attempt));
  write_file(tmp, lease_to_json(lease));
  publish_replace(tmp, lease_path(lease.shard_index, lease.attempt));
}

bool LeaseDir::completed(std::size_t shard) const {
  return fs::exists(done_path(shard));
}

bool LeaseDir::publish_completion(const CompletionRecord& record,
                                  const std::string& csv_scratch,
                                  const std::string& manifest_scratch) {
  if (completed(record.shard_index)) {
    std::error_code ec;
    fs::remove(csv_scratch, ec);
    fs::remove(manifest_scratch, ec);
    return false;
  }
  // Artifacts first, done record last: the done record is the commit
  // point, so a reader that sees it also sees the CSV and manifest.
  publish_replace(csv_scratch, csv_path(record.shard_index));
  publish_replace(manifest_scratch, manifest_path(record.shard_index));
  const std::string tmp = scratch_path(
      record.worker_id, "done_" + std::to_string(record.shard_index));
  write_file(tmp, completion_to_json(record));
  return publish_exclusive(tmp, done_path(record.shard_index));
}

std::vector<CompletionRecord> LeaseDir::completions(
    std::vector<std::string>& errors) const {
  std::vector<CompletionRecord> records;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root_ + "/results", ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("shard_", 0) != 0 ||
        name.find(".done") == std::string::npos ||
        name.size() < 5 || name.substr(name.size() - 5) != ".json")
      continue;
    try {
      records.push_back(completion_from_json(read_file(entry.path().string())));
    } catch (const std::exception& e) {
      errors.push_back("completion record '" + entry.path().string() +
                       "': " + e.what());
    }
  }
  return records;
}

}  // namespace ftmao::fabric
