#include "fabric/fabric.hpp"

#include <signal.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <ostream>
#include <thread>

#include "common/contracts.hpp"
#include "common/file_io.hpp"
#include "common/rng.hpp"
#include "simd/simd.hpp"

namespace ftmao::fabric {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// One insertion per line, so workers sharing a stream (local mode) do
/// not interleave mid-line.
void log_line(std::ostream* log, const std::string& line) {
  if (log != nullptr) *log << ("fabric: " + line + "\n") << std::flush;
}

/// An idle worker rescans every shard (claims, steals) this often.
constexpr auto kRescanPeriod = std::chrono::milliseconds(20);

/// Between rescans an idle worker stats the open shards' done records
/// this often, so a --wait-all worker leaves within about 1 ms of the
/// grid's last completion. (A kernel directory watch would wake on the
/// event itself, but closing one took 16-24 ms on Linux 6.x, a cost
/// every worker would then pay on exit.)
constexpr Clock::duration kCompletionCheck = std::chrono::milliseconds(1);

/// Sleeps until `until`, or until one of the `open` shards completes.
void wait_for_completion(const LeaseDir& dir,
                         const std::vector<std::size_t>& open,
                         Clock::time_point until) {
  for (auto now = Clock::now(); now < until; now = Clock::now()) {
    std::this_thread::sleep_for(std::min(kCompletionCheck, until - now));
    for (const std::size_t shard : open)
      if (dir.completed(shard)) return;
  }
}

/// Renews a lease's heartbeat from a side thread while the shard runs,
/// so a long shard never looks stale to other workers.
class HeartbeatThread {
 public:
  HeartbeatThread(LeaseDir& dir, ShardLease lease, std::uint64_t ttl_ms) {
    const auto interval = std::chrono::milliseconds(
        std::max<std::uint64_t>(ttl_ms / 3, 20));
    thread_ = std::thread([this, &dir, lease, interval]() mutable {
      std::unique_lock<std::mutex> lock(mutex_);
      while (!cv_.wait_for(lock, interval, [this] { return stop_; }))
        dir.renew(lease);
    });
  }

  ~HeartbeatThread() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::thread thread_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace

std::uint64_t shard_backoff_seed(std::size_t shard_index) {
  return mix64(static_cast<std::uint64_t>(shard_index));
}

std::int64_t retry_delay_ms(const BackoffPolicy& policy, std::uint64_t seed,
                            int attempt) {
  if (policy.base_ms <= 0) return 0;
  if (attempt < 1) attempt = 1;
  const std::uint64_t mix = mix64(seed ^ static_cast<std::uint64_t>(attempt));
  const auto jitter = static_cast<std::int64_t>(
      mix % static_cast<std::uint64_t>(policy.base_ms));
  return std::min(policy.max_ms, policy.base_ms * attempt + jitter);
}

WorkerReport run_fabric_worker(const WorkerOptions& options) {
  WorkerReport report;
  FTMAO_EXPECTS(options.runner != nullptr);
  FTMAO_EXPECTS(!options.worker_id.empty());

  LeaseDir dir(options.fabric_dir);
  FabricGrid grid;
  try {
    grid = dir.load_grid();
    grid.spec.validate();
  } catch (const std::exception& e) {
    report.errors.push_back(std::string("cannot load fabric grid: ") +
                            e.what());
    return report;
  }
  if (grid.git_rev != build_git_revision()) {
    report.errors.push_back("fabric was initialized by build '" +
                            grid.git_rev + "' but this worker is build '" +
                            build_git_revision() + "' (mixing binaries)");
    return report;
  }

  const std::size_t shard_count = grid.shard_count;
  const auto claimable = [&](std::size_t shard) {
    if (options.fleet_size <= 0) return true;
    return static_cast<long>(shard % static_cast<std::size_t>(
                                         options.fleet_size)) ==
           options.fleet_index;
  };
  // Rotate each worker's scan to a different start so a fleet sharing one
  // directory does not contend on shard 0 first.
  const std::size_t rotation = fnv1a(options.worker_id) % shard_count;

  std::vector<int> attempts_used(shard_count, 0);
  const Clock::time_point start = Clock::now();
  std::vector<Clock::time_point> eligible(shard_count, start);
  // A deadline beyond the clock's range is no deadline.
  const std::chrono::duration<double> max_wall(options.max_wall_sec);
  const Clock::time_point deadline =
      options.max_wall_sec > 0 && max_wall < Clock::time_point::max() - start
          ? start + std::chrono::duration_cast<Clock::duration>(max_wall)
          : Clock::time_point::max();

  const std::string isa = simd_isa_name(simd_active());

  while (true) {
    std::vector<std::size_t> open;
    bool slice_done = true;
    for (std::size_t i = 0; i < shard_count; ++i) {
      if (dir.completed(i)) continue;
      open.push_back(i);
      if (claimable(i)) slice_done = false;
    }
    if (open.empty() || (slice_done && !options.wait_all)) break;

    bool did_work = false;
    Clock::time_point next_retry = Clock::time_point::max();
    for (std::size_t off = 0; off < shard_count; ++off) {
      const std::size_t i = (rotation + off) % shard_count;
      if (!claimable(i) || dir.completed(i)) continue;
      if (attempts_used[i] > options.retries) continue;  // local budget spent
      if (Clock::now() < eligible[i]) {
        next_retry = std::min(next_retry, eligible[i]);
        continue;
      }

      const std::optional<ShardLease> current = dir.current_lease(i);
      const std::uint64_t now_ms = wall_clock_ms();
      ShardLease mine;
      if (current && current->worker_id == options.worker_id) {
        // Our own lease (a local retry, or a previous run of this worker
        // id): re-run under it — worker-local retries never re-lease.
        mine = *current;
      } else {
        if (current && !lease_expired(*current, now_ms, options.lease_ttl_ms))
          continue;  // live foreign lease; its holder is working
        mine.shard_index = i;
        mine.shard_count = shard_count;
        mine.attempt = current ? current->attempt + 1 : 1;
        mine.worker_id = options.worker_id;
        mine.git_rev = build_git_revision();
        mine.isa = isa;
        mine.heartbeat_ms = now_ms;
        if (!dir.try_claim(mine)) continue;  // lost the claim race
        ++report.claimed;
        if (current) {
          ++report.stolen;
          log_line(options.log,
                   "stole shard " + std::to_string(i) + " from stale lease of "
                   "'" + current->worker_id + "' (attempt " +
                   std::to_string(mine.attempt) + ")");
        } else {
          log_line(options.log, "claimed shard " + std::to_string(i) +
                                    " (attempt " +
                                    std::to_string(mine.attempt) + ")");
        }
        if (options.inject_die_shard >= 0 &&
            i == static_cast<std::size_t>(options.inject_die_shard)) {
          log_line(options.log,
                   "inject-die: raising SIGKILL after claiming shard " +
                       std::to_string(i));
          if (options.log != nullptr) options.log->flush();
          ::raise(SIGKILL);
        }
      }

      ++attempts_used[i];
      dir.renew(mine);  // fresh heartbeat before (re)running
      const std::string csv_scratch = dir.scratch_path(
          options.worker_id, "shard_" + std::to_string(i) + ".csv");
      const std::string manifest_scratch = dir.scratch_path(
          options.worker_id, "shard_" + std::to_string(i) + ".manifest.json");
      int status = 0;
      const Clock::time_point started = Clock::now();
      {
        HeartbeatThread heartbeat(dir, mine, options.lease_ttl_ms);
        try {
          status = options.runner(grid.spec, i, shard_count, csv_scratch,
                                  manifest_scratch);
        } catch (const std::exception& e) {
          status = -1;
          log_line(options.log, "shard " + std::to_string(i) +
                                    " runner threw: " + e.what());
        }
      }
      const double wall_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - started)
              .count();

      did_work = true;
      if (status == 0) {
        CompletionRecord record;
        record.shard_index = i;
        record.attempt = mine.attempt;
        record.worker_id = options.worker_id;
        record.git_rev = build_git_revision();
        record.isa = isa;
        record.wall_ms = wall_ms;
        if (dir.publish_completion(record, csv_scratch, manifest_scratch)) {
          ++report.completed;
          log_line(options.log, "completed shard " + std::to_string(i) +
                                    " (attempt " +
                                    std::to_string(mine.attempt) + ")");
        } else {
          log_line(options.log,
                   "shard " + std::to_string(i) +
                       " was completed by another worker first; discarding "
                       "this attempt's artifacts");
        }
      } else if (attempts_used[i] > options.retries) {
        log_line(options.log, "shard " + std::to_string(i) +
                                  " unrecoverable after " +
                                  std::to_string(attempts_used[i]) +
                                  " local attempts (status " +
                                  std::to_string(status) + ")");
      } else {
        const std::int64_t delay = retry_delay_ms(
            options.backoff, shard_backoff_seed(i), attempts_used[i]);
        eligible[i] = Clock::now() + std::chrono::milliseconds(delay);
        log_line(options.log, "shard " + std::to_string(i) + " attempt " +
                                  std::to_string(attempts_used[i]) +
                                  " failed (status " + std::to_string(status) +
                                  ") — retrying in " + std::to_string(delay) +
                                  " ms");
      }
    }

    if (did_work) continue;
    const Clock::time_point now = Clock::now();
    if (now >= deadline) {
      report.errors.push_back("deadline (--max-wall-sec) passed with shards "
                              "still incomplete");
      break;
    }
    // Nothing claimable and not asked to wait.
    if (next_retry == Clock::time_point::max() && !options.wait_all) break;
    const Clock::time_point wake =
        std::min({now + kRescanPeriod, next_retry, deadline});
    wait_for_completion(dir, open, wake);
  }

  report.all_done = true;
  report.slice_done = true;
  for (std::size_t i = 0; i < shard_count; ++i) {
    if (dir.completed(i)) continue;
    report.all_done = false;
    if (claimable(i)) report.slice_done = false;
  }
  return report;
}

FabricMergeReport collect_and_merge(const FabricMergeOptions& options) {
  FabricMergeReport report;
  LeaseDir dir(options.fabric_dir);
  FabricGrid grid;
  try {
    grid = dir.load_grid();
  } catch (const std::exception& e) {
    report.errors.push_back(std::string("cannot load fabric grid: ") +
                            e.what());
    return report;
  }

  std::vector<CompletionRecord> records = dir.completions(report.errors);
  std::sort(records.begin(), records.end(),
            [](const CompletionRecord& a, const CompletionRecord& b) {
              return a.shard_index < b.shard_index ||
                     (a.shard_index == b.shard_index && a.attempt < b.attempt);
            });

  std::map<std::size_t, std::vector<CompletionRecord>> by_shard;
  for (const CompletionRecord& record : records) {
    if (record.shard_index >= grid.shard_count) {
      report.errors.push_back(
          "completion record for shard " + std::to_string(record.shard_index) +
          " outside the grid's " + std::to_string(grid.shard_count) +
          " shards");
      continue;
    }
    by_shard[record.shard_index].push_back(record);
  }

  // Protocol audit: exactly one completion per shard, and one build/ISA
  // across the fleet. The lease protocol makes double completion
  // impossible within one directory (first-wins link), so a duplicate
  // here means overlaid artifacts from divergent runs — refuse the shard.
  const CompletionRecord* reference = nullptr;
  for (auto& [shard, shard_records] : by_shard) {
    if (shard_records.size() > 1) {
      std::string who;
      for (const CompletionRecord& r : shard_records) {
        if (!who.empty()) who += " and ";
        who += "'" + r.worker_id + "' (attempt " + std::to_string(r.attempt) +
               ")";
      }
      report.errors.push_back("double completion of shard " +
                              std::to_string(shard) + " by " + who);
      continue;
    }
    const CompletionRecord& record = shard_records.front();
    if (record.git_rev != grid.git_rev) {
      report.errors.push_back(
          "shard " + std::to_string(shard) + ": completed by build '" +
          record.git_rev + "' but the fabric grid was initialized by '" +
          grid.git_rev + "' (mixing binaries)");
      continue;
    }
    if (reference == nullptr) {
      reference = &record;
    } else if (!options.allow_isa_mix && record.isa != reference->isa) {
      report.errors.push_back(
          "shard " + std::to_string(shard) + ": completed under ISA '" +
          record.isa + "' but shard " +
          std::to_string(reference->shard_index) + " ran under '" +
          reference->isa + "' (pass --allow-isa-mix for heterogeneous "
          "fleets)");
      continue;
    }
    report.completions.push_back(record);
  }

  std::vector<ShardArtifact> artifacts;
  for (const CompletionRecord& record : report.completions) {
    const std::string tag = "shard " + std::to_string(record.shard_index);
    ShardArtifact artifact;
    try {
      artifact.manifest =
          manifest_from_json(read_file(dir.manifest_path(record.shard_index)));
      artifact.csv = read_file(dir.csv_path(record.shard_index));
    } catch (const std::exception& e) {
      report.errors.push_back(tag + ": unreadable artifacts: " + e.what());
      continue;
    }
    // The manifest records the grid its worker actually ran; one that is
    // not this shard of the pinned grid cannot be merged into it.
    const ShardManifest& m = artifact.manifest;
    if (m.grid != grid.spec || m.shard_count != grid.shard_count ||
        m.shard_index != record.shard_index) {
      report.errors.push_back(tag + ": manifest describes shard " +
                              std::to_string(m.shard_index) + "/" +
                              std::to_string(m.shard_count) +
                              " of a grid other than the pinned grid.json");
      continue;
    }
    artifacts.push_back(std::move(artifact));
  }
  report.merge = merge_shards(artifacts);
  return report;
}

LocalReport run_local_fabric(const FabricGrid& grid,
                             const WorkerOptions& worker,
                             const std::function<ShardRunner()>& make_runner) {
  LeaseDir(worker.fabric_dir).init(grid);
  std::vector<WorkerReport> reports(grid.shard_count);
  {
    std::vector<std::jthread> threads;
    for (std::size_t i = 0; i < grid.shard_count; ++i) {
      WorkerOptions options = worker;
      options.worker_id = "local" + std::to_string(i);
      options.runner = make_runner();
      threads.emplace_back([&report = reports[i], options] {
        try {
          report = run_fabric_worker(options);
        } catch (const std::exception& e) {
          report.errors.push_back("worker '" + options.worker_id +
                                  "': " + e.what());
        }
      });
    }
  }
  FabricMergeOptions merge;
  merge.fabric_dir = worker.fabric_dir;
  LocalReport report{collect_and_merge(merge)};
  for (const WorkerReport& r : reports) {
    report.claimed += r.claimed;
    report.errors.insert(report.errors.end(), r.errors.begin(),
                         r.errors.end());
  }
  return report;
}

}  // namespace ftmao::fabric
