// Fabric lease protocol + worker/merge policy: versioned codecs, atomic
// first-wins claims, heartbeat expiry and stealing, first-wins
// completion, and the merge-side audits (double completion, build and
// ISA disagreement). The in-process end-to-end at the bottom drives
// run_fabric_worker with a lambda runner, so the whole claim → run →
// publish → steal → merge loop is exercised without subprocesses. The
// spawn-and-wait helper is driven with /bin/sh; the whole subprocess
// transport is covered by scripts/shard_e2e.sh.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/contracts.hpp"
#include "common/file_io.hpp"
#include "fabric/fabric.hpp"
#include "fabric/lease.hpp"
#include "fabric/process.hpp"
#include "sim/shard.hpp"
#include "sim/shard_merge.hpp"
#include "sim/sweep.hpp"
#include "simd/simd.hpp"

namespace ftmao::fabric {
namespace {

SweepConfig grid_config() {
  SweepConfig c;
  c.sizes = {{7, 2}, {10, 3}};
  c.attacks = {AttackKind::SplitBrain, AttackKind::SignFlip};
  c.seeds = {1, 2};
  c.rounds = 120;
  return c;
}

/// `grid` pinned for a fabric of `shards` shards by this build.
FabricGrid pinned(const GridSpec& grid, std::size_t shards) {
  return {.shard_count = shards, .spec = grid};
}

/// Fresh fabric directory under the test's scratch space.
class FabricDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (std::filesystem::temp_directory_path() /
             ("ftmao_fabric_test_" +
              std::to_string(::testing::UnitTest::GetInstance()
                                 ->random_seed()) +
              "_" + ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name()))
                .string();
    std::filesystem::remove_all(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  std::string root_;
};

ShardLease make_lease(std::size_t shard, int attempt,
                      const std::string& worker) {
  ShardLease lease;
  lease.shard_index = shard;
  lease.shard_count = 4;
  lease.attempt = attempt;
  lease.worker_id = worker;
  lease.git_rev = build_git_revision();
  lease.isa = simd_isa_name(simd_active());
  lease.heartbeat_ms = wall_clock_ms();
  return lease;
}

/// A runner computing real shard artifacts in-process — the fabric's
/// contract is transport-agnostic, so a lambda stands in for ftmao_sweep.
ShardRunner in_process_runner() {
  return [](const GridSpec& grid, std::size_t shard, std::size_t shard_count,
            const std::string& csv_scratch,
            const std::string& manifest_scratch) -> int {
    write_file(csv_scratch, sweep_to_csv(run_sweep_shard(
                                SweepConfig{grid}, shard, shard_count)));
    const ShardManifest manifest{
        .shard_index = shard,
        .shard_count = shard_count,
        .grid = grid,
        .cells = shard_cell_keys(grid, shard, shard_count)};
    write_file(manifest_scratch, manifest_to_json(manifest));
    return 0;
  };
}

/// Runs one worker over the whole fabric at `root`, then merges.
FabricMergeReport work_and_merge(const std::string& root) {
  WorkerOptions options;
  options.fabric_dir = root;
  options.worker_id = "solo";
  options.runner = in_process_runner();
  const WorkerReport report = run_fabric_worker(options);
  EXPECT_TRUE(report.errors.empty());
  EXPECT_TRUE(report.all_done);
  FabricMergeOptions merge_options;
  merge_options.fabric_dir = root;
  return collect_and_merge(merge_options);
}

std::string first_error(const FabricMergeReport& report) {
  if (!report.errors.empty()) return report.errors.front();
  if (!report.merge.errors.empty()) return report.merge.errors.front();
  return "no error";
}

TEST(FabricCodec, GridRoundTrip) {
  GridSpec spec = grid_config();
  spec.seeds = {3, 5};
  const FabricGrid grid = pinned(spec, 4);
  EXPECT_EQ(grid.version, kFabricProtocolVersion);
  EXPECT_EQ(grid.shard_count, 4u);
  EXPECT_EQ(grid.git_rev, build_git_revision());
  // Lossless, explicit seed list included, so every worker re-derives the
  // identical grid and cell partition from the pinned JSON.
  EXPECT_EQ(grid_from_json(grid_to_json(grid)), grid);
  // A shard worker reads the same file as a grid spec.
  EXPECT_EQ(grid_spec_from_json(grid_to_json(grid)), spec);

  for (const char* bad : {"0", "-1", "2.5", "18446744073709551616"}) {
    std::string json = grid_to_json(grid);
    json.replace(json.find("\"shard_count\": 4"), 16,
                 std::string("\"shard_count\": ") + bad);
    EXPECT_THROW(grid_from_json(json), ContractViolation) << bad;
  }
}

TEST(FabricCodec, LeaseRoundTrip) {
  const ShardLease lease = make_lease(2, 3, "worker-7");
  EXPECT_EQ(lease_from_json(lease_to_json(lease)), lease);
}

TEST(FabricCodec, CompletionRoundTrip) {
  CompletionRecord record;
  record.shard_index = 1;
  record.attempt = 2;
  record.worker_id = "w1";
  record.git_rev = "abc1234";
  record.isa = "avx2";
  record.wall_ms = 1234.5;
  EXPECT_EQ(completion_from_json(completion_to_json(record)), record);
}

TEST(FabricCodec, VersionMismatchRejected) {
  // A future protocol bump must not be silently misread by old readers.
  const FabricGrid grid = pinned(grid_config(), 2);
  std::string json = grid_to_json(grid);
  const auto bump = [](std::string text) {
    const std::string needle = "\"version\": 2";
    const auto pos = text.find(needle);
    EXPECT_NE(pos, std::string::npos);
    return text.replace(pos, needle.size(), "\"version\": 3");
  };
  EXPECT_THROW(grid_from_json(bump(json)), ContractViolation);
  EXPECT_THROW(lease_from_json(bump(lease_to_json(make_lease(0, 1, "w")))),
               ContractViolation);
  EXPECT_THROW(
      completion_from_json(bump(completion_to_json(CompletionRecord{}))),
      ContractViolation);
}

TEST_F(FabricDirTest, InitIsIdempotentForIdenticalGridOnly) {
  LeaseDir dir(root_);
  EXPECT_FALSE(dir.initialized());
  const FabricGrid grid = pinned(grid_config(), 4);
  dir.init(grid);
  EXPECT_TRUE(dir.initialized());
  dir.init(grid);  // same grid: no-op
  EXPECT_EQ(dir.load_grid(), grid);

  FabricGrid other = grid;
  other.spec.rounds += 1;
  EXPECT_THROW(dir.init(other), ContractViolation);
  other = grid;
  other.spec.async_engine = true;
  EXPECT_THROW(dir.init(other), ContractViolation);
}

TEST_F(FabricDirTest, ClaimRenewExpireRoundTrip) {
  LeaseDir dir(root_);
  dir.init(pinned(grid_config(), 4));
  EXPECT_FALSE(dir.current_lease(0).has_value());

  ShardLease lease = make_lease(0, 1, "w0");
  ASSERT_TRUE(dir.try_claim(lease));
  const auto current = dir.current_lease(0);
  ASSERT_TRUE(current.has_value());
  EXPECT_EQ(*current, lease);

  // Renewal advances the heartbeat in place; the same attempt stays the
  // current lease.
  const std::uint64_t before = lease.heartbeat_ms;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  dir.renew(lease);
  EXPECT_GT(lease.heartbeat_ms, before);
  EXPECT_EQ(dir.current_lease(0)->heartbeat_ms, lease.heartbeat_ms);

  // Expiry is pure arithmetic on the recorded heartbeat.
  EXPECT_FALSE(lease_expired(lease, lease.heartbeat_ms + 10, 100));
  EXPECT_TRUE(lease_expired(lease, lease.heartbeat_ms + 101, 100));

  // A steal claims attempt 2; the highest attempt becomes current.
  ShardLease steal = make_lease(0, 2, "w1");
  ASSERT_TRUE(dir.try_claim(steal));
  EXPECT_EQ(dir.current_lease(0)->worker_id, "w1");
  EXPECT_EQ(dir.current_lease(0)->attempt, 2);
}

TEST_F(FabricDirTest, DuplicateClaimRejected) {
  LeaseDir dir(root_);
  dir.init(pinned(grid_config(), 4));
  ASSERT_TRUE(dir.try_claim(make_lease(1, 1, "w0")));
  EXPECT_FALSE(dir.try_claim(make_lease(1, 1, "w1")));
  // The loser did not clobber the winner's lease.
  EXPECT_EQ(dir.current_lease(1)->worker_id, "w0");
}

TEST_F(FabricDirTest, ConcurrentClaimHasExactlyOneWinner) {
  LeaseDir dir(root_);
  dir.init(pinned(grid_config(), 4));
  constexpr int kWorkers = 8;
  std::vector<int> won(kWorkers, 0);
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&dir, &won, w] {
      won[w] = dir.try_claim(make_lease(2, 1, "w" + std::to_string(w)))
                   ? 1
                   : 0;
    });
  }
  for (std::thread& t : threads) t.join();
  int winners = 0;
  for (int w : won) winners += w;
  EXPECT_EQ(winners, 1);
}

TEST_F(FabricDirTest, CompletionIsFirstWins) {
  LeaseDir dir(root_);
  dir.init(pinned(grid_config(), 4));

  CompletionRecord first;
  first.shard_index = 0;
  first.worker_id = "w0";
  const std::string csv0 = dir.scratch_path("w0", "s.csv");
  const std::string man0 = dir.scratch_path("w0", "s.json");
  write_file(csv0, "csv-w0");
  write_file(man0, "manifest-w0");
  EXPECT_FALSE(dir.completed(0));
  EXPECT_TRUE(dir.publish_completion(first, csv0, man0));
  EXPECT_TRUE(dir.completed(0));

  // A presumed-dead worker finishing late loses the race; its scratch
  // artifacts are discarded and the canonical files stay the winner's.
  CompletionRecord late = first;
  late.worker_id = "w1";
  late.attempt = 2;
  const std::string csv1 = dir.scratch_path("w1", "s.csv");
  const std::string man1 = dir.scratch_path("w1", "s.json");
  write_file(csv1, "csv-w1");
  write_file(man1, "manifest-w1");
  EXPECT_FALSE(dir.publish_completion(late, csv1, man1));
  EXPECT_FALSE(std::filesystem::exists(csv1));
  std::ifstream kept(dir.csv_path(0));
  std::string text;
  std::getline(kept, text);
  EXPECT_EQ(text, "csv-w0");

  std::vector<std::string> errors;
  const std::vector<CompletionRecord> records = dir.completions(errors);
  EXPECT_TRUE(errors.empty());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].worker_id, "w0");
}

TEST(FabricBackoff, JitterIsDeterministicBoundedAndPerShard) {
  BackoffPolicy policy;
  policy.base_ms = 100;
  policy.max_ms = 450;
  const std::uint64_t seed = shard_backoff_seed(3);
  for (int attempt = 1; attempt <= 3; ++attempt) {
    const std::int64_t delay = retry_delay_ms(policy, seed, attempt);
    // Linear ramp plus jitter strictly inside one base interval.
    EXPECT_GE(delay, policy.base_ms * attempt);
    EXPECT_LT(delay, policy.base_ms * (attempt + 1));
    // Deterministic: same shard + attempt always waits the same time.
    EXPECT_EQ(delay, retry_delay_ms(policy, seed, attempt));
  }
  // Distinct shards desynchronize: across a few shards the jitter must
  // not collapse to one value (that was the thundering-herd bug).
  std::set<std::int64_t> delays;
  for (std::size_t shard = 0; shard < 16; ++shard)
    delays.insert(retry_delay_ms(policy, shard_backoff_seed(shard), 1));
  EXPECT_GT(delays.size(), 1u);
  // The cap clamps the ramp.
  EXPECT_EQ(retry_delay_ms(policy, seed, 1000), policy.max_ms);
  // A zero base disables waiting entirely.
  policy.base_ms = 0;
  EXPECT_EQ(retry_delay_ms(policy, seed, 2), 0);
}

TEST_F(FabricDirTest, WorkerEndToEndMergesByteIdentical) {
  LeaseDir dir(root_);
  const SweepConfig config = grid_config();
  dir.init(pinned(config, 3));

  WorkerOptions options;
  options.fabric_dir = root_;
  options.worker_id = "solo";
  options.runner = in_process_runner();
  options.log = nullptr;
  const WorkerReport report = run_fabric_worker(options);
  EXPECT_TRUE(report.errors.empty());
  EXPECT_TRUE(report.all_done);
  EXPECT_EQ(report.claimed, 3u);
  EXPECT_EQ(report.completed, 3u);
  EXPECT_EQ(report.stolen, 0u);

  FabricMergeOptions merge_options;
  merge_options.fabric_dir = root_;
  const FabricMergeReport merged = collect_and_merge(merge_options);
  EXPECT_TRUE(merged.ok()) << (merged.errors.empty()
                                   ? std::string("merge errors")
                                   : merged.errors.front());
  EXPECT_EQ(merged.merge.csv, sweep_to_csv(run_sweep(config)));
}

TEST_F(FabricDirTest, ExplicitSeedListShardsByteIdentical) {
  // Seeds need not be 1..k: the worker reads the pinned list itself.
  // The noise attack is the seed-dependent one, so the list shows.
  SweepConfig config = grid_config();
  config.attacks = {AttackKind::RandomNoise, AttackKind::SignFlip};
  config.seeds = {3, 5};
  LeaseDir(root_).init(pinned(config, 3));
  const FabricMergeReport merged = work_and_merge(root_);
  EXPECT_TRUE(merged.ok()) << first_error(merged);
  EXPECT_EQ(merged.merge.csv, sweep_to_csv(run_sweep(config)));
  config.seeds = {1, 2};
  EXPECT_NE(merged.merge.csv, sweep_to_csv(run_sweep(config)));
}

TEST_F(FabricDirTest, AsyncGridShardsAndMergesByteIdentical) {
  SweepConfig config;
  config.sizes = {{6, 1}, {11, 2}};
  config.attacks = {AttackKind::SplitBrain, AttackKind::SignFlip,
                    AttackKind::PullToTarget};
  config.seeds = {1, 2, 3};
  config.rounds = 80;
  config.async_engine = true;
  config.delay_kind = DelayKind::Uniform;
  config.delay_lo = 0.25;
  config.delay_hi = 2.0;
  LeaseDir(root_).init(pinned(config, 3));
  const FabricMergeReport merged = work_and_merge(root_);
  EXPECT_TRUE(merged.ok()) << first_error(merged);
  EXPECT_EQ(merged.merge.csv, sweep_to_csv(run_sweep(config)));
}

TEST_F(FabricDirTest, MergeRefusesManifestOfAnotherGrid) {
  // Workers ran the pinned seeds 1, 2; then grid.json was edited to seeds
  // 3, 5. The manifests agree with each other, but not with the pin.
  LeaseDir dir(root_);
  dir.init(pinned(grid_config(), 2));
  ASSERT_TRUE(work_and_merge(root_).ok());
  std::string json = read_file(dir.grid_path());
  json.replace(json.find("[1,2]"), 5, "[3,5]");
  write_file(dir.grid_path(), json);

  FabricMergeOptions merge_options;
  merge_options.fabric_dir = root_;
  const FabricMergeReport merged = collect_and_merge(merge_options);
  EXPECT_FALSE(merged.ok());
  ASSERT_EQ(merged.errors.size(), 2u);
  EXPECT_NE(merged.errors.front().find("pinned grid.json"),
            std::string::npos)
      << merged.errors.front();
}

TEST_F(FabricDirTest, LocalModeRunsEveryShardAndResumes) {
  // One worker per shard, each with its own runner; shard 1's first
  // attempt fails and is retried under its lease.
  const SweepConfig config = grid_config();
  const FabricGrid grid = pinned(config, 4);
  WorkerOptions worker;
  worker.fabric_dir = root_;
  worker.backoff.base_ms = 1;
  std::atomic<int> runners = 0;
  const auto make_runner = [&runners]() -> ShardRunner {
    ++runners;
    auto spawns = std::make_shared<std::map<std::size_t, int>>();
    return [spawns](const GridSpec& g, std::size_t shard,
                    std::size_t shard_count, const std::string& csv,
                    const std::string& manifest) {
      if (++(*spawns)[shard] == 1 && shard == 1) return 7;
      return in_process_runner()(g, shard, shard_count, csv, manifest);
    };
  };
  const LocalReport first = run_local_fabric(grid, worker, make_runner);
  EXPECT_EQ(runners.load(), 4);
  EXPECT_TRUE(first.ok()) << first_error(first);
  EXPECT_EQ(first.claimed, 4u);
  EXPECT_EQ(first.merge.csv, sweep_to_csv(run_sweep(config)));

  // A re-run on the same directory claims nothing and merges again.
  const LocalReport again = run_local_fabric(grid, worker, make_runner);
  EXPECT_TRUE(again.ok()) << first_error(again);
  EXPECT_EQ(again.claimed, 0u);
  EXPECT_EQ(again.merge.csv, first.merge.csv);

  // The directory stays pinned to its grid.
  FabricGrid other = grid;
  other.spec.rounds += 1;
  EXPECT_THROW(run_local_fabric(other, worker, make_runner),
               ContractViolation);
}

TEST_F(FabricDirTest, FleetSlicesPartitionTheGrid) {
  LeaseDir dir(root_);
  const SweepConfig config = grid_config();
  dir.init(pinned(config, 4));

  for (long slice = 0; slice < 2; ++slice) {
    WorkerOptions options;
    options.fabric_dir = root_;
    options.worker_id = "fleet" + std::to_string(slice);
    options.runner = in_process_runner();
    options.fleet_index = slice;
    options.fleet_size = 2;
    options.log = nullptr;
    const WorkerReport report = run_fabric_worker(options);
    EXPECT_TRUE(report.errors.empty());
    EXPECT_TRUE(report.slice_done);
    EXPECT_EQ(report.completed, 2u) << "slice " << slice;
  }
  std::vector<std::string> errors;
  EXPECT_EQ(dir.completions(errors).size(), 4u);
}

TEST_F(FabricDirTest, StaleLeaseIsStolenAndRecorded) {
  LeaseDir dir(root_);
  const SweepConfig config = grid_config();
  dir.init(pinned(config, 2));

  // A worker claimed shard 0 and died: its heartbeat never advances.
  ShardLease dead = make_lease(0, 1, "dead-worker");
  dead.shard_count = 2;
  dead.heartbeat_ms = wall_clock_ms() - 10'000;
  ASSERT_TRUE(dir.try_claim(dead));

  WorkerOptions options;
  options.fabric_dir = root_;
  options.worker_id = "rescuer";
  options.runner = in_process_runner();
  options.lease_ttl_ms = 200;
  options.wait_all = true;
  options.log = nullptr;
  const WorkerReport report = run_fabric_worker(options);
  EXPECT_TRUE(report.errors.empty());
  EXPECT_TRUE(report.all_done);
  EXPECT_EQ(report.stolen, 1u);

  // The acceptance property: the stolen shard's completion names a
  // different worker than the original lease, on a later attempt.
  std::vector<std::string> errors;
  for (const CompletionRecord& record : dir.completions(errors)) {
    if (record.shard_index != 0) continue;
    EXPECT_EQ(record.worker_id, "rescuer");
    EXPECT_NE(record.worker_id, dead.worker_id);
    EXPECT_EQ(record.attempt, 2);
  }
  FabricMergeOptions merge_options;
  merge_options.fabric_dir = root_;
  EXPECT_TRUE(collect_and_merge(merge_options).ok());
}

TEST_F(FabricDirTest, FailedAttemptsRetryWithBackoffThenSucceed) {
  LeaseDir dir(root_);
  const SweepConfig config = grid_config();
  dir.init(pinned(config, 2));

  std::map<std::size_t, int> calls;
  ShardRunner flaky = [&calls](const GridSpec& grid, std::size_t shard,
                               std::size_t shard_count,
                               const std::string& csv_scratch,
                               const std::string& manifest_scratch) -> int {
    if (++calls[shard] == 1 && shard == 1) return 7;  // first attempt fails
    return in_process_runner()(grid, shard, shard_count, csv_scratch,
                               manifest_scratch);
  };

  WorkerOptions options;
  options.fabric_dir = root_;
  options.worker_id = "flaky";
  options.runner = flaky;
  options.retries = 2;
  options.backoff.base_ms = 1;  // keep the test fast
  options.log = nullptr;
  const WorkerReport report = run_fabric_worker(options);
  EXPECT_TRUE(report.errors.empty());
  EXPECT_TRUE(report.all_done);
  EXPECT_EQ(report.completed, 2u);
  EXPECT_EQ(calls[1], 2);

  // Worker-local retries reuse the lease: still attempt 1, no steal.
  std::vector<std::string> errors;
  for (const CompletionRecord& record : dir.completions(errors))
    EXPECT_EQ(record.attempt, 1);
  EXPECT_EQ(report.stolen, 0u);
}

TEST_F(FabricDirTest, MergeRejectsDoubleCompletion) {
  LeaseDir dir(root_);
  const SweepConfig config = grid_config();
  dir.init(pinned(config, 2));
  WorkerOptions options;
  options.fabric_dir = root_;
  options.worker_id = "w0";
  options.runner = in_process_runner();
  options.log = nullptr;
  ASSERT_TRUE(run_fabric_worker(options).all_done);

  // Within one directory the link(2) protocol makes double completion
  // impossible; overlaid CI artifact directories can still carry two done
  // records for one shard. The merge must refuse that shard.
  CompletionRecord rogue;
  rogue.shard_index = 0;
  rogue.attempt = 2;
  rogue.worker_id = "rogue";
  rogue.git_rev = build_git_revision();
  write_file(dir.root() + "/results/shard_0.done.overlay.json",
             completion_to_json(rogue));

  FabricMergeOptions merge_options;
  merge_options.fabric_dir = root_;
  const FabricMergeReport merged = collect_and_merge(merge_options);
  EXPECT_FALSE(merged.ok());
  ASSERT_FALSE(merged.errors.empty());
  EXPECT_NE(merged.errors.front().find("double completion"),
            std::string::npos)
      << merged.errors.front();
}

TEST_F(FabricDirTest, MergeRejectsForeignBuildAndIsaDisagreement) {
  LeaseDir dir(root_);
  const SweepConfig config = grid_config();
  dir.init(pinned(config, 2));
  WorkerOptions options;
  options.fabric_dir = root_;
  options.worker_id = "w0";
  options.runner = in_process_runner();
  options.log = nullptr;
  ASSERT_TRUE(run_fabric_worker(options).all_done);

  std::vector<std::string> errors;
  std::vector<CompletionRecord> records = dir.completions(errors);
  ASSERT_EQ(records.size(), 2u);

  // Rewrite shard 1's record as if a different build produced it.
  CompletionRecord foreign = records[1];
  foreign.git_rev = "deadbee";
  write_file(dir.done_path(foreign.shard_index),
             completion_to_json(foreign));
  FabricMergeOptions merge_options;
  merge_options.fabric_dir = root_;
  FabricMergeReport merged = collect_and_merge(merge_options);
  EXPECT_FALSE(merged.ok());
  ASSERT_FALSE(merged.errors.empty());
  EXPECT_NE(merged.errors.front().find("mixing binaries"), std::string::npos)
      << merged.errors.front();

  // Now the right build but a different SIMD backend: rejected by
  // default, accepted under --allow-isa-mix (the merge's bitwise overlap
  // cross-check is then the only identity guarantee).
  foreign.git_rev = build_git_revision();
  foreign.isa = records[1].isa == "scalar" ? "avx2" : "scalar";
  write_file(dir.done_path(foreign.shard_index),
             completion_to_json(foreign));
  merged = collect_and_merge(merge_options);
  EXPECT_FALSE(merged.ok());
  ASSERT_FALSE(merged.errors.empty());
  EXPECT_NE(merged.errors.front().find("--allow-isa-mix"),
            std::string::npos)
      << merged.errors.front();

  merge_options.allow_isa_mix = true;
  merged = collect_and_merge(merge_options);
  EXPECT_TRUE(merged.ok()) << (merged.errors.empty()
                                   ? std::string("merge errors")
                                   : merged.errors.front());
  EXPECT_EQ(merged.merge.csv, sweep_to_csv(run_sweep(config)));
}

TEST_F(FabricDirTest, WaitAllWorkerLeavesWhenForeignShardCompletes) {
  // The only shard is under a live foreign lease, so the worker has
  // nothing to claim and must wait; another thread then publishes that
  // shard's completion, which has to end the wait.
  LeaseDir dir(root_);
  const SweepConfig config = grid_config();
  dir.init(pinned(config, 1));
  ShardLease holder = make_lease(0, 1, "holder");
  holder.shard_count = 1;
  ASSERT_TRUE(dir.try_claim(holder));

  std::thread publisher([this, &config] {
    LeaseDir holder_dir(root_);
    const std::string csv = holder_dir.scratch_path("holder", "s.csv");
    const std::string manifest = holder_dir.scratch_path("holder", "s.json");
    in_process_runner()(config, 0, 1, csv, manifest);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    CompletionRecord record;
    record.shard_index = 0;
    record.worker_id = "holder";
    record.git_rev = build_git_revision();
    record.isa = simd_isa_name(simd_active());
    holder_dir.publish_completion(record, csv, manifest);
  });

  WorkerOptions options;
  options.fabric_dir = root_;
  options.worker_id = "waiter";
  options.runner = in_process_runner();
  options.wait_all = true;
  options.max_wall_sec = 60;  // a missed wake-up fails instead of hanging
  options.log = nullptr;
  const WorkerReport report = run_fabric_worker(options);
  publisher.join();
  EXPECT_TRUE(report.errors.empty());
  EXPECT_TRUE(report.all_done);
  EXPECT_EQ(report.claimed, 0u);
  EXPECT_EQ(report.completed, 0u);
}

int run_sh(const std::string& script, double timeout_sec) {
  return run_process({"/bin/sh", "-c", script}, timeout_sec);
}

TEST(FabricProcess, ExitCodeIsReturned) {
  EXPECT_EQ(run_sh("exit 0", 10), 0);
  EXPECT_EQ(run_sh("exit 3", 10), 3);
}

TEST(FabricProcess, KillingSignalMapsTo128PlusSignal) {
  EXPECT_EQ(run_sh("kill -KILL $$", 10), 128 + SIGKILL);
}

TEST(FabricProcess, TimeoutKillsAndReapsTheChild) {
  const auto started = std::chrono::steady_clock::now();
  EXPECT_EQ(run_sh("exec sleep 5", 0.2), 124);
  // Killed at the limit, not waited out (no tighter bound: the
  // sanitizer lanes run this too).
  EXPECT_LT(std::chrono::steady_clock::now() - started,
            std::chrono::seconds(4));
  // Reaped: this process has no child left, not even a zombie.
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

TEST(FabricProcess, MissingBinaryExits127) {
  testing::internal::CaptureStderr();
  const int status = run_process({"/nonexistent/ftmao_no_such_worker"}, 10);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(status, 127);
  EXPECT_EQ(err,
            "exec '/nonexistent/ftmao_no_such_worker' failed: "
            "No such file or directory\n");
}

TEST(FabricProcess, DefaultWorkerIsTheExecutablesSibling) {
  // A bare argv[0], as a binary started through PATH gets, still names
  // the executable's directory, not the working directory.
  const std::filesystem::path self =
      std::filesystem::read_symlink("/proc/self/exe");
  EXPECT_EQ(default_worker_path("ftmao_fabric"),
            (self.parent_path() / "ftmao_sweep").string());
}

}  // namespace
}  // namespace ftmao::fabric
