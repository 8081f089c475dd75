// Tests for the grid-level megabatch planner (sim/megabatch.hpp) and the
// bit-identity contract of the drivers it schedules: sweep, certify, and
// attack-search results must be byte/bit-identical for every batch size
// and thread count, and against the scalar reference engine (the same
// plan in batch-1 tasks) — the plan changes lane occupancy and
// wall-clock, never output. tests/driver_oracle_test.cpp checks the
// drivers against serial loops that share no driver code. Planner
// arithmetic is pinned with an injected lane-width function so the
// expectations hold on any machine and under any FTMAO_ISA override.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "sim/attack_search.hpp"
#include "sim/certify.hpp"
#include "sim/megabatch.hpp"
#include "sim/scenario.hpp"
#include "sim/scenario_io.hpp"
#include "sim/sweep.hpp"

namespace ftmao {
namespace {

// The width-aware dispatch rule of an 8-lane (AVX-512) machine: widest
// width whose padding waste stays under half a register. Injected so the
// planner tests are independent of the host's actual SIMD support.
std::size_t mock_width8(std::size_t lanes) {
  for (std::size_t w : {std::size_t{8}, std::size_t{4}, std::size_t{2}}) {
    const std::size_t pad = (lanes + w - 1) / w * w;
    if (2 * (pad - lanes) < w) return w;
  }
  return 1;
}

std::vector<MegabatchItem> uniform_items(std::size_t count,
                                         const MegabatchKey& key) {
  std::vector<MegabatchItem> items(count);
  for (std::size_t i = 0; i < count; ++i) {
    items[i].key = key;
    items[i].cell = i;
  }
  return items;
}

TEST(MegabatchPlan, EmptyItemsGiveEmptyPlan) {
  const MegabatchPlan plan = plan_megabatches({}, 0, 100, mock_width8);
  EXPECT_TRUE(plan.items.empty());
  EXPECT_TRUE(plan.tasks.empty());
  EXPECT_EQ(plan.stats.batches, 0u);
}

TEST(MegabatchPlan, GroupsInterleavedShapesByFirstAppearance) {
  // Items alternate between two shapes; the plan must stable-group them
  // (first-appearance group order, caller order within a group) so each
  // task's range is shape-homogeneous.
  const MegabatchKey a{MegabatchEngine::kSync, 7, 2, 1};
  const MegabatchKey b{MegabatchEngine::kSync, 10, 3, 1};
  std::vector<MegabatchItem> items;
  for (std::size_t i = 0; i < 6; ++i) {
    items.push_back({i % 2 == 0 ? a : b, i, 0});
  }
  const MegabatchPlan plan = plan_megabatches(items, 0, 100, mock_width8);
  ASSERT_EQ(plan.items.size(), 6u);
  // a-items (cells 0, 2, 4) first, then b-items (cells 1, 3, 5).
  EXPECT_EQ(plan.items[0].cell, 0u);
  EXPECT_EQ(plan.items[1].cell, 2u);
  EXPECT_EQ(plan.items[2].cell, 4u);
  EXPECT_EQ(plan.items[3].cell, 1u);
  EXPECT_EQ(plan.items[5].cell, 5u);
  for (const MegabatchTask& task : plan.tasks) {
    for (std::size_t i = task.first; i < task.first + task.count; ++i)
      EXPECT_EQ(plan.items[i].key, task.key);
  }
}

TEST(MegabatchPlan, AutoSlicingIsRegisterAlignedWithOneTail) {
  // dim 1 on an 8-lane machine: q = 8 replicas per full register, capped
  // at 32 lanes. Nine replicas slice into one aligned chunk of 8 plus a
  // tail of 1 — never one 9-lane batch, which would dispatch scalar.
  const MegabatchKey key{MegabatchEngine::kSync, 7, 2, 1};
  const MegabatchPlan plan =
      plan_megabatches(uniform_items(9, key), 0, 100, mock_width8);
  ASSERT_EQ(plan.tasks.size(), 2u);
  EXPECT_EQ(plan.tasks[0].count, 8u);
  EXPECT_EQ(plan.tasks[1].count, 1u);
  EXPECT_EQ(plan.tasks[0].first, 0u);
  EXPECT_EQ(plan.tasks[1].first, 8u);
}

TEST(MegabatchPlan, OccupancyArithmeticPinned) {
  // 27 dim-1 replicas of one shape: slices [24, 3] (24 = largest multiple
  // of q=8 under the remaining count after no full 32-cap chunk fits).
  // Padding: 24 lanes fill w=8 exactly; the 3-lane tail pads to 4 at w=4.
  // Occupancy = 27 useful / 28 padded.
  const MegabatchKey key{MegabatchEngine::kSync, 7, 2, 1};
  const MegabatchPlan plan =
      plan_megabatches(uniform_items(27, key), 0, 100, mock_width8);
  ASSERT_EQ(plan.tasks.size(), 2u);
  EXPECT_EQ(plan.tasks[0].count, 24u);
  EXPECT_EQ(plan.tasks[1].count, 3u);
  EXPECT_EQ(plan.stats.replicas, 27u);
  EXPECT_EQ(plan.stats.lanes, 27u);
  EXPECT_EQ(plan.stats.padded_lanes, 28u);
  EXPECT_NEAR(plan.stats.occupancy(), 27.0 / 28.0, 1e-12);
  EXPECT_GE(plan.stats.occupancy(), 0.9);
}

TEST(MegabatchPlan, BatchSizePinsChunksExactly) {
  const MegabatchKey key{MegabatchEngine::kSync, 7, 2, 1};
  const MegabatchPlan plan =
      plan_megabatches(uniform_items(9, key), 4, 100, mock_width8);
  ASSERT_EQ(plan.tasks.size(), 3u);
  EXPECT_EQ(plan.tasks[0].count, 4u);
  EXPECT_EQ(plan.tasks[1].count, 4u);
  EXPECT_EQ(plan.tasks[2].count, 1u);
}

TEST(MegabatchPlan, DimAwareChunking) {
  // dim 3: q = w / gcd(3, 8) = 8 replicas = 24 lanes per aligned chunk
  // (already past the 32-lane cap, so one q-block per chunk). Ten
  // replicas slice into [8, 2].
  const MegabatchKey d3{MegabatchEngine::kVector, 7, 2, 3};
  const MegabatchPlan plan3 =
      plan_megabatches(uniform_items(10, d3), 0, 100, mock_width8);
  ASSERT_EQ(plan3.tasks.size(), 2u);
  EXPECT_EQ(plan3.tasks[0].count, 8u);
  EXPECT_EQ(plan3.tasks[1].count, 2u);

  // dim 8: q = 1 replica fills a register; the 32-lane cap packs 4
  // replicas per chunk. Six replicas slice into [4, 2].
  const MegabatchKey d8{MegabatchEngine::kVector, 7, 2, 8};
  const MegabatchPlan plan8 =
      plan_megabatches(uniform_items(6, d8), 0, 100, mock_width8);
  ASSERT_EQ(plan8.tasks.size(), 2u);
  EXPECT_EQ(plan8.tasks[0].count, 4u);
  EXPECT_EQ(plan8.tasks[1].count, 2u);
}

TEST(MegabatchPlan, TasksAreCostOrderedLongestFirst) {
  // A big shape appearing after a small one must still be submitted
  // first; equal costs keep input (first-index) order.
  const MegabatchKey small{MegabatchEngine::kSync, 7, 2, 1};
  const MegabatchKey big{MegabatchEngine::kSync, 13, 4, 1};
  std::vector<MegabatchItem> items;
  for (std::size_t i = 0; i < 3; ++i) items.push_back({small, i, 0});
  for (std::size_t i = 0; i < 3; ++i) items.push_back({big, 3 + i, 0});
  const MegabatchPlan plan = plan_megabatches(items, 0, 100, mock_width8);
  ASSERT_EQ(plan.tasks.size(), 2u);
  EXPECT_EQ(plan.tasks[0].key, big);
  EXPECT_EQ(plan.tasks[1].key, small);
  EXPECT_GT(plan.tasks[0].cost, plan.tasks[1].cost);
}

TEST(MegabatchPlan, UniformSlicesCoverTheRangeInOrder) {
  const MegabatchKey key{MegabatchEngine::kAsync, 11, 2, 1};
  const std::vector<MegabatchTask> tasks =
      plan_uniform_slices(11, 0, 100, key, mock_width8);
  std::size_t next = 0;
  std::size_t total = 0;
  for (const MegabatchTask& task : tasks) {
    total += task.count;
    EXPECT_EQ(task.key, key);
  }
  EXPECT_EQ(total, 11u);
  // Tasks are cost-ordered, but their ranges must tile [0, 11) exactly.
  std::vector<MegabatchTask> sorted = tasks;
  std::sort(sorted.begin(), sorted.end(),
            [](const MegabatchTask& a, const MegabatchTask& b) {
              return a.first < b.first;
            });
  for (const MegabatchTask& task : sorted) {
    EXPECT_EQ(task.first, next);
    next += task.count;
  }
  EXPECT_EQ(next, 11u);
}

TEST(MegabatchStats, GlobalAccumulatorSumsRecords) {
  engine_stats_reset();
  engine_stats_record(3, 3, 4);
  engine_stats_record(8, 8, 8);
  const EngineStats stats = engine_stats_snapshot();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.replicas, 11u);
  EXPECT_EQ(stats.lanes, 11u);
  EXPECT_EQ(stats.padded_lanes, 12u);
  EXPECT_NEAR(stats.occupancy(), 11.0 / 12.0, 1e-12);
  engine_stats_reset();
  EXPECT_EQ(engine_stats_snapshot().batches, 0u);
}

// ---------------------------------------------------------------------------
// Driver bit-identity: batch sizes / thread counts / scalar engine.

SweepConfig matrix_config() {
  SweepConfig c;
  c.sizes = {{7, 2}, {10, 3}};
  c.dims = {1, 3};
  c.attacks = {AttackKind::SplitBrain, AttackKind::SignFlip,
               AttackKind::PullToTarget, AttackKind::RandomNoise};
  c.seeds = {1, 2, 3, 4, 5};
  c.rounds = 120;
  return c;
}

TEST(MegabatchSweep, CsvIdenticalAcrossModesBatchSizesAndThreads) {
  SweepConfig config = matrix_config();
  config.scalar_engine = true;
  const std::string reference = sweep_to_csv(run_sweep(config));
  config.scalar_engine = false;
  for (std::size_t batch : {std::size_t{0}, std::size_t{2}, std::size_t{3}}) {
    for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      config.batch_size = batch;
      config.num_threads = threads;
      EXPECT_EQ(sweep_to_csv(run_sweep(config)), reference)
          << "batch=" << batch << " threads=" << threads;
    }
  }
}

TEST(MegabatchSweep, AsyncCsvIdenticalAcrossModes) {
  SweepConfig config;
  config.async_engine = true;
  config.sizes = {{6, 1}, {11, 2}};
  config.attacks = {AttackKind::SplitBrain, AttackKind::SignFlip,
                    AttackKind::PullToTarget};
  config.seeds = {1, 2, 3, 4, 5};
  config.rounds = 150;
  config.scalar_engine = true;
  const std::string reference = sweep_to_csv(run_sweep(config));
  config.scalar_engine = false;
  for (std::size_t batch : {std::size_t{0}, std::size_t{2}}) {
    config.batch_size = batch;
    EXPECT_EQ(sweep_to_csv(run_sweep(config)), reference)
        << "batch=" << batch;
  }
}

std::string report_text(const CertificationReport& report) {
  std::string text = report.passed ? "PASS\n" : "FAIL\n";
  for (const CertifyCheck& check : report.checks) {
    text += check.name + "|" + (check.passed ? "1" : "0") + "|" +
            check.detail + "\n";
  }
  return text;
}

TEST(MegabatchCertify, ReportIdenticalAcrossModes) {
  CertifyOptions options;
  options.rounds = 300;
  options.async_rounds = 150;
  options.vector_rounds = 150;
  options.scalar_engine = true;
  const std::string reference = report_text(certify_sbg(options));
  options.scalar_engine = false;
  for (std::size_t batch : {std::size_t{0}, std::size_t{3}}) {
    options.batch_size = batch;
    EXPECT_EQ(report_text(certify_sbg(options)), reference)
        << "batch=" << batch;
  }
}

void expect_outcomes_identical(const AttackSearchResult& a,
                               const AttackSearchResult& b) {
  EXPECT_EQ(a.reference_state, b.reference_state);
  EXPECT_EQ(a.optima, b.optima);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].name, b.outcomes[i].name);
    EXPECT_EQ(a.outcomes[i].final_state, b.outcomes[i].final_state);
    EXPECT_EQ(a.outcomes[i].bias, b.outcomes[i].bias);
    EXPECT_EQ(a.outcomes[i].dist_to_y, b.outcomes[i].dist_to_y);
    EXPECT_EQ(a.outcomes[i].disagreement, b.outcomes[i].disagreement);
  }
}

TEST(MegabatchAttackSearch, RankingIdenticalAcrossModes) {
  const Scenario base =
      make_standard_scenario(7, 2, 8.0, AttackKind::None, 200, 1);
  const auto candidates = standard_attack_grid();
  const AttackSearchResult scalar = find_strongest_attack(
      base, candidates, 1, 0, /*scalar_engine=*/true);
  for (std::size_t batch : {std::size_t{0}, std::size_t{3}}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    expect_outcomes_identical(
        scalar, find_strongest_attack(base, candidates, 1, batch, false));
  }
}

}  // namespace
}  // namespace ftmao
