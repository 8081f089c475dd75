// Tests for the sweep aggregation module, and for the seed rule it runs
// by: a sync cell whose attack reads no seed (attack_reads_seed) is the
// same run for every seed, so the sweep runs it once.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "sim/async_runner.hpp"
#include "sim/batch_runner.hpp"
#include "sim/batch_vector_runner.hpp"
#include "sim/megabatch.hpp"
#include "sim/runner.hpp"
#include "sim/scenario_io.hpp"
#include "sim/sweep.hpp"
#include "sim/vector_scenario.hpp"

namespace ftmao {
namespace {

SweepConfig small_config() {
  SweepConfig c;
  c.sizes = {{7, 2}};
  c.attacks = {AttackKind::SplitBrain, AttackKind::Silent};
  c.seeds = {1, 2};
  c.rounds = 300;
  return c;
}

TEST(Sweep, ProducesOneCellPerSizeAttackPair) {
  SweepConfig c = small_config();
  c.sizes = {{7, 2}, {10, 3}};
  const auto cells = run_sweep(c);
  EXPECT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].n, 7u);
  EXPECT_EQ(cells[0].attack, AttackKind::SplitBrain);
  EXPECT_EQ(cells[3].n, 10u);
  EXPECT_EQ(cells[3].attack, AttackKind::Silent);
}

TEST(Sweep, AggregatesOverAllSeeds) {
  const auto cells = run_sweep(small_config());
  for (const auto& c : cells) {
    EXPECT_EQ(c.disagreement.count, 2u);
    EXPECT_EQ(c.dist_to_y.count, 2u);
    EXPECT_GE(c.disagreement.max, c.disagreement.median);
  }
}

TEST(Sweep, Deterministic) {
  const auto a = run_sweep(small_config());
  const auto b = run_sweep(small_config());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].disagreement.median, b[i].disagreement.median);
    EXPECT_DOUBLE_EQ(a[i].dist_to_y.max, b[i].dist_to_y.max);
  }
}

TEST(Sweep, CsvShape) {
  const auto cells = run_sweep(small_config());
  const std::string csv = sweep_to_csv(cells);
  EXPECT_EQ(csv.rfind("n,f,dim,attack,seeds,dist_count,", 0), 0u);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'),
            static_cast<long>(cells.size()) + 1);
  EXPECT_NE(csv.find("split-brain"), std::string::npos);
}

TEST(Sweep, CsvHandlesEmptyCells) {
  // Hand-built cells with empty summaries must emit zeros, not garbage
  // from dividing an empty sample.
  SweepCell empty;
  empty.n = 7;
  empty.f = 2;
  empty.attack = AttackKind::Silent;
  const std::string csv = sweep_to_csv({empty});
  EXPECT_NE(csv.find("7,2,1,silent,0,0,0,0,0,0"), std::string::npos);
}

TEST(Sweep, ValidationCatchesBadGrid) {
  SweepConfig c = small_config();
  c.sizes = {{6, 2}};  // violates n > 3f
  EXPECT_THROW(run_sweep(c), ContractViolation);
  c = small_config();
  c.seeds.clear();
  EXPECT_THROW(run_sweep(c), ContractViolation);
}

// --- the seed rule --------------------------------------------------

const std::vector<AttackKind> kEveryAttack = {
    AttackKind::None,         AttackKind::Silent,
    AttackKind::FixedValue,   AttackKind::SplitBrain,
    AttackKind::HullEdgeUp,   AttackKind::HullEdgeDown,
    AttackKind::RandomNoise,  AttackKind::SignFlip,
    AttackKind::PullToTarget, AttackKind::FlipFlop,
    AttackKind::DelayedStrike};

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](double x, double y) {
                      return std::bit_cast<std::uint64_t>(x) ==
                             std::bit_cast<std::uint64_t>(y);
                    });
}

// Two runs agree bit for bit in every series entry and final state.
bool same_run(const RunMetrics& a, const RunMetrics& b) {
  return same_bits(a.disagreement.values(), b.disagreement.values()) &&
         same_bits(a.max_dist_to_y.values(), b.max_dist_to_y.values()) &&
         same_bits(a.max_projection_error.values(),
                   b.max_projection_error.values()) &&
         same_bits(a.final_states, b.final_states);
}

bool same_run(const VectorRunResult& a, const VectorRunResult& b) {
  if (!same_bits(a.disagreement.values(), b.disagreement.values()) ||
      !same_bits(a.dist_to_average_optimum.values(),
                 b.dist_to_average_optimum.values()) ||
      a.final_states.size() != b.final_states.size())
    return false;
  for (std::size_t i = 0; i < a.final_states.size(); ++i)
    if (!same_bits(a.final_states[i].data(), b.final_states[i].data()))
      return false;
  return true;
}

bool same_run(const AsyncRunMetrics& a, const AsyncRunMetrics& b) {
  return same_bits(a.disagreement.values(), b.disagreement.values()) &&
         same_bits(a.max_dist_to_y.values(), b.max_dist_to_y.values()) &&
         same_bits(a.final_states, b.final_states);
}

constexpr std::size_t kRuleRounds = 60;
constexpr std::uint64_t kSeedA = 1;
constexpr std::uint64_t kSeedB = 9;

Scenario rule_scenario(std::size_t n, std::size_t f, AttackKind kind,
                       std::uint64_t seed) {
  Scenario s = make_standard_scenario(n, f, 8.0, kind, kRuleRounds, seed);
  s.attack.activation_round = kRuleRounds / 2 + 1;
  return s;
}

VectorScenario rule_vector_scenario(std::size_t n, std::size_t f,
                                    std::size_t dim, AttackKind kind,
                                    std::uint64_t seed) {
  VectorScenario s = make_standard_vector_scenario(n, f, 8.0, kind,
                                                   kRuleRounds, seed, dim);
  s.attack.activation_round = kRuleRounds / 2 + 1;
  return s;
}

TEST(SeedRule, EveryEngineRunsSeedFreeAttacksAlikeOnEverySeed) {
  // Seeds 1 and 9 of each standard shape: a kind the rule calls
  // seed-free runs the same bits on both, on every engine; noise does
  // not.
  for (const auto& [n, f] : {std::pair<std::size_t, std::size_t>{7, 2},
                             std::pair<std::size_t, std::size_t>{13, 4}}) {
    for (AttackKind kind : kEveryAttack) {
      SCOPED_TRACE("n=" + std::to_string(n) + " " + attack_kind_name(kind));
      const bool alike = !attack_reads_seed(kind);
      for (bool consistent : {false, true}) {
        SCOPED_TRACE("consistent=" + std::to_string(consistent));
        std::vector<Scenario> pair = {rule_scenario(n, f, kind, kSeedA),
                                      rule_scenario(n, f, kind, kSeedB)};
        for (Scenario& s : pair) s.attack.consistent = consistent;
        EXPECT_EQ(same_run(run_sbg(pair[0]), run_sbg(pair[1])), alike);
        const std::vector<RunMetrics> batch = run_sbg_batch(pair);
        EXPECT_EQ(same_run(batch[0], batch[1]), alike);
      }
      for (std::size_t dim : {std::size_t{2}, std::size_t{3}}) {
        SCOPED_TRACE("dim=" + std::to_string(dim));
        const std::vector<VectorScenario> pair = {
            rule_vector_scenario(n, f, dim, kind, kSeedA),
            rule_vector_scenario(n, f, dim, kind, kSeedB)};
        EXPECT_EQ(same_run(run_vector_scenario(pair[0]),
                           run_vector_scenario(pair[1])),
                  alike);
        const std::vector<VectorRunResult> batch =
            run_vector_sbg_batch(pair);
        EXPECT_EQ(same_run(batch[0], batch[1]), alike);
      }
    }
  }
}

TEST(SeedRule, DropsAndAsyncDelaysReadTheSeed) {
  // The runs the sweep's rule leaves out: link drops hash the seed, and
  // the async engines draw their delays from it.
  Scenario drops = rule_scenario(7, 2, AttackKind::SplitBrain, kSeedA);
  drops.drop_probability = 0.2;
  Scenario other = drops;
  other.seed = kSeedB;
  EXPECT_FALSE(same_run(run_sbg(drops), run_sbg(other)));

  AsyncScenario async = make_standard_async_scenario(
      6, 1, 8.0, AttackKind::SplitBrain, kRuleRounds, kSeedA);
  ASSERT_EQ(async.delay_kind, DelayKind::Uniform);
  AsyncScenario async_other = async;
  async_other.seed = kSeedB;
  EXPECT_FALSE(same_run(run_async_sbg(async), run_async_sbg(async_other)));
}

// --- seed-free cells run once ----------------------------------------

std::uint64_t engine_replicas_of(const SweepConfig& config) {
  engine_stats_reset();
  run_sweep(config);
  return engine_stats_snapshot().replicas;
}

TEST(SweepSeedFree, SeedFreeCellsRunOneReplica) {
  // The benchmark's sweep grid: 4 shapes x 3 seed-free attacks x 16
  // seeds is 12 replicas in 4 engine calls, one per shape.
  SweepConfig config;
  config.sizes = {{7, 2}, {13, 4}, {22, 7}, {31, 10}};
  config.attacks = {AttackKind::SplitBrain, AttackKind::SignFlip,
                    AttackKind::PullToTarget};
  config.seeds.clear();
  for (std::uint64_t seed = 1; seed <= 16; ++seed)
    config.seeds.push_back(seed);
  config.rounds = 8;
  EXPECT_EQ(engine_replicas_of(config), 12u);
  EXPECT_EQ(engine_stats_snapshot().batches, 4u);

  // Noise cells run every seed: 2 sizes x 2 dims = 4 cells of each
  // kind, so 8 seed-free cells once plus 4 noise cells x 3 seeds.
  config.sizes = {{7, 2}, {10, 3}};
  config.dims = {1, 2};
  config.attacks = {AttackKind::SplitBrain, AttackKind::RandomNoise,
                    AttackKind::PullToTarget};
  config.seeds = {1, 2, 3};
  EXPECT_EQ(engine_replicas_of(config), 8u + 3u * 4u);

  // Async cells draw their delays from the seed: every seed runs.
  config.async_engine = true;
  config.sizes = {{6, 1}};
  config.dims = {1};
  EXPECT_EQ(engine_replicas_of(config), 3u * 3u);
}

}  // namespace
}  // namespace ftmao
