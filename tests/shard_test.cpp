// Sharded sweeps: the stable partition, the manifest codec, and the
// verifying merge. The headline property — a K-shard sweep merges
// byte-identical to the single-process CSV, with every coverage and
// bit-identity violation detected — is what lets CI split grids across
// processes and runners without trusting any worker.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "sim/shard.hpp"
#include "sim/shard_merge.hpp"
#include "sim/sweep.hpp"

namespace ftmao {
namespace {

SweepConfig grid_config() {
  SweepConfig c;
  c.sizes = {{7, 2}, {10, 3}, {13, 4}};
  c.attacks = {AttackKind::SplitBrain, AttackKind::SignFlip,
               AttackKind::PullToTarget};
  c.seeds = {1, 2, 3};
  c.rounds = 200;
  return c;
}

/// The manifest a worker writes for shard i of K of `grid`.
ShardManifest manifest_for(const GridSpec& grid, std::size_t i,
                           std::size_t shard_count) {
  return {.shard_index = i,
          .shard_count = shard_count,
          .grid = grid,
          .cells = shard_cell_keys(grid, i, shard_count)};
}

/// The K shard artifacts a fully healthy run of `config` would produce.
std::vector<ShardArtifact> healthy_artifacts(const SweepConfig& config,
                                             std::size_t shard_count) {
  std::vector<ShardArtifact> artifacts;
  for (std::size_t i = 0; i < shard_count; ++i) {
    ShardArtifact a;
    a.manifest = manifest_for(config, i, shard_count);
    a.csv = sweep_to_csv(run_sweep_shard(config, i, shard_count));
    artifacts.push_back(std::move(a));
  }
  return artifacts;
}

TEST(ShardPartition, DisjointAndComplete) {
  const SweepConfig config = grid_config();
  const std::vector<CellSpec> all = sweep_cell_specs(config);
  for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                        std::size_t{7}, std::size_t{32}}) {
    std::map<std::string, std::size_t> owner;
    std::size_t assigned = 0;
    for (std::size_t i = 0; i < k; ++i) {
      for (const CellSpec& cell : shard_cell_specs(config, i, k)) {
        const auto [it, inserted] = owner.emplace(cell_key(cell), i);
        EXPECT_TRUE(inserted) << cell_key(cell) << " owned by shards "
                              << it->second << " and " << i;
        ++assigned;
      }
    }
    EXPECT_EQ(assigned, all.size()) << "k=" << k;
    for (const CellSpec& cell : all)
      EXPECT_TRUE(owner.count(cell_key(cell))) << cell_key(cell);
  }
}

TEST(ShardPartition, AssignmentIndependentOfEnumerationOrder) {
  // The same cell must land in the same shard however the grid's sizes
  // and attacks are ordered — workers enumerating the grid differently
  // still agree on the partition.
  const SweepConfig config = grid_config();
  SweepConfig permuted = config;
  std::reverse(permuted.sizes.begin(), permuted.sizes.end());
  std::reverse(permuted.attacks.begin(), permuted.attacks.end());

  for (std::size_t k : {std::size_t{2}, std::size_t{4}, std::size_t{5}}) {
    std::map<std::string, std::size_t> canonical;
    for (std::size_t i = 0; i < k; ++i)
      for (const CellSpec& cell : shard_cell_specs(config, i, k))
        canonical[cell_key(cell)] = i;
    for (std::size_t i = 0; i < k; ++i)
      for (const CellSpec& cell : shard_cell_specs(permuted, i, k))
        EXPECT_EQ(canonical.at(cell_key(cell)), i) << cell_key(cell);
  }
}

TEST(ShardPartition, AssignmentSurvivesGridGrowth) {
  // Adding unrelated cells must not move existing cells between shards:
  // shard_of_cell is a pure function of the cell identity.
  const SweepConfig small = grid_config();
  SweepConfig grown = small;
  grown.sizes.push_back({16, 5});
  grown.attacks.push_back(AttackKind::RandomNoise);

  std::map<std::string, std::size_t> before;
  for (std::size_t i = 0; i < 4; ++i)
    for (const CellSpec& cell : shard_cell_specs(small, i, 4))
      before[cell_key(cell)] = i;
  for (std::size_t i = 0; i < 4; ++i) {
    for (const CellSpec& cell : shard_cell_specs(grown, i, 4)) {
      if (before.count(cell_key(cell))) {
        EXPECT_EQ(before.at(cell_key(cell)), i) << cell_key(cell);
      }
    }
  }
}

TEST(ShardPartition, DefaultGridSpreadsAcrossFourShards) {
  // Regression guard for the hash finalizer: the 9-cell default grid must
  // not clump into a near-empty partition at the CI shard count.
  const SweepConfig config = grid_config();
  std::size_t empty = 0;
  for (std::size_t i = 0; i < 4; ++i)
    if (shard_cell_specs(config, i, 4).empty()) ++empty;
  EXPECT_LE(empty, 1u);
}

TEST(GridSpecCodec, RoundTrips) {
  const SweepConfig config = grid_config();
  EXPECT_EQ(parse_sizes(format_sizes(config.sizes)), config.sizes);
  EXPECT_EQ(parse_attacks(format_attacks(config.attacks)), config.attacks);
  EXPECT_EQ(parse_dims(format_dims({1, 2, 9})),
            (std::vector<std::size_t>{1, 2, 9}));

  StepConfig step;
  step.kind = StepKind::Power;
  step.scale = 1.25;
  step.exponent = 0.6180339887498949;
  const StepConfig back = parse_step(format_step(step));
  EXPECT_EQ(back.kind, step.kind);
  EXPECT_EQ(back.scale, step.scale);
  EXPECT_EQ(back.exponent, step.exponent);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(GridSpecCodec, JsonRoundTripIsBitwise) {
  // Every field, the async and delay ones included, with doubles that
  // need all 17 significant digits.
  GridSpec grid;
  grid.sizes = {{6, 1}, {11, 2}};
  grid.attacks = {AttackKind::PullToTarget, AttackKind::RandomNoise};
  grid.seeds = {3, 5, 18446744073709551615ull};
  grid.rounds = 123;
  grid.spread = 0.1 + 0.2;
  grid.step = {StepKind::Power, 1.0 / 3.0, 0.6180339887498949};
  grid.async_engine = true;
  grid.delay_kind = DelayKind::Fixed;
  grid.delay_lo = 2.0 / 3.0;
  grid.delay_hi = 1e-300;
  const GridSpec back =
      grid_spec_from_json("{\"grid\": " + grid_spec_to_json(grid) + "}");
  EXPECT_EQ(back, grid);
  EXPECT_EQ(bits(back.spread), bits(grid.spread));
  EXPECT_EQ(bits(back.step.scale), bits(grid.step.scale));
  EXPECT_EQ(bits(back.step.exponent), bits(grid.step.exponent));
  EXPECT_EQ(bits(back.delay_lo), bits(grid.delay_lo));
  EXPECT_EQ(bits(back.delay_hi), bits(grid.delay_hi));

  // The sync defaults survive too, and the two grids differ.
  const GridSpec sync = grid_config();
  EXPECT_EQ(grid_spec_from_json("{\"grid\": " + grid_spec_to_json(sync) + "}"),
            sync);
  EXPECT_NE(sync, grid);
}

TEST(GridSpecCodec, MalformedGridsFailNamingTheField) {
  // Each case is refused before anything runs — by a strict parser, the
  // JSON reader or validate() — with the field named.
  const auto expect_refused = [](const std::string& field, auto run) {
    try {
      run();
      ADD_FAILURE() << field << ": accepted";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  for (const char* text : {"7:2x", "7:2,", "-7:2", "7", "7:2:1", ""})
    expect_refused("sizes", [&] { parse_sizes(text); });
  for (const char* text : {"1,,2", "+2", "1.5"})
    expect_refused("dims", [&] { parse_dims(text); });
  expect_refused("attack", [] { parse_attacks("pull,nope"); });
  for (const char* text : {"harmonic:1", "power:1x:0.5", "fast:1:1"})
    expect_refused("step", [&] { parse_step(text); });
  expect_refused("engine", [] { parse_engine("lockstep"); });

  // The JSON reader reads counts exactly: a sign, a fraction or an
  // overflow is refused, never cast.
  const std::string good = grid_spec_to_json(grid_config());
  const std::vector<std::array<std::string, 3>> edits = {
      {"\"rounds\": 200", "\"rounds\": -1", "rounds"},
      {"\"rounds\": 200", "\"rounds\": 2.5", "rounds"},
      {"\"rounds\": 200", "\"rounds\": 2e2", "rounds"},
      {"[1,2,3]", "[1,18446744073709551616]", "seeds"},
      {"[1,2,3]", "[1,-2]", "seeds"},
      {"[1,2,3]", "[1,2.0]", "seeds"},
      {"\"engine\"", "\"engin\"", "engine"},
  };
  for (const auto& edit : edits) {
    std::string json = good;
    json.replace(json.find(edit[0]), edit[0].size(), edit[1]);
    expect_refused(edit[2],
                   [&] { grid_spec_from_json("{\"grid\": " + json + "}"); });
  }

  // validate() refuses each of these changes to a valid grid.
  using Change = std::function<void(GridSpec&)>;
  const std::vector<std::pair<std::string, Change>> changes = {
      {"sizes", [](GridSpec& g) { g.sizes.clear(); }},
      {"sizes", [](GridSpec& g) { g.sizes = {{6, 2}}; }},
      {"sizes", [](GridSpec& g) { g.sizes = {{7, 2}, {7, 2}}; }},
      {"sizes", [](GridSpec& g) { g.async_engine = true; }},  // 7:2 <= 5f
      {"dims", [](GridSpec& g) { g.dims = {0}; }},
      {"dims",
       [](GridSpec& g) {
         g.async_engine = true;
         g.sizes = {{6, 1}};
         g.dims = {2};
       }},
      {"attacks", [](GridSpec& g) { g.attacks.push_back(g.attacks[0]); }},
      {"seeds", [](GridSpec& g) { g.seeds.clear(); }},
      {"seeds", [](GridSpec& g) { g.seeds = {3, 3}; }},
      {"rounds", [](GridSpec& g) { g.rounds = 0; }},
      {"spread", [](GridSpec& g) { g.spread = std::nan(""); }},
      {"step", [](GridSpec& g) { g.step.scale = 0; }},
      {"delay",
       [](GridSpec& g) {
         g.async_engine = true;
         g.sizes = {{6, 1}};
         g.delay_hi = 0.25;
       }},
  };
  for (const auto& change : changes) {
    GridSpec grid = grid_config();
    EXPECT_NO_THROW(grid.validate());
    change.second(grid);
    expect_refused(change.first, [&] { grid.validate(); });
  }
}

TEST(ShardManifestJson, RoundTrips) {
  ShardManifest m = manifest_for(grid_config(), 2, 4);
  m.isa = "avx2";
  m.wall_ms = 12.345678901234567;
  m.exit_status = 0;
  const ShardManifest back = manifest_from_json(manifest_to_json(m));
  EXPECT_EQ(back, m);
}

TEST(ShardManifestJson, RejectsMalformedDocuments) {
  const std::string good = manifest_to_json(manifest_for(grid_config(), 0, 2));
  EXPECT_THROW(manifest_from_json("{}"), ContractViolation);
  EXPECT_THROW(manifest_from_json(""), ContractViolation);

  const auto edit = [&good](const std::string& from, const std::string& to) {
    std::string json = good;
    const auto at = json.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return json.replace(at, from.size(), to);
  };
  EXPECT_NO_THROW(manifest_from_json(good));
  EXPECT_THROW(manifest_from_json(edit("\"schema\": 2", "\"schema\": 9")),
               ContractViolation);
  // Counts are read exactly: a sign, a fraction or an overflow is refused,
  // not cast.
  for (const char* bad : {"-1", "1.5", "1e0", "18446744073709551616"})
    EXPECT_THROW(manifest_from_json(edit("\"shard_count\": 2",
                                         std::string("\"shard_count\": ") +
                                             bad)),
                 ContractViolation)
        << bad;
  EXPECT_THROW(
      manifest_from_json(edit("\"schema\": 2", "\"schema\": 4294967298")),
      ContractViolation);
}

TEST(ShardManifestJson, ConfigRoundTripsThroughManifest) {
  const SweepConfig config = grid_config();
  const ShardManifest back =
      manifest_from_json(manifest_to_json(manifest_for(config, 1, 3)));
  EXPECT_EQ(back.grid, static_cast<const GridSpec&>(config));
  EXPECT_EQ(sweep_cell_specs(back.grid), sweep_cell_specs(config));
}

TEST(ShardSweep, ShardZeroOfOneIsTheWholeGrid) {
  const SweepConfig config = grid_config();
  EXPECT_EQ(sweep_to_csv(run_sweep_shard(config, 0, 1)),
            sweep_to_csv(run_sweep(config)));
}

TEST(ShardMerge, FourShardsMergeByteIdenticalToSingleProcess) {
  const SweepConfig config = grid_config();
  const std::string reference = sweep_to_csv(run_sweep(config));
  const MergeReport report = merge_shards(healthy_artifacts(config, 4));
  EXPECT_TRUE(report.ok()) << (report.errors.empty() ? "missing cells"
                                                     : report.errors.front());
  EXPECT_EQ(report.csv, reference);
  EXPECT_EQ(report.merged_cells, report.expected_cells);
}

TEST(ShardMerge, MissingShardReportedNotFatal) {
  const SweepConfig config = grid_config();
  std::vector<ShardArtifact> artifacts = healthy_artifacts(config, 4);
  // Drop a shard that owns at least one cell.
  const auto victim = std::find_if(
      artifacts.begin(), artifacts.end(),
      [](const ShardArtifact& a) { return !a.manifest.cells.empty(); });
  ASSERT_NE(victim, artifacts.end());
  const std::vector<std::string> dropped = victim->manifest.cells;
  artifacts.erase(victim);

  const MergeReport report = merge_shards(artifacts);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.errors.empty());
  EXPECT_EQ(report.missing_cells, dropped);
  // Degraded, not aborted: every surviving row is still merged.
  EXPECT_EQ(report.merged_cells, report.expected_cells - dropped.size());
}

TEST(ShardMerge, IdenticalOverlapAccepted) {
  // The same shard merged twice (a retried worker whose first artifact
  // survived) is fine as long as the bits agree.
  const SweepConfig config = grid_config();
  std::vector<ShardArtifact> artifacts = healthy_artifacts(config, 4);
  artifacts.push_back(artifacts.front());
  const MergeReport report = merge_shards(artifacts);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.csv, sweep_to_csv(run_sweep(config)));
}

TEST(ShardMerge, MismatchedOverlapRejected) {
  const SweepConfig config = grid_config();
  std::vector<ShardArtifact> artifacts = healthy_artifacts(config, 4);
  ShardArtifact tampered = artifacts.front();
  ASSERT_FALSE(tampered.manifest.cells.empty());
  // Perturb one digit of the duplicate's first data row.
  const std::size_t row = tampered.csv.find('\n') + 1;
  const std::size_t digit = tampered.csv.find_last_of("0123456789");
  ASSERT_GT(digit, row);
  tampered.csv[digit] = tampered.csv[digit] == '5' ? '6' : '5';
  artifacts.push_back(tampered);

  const MergeReport report = merge_shards(artifacts);
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.errors.empty());
  EXPECT_NE(report.errors.front().find("different bits"), std::string::npos);
}

TEST(ShardMerge, ForeignRowRejected) {
  // A row for a cell the partition does not assign to that shard.
  const SweepConfig config = grid_config();
  std::vector<ShardArtifact> artifacts = healthy_artifacts(config, 4);
  ASSERT_GE(artifacts.size(), 2u);
  // Find two shards with rows and graft a row from one into the other.
  std::string foreign_row;
  for (const ShardArtifact& a : artifacts)
    if (!a.manifest.cells.empty()) {
      const std::size_t nl = a.csv.find('\n');
      foreign_row = a.csv.substr(nl + 1, a.csv.find('\n', nl + 1) - nl);
      break;
    }
  ASSERT_FALSE(foreign_row.empty());
  for (ShardArtifact& a : artifacts)
    if (a.csv.find(foreign_row) == std::string::npos) {
      a.csv += foreign_row;
      break;
    }
  const MergeReport report = merge_shards(artifacts);
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.errors.empty());
}

TEST(ShardMerge, MissingAssignedRowRejected) {
  const SweepConfig config = grid_config();
  std::vector<ShardArtifact> artifacts = healthy_artifacts(config, 4);
  for (ShardArtifact& a : artifacts)
    if (a.manifest.cells.size() >= 2) {
      // Truncate the CSV after its first data row.
      const std::size_t first = a.csv.find('\n');
      const std::size_t second = a.csv.find('\n', first + 1);
      a.csv = a.csv.substr(0, second + 1);
      const MergeReport report = merge_shards(artifacts);
      EXPECT_FALSE(report.ok());
      ASSERT_FALSE(report.errors.empty());
      EXPECT_NE(report.errors.front().find("lacks a row"), std::string::npos);
      return;
    }
  FAIL() << "no shard with >= 2 cells in the 4-way partition";
}

TEST(ShardMerge, GridMismatchRejected) {
  const SweepConfig config = grid_config();
  std::vector<ShardArtifact> artifacts = healthy_artifacts(config, 4);
  artifacts.back().manifest.grid.rounds += 1;
  const MergeReport report = merge_shards(artifacts);
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.errors.empty());
  EXPECT_NE(report.errors.front().find("disagrees"), std::string::npos);
}

TEST(ShardMerge, SyncAndAsyncManifestsRefuseToMerge) {
  // 6:1 is a valid size for both engines, so the two grids have the same
  // cells and partition; only the engine differs, and with it the bits.
  SweepConfig sync;
  sync.sizes = {{6, 1}, {11, 1}};
  sync.attacks = {AttackKind::SplitBrain, AttackKind::SignFlip};
  sync.seeds = {1, 2};
  sync.rounds = 60;
  SweepConfig async = sync;
  async.async_engine = true;
  std::vector<ShardArtifact> artifacts = healthy_artifacts(sync, 2);
  artifacts.back() = healthy_artifacts(async, 2).back();
  ASSERT_EQ(artifacts.front().manifest.cells.size() +
                artifacts.back().manifest.cells.size(),
            4u);
  const MergeReport report = merge_shards(artifacts);
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.errors.empty());
  EXPECT_NE(report.errors.front().find("disagrees"), std::string::npos);
}

TEST(ShardMerge, GitRevMismatchRejected) {
  const SweepConfig config = grid_config();
  std::vector<ShardArtifact> artifacts = healthy_artifacts(config, 4);
  artifacts.back().manifest.git_rev = "deadbee";
  const MergeReport report = merge_shards(artifacts);
  ASSERT_FALSE(report.errors.empty());
  EXPECT_NE(report.errors.front().find("git rev"), std::string::npos);
}

TEST(ShardMerge, FailedShardArtifactRejected) {
  const SweepConfig config = grid_config();
  std::vector<ShardArtifact> artifacts = healthy_artifacts(config, 4);
  artifacts.front().manifest.exit_status = 7;
  const MergeReport report = merge_shards(artifacts);
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.errors.empty());
  EXPECT_NE(report.errors.front().find("exit status 7"), std::string::npos);
}

TEST(ShardMerge, NoArtifactsIsAnError) {
  const MergeReport report = merge_shards({});
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.errors.empty());
}

TEST(ShardMerge, WrongCellListRejected) {
  // A manifest claiming cells the partition does not assign to it.
  const SweepConfig config = grid_config();
  std::vector<ShardArtifact> artifacts = healthy_artifacts(config, 4);
  // Swap the cell lists of two shards with different assignments.
  std::size_t a = artifacts.size(), b = artifacts.size();
  for (std::size_t i = 0; i < artifacts.size(); ++i) {
    if (artifacts[i].manifest.cells.empty()) continue;
    if (a == artifacts.size()) {
      a = i;
    } else if (artifacts[i].manifest.cells != artifacts[a].manifest.cells) {
      b = i;
      break;
    }
  }
  ASSERT_LT(b, artifacts.size());
  std::swap(artifacts[a].manifest.cells, artifacts[b].manifest.cells);
  const MergeReport report = merge_shards(artifacts);
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.errors.empty());
  EXPECT_NE(report.errors.front().find("assignment"), std::string::npos);
}

}  // namespace
}  // namespace ftmao
