// ftmao_sweep — grid evaluation tool: runs SBG over a cartesian grid of
// system sizes, attacks, and seeds, and emits an aggregate CSV. The quick
// way to regenerate robustness tables for a new cost family or schedule.
//
//   ftmao_sweep --sizes 7:2,10:3,13:4 --attacks split-brain,sign-flip
//               --seeds 5 --rounds 4000 [--csv]
//   ftmao_sweep --spec grid.json [--csv]
//
// --spec reads the whole grid from a JSON file (sim/grid_spec.hpp); it is
// the only way to give an explicit seed list.
//
// Shard-worker mode: --shard-index i --shard-count K runs only the cells
// the stable partition (sim/shard.hpp) assigns to shard i, and --out /
// --manifest write the per-shard CSV and JSON manifest the merge stage
// (ftmao_fabric) verifies and recombines. The merged K-shard CSV is
// byte-identical to the single-process run.

#include <chrono>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/result_cache.hpp"
#include "cli/args.hpp"
#include "cli/engine_flags.hpp"
#include "common/file_io.hpp"
#include "common/table.hpp"
#include "sim/scenario_io.hpp"
#include "sim/shard.hpp"
#include "sim/sweep.hpp"
#include "simd/simd.hpp"

int main(int argc, char** argv) {
  using namespace ftmao;
  std::vector<cli::FlagSpec> specs = cli::grid_flag_specs();
  cli::append_flags(specs, {
      {"shard-index", "run only this shard of the grid (< --shard-count)",
       "0", false},
      {"shard-count", "number of disjoint shards the grid is split into",
       "1", false},
      {"out", "write the CSV to this file instead of stdout", "", false},
      {"manifest", "write a shard manifest JSON to this file", "", false},
      {"inject-fail", "exit 7 before running (orchestrator retry testing)",
       "false", true},
      {"csv", "emit CSV instead of the table", "false", true},
      {"help", "show usage", "false", true},
  });
  cli::append_flags(specs, cli::engine_flag_specs("output", "seed"));
  cli::append_flags(specs, cli::cache_flag_specs());
  cli::ArgParser parser(std::move(specs));
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (const auto error = parser.parse(args)) {
    std::cerr << "error: " << *error << "\n\nusage:\n" << parser.help_text();
    return 2;
  }
  if (parser.get_bool("help")) {
    std::cout
        << "ftmao_sweep — grid evaluation over sizes x attacks x seeds\n\n"
        << parser.help_text();
    return 0;
  }

  try {
    if (!cli::apply_isa_flag(parser, std::cerr)) return 2;
    if (parser.get_bool("inject-fail")) {
      std::cerr << "ftmao_sweep: --inject-fail — exiting before the run\n";
      return 7;
    }
    const long index = parser.get_int("shard-index");
    const long count = parser.get_int("shard-count");
    if (count < 1 || index < 0 || index >= count) {
      std::cerr << "error: need 0 <= --shard-index < --shard-count\n";
      return 2;
    }
    const auto shard_index = static_cast<std::size_t>(index);
    const auto shard_count = static_cast<std::size_t>(count);
    SweepConfig config{cli::grid_from_flags(parser)};
    config.num_threads = parser.get_count("threads");
    config.batch_size = parser.get_count("batch");
    config.scalar_engine = parser.get_bool("scalar");
    const std::unique_ptr<ResultCache> cache = cli::cache_from(parser);
    config.cache = cache.get();

    const auto start = std::chrono::steady_clock::now();
    const std::vector<SweepCell> cells =
        run_sweep_shard(config, shard_index, shard_count);
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    // Counters go to stderr so --csv stdout stays byte-identical with and
    // without a cache (and cold vs warm).
    if (cache != nullptr)
      std::cerr << "ftmao_sweep: " << cache_stats_line(cache->stats()) << "\n";

    const std::string out_path = parser.get("out");
    if (!out_path.empty()) {
      write_file(out_path, sweep_to_csv(cells));
    } else if (parser.get_bool("csv")) {
      std::cout << sweep_to_csv(cells);
    } else {
      Table table({"n", "f", "dim", "attack", "disagr median", "disagr max",
                   "dist median", "dist max"});
      for (const SweepCell& c : cells) {
        table.row()
            .add(c.n)
            .add(c.f)
            .add(c.dim)
            .add(attack_kind_name(c.attack))
            .add(c.disagreement.median, 4)
            .add(c.disagreement.max, 4)
            .add(c.dist_to_y.median, 4)
            .add(c.dist_to_y.max, 4);
      }
      table.print(std::cout);
    }

    const std::string manifest_path = parser.get("manifest");
    if (!manifest_path.empty()) {
      const ShardManifest manifest{
          .shard_index = shard_index,
          .shard_count = shard_count,
          .grid = config,
          .cells = shard_cell_keys(config, shard_index, shard_count),
          .isa = simd_isa_name(simd_active()),
          .wall_ms = wall_ms};
      write_file(manifest_path, manifest_to_json(manifest));
    }
    return 0;
  } catch (const cli::UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
