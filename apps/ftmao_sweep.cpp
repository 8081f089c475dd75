// ftmao_sweep — grid evaluation tool: runs SBG over a cartesian grid of
// system sizes, attacks, and seeds, and emits an aggregate CSV. The quick
// way to regenerate robustness tables for a new cost family or schedule.
//
//   ftmao_sweep --sizes 7:2,10:3,13:4 --attacks split-brain,sign-flip
//               --seeds 5 --rounds 4000 [--csv]
//
// Shard-worker mode: --shard-index i --shard-count K runs only the cells
// the stable partition (sim/shard.hpp) assigns to shard i, and --out /
// --manifest write the per-shard CSV and JSON manifest the merge stage
// (ftmao_shardsweep) verifies and recombines. The merged K-shard CSV is
// byte-identical to the single-process run.

#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/result_cache.hpp"
#include "cli/args.hpp"
#include "cli/engine_flags.hpp"
#include "common/table.hpp"
#include "sim/scenario_io.hpp"
#include "sim/shard.hpp"
#include "sim/sweep.hpp"
#include "simd/simd.hpp"

namespace {

using namespace ftmao;

SweepConfig config_from(const cli::ArgParser& parser) {
  SweepConfig config;
  config.sizes = parse_sizes(parser.get("sizes"));
  config.dims = parse_dims(parser.get("dim"));
  config.attacks = parse_attacks(parser.get("attacks"));
  const auto seed_count = static_cast<std::uint64_t>(parser.get_int("seeds"));
  for (std::uint64_t s = 1; s <= seed_count; ++s) config.seeds.push_back(s);
  config.rounds = static_cast<std::size_t>(parser.get_int("rounds"));
  config.spread = parser.get_double("spread");
  config.step.kind = parse_step_kind(parser.get("step"));
  config.step.scale = parser.get_double("step-scale");
  config.step.exponent = parser.get_double("step-exp");
  config.num_threads = static_cast<std::size_t>(parser.get_int("threads"));
  config.batch_size = static_cast<std::size_t>(parser.get_int("batch"));
  config.scalar_engine = parser.get_bool("scalar");
  const std::string engine = parser.get("engine");
  if (engine == "async") {
    config.async_engine = true;
    config.delay_kind = parse_delay_kind(parser.get("delay"));
    config.delay_lo = parser.get_double("delay-lo");
    config.delay_hi = parser.get_double("delay-hi");
  } else if (engine != "sync") {
    throw ContractViolation("unknown engine '" + engine +
                            "' (expected sync|async)");
  }
  return config;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw ContractViolation("cannot open '" + path + "' for writing");
  os << text;
  if (!os.flush()) throw ContractViolation("write to '" + path + "' failed");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ftmao;
  std::vector<cli::FlagSpec> specs = {
      {"sizes", "comma list of n:f pairs", "7:2,10:3,13:4", false},
      {"dim", "comma list of state dimensions (1 = scalar SBG; d >= 2 runs "
              "the coordinate-wise vector engine)", "1", false},
      {"attacks", "comma list of attack names", "split-brain,sign-flip,pull",
       false},
      {"seeds", "number of seeds per cell (1..k)", "3", false},
      {"rounds", "iterations per run", "4000", false},
      {"spread", "cost-optima layout width", "8", false},
      {"step", "harmonic | power | constant", "harmonic", false},
      {"step-scale", "step size scale", "1", false},
      {"step-exp", "exponent for --step power", "0.75", false},
      {"engine", "sync | async (event-driven rounds, requires n > 5f)",
       "sync", false},
      {"delay", "async delay model: fixed | uniform | targeted-slow",
       "uniform", false},
      {"delay-lo", "async delay lower bound (fixed delay value)", "0.5",
       false},
      {"delay-hi", "async delay upper bound (uniform model)", "1.5", false},
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
  };
  cli::append_flags(specs, cli::engine_flag_specs("output", "seed"));
  cli::append_flags(specs, cli::cache_flag_specs());
  cli::ArgParser parser(std::move(specs));
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (const auto error = parser.parse(args)) {
    std::cerr << "error: " << *error << "\n\nusage:\n" << parser.help_text();
    return 2;
  }
  if (parser.get_bool("help")) {
    std::cout << "ftmao_sweep — grid evaluation over sizes x attacks x seeds\n\n"
              << parser.help_text();
    return 0;
  }

  try {
    if (!cli::apply_isa_flag(parser, std::cerr)) return 2;
    if (parser.get_bool("inject-fail")) {
      std::cerr << "ftmao_sweep: --inject-fail — exiting before the run\n";
      return 7;
    }
    SweepConfig config = config_from(parser);
    const std::unique_ptr<ResultCache> cache = cli::cache_from(parser);
    config.cache = cache.get();
    const auto shard_index =
        static_cast<std::size_t>(parser.get_int("shard-index"));
    const auto shard_count =
        static_cast<std::size_t>(parser.get_int("shard-count"));
    if (shard_count < 1 || shard_index >= shard_count) {
      std::cerr << "error: need 0 <= --shard-index < --shard-count\n";
      return 2;
    }
    // Shard manifests do not (yet) record the async-engine knobs, so a
    // merge could silently combine shards run under different engines;
    // refuse the combination instead.
    if (config.async_engine &&
        (shard_count > 1 || !parser.get("manifest").empty())) {
      std::cerr << "error: --engine async does not support sharding "
                   "(--shard-count > 1 / --manifest)\n";
      return 2;
    }

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
      ShardManifest manifest =
          make_shard_manifest(config, shard_index, shard_count);
      manifest.isa = simd_isa_name(simd_active());
      manifest.wall_ms = wall_ms;
      write_file(manifest_path, manifest_to_json(manifest));
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
