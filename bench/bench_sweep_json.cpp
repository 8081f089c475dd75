// bench_sweep_json — tracked performance baseline for the sweep engine.
//
// Times the default ftmao_sweep grid across a thread ladder (1, 2, 4,
// all cores — common/thread_pool's thread_ladder(), deduplicated and
// capped at the machine's concurrency) and writes BENCH_sweep.json
// (cells/sec, runs/sec, rounds/sec, agent-rounds/sec per rung, plus the
// best-vs-1-thread speedup and a `machine` block pinning the conditions
// the numbers were taken under: hardware concurrency, the detected and
// active SIMD ISA, compiler and flags). Committed at the repo root so
// future PRs have a trajectory to regress against; scripts/bench_check.sh
// compares a fresh run to the committed file. See docs/performance.md
// for how to read and refresh it.
//
// Each rung is timed as the best (minimum-wall-time) of --repeats grid
// passes, so a transient noisy neighbour cannot masquerade as a
// regression.
//
// The JSON also carries an `async` block: the async sweep grid (n > 5f
// sizes, same attacks/seeds) timed single-threaded through the scalar
// event-driven engine and the batched replay engine, with their ratio —
// the tracked batched-async speedup. scripts/bench_check.sh and
// scripts/bench_history.py read only the sync `results` array, so the
// block rides along without touching their schema. --async-rounds 0
// skips it (the JSON then has "async": null).
//
// A `vector` block does the same for the d-dimensional coordinate-wise
// engine: the sync sweep grid at --vector-dim (default 8), timed
// single-threaded through the scalar per-run path and the lane-packed
// batched engine (sim/batch_vector_runner.hpp), with their runs/sec
// ratio — the tracked vector-batch speedup. --vector-rounds 0 skips it
// ("vector": null).
//
// A `megabatch` block times the sync grid single-threaded through the
// batched engines under the megabatch planner (sim/megabatch.hpp, the
// sweep's only scheduler) and reports its runs/sec, engine calls, and
// SIMD lane occupancy (useful lanes / padded lanes dispatched, from the
// engines' own counters).
//
// The top-level `ladder_collapsed` flag is true when the thread ladder
// degenerates to a single rung (a 1-core machine); scripts/bench_check.sh
// then *skips* the parallel-speedup gate — explicitly, not silently —
// instead of failing a comparison that cannot exist.
//
// A `cache` block times the content-addressed result cache
// (cache/result_cache.hpp) on the sync grid: one cold pass that fills a
// fresh in-memory cache, then the best of --repeats warm passes served
// entirely from it, with their runs/sec ratio (the tracked warm-path
// speedup) and the warm-pass hit ratio (must be 1).
//
// A `transcendental` block covers the cost families whose gradients are
// transcendental (LogCosh / SmoothAbs / SoftplusBasin). It times an
// all-transcendental family directly through run_sbg / run_sbg_batch
// (the sweep spec grammar pins the std-mixed family, so this cannot
// ride run_sweep) at three rungs: the scalar per-run engine (the fully
// virtual path such families used to be confined to), the batched
// engine with the deterministic kernels disabled (virtual derivative()
// per lane — func/functions.hpp:
// set_transcendental_batch_kernels_enabled), and the batched engine
// with the SIMD polynomial kernels on. All three produce bit-identical
// trajectories. `speedup` is kernel vs the scalar virtual path (the
// tracked number); `devirtualization_speedup` isolates the
// gradient-dispatch win within the batched engine.
// --transcendental-rounds 0 skips it ("transcendental": null).
//
//   bench_sweep_json [--rounds R] [--seeds K] [--engine batched|scalar]
//                    [--batch B] [--isa auto|scalar|sse2|avx2|avx512]
//                    [--repeats N] [--async-rounds R] [--vector-rounds R]
//                    [--vector-dim D] [--transcendental-rounds R]
//                    [--out FILE]

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/result_cache.hpp"
#include "cli/args.hpp"
#include "cli/engine_flags.hpp"
#include "common/thread_pool.hpp"
#include "func/functions.hpp"
#include "func/library.hpp"
#include "sim/batch_runner.hpp"
#include "sim/megabatch.hpp"
#include "sim/runner.hpp"
#include "sim/scenario_io.hpp"
#include "sim/sweep.hpp"
#include "simd/simd.hpp"

// Baked in by bench/CMakeLists.txt so the JSON records how the binary
// was compiled; fall back to unknowns for out-of-tree builds.
#ifndef FTMAO_BENCH_COMPILER
#define FTMAO_BENCH_COMPILER "unknown"
#endif
#ifndef FTMAO_BENCH_CXX_FLAGS
#define FTMAO_BENCH_CXX_FLAGS "unknown"
#endif
#ifndef FTMAO_BENCH_BUILD_TYPE
#define FTMAO_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace ftmao;

struct Throughput {
  std::size_t threads = 0;
  double seconds = 0.0;
  double cells_per_sec = 0.0;
  double runs_per_sec = 0.0;
  double rounds_per_sec = 0.0;
  double agent_rounds_per_sec = 0.0;
};

// One pass over the default grid takes ~25 ms single-threaded, which is
// far too short for a single sample: scheduler interference or a busy
// hypervisor neighbour can inflate one pass by 40%+. Interference only
// ever *adds* time, so the minimum wall time over `repeats` passes is
// the robust throughput estimator (same rationale as Google Benchmark's
// repetition aggregates).
Throughput measure(const SweepConfig& config, std::size_t threads,
                   std::size_t repeats) {
  SweepConfig timed = config;
  timed.num_threads = threads;

  double best_seconds = 0.0;
  std::vector<SweepCell> cells;
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    cells = run_sweep(timed);
    const auto stop = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(stop - start).count();
    if (rep == 0 || seconds < best_seconds) best_seconds = seconds;
  }

  const std::size_t runs = cells.size() * config.seeds.size();
  std::size_t agent_rounds = 0;
  for (const SweepCell& c : cells)
    agent_rounds += c.n * config.rounds * config.seeds.size();

  Throughput r;
  r.threads = threads;
  r.seconds = best_seconds;
  if (r.seconds > 0.0) {
    r.cells_per_sec = static_cast<double>(cells.size()) / r.seconds;
    r.runs_per_sec = static_cast<double>(runs) / r.seconds;
    r.rounds_per_sec = static_cast<double>(runs * config.rounds) / r.seconds;
    r.agent_rounds_per_sec = static_cast<double>(agent_rounds) / r.seconds;
  }
  return r;
}

// Best-of-repeats runs/sec over the transcendental replicas. One "run"
// is one replica trajectory, matching the sweep blocks' unit. `engine`
// selects the rung: the scalar per-run path (run_sbg per replica), or
// run_sbg_batch with the devirtualized kernels forced off or on.
enum class TranscendentalRung {
  kScalarVirtual,
  kBatchedVirtual,
  kBatchedKernel
};

double measure_transcendental(const std::vector<Scenario>& replicas,
                              std::size_t repeats, TranscendentalRung rung) {
  set_transcendental_batch_kernels_enabled(rung ==
                                           TranscendentalRung::kBatchedKernel);
  double best_seconds = 0.0;
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    if (rung == TranscendentalRung::kScalarVirtual) {
      for (const Scenario& s : replicas) run_sbg(s);
    } else {
      if (run_sbg_batch(replicas).size() != replicas.size()) return 0.0;
    }
    const auto stop = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(stop - start).count();
    if (rep == 0 || seconds < best_seconds) best_seconds = seconds;
  }
  set_transcendental_batch_kernels_enabled(true);
  return best_seconds > 0.0
             ? static_cast<double>(replicas.size()) / best_seconds
             : 0.0;
}

void emit(std::ostream& os, const Throughput& t) {
  os << "    {\"threads\": " << t.threads << ", \"seconds\": " << t.seconds
     << ", \"cells_per_sec\": " << t.cells_per_sec
     << ", \"runs_per_sec\": " << t.runs_per_sec
     << ", \"rounds_per_sec\": " << t.rounds_per_sec
     << ", \"agent_rounds_per_sec\": " << t.agent_rounds_per_sec << "}";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ftmao;
  std::vector<cli::FlagSpec> specs = {
      {"rounds", "iterations per run", "1000", false},
      {"seeds", "seeds per cell (1..k)", "3", false},
      {"engine", "sweep engine: batched | scalar", "batched", false},
      {"batch",
       "replicas per batched-engine call (0 = register-aligned packs of "
       "about 32 lanes)",
       "0", false},
      {"repeats", "grid passes per rung; best (min-time) pass is reported",
       "20", false},
      {"async-rounds", "rounds per run for the async block (0 = skip)",
       "1000", false},
      {"vector-rounds", "rounds per run for the vector block (0 = skip)",
       "1000", false},
      {"vector-dim", "state dimension for the vector block", "8", false},
      {"transcendental-rounds",
       "rounds per run for the transcendental block (0 = skip)", "1000",
       false},
      {"out", "output path", "BENCH_sweep.json", false},
      {"help", "show usage", "false", true},
  };
  specs.push_back(cli::isa_flag_spec("output"));
  cli::ArgParser parser(std::move(specs));
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (const auto error = parser.parse(args)) {
    std::cerr << "error: " << *error << "\n\nusage:\n" << parser.help_text();
    return 2;
  }
  if (parser.get_bool("help")) {
    std::cout << "bench_sweep_json — sweep-engine throughput baseline\n\n"
              << parser.help_text();
    return 0;
  }

  try {
    // The ftmao_sweep default grid (sizes and attacks), with the round
    // and seed counts trimmed so refreshing the baseline stays cheap.
    SweepConfig config;
    config.sizes = {{7, 2}, {10, 3}, {13, 4}};
    config.attacks = {AttackKind::SplitBrain, AttackKind::SignFlip,
                      AttackKind::PullToTarget};
    const auto seed_count = parser.get_count("seeds");
    for (std::uint64_t s = 1; s <= seed_count; ++s) config.seeds.push_back(s);
    config.rounds = parser.get_count("rounds");

    const std::string engine = parser.get("engine");
    if (engine != "batched" && engine != "scalar") {
      std::cerr << "error: --engine must be 'batched' or 'scalar'\n";
      return 2;
    }
    config.scalar_engine = engine == "scalar";
    config.batch_size = parser.get_count("batch");

    if (!cli::apply_isa_flag(parser, std::cerr)) return 2;

    const auto repeats =
        static_cast<std::size_t>(std::max<std::int64_t>(
            1, parser.get_int("repeats")));

    std::vector<Throughput> results;
    for (std::size_t threads : thread_ladder())
      results.push_back(measure(config, threads, repeats));

    // Megabatch block: the sync grid, single-threaded, through the
    // batched engines. The engines' own lane counters give the occupancy:
    // useful lanes / padded lanes actually dispatched, accumulated over
    // every batched-engine call of the timed passes.
    SweepConfig mb_config = config;
    mb_config.scalar_engine = false;
    engine_stats_reset();
    const Throughput mb_on = measure(mb_config, 1, repeats);
    const EngineStats mb_on_stats = engine_stats_snapshot();

    // Async block: the n > 5f grid, single-threaded, scalar event loop vs
    // batched replay engine. Their runs/sec ratio is the tracked speedup.
    const auto async_rounds = parser.get_count("async-rounds");
    Throughput async_scalar, async_batched;
    if (async_rounds > 0) {
      SweepConfig async_config;
      async_config.async_engine = true;
      async_config.sizes = {{6, 1}, {11, 2}};
      async_config.attacks = config.attacks;
      async_config.seeds = config.seeds;
      async_config.rounds = async_rounds;
      async_config.scalar_engine = true;
      async_scalar = measure(async_config, 1, repeats);
      async_config.scalar_engine = false;
      async_config.batch_size = config.batch_size;
      async_batched = measure(async_config, 1, repeats);
    }
    const double async_speedup =
        async_scalar.runs_per_sec > 0.0
            ? async_batched.runs_per_sec / async_scalar.runs_per_sec
            : 1.0;

    // Vector block: the sync grid at --vector-dim, single-threaded,
    // scalar per-run path vs the lane-packed batched engine. The seed
    // axis is widened to 8 so the pack (dim * seeds lanes per agent row)
    // fills whole SIMD registers at the default dim — the engine's
    // intended operating point — independent of the sync grid's --seeds.
    const auto vector_rounds = parser.get_count("vector-rounds");
    const auto vector_dim = parser.get_count("vector-dim");
    Throughput vector_scalar, vector_batched;
    if (vector_rounds > 0) {
      SweepConfig vector_config;
      vector_config.sizes = config.sizes;
      vector_config.dims = {vector_dim};
      vector_config.attacks = config.attacks;
      vector_config.seeds.clear();
      for (std::uint64_t s = 1; s <= 8; ++s) vector_config.seeds.push_back(s);
      vector_config.rounds = vector_rounds;
      vector_config.scalar_engine = true;
      vector_scalar = measure(vector_config, 1, repeats);
      vector_config.scalar_engine = false;
      vector_config.batch_size = config.batch_size;
      vector_batched = measure(vector_config, 1, repeats);
    }
    const double vector_speedup =
        vector_scalar.runs_per_sec > 0.0
            ? vector_batched.runs_per_sec / vector_scalar.runs_per_sec
            : 1.0;

    // Transcendental block: n=7, f=2, split-brain, 16 seed replicas over
    // the all-transcendental family, timed straight through
    // run_sbg_batch with the devirtualized kernels off (virtual
    // derivative() per lane) vs on (SIMD polynomial kernels per row).
    const auto transcendental_rounds =
        parser.get_count("transcendental-rounds");
    double trans_virtual = 0.0, trans_bvirtual = 0.0, trans_kernel = 0.0;
    if (transcendental_rounds > 0) {
      const auto family = make_transcendental_family(7, 8.0);
      std::vector<Scenario> replicas;
      for (std::uint64_t s = 1; s <= 16; ++s) {
        Scenario scenario = make_standard_scenario(
            7, 2, 8.0, AttackKind::SplitBrain, transcendental_rounds, s);
        scenario.functions = family;
        replicas.push_back(std::move(scenario));
      }
      trans_virtual = measure_transcendental(
          replicas, repeats, TranscendentalRung::kScalarVirtual);
      trans_bvirtual = measure_transcendental(
          replicas, repeats, TranscendentalRung::kBatchedVirtual);
      trans_kernel = measure_transcendental(
          replicas, repeats, TranscendentalRung::kBatchedKernel);
    }
    const double trans_speedup =
        trans_virtual > 0.0 ? trans_kernel / trans_virtual : 1.0;
    const double trans_devirt_speedup =
        trans_bvirtual > 0.0 ? trans_kernel / trans_bvirtual : 1.0;

    // Cache block: the sync grid served through a fresh in-memory
    // ResultCache. The cold pass (one pass, lookups all miss, results
    // inserted) is timed on its own — measure()'s min-of-repeats would
    // blend cold and warm passes — then the warm path is the best of
    // `repeats` all-hit passes. Their runs/sec ratio is the tracked
    // warm-path speedup; the hit ratio over the warm passes must be 1.
    ResultCache cache{CacheConfig{}};
    SweepConfig cached_config = config;
    cached_config.cache = &cache;
    const Throughput cache_cold = measure(cached_config, 1, 1);
    const CacheStats after_cold = cache.stats();
    const Throughput cache_warm = measure(cached_config, 1, repeats);
    const CacheStats after_warm = cache.stats();
    const double cache_speedup =
        cache_cold.runs_per_sec > 0.0
            ? cache_warm.runs_per_sec / cache_cold.runs_per_sec
            : 1.0;
    const std::uint64_t warm_lookups =
        (after_warm.hits + after_warm.misses) -
        (after_cold.hits + after_cold.misses);
    const double warm_hit_ratio =
        warm_lookups > 0
            ? static_cast<double>(after_warm.hits - after_cold.hits) /
                  static_cast<double>(warm_lookups)
            : 0.0;

    const Throughput& serial = results.front();
    double best_runs_per_sec = serial.runs_per_sec;
    for (const Throughput& t : results)
      best_runs_per_sec = std::max(best_runs_per_sec, t.runs_per_sec);
    const double speedup = serial.runs_per_sec > 0.0
                               ? best_runs_per_sec / serial.runs_per_sec
                               : 1.0;

    std::ostringstream os;
    os.precision(6);
    os << "{\n"
       << "  \"benchmark\": \"sweep_default_grid\",\n"
       << "  \"engine\": \"" << engine << "\",\n"
       << "  \"batch_size\": " << config.batch_size << ",\n"
       << "  \"machine\": {\"hardware_concurrency\": "
       << std::thread::hardware_concurrency()
       << ", \"simd_isa_detected\": \"" << simd_isa_name(simd_detect())
       << "\", \"simd_isa_active\": \"" << simd_isa_name(simd_active())
       << "\", \"compiler\": \"" << FTMAO_BENCH_COMPILER
       << "\", \"cxx_flags\": \"" << FTMAO_BENCH_CXX_FLAGS
       << "\", \"build_type\": \"" << FTMAO_BENCH_BUILD_TYPE << "\"},\n"
       << "  \"grid\": {\"sizes\": \"7:2,10:3,13:4\", "
       << "\"attacks\": \"split-brain,sign-flip,pull\", "
       << "\"seeds\": " << config.seeds.size()
       << ", \"rounds\": " << config.rounds
       << ", \"repeats\": " << repeats << "},\n"
       << "  \"results\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      emit(os, results[i]);
      os << (i + 1 < results.size() ? ",\n" : "\n");
    }
    os << "  ],\n"
       << "  \"speedup\": " << speedup << ",\n"
       << "  \"ladder_collapsed\": "
       << (results.size() == 1 ? "true" : "false") << ",\n"
       << "  \"megabatch\": {\n"
       << "    \"megabatch_runs_per_sec\": " << mb_on.runs_per_sec << ",\n"
       << "    \"megabatch_occupancy\": " << mb_on_stats.occupancy() << ",\n"
       << "    \"megabatch_batches\": " << mb_on_stats.batches << "\n  },\n"
       << "  \"cache\": {\n"
       << "    \"cold_runs_per_sec\": " << cache_cold.runs_per_sec << ",\n"
       << "    \"warm_runs_per_sec\": " << cache_warm.runs_per_sec << ",\n"
       << "    \"speedup\": " << cache_speedup << ",\n"
       << "    \"warm_hit_ratio\": " << warm_hit_ratio << ",\n"
       << "    \"entries\": " << after_warm.entries << "\n  },\n";
    if (transcendental_rounds > 0) {
      os << "  \"transcendental\": {\n"
         << "    \"grid\": {\"n\": 7, \"f\": 2, \"attack\": \"split-brain\", "
         << "\"family\": \"transcendental\", \"seeds\": 16, \"rounds\": "
         << transcendental_rounds << "},\n"
         << "    \"virtual_runs_per_sec\": " << trans_virtual << ",\n"
         << "    \"batched_virtual_runs_per_sec\": " << trans_bvirtual
         << ",\n"
         << "    \"kernel_runs_per_sec\": " << trans_kernel << ",\n"
         << "    \"speedup\": " << trans_speedup << ",\n"
         << "    \"devirtualization_speedup\": " << trans_devirt_speedup
         << "\n  },\n";
    } else {
      os << "  \"transcendental\": null,\n";
    }
    if (async_rounds > 0) {
      os << "  \"async\": {\n"
         << "    \"grid\": {\"sizes\": \"6:1,11:2\", "
         << "\"attacks\": \"split-brain,sign-flip,pull\", "
         << "\"seeds\": " << config.seeds.size()
         << ", \"rounds\": " << async_rounds << "},\n"
         << "    \"scalar_runs_per_sec\": " << async_scalar.runs_per_sec
         << ",\n"
         << "    \"batched_runs_per_sec\": " << async_batched.runs_per_sec
         << ",\n"
         << "    \"speedup\": " << async_speedup << "\n  },\n";
    } else {
      os << "  \"async\": null,\n";
    }
    if (vector_rounds > 0) {
      os << "  \"vector\": {\n"
         << "    \"grid\": {\"sizes\": \"7:2,10:3,13:4\", "
         << "\"dim\": " << vector_dim
         << ", \"attacks\": \"split-brain,sign-flip,pull\", "
         << "\"seeds\": 8"
         << ", \"rounds\": " << vector_rounds << "},\n"
         << "    \"scalar_runs_per_sec\": " << vector_scalar.runs_per_sec
         << ",\n"
         << "    \"batched_runs_per_sec\": " << vector_batched.runs_per_sec
         << ",\n"
         << "    \"speedup\": " << vector_speedup << "\n  }\n}\n";
    } else {
      os << "  \"vector\": null\n}\n";
    }

    const std::string path = parser.get("out");
    std::ofstream out(path);
    if (!out) {
      std::cerr << "error: cannot write " << path << "\n";
      return 1;
    }
    out << os.str();
    std::cout << os.str();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
