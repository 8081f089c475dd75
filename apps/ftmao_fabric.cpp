// ftmao_fabric — sweep fabric driver. Any number of independent worker
// processes — on one machine or on separate CI runners exchanging the
// fabric directory as an artifact — coordinate purely through atomic
// lease files (src/fabric/lease.hpp) and a first-wins completion
// protocol, stealing work from stale leases, and a final verifying merge
// reproduces the single-process sweep CSV byte-for-byte.
//
//   ftmao_fabric --mode init  --fabric-dir fab --shards 8 [grid flags]
//   ftmao_fabric --mode work  --fabric-dir fab --worker-id w0 &
//   ftmao_fabric --mode work  --fabric-dir fab --worker-id w1 &
//   wait
//   ftmao_fabric --mode merge --fabric-dir fab --out merged.csv
//
//   ftmao_fabric --mode local --fabric-dir fab --shards 4 [grid flags]
//                --out merged.csv
//
// Modes:
//   init    pin the grid in grid.json (idempotent for an identical grid)
//   work    claim/steal shards and run each as
//           `ftmao_sweep --spec <fabric-dir>/grid.json --shard-index i`
//   local   init, one in-process worker per shard, then merge: a whole
//           run on one machine. Re-running on the same directory resumes
//           (completed shards are skipped) and merges again.
//   claim   probe-claim one shard and exit (protocol testing): 0 =
//           claimed (lease left in place), 4 = refused (live holder or
//           already completed)
//   status  print the lease/completion table
//   merge   audit completion records + order-free verifying merge
//
// Each mode accepts only the flags it reads; any other flag is refused
// (exit 2) before the fabric directory is touched.
//
// Exit status: 0 = success, 3 = degraded (incomplete work / merge
// inconsistencies), 4 = claim refused, 2 = usage/setup error.
//
// This mirrors the paper's fault model one level up: Su & Vaidya's SBG
// tolerates f Byzantine agents out of n > 3f by redundancy and trimming;
// the sweep survives crashed or wedged workers by re-execution and a
// merge that cross-checks any overlapping work bit-for-bit.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "cli/args.hpp"
#include "cli/engine_flags.hpp"
#include "common/file_io.hpp"
#include "fabric/fabric.hpp"
#include "fabric/process.hpp"
#include "simd/simd.hpp"

namespace {

using namespace ftmao;

/// Whether `mode` reads `flag`; any other flag is refused.
bool mode_reads(const std::string& mode, const std::string& flag) {
  const auto among = [&flag](const std::vector<std::string>& names) {
    return std::find(names.begin(), names.end(), flag) != names.end();
  };
  const auto in = [&flag](const std::vector<cli::FlagSpec>& specs) {
    return std::any_of(
        specs.begin(), specs.end(),
        [&flag](const cli::FlagSpec& s) { return s.name == flag; });
  };
  const bool grid = in(cli::grid_flag_specs());
  const bool engine =
      in(cli::engine_flag_specs("", "")) || in(cli::cache_flag_specs());
  const bool runner = among(
      {"worker", "timeout-sec", "retries", "backoff-ms", "inject-fail-shard"});
  if (among({"mode", "fabric-dir", "help"})) return true;
  if (mode == "init") return grid || flag == "shards";
  if (mode == "local")
    return grid || engine || runner || among({"shards", "out"});
  if (mode == "work")
    return engine || runner ||
           among({"worker-id", "lease-ttl-ms", "wait-all", "max-wall-sec",
                  "fleet-index", "fleet-size", "inject-die-shard"});
  if (mode == "claim")
    return among({"claim-shard", "worker-id", "lease-ttl-ms"});
  return mode == "merge" && among({"out", "allow-isa-mix"});
}

/// Why `mode` cannot run with these flags, or "" if it can. Checked
/// before the fabric directory is touched.
std::string usage_error(const cli::ArgParser& parser, const std::string& mode,
                        const std::vector<cli::FlagSpec>& flags) {
  if (mode != "init" && mode != "work" && mode != "local" &&
      mode != "claim" && mode != "status" && mode != "merge")
    return "unknown --mode '" + mode +
           "' (init | work | local | claim | status | merge)";
  for (const cli::FlagSpec& flag : flags)
    if (parser.has(flag.name) && !mode_reads(mode, flag.name))
      return "--" + flag.name + " is not a --mode " + mode + " flag";
  if (mode != "work" && mode != "local") return "";
  // Forwarded to every shard as given: a count a shard would refuse
  // throws here, naming the flag, instead of failing each shard attempt.
  for (const char* flag : {"threads", "batch"}) parser.get_count(flag);
  cli::cache_memory_bytes(parser);
  const double timeout_sec = parser.get_double("timeout-sec");
  if (!std::isfinite(timeout_sec) || timeout_sec <= 0)
    return "--timeout-sec must be a finite number > 0";
  const long retries = parser.get_int("retries");
  if (retries < 0 || retries > std::numeric_limits<int>::max())
    return "--retries must be in [0, 2147483647]";
  if (parser.get_int("backoff-ms") < 0) return "--backoff-ms must be >= 0";
  if (parser.get_int("lease-ttl-ms") < 1)
    return "--lease-ttl-ms must be >= 1";
  const double max_wall_sec = parser.get_double("max-wall-sec");
  if (!std::isfinite(max_wall_sec) || max_wall_sec < 0)
    return "--max-wall-sec must be a finite number >= 0";
  return "";
}

/// The subprocess shard runner: `ftmao_sweep --spec <grid.json>` on one
/// shard, with the engine and cache flags the operator gave, killed past
/// the per-attempt timeout. Lease heartbeats run on the fabric worker's
/// side thread, so a slow shard never looks stale while this blocks.
fabric::ShardRunner make_subprocess_runner(const cli::ArgParser& parser,
                                           const std::string& worker_bin,
                                           const std::string& spec_path) {
  // Spawn counter per shard: --inject-fail is forwarded only on the first
  // attempt, so the worker's own jittered retry recovers.
  auto spawns = std::make_shared<std::map<std::size_t, int>>();
  const double timeout_sec = parser.get_double("timeout-sec");
  const long inject_fail_shard = parser.get_int("inject-fail-shard");
  std::vector<std::string> engine_args;
  for (const char* flag :
       {"threads", "batch", "isa", "cache-dir", "cache-mem-mb"}) {
    if (!parser.has(flag)) continue;
    engine_args.push_back(std::string("--") + flag);
    engine_args.push_back(parser.get(flag));
  }
  if (parser.get_bool("scalar")) engine_args.push_back("--scalar");

  return [=](const GridSpec&, std::size_t shard, std::size_t shard_count,
             const std::string& csv_scratch,
             const std::string& manifest_scratch) -> int {
    std::vector<std::string> args = {worker_bin,
                                     "--spec",
                                     spec_path,
                                     "--shard-index",
                                     std::to_string(shard),
                                     "--shard-count",
                                     std::to_string(shard_count),
                                     "--out",
                                     csv_scratch,
                                     "--manifest",
                                     manifest_scratch};
    args.insert(args.end(), engine_args.begin(), engine_args.end());
    const int spawn_count = ++(*spawns)[shard];
    if (inject_fail_shard >= 0 &&
        shard == static_cast<std::size_t>(inject_fail_shard) &&
        spawn_count == 1)
      args.push_back("--inject-fail");
    return fabric::run_process(args, timeout_sec);
  };
}

/// The worker options shared by --mode work and --mode local (flags a
/// mode does not accept read as their defaults).
fabric::WorkerOptions worker_options(const cli::ArgParser& parser,
                                     const std::string& fabric_dir) {
  fabric::WorkerOptions options;
  options.fabric_dir = fabric_dir;
  options.lease_ttl_ms = parser.get_count("lease-ttl-ms");
  options.retries = static_cast<int>(parser.get_int("retries"));
  options.backoff.base_ms = parser.get_int("backoff-ms");
  options.fleet_index = parser.get_int("fleet-index");
  options.fleet_size = parser.get_int("fleet-size");
  options.wait_all = parser.get_bool("wait-all");
  options.max_wall_sec = parser.get_double("max-wall-sec");
  options.inject_die_shard = parser.get_int("inject-die-shard");
  options.log = &std::cerr;
  return options;
}

/// Writes the merged CSV and the merge summary. Returns the exit status:
/// 0 for a complete merge, 3 for a degraded one.
int report_merge(const fabric::FabricMergeReport& report,
                 const std::string& out_path) {
  if (!out_path.empty())
    write_file(out_path, report.merge.csv);
  else
    std::cout << report.merge.csv;
  std::cerr << "fabric: merged " << report.merge.merged_cells << "/"
            << report.merge.expected_cells << " cells from "
            << report.completions.size() << " completed shard(s)\n";
  for (const std::string& error : report.errors)
    std::cerr << "fabric: error: " << error << "\n";
  for (const std::string& error : report.merge.errors)
    std::cerr << "fabric: merge error: " << error << "\n";
  if (!report.merge.missing_cells.empty()) {
    std::cerr << "fabric: missing cells:";
    for (const std::string& key : report.merge.missing_cells)
      std::cerr << ' ' << key;
    std::cerr << "\n";
  }
  return report.ok() ? 0 : 3;
}

int run_claim_probe(fabric::LeaseDir& dir, std::size_t shard,
                    const std::string& worker_id, std::uint64_t ttl_ms) {
  const fabric::FabricGrid grid = dir.load_grid();
  if (shard >= grid.shard_count) {
    std::cerr << "error: --claim-shard " << shard << " >= --shards "
              << grid.shard_count << "\n";
    return 2;
  }
  if (dir.completed(shard)) {
    std::cout << "refused: shard " << shard << " is already completed\n";
    return 4;
  }
  const auto current = dir.current_lease(shard);
  const std::uint64_t now_ms = fabric::wall_clock_ms();
  fabric::ShardLease lease;
  lease.shard_index = shard;
  lease.shard_count = grid.shard_count;
  lease.attempt = 1;
  if (current) {
    if (!fabric::lease_expired(*current, now_ms, ttl_ms)) {
      std::cout << "refused: shard " << shard << " is leased by '"
                << current->worker_id << "' (attempt " << current->attempt
                << ", heartbeat "
                << (now_ms - std::min(now_ms, current->heartbeat_ms))
                << " ms old)\n";
      return 4;
    }
    lease.attempt = current->attempt + 1;
  }
  lease.worker_id = worker_id;
  lease.git_rev = build_git_revision();
  lease.isa = simd_isa_name(simd_active());
  lease.heartbeat_ms = now_ms;
  if (!dir.try_claim(lease)) {
    std::cout << "refused: lost the claim race for shard " << shard << "\n";
    return 4;
  }
  std::cout << "claimed: shard " << shard << " attempt " << lease.attempt
            << " as '" << worker_id << "'\n";
  return 0;
}

void print_status(fabric::LeaseDir& dir) {
  const fabric::FabricGrid grid = dir.load_grid();
  std::vector<std::string> errors;
  std::map<std::size_t, fabric::CompletionRecord> done;
  for (const fabric::CompletionRecord& r : dir.completions(errors))
    done.emplace(r.shard_index, r);
  const std::uint64_t now_ms = fabric::wall_clock_ms();
  std::cout << "fabric " << dir.root() << ": " << grid.shard_count
            << " shards, rev " << grid.git_rev << ", grid "
            << grid_spec_to_json(grid.spec) << "\n";
  for (std::size_t i = 0; i < grid.shard_count; ++i) {
    std::cout << "  shard " << i << ": ";
    if (const auto it = done.find(i); it != done.end()) {
      std::cout << "done by '" << it->second.worker_id << "' (attempt "
                << it->second.attempt << ", " << it->second.wall_ms
                << " ms, isa " << it->second.isa << ")";
    } else if (const auto lease = dir.current_lease(i)) {
      std::cout << "leased by '" << lease->worker_id << "' (attempt "
                << lease->attempt << ", heartbeat "
                << (now_ms - std::min(now_ms, lease->heartbeat_ms))
                << " ms old)";
    } else {
      std::cout << "unclaimed";
    }
    std::cout << "\n";
  }
  for (const std::string& error : errors)
    std::cout << "  error: " << error << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ftmao;
  std::vector<cli::FlagSpec> specs = {
      {"mode", "init | work | local | claim | status | merge", "work",
       false},
      {"fabric-dir", "shared fabric directory (leases, results, grid pin)",
       ".ftmao_fabric", false},
      {"shards", "number of disjoint shards the grid is split into (init, "
                 "local)", "8", false},
      {"worker-id", "unique id recorded in leases and completion records "
                    "(default: w<pid>)", "", false},
      {"worker", "path to the ftmao_sweep worker binary (default: sibling "
                 "of this binary)", "", false},
      {"lease-ttl-ms", "heartbeat age after which a lease counts as stale "
                       "and its shard may be stolen", "60000", false},
      {"timeout-sec", "per-attempt wall-clock limit before the sweep "
                      "subprocess is killed", "300", false},
      {"retries", "re-execution budget per shard after a failed/timed-out "
                  "attempt (worker-local, same lease)", "2", false},
      {"backoff-ms", "retry k waits k * this + deterministic per-shard "
                     "jitter in [0, this)", "200", false},
      {"wait-all", "keep polling (and stealing stragglers) until every "
                   "shard is completed", "false", true},
      {"max-wall-sec", "overall deadline for --wait-all (0 = none)", "0",
       false},
      {"fleet-index", "claim only shards with index % --fleet-size == "
                      "this (CI matrix slice); -1 = claim anything", "-1",
       false},
      {"fleet-size", "number of fleet slices (0 = slicing off)", "0", false},
      {"inject-die-shard", "raise SIGKILL right after claiming this shard "
                           "(stale-lease/work-stealing testing); -1 = off",
       "-1", false},
      {"inject-fail-shard", "forward --inject-fail to the first sweep "
                            "attempt of this shard (retry-path testing); "
                            "-1 = off", "-1", false},
      {"claim-shard", "shard index for --mode claim", "-1", false},
      {"allow-isa-mix", "merge completion records from different SIMD "
                        "backends (heterogeneous fleets)", "false", true},
      {"out", "write the merged CSV to this file instead of stdout", "",
       false},
      {"help", "show usage", "false", true},
  };
  cli::append_flags(specs, cli::grid_flag_specs());
  cli::append_flags(specs, cli::engine_flag_specs("merged output", "seed"));
  cli::append_flags(specs, cli::cache_flag_specs());
  const std::vector<cli::FlagSpec> all_flags = specs;
  cli::ArgParser parser(std::move(specs));
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (const auto error = parser.parse(args)) {
    std::cerr << "error: " << *error << "\n\nusage:\n" << parser.help_text();
    return 2;
  }
  if (parser.get_bool("help")) {
    std::cout << "ftmao_fabric — sweep fabric (lease directory + "
                 "work-stealing workers + verifying merge)\n\n"
              << parser.help_text();
    return 0;
  }

  try {
    const std::string mode = parser.get("mode");
    const std::string error = usage_error(parser, mode, all_flags);
    if (!error.empty()) {
      std::cerr << "error: " << error << "\n";
      return 2;
    }
    if (!cli::apply_isa_flag(parser, std::cerr)) return 2;

    fabric::LeaseDir dir(parser.get("fabric-dir"));
    std::string worker_id = parser.get("worker-id");
    if (worker_id.empty()) worker_id = "w" + std::to_string(getpid());
    std::string worker_bin = parser.get("worker");
    if (worker_bin.empty()) worker_bin = fabric::default_worker_path(argv[0]);

    if (mode == "init" || mode == "local") {
      const long shards = parser.get_int("shards");
      if (shards < 1) {
        std::cerr << "error: --shards must be >= 1\n";
        return 2;
      }
      const fabric::FabricGrid grid{
          .shard_count = static_cast<std::size_t>(shards),
          .spec = cli::grid_from_flags(parser)};
      if (mode == "init") {
        dir.init(grid);
        std::cerr << "fabric: initialized '" << dir.root() << "' with "
                  << shards << " shards\n";
        return 0;
      }
      const fabric::LocalReport report = fabric::run_local_fabric(
          grid, worker_options(parser, dir.root()), [&] {
            return make_subprocess_runner(parser, worker_bin,
                                          dir.grid_path());
          });
      std::cerr << "fabric: local run claimed " << report.claimed
                << " lease(s) across " << shards << " worker(s)\n";
      return report_merge(report, parser.get("out"));
    }
    if (mode == "claim") {
      const long shard = parser.get_int("claim-shard");
      if (shard < 0) {
        std::cerr << "error: --mode claim needs --claim-shard\n";
        return 2;
      }
      return run_claim_probe(dir, static_cast<std::size_t>(shard),
                             worker_id, parser.get_count("lease-ttl-ms"));
    }
    if (mode == "status") {
      print_status(dir);
      return 0;
    }
    if (mode == "merge") {
      fabric::FabricMergeOptions options;
      options.fabric_dir = dir.root();
      options.allow_isa_mix = parser.get_bool("allow-isa-mix");
      return report_merge(fabric::collect_and_merge(options),
                          parser.get("out"));
    }

    fabric::WorkerOptions options = worker_options(parser, dir.root());
    options.worker_id = worker_id;
    options.runner =
        make_subprocess_runner(parser, worker_bin, dir.grid_path());
    const fabric::WorkerReport report = fabric::run_fabric_worker(options);
    std::cerr << "fabric: worker '" << worker_id << "' claimed "
              << report.claimed << " lease(s) (" << report.stolen
              << " stolen), completed " << report.completed << " shard(s); "
              << (report.all_done ? "grid complete"
                                  : "grid still incomplete")
              << "\n";
    for (const std::string& error : report.errors)
      std::cerr << "fabric: error: " << error << "\n";
    return report.ok(options.wait_all) ? 0 : 3;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
