// ftmao_shardsweep — multi-process sweep orchestrator: splits the grid
// into K disjoint shards (sim/shard.hpp's stable partition), spawns one
// ftmao_sweep worker subprocess per shard, babysits them (per-shard
// timeout, bounded retries with jittered backoff — fabric/backoff.hpp,
// shared with the multi-node fabric), and recombines the
// per-shard CSVs through the verifying merge stage (sim/shard_merge.hpp).
//
//   ftmao_shardsweep --shards 4 --out merged.csv --workdir shards/
//
// Worker failures degrade gracefully: a shard that keeps failing is
// reported (and its cells listed as missing) instead of aborting the
// grid; everything that did arrive is still merged, in canonical order,
// byte-identical to the rows a single-process run would have produced.
// Exit status: 0 = complete merge, 3 = degraded (unrecoverable shards or
// merge inconsistencies), 2 = usage/setup error.
//
// This mirrors the paper's fault model one level up: Su & Vaidya's SBG
// tolerates f Byzantine agents out of n > 3f by redundancy and trimming;
// the sweep survives crashed or wedged workers by re-execution and a
// merge that cross-checks any overlapping work bit-for-bit.

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/args.hpp"
#include "cli/engine_flags.hpp"
#include "fabric/backoff.hpp"
#include "fabric/process.hpp"
#include "sim/shard.hpp"
#include "sim/shard_merge.hpp"
#include "simd/simd.hpp"

namespace {

using namespace ftmao;
using Clock = std::chrono::steady_clock;

struct ShardJob {
  enum class State { Pending, Running, Done, Failed };

  std::size_t index = 0;
  State state = State::Pending;
  int attempts = 0;         ///< attempts started so far
  pid_t pid = -1;
  Clock::time_point started;
  Clock::time_point eligible;  ///< earliest next spawn (backoff)
  std::string last_error;
};

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw ContractViolation("cannot read '" + path + "'");
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

std::string shard_csv_path(const std::string& workdir, std::size_t i) {
  return workdir + "/shard_" + std::to_string(i) + ".csv";
}

std::string shard_manifest_path(const std::string& workdir, std::size_t i) {
  return workdir + "/shard_" + std::to_string(i) + ".json";
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
      {"shards", "number of worker processes to split the grid across", "4",
       false},
      {"parallel", "max concurrent workers (0 = all shards at once)", "0",
       false},
      {"worker", "path to the ftmao_sweep worker binary (default: sibling "
                 "of this binary)", "", false},
      {"workdir", "directory for per-shard CSVs and manifests",
       ".ftmao_shards", false},
      {"timeout-sec", "per-attempt wall-clock limit before the worker is "
                      "killed", "300", false},
      {"retries", "re-execution budget per shard after a failed/timed-out "
                  "attempt", "2", false},
      {"backoff-ms", "retry k waits k * this + deterministic per-shard "
                     "jitter in [0, this)", "200", false},
      {"inject-fail-shard", "force the first attempt of this shard to fail "
                            "(retry-path testing); -1 = off", "-1", false},
      {"merge-only", "skip spawning; verify and merge existing workdir "
                     "artifacts", "false", true},
      {"out", "write the merged CSV to this file instead of stdout", "",
       false},
      {"help", "show usage", "false", true},
  };
  cli::append_flags(specs, cli::engine_flag_specs("merged output", "seed"));
  cli::append_flags(specs, cli::cache_flag_specs());
  cli::ArgParser parser(std::move(specs));
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (const auto error = parser.parse(args)) {
    std::cerr << "error: " << *error << "\n\nusage:\n" << parser.help_text();
    return 2;
  }
  if (parser.get_bool("help")) {
    std::cout << "ftmao_shardsweep — crash-tolerant multi-process sweep "
                 "orchestrator\n\n"
              << parser.help_text();
    return 0;
  }

  try {
    const auto shards = static_cast<std::size_t>(parser.get_int("shards"));
    if (shards < 1) {
      std::cerr << "error: --shards must be >= 1\n";
      return 2;
    }
    const std::string workdir = parser.get("workdir");
    const long inject_fail_shard = parser.get_int("inject-fail-shard");
    const int retries = static_cast<int>(parser.get_int("retries"));
    const auto timeout = std::chrono::duration<double>(
        parser.get_double("timeout-sec"));
    fabric::BackoffPolicy backoff;
    backoff.base_ms = parser.get_int("backoff-ms");
    std::size_t parallel = static_cast<std::size_t>(parser.get_int("parallel"));
    if (parallel == 0) parallel = shards;

    std::vector<ShardJob> jobs(shards);
    for (std::size_t i = 0; i < shards; ++i) jobs[i].index = i;

    if (!parser.get_bool("merge-only")) {
      std::filesystem::create_directories(workdir);
      std::string worker = parser.get("worker");
      if (worker.empty()) worker = fabric::default_worker_path(argv[0]);

      // Flags forwarded verbatim: every worker must see the same grid so
      // every worker computes the same partition. Forwarding --cache-dir
      // warm-starts shards from a prior run's cache (each worker serves
      // its cells from the shared directory before simulating).
      const std::vector<std::string> pass_through = {
          "sizes", "dim", "attacks",    "seeds", "rounds",   "spread", "step",
          "step-scale", "step-exp", "threads", "batch", "isa", "cache-dir",
          "cache-mem-mb"};

      auto worker_args = [&](const ShardJob& job) {
        std::vector<std::string> wargs = {worker};
        for (const std::string& flag : pass_through) {
          wargs.push_back("--" + flag);
          wargs.push_back(parser.get(flag));
        }
        if (parser.get_bool("scalar")) wargs.push_back("--scalar");
        wargs.push_back("--shard-index");
        wargs.push_back(std::to_string(job.index));
        wargs.push_back("--shard-count");
        wargs.push_back(std::to_string(shards));
        wargs.push_back("--out");
        wargs.push_back(shard_csv_path(workdir, job.index));
        wargs.push_back("--manifest");
        wargs.push_back(shard_manifest_path(workdir, job.index));
        // attempts is already incremented for the attempt being spawned,
        // so the first attempt sees attempts == 1.
        if (inject_fail_shard >= 0 &&
            job.index == static_cast<std::size_t>(inject_fail_shard) &&
            job.attempts == 1)
          wargs.push_back("--inject-fail");
        return wargs;
      };

      auto fail_attempt = [&](ShardJob& job, const std::string& why) {
        job.state = ShardJob::State::Pending;
        job.pid = -1;
        job.last_error = why;
        if (job.attempts > retries) {
          job.state = ShardJob::State::Failed;
          std::cerr << "shardsweep: shard " << job.index
                    << " unrecoverable after " << job.attempts
                    << " attempts (" << why << ")\n";
        } else {
          const auto delay = std::chrono::milliseconds(fabric::retry_delay_ms(
              backoff, fabric::shard_backoff_seed(job.index), job.attempts));
          job.eligible = Clock::now() + delay;
          std::cerr << "shardsweep: shard " << job.index << " attempt "
                    << job.attempts << "/" << (retries + 1) << " failed ("
                    << why << ") — retrying in " << delay.count() << " ms\n";
        }
      };

      bool work_left = true;
      while (work_left) {
        work_left = false;
        std::size_t running = 0;
        for (const ShardJob& job : jobs)
          if (job.state == ShardJob::State::Running) ++running;

        for (ShardJob& job : jobs) {
          if (job.state == ShardJob::State::Pending && running < parallel &&
              Clock::now() >= job.eligible) {
            ++job.attempts;
            const pid_t pid = fabric::spawn_process(worker_args(job));
            if (pid < 0) {
              fail_attempt(job, "fork failed");
              continue;
            }
            job.pid = pid;
            job.started = Clock::now();
            job.state = ShardJob::State::Running;
            ++running;
          }
        }

        for (ShardJob& job : jobs) {
          if (job.state == ShardJob::State::Running) {
            int status = 0;
            const pid_t r = waitpid(job.pid, &status, WNOHANG);
            if (r == 0) {
              if (Clock::now() - job.started > timeout) {
                kill(job.pid, SIGKILL);
                waitpid(job.pid, &status, 0);
                fail_attempt(job, "timed out");
              }
            } else if (r == job.pid) {
              if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
                job.state = ShardJob::State::Done;
                std::cerr << "shardsweep: shard " << job.index << " done ("
                          << "attempt " << job.attempts << ")\n";
              } else {
                std::ostringstream why;
                if (WIFEXITED(status))
                  why << "exit status " << WEXITSTATUS(status);
                else if (WIFSIGNALED(status))
                  why << "killed by signal " << WTERMSIG(status);
                else
                  why << "unknown wait status";
                fail_attempt(job, why.str());
              }
            } else {
              fail_attempt(job, "waitpid failed");
            }
          }
          if (job.state == ShardJob::State::Pending ||
              job.state == ShardJob::State::Running)
            work_left = true;
        }
        if (work_left)
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }

    // Merge every shard whose artifacts exist and parse — in merge-only
    // mode that is whatever a previous (possibly partial) run left behind.
    std::vector<ShardArtifact> artifacts;
    std::vector<std::string> artifact_errors;
    for (const ShardJob& job : jobs) {
      if (!parser.get_bool("merge-only") &&
          job.state != ShardJob::State::Done)
        continue;
      const std::string csv_path = shard_csv_path(workdir, job.index);
      const std::string manifest_path =
          shard_manifest_path(workdir, job.index);
      if (!std::filesystem::exists(csv_path) ||
          !std::filesystem::exists(manifest_path)) {
        if (!parser.get_bool("merge-only"))
          artifact_errors.push_back("shard " + std::to_string(job.index) +
                                    ": worker exited 0 but artifacts are "
                                    "missing");
        continue;
      }
      try {
        ShardArtifact artifact;
        artifact.manifest = manifest_from_json(read_file(manifest_path));
        artifact.csv = read_file(csv_path);
        artifacts.push_back(std::move(artifact));
      } catch (const std::exception& e) {
        artifact_errors.push_back("shard " + std::to_string(job.index) +
                                  ": unreadable artifacts: " + e.what());
      }
    }

    MergeReport report = merge_shards(artifacts);
    report.errors.insert(report.errors.end(), artifact_errors.begin(),
                         artifact_errors.end());

    const std::string out_path = parser.get("out");
    if (!out_path.empty()) {
      std::ofstream os(out_path, std::ios::binary);
      if (!os) {
        std::cerr << "error: cannot open '" << out_path << "' for writing\n";
        return 2;
      }
      os << report.csv;
    } else {
      std::cout << report.csv;
    }

    std::cerr << "shardsweep: merged " << report.merged_cells << "/"
              << report.expected_cells << " cells from " << artifacts.size()
              << " shard artifact(s)\n";
    for (const std::string& error : report.errors)
      std::cerr << "shardsweep: error: " << error << "\n";
    if (!report.missing_cells.empty()) {
      std::cerr << "shardsweep: missing cells:";
      for (const std::string& key : report.missing_cells)
        std::cerr << ' ' << key;
      std::cerr << "\n";
    }
    return report.ok() ? 0 : 3;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
