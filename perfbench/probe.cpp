// perfbench_probe: drives the ftmao libraries in-process for the
// benchmark's traced runs (perfbench/run.py --trace 1). Modes:
//
//   perfbench_probe sweep   --sizes L --attacks L --seeds K --rounds R
//                           --spread S --threads T --out CSV --spans JSONL
//       The sweep grid re-driven through plan_megabatches,
//       parallel_for_each and run_sbg_batch. Writes the sweep CSV, which
//       must equal `ftmao_sweep --csv` byte for byte.
//   perfbench_probe certify --n N --f F --seed S --out TXT --spans JSONL
//                           [--no-audit]
//       certify_sbg's sections re-driven through run_sbg_batch,
//       check_sbg_invariants, run_async_sbg_batch, run_vector_sbg_batch
//       and run_dgd. Writes ftmao_certify's stdout. --no-audit runs only
//       the sync engine calls, with the witness audits off, and writes no
//       report: its engine time is the baseline that isolates the audits.
//   perfbench_probe layers  --spread S --sweep-bin PATH --cache-dir DIR
//                           --fabric-sizes L --fabric-attacks L
//                           --fabric-dims L --fabric-seeds K
//                           --fabric-rounds R
//       Fixed-input probes of single layers. Prints one JSON object.
//   perfbench_probe machine
//       Prints the build and ISA facts as one JSON object.
//
// Spans are timed by this file around calls into the libraries' public
// functions (no span lives inside the program yet), kept in memory, and
// written once at exit as JSON lines.

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/cell_key.hpp"
#include "cache/result_cache.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "core/step_size.hpp"
#include "core/theory.hpp"
#include "func/library.hpp"
#include "lp/witness.hpp"
#include "sim/batch_async_runner.hpp"
#include "sim/batch_runner.hpp"
#include "sim/batch_vector_runner.hpp"
#include "sim/certify.hpp"
#include "sim/megabatch.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "sim/scenario_io.hpp"
#include "sim/shard.hpp"
#include "sim/sweep.hpp"
#include "sim/trace.hpp"
#include "sim/vector_scenario.hpp"
#include "simd/simd.hpp"
#include "trim/trim_batch.hpp"

namespace {

using namespace ftmao;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- arguments --------------------------------------------------------

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0)
        throw std::invalid_argument("unexpected argument '" + key + "'");
      key = key.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";
      }
    }
  }

  bool has(const std::string& key) const { return values_.count(key) > 0; }

  const std::string& get(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) throw std::invalid_argument("missing --" + key);
    return it->second;
  }

  std::size_t get_size(const std::string& key) const {
    return static_cast<std::size_t>(std::stoull(get(key)));
  }

  double get_double(const std::string& key) const {
    return std::stod(get(key));
  }

 private:
  std::map<std::string, std::string> values_;
};

void write_file(const std::string& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary);
  os << text;
  if (!os.flush()) throw std::runtime_error("cannot write '" + path + "'");
}

// --- spans ------------------------------------------------------------

/// In-memory span store. Spans arrive from pool threads, so pushes are
/// serialized; spans wrap whole engine calls, so the lock is cold.
class SpanLog {
 public:
  struct Span {
    std::string name;
    long id = 0;
    long parent = 0;  ///< 0 = root
    double start = 0.0;
    double end = 0.0;
    std::size_t thread = 0;
    std::vector<std::pair<std::string, double>> attrs;
  };

  long next_id() { return ++last_id_; }
  double now() const { return seconds_between(origin_, Clock::now()); }

  void push(Span span) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
  }

  void count_dropped() { dropped_.fetch_add(1); }

  /// One JSON object per line. A span the log could not store makes the
  /// trace unusable, so that is an error rather than a partial file.
  void write(const std::string& path) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (dropped_.load() != 0) throw std::runtime_error("span log lost spans");
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    for (const Span& s : spans_) {
      os << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
         << ",\"parent\":" << s.parent << ",\"start\":" << s.start
         << ",\"end\":" << s.end << ",\"thread\":" << s.thread
         << ",\"attrs\":{";
      for (std::size_t i = 0; i < s.attrs.size(); ++i) {
        if (i > 0) os << ',';
        os << '"' << s.attrs[i].first << "\":" << s.attrs[i].second;
      }
      os << "}}\n";
    }
    write_file(path, os.str());
  }

 private:
  const Clock::time_point origin_ = Clock::now();
  std::atomic<long> last_id_{0};
  std::atomic<long> dropped_{0};
  std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// Records [construction, destruction) as one span.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, long parent) : log_(log) {
    span_.name = std::move(name);
    span_.id = log.next_id();
    span_.parent = parent;
    span_.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
    span_.start = log.now();
  }

  ~ScopedSpan() {
    try {
      span_.end = log_.now();
      log_.push(std::move(span_));
    } catch (...) {
      log_.count_dropped();
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  long id() const { return span_.id; }
  void attr(std::string key, double value) {
    span_.attrs.emplace_back(std::move(key), value);
  }

 private:
  SpanLog& log_;
  SpanLog::Span span_;
};

/// parallel_for_each under a "thread_pool.parallel_for_each" span, with a
/// "thread_pool.task" span around each body call. The body receives the
/// task index and its task span's id.
void run_pool(SpanLog& log, long parent, std::size_t threads,
              std::size_t count,
              const std::function<void(std::size_t, long)>& body) {
  ScopedSpan pool(log, "thread_pool.parallel_for_each", parent);
  pool.attr("threads",
            static_cast<double>(ThreadPool::resolve_threads(threads)));
  parallel_for_each(threads, count, [&](std::size_t i) {
    ScopedSpan task(log, "thread_pool.task", pool.id());
    body(i, task.id());
  });
}

/// Engine occupancy since the last engine_stats_reset, as pass attributes.
void record_engine_stats(ScopedSpan& pass) {
  const EngineStats stats = engine_stats_snapshot();
  pass.attr("lanes", static_cast<double>(stats.lanes));
  pass.attr("padded_lanes", static_cast<double>(stats.padded_lanes));
}

// --- sweep re-drive ---------------------------------------------------

SweepConfig sweep_config_from(const Args& args) {
  SweepConfig config;
  config.sizes = parse_sizes(args.get("sizes"));
  config.attacks = parse_attacks(args.get("attacks"));
  for (std::uint64_t s = 1; s <= args.get_size("seeds"); ++s)
    config.seeds.push_back(s);
  config.rounds = args.get_size("rounds");
  config.spread = args.get_double("spread");
  config.num_threads = args.get_size("threads");
  config.validate();
  return config;
}

// The megabatched sync path of run_sweep_cells (no cache, dims = 1).
int run_sweep_mode(const Args& args) {
  const SweepConfig config = sweep_config_from(args);
  const std::vector<CellSpec> specs = sweep_cell_specs(config);
  const std::size_t num_seeds = config.seeds.size();
  std::vector<double> disagreements(specs.size() * num_seeds, 0.0);
  std::vector<double> dists(specs.size() * num_seeds, 0.0);
  SpanLog log;
  {
    ScopedSpan pass(log, "pass", 0);
    std::vector<MegabatchItem> items;
    items.reserve(specs.size() * num_seeds);
    for (std::size_t c = 0; c < specs.size(); ++c) {
      const MegabatchKey key{MegabatchEngine::kSync, specs[c].n, specs[c].f,
                             1};
      for (std::size_t i = 0; i < num_seeds; ++i) items.push_back({key, c, i});
    }
    MegabatchPlan plan;
    {
      ScopedSpan span(log, "megabatch.plan_megabatches", pass.id());
      plan = plan_megabatches(std::move(items), config.batch_size,
                              config.rounds);
      span.attr("tasks", static_cast<double>(plan.tasks.size()));
    }

    const auto run_task = [&](std::size_t ti, long task_id) {
      const MegabatchTask& task = plan.tasks[ti];
      const std::span<const MegabatchItem> batch(
          plan.items.data() + task.first, task.count);
      std::vector<Scenario> replicas;
      replicas.reserve(batch.size());
      for (const MegabatchItem& it : batch) {
        const CellSpec& spec = specs[it.cell];
        Scenario s = make_standard_scenario(spec.n, spec.f, config.spread,
                                            spec.attack, config.rounds,
                                            config.seeds[it.seed]);
        s.step = config.step;
        replicas.push_back(std::move(s));
      }
      std::vector<RunMetrics> ms;
      {
        ScopedSpan engine(log, "batch_runner.run_sbg_batch", task_id);
        engine.attr("n", static_cast<double>(task.key.n));
        engine.attr("replicas", static_cast<double>(replicas.size()));
        engine.attr("rounds", static_cast<double>(config.rounds));
        ms = run_sbg_batch(replicas);
      }
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const std::size_t slot = batch[i].cell * num_seeds + batch[i].seed;
        disagreements[slot] = ms[i].final_disagreement();
        dists[slot] = ms[i].final_max_dist();
      }
    };
    engine_stats_reset();
    run_pool(log, pass.id(), config.num_threads, plan.tasks.size(), run_task);
    record_engine_stats(pass);
  }

  std::vector<SweepCell> cells(specs.size());
  for (std::size_t c = 0; c < specs.size(); ++c) {
    cells[c].n = specs[c].n;
    cells[c].f = specs[c].f;
    cells[c].dim = specs[c].dim;
    cells[c].attack = specs[c].attack;
    cells[c].disagreement =
        summarize(std::span(disagreements).subspan(c * num_seeds, num_seeds));
    cells[c].dist_to_y =
        summarize(std::span(dists).subspan(c * num_seeds, num_seeds));
  }
  write_file(args.get("out"), sweep_to_csv(cells));
  log.write(args.get("spans"));
  return 0;
}

// --- certify re-drive -------------------------------------------------

// The attack grid of certify_sbg, in its fold order.
const std::vector<AttackKind>& certify_attacks() {
  static const std::vector<AttackKind> grid{
      AttackKind::None,         AttackKind::Silent,
      AttackKind::FixedValue,   AttackKind::SplitBrain,
      AttackKind::HullEdgeUp,   AttackKind::HullEdgeDown,
      AttackKind::RandomNoise,  AttackKind::SignFlip,
      AttackKind::PullToTarget, AttackKind::FlipFlop};
  return grid;
}

template <typename S>
void set_certify_attack(S& s, const CertifyOptions& o) {
  s.attack.target = -6.0 * o.spread;
  s.attack.gradient_magnitude = 10.0;
}

// Worst value over the attack grid, first attack wins ties.
struct Worst {
  double value = 0.0;
  std::string attack = "none";

  void fold(double v, AttackKind kind) {
    if (v > value) {
      value = v;
      attack = attack_kind_name(kind);
    }
  }
  std::string detail() const {
    return "worst " + format_double(value, 4) + " (" + attack + ")";
  }
};

using Checks = std::vector<CertifyCheck>;

// Slices one certification section as certify_sbg does with megabatching
// on and no cache.
std::vector<MegabatchTask> plan_section(SpanLog& log, long parent,
                                        const CertifyOptions& o,
                                        const MegabatchKey& key,
                                        std::size_t rounds) {
  ScopedSpan span(log, "megabatch.plan_uniform_slices", parent);
  std::vector<MegabatchTask> tasks = plan_uniform_slices(
      certify_attacks().size(), o.batch_size, rounds, key);
  span.attr("tasks", static_cast<double>(tasks.size()));
  return tasks;
}

// Sync section: Theorem 2, witness audits, trace invariants and Lemma 3
// bound domination. With audits off it runs only the engine calls.
void certify_sync(SpanLog& log, long parent, const CertifyOptions& o,
                  bool audits, Checks& checks) {
  const std::vector<AttackKind>& grid = certify_attacks();
  ScopedSpan section(log, "certify.sync", parent);
  const std::vector<MegabatchTask> tasks = plan_section(
      log, section.id(), o, {MegabatchEngine::kSync, o.n, o.f, 1}, o.rounds);
  struct Verdict {
    double disagreement = 0.0;
    double dist = 0.0;
    bool witnesses_ok = true;
    std::string invariant_violation;  ///< empty = I1-I3 held
    std::string bound_violation;      ///< empty = bound dominated
  };
  std::vector<Verdict> verdicts(grid.size());
  const HarmonicStep harmonic;

  const auto run_task = [&](std::size_t t, long task_id) {
    RunOptions run_options;
    run_options.record_trace = true;
    run_options.audit_witnesses = audits;
    run_options.audit_every = 5;
    run_options.audit_max_rounds = 100;
    std::vector<Scenario> replicas;
    for (std::size_t i = 0; i < tasks[t].count; ++i) {
      Scenario s = make_standard_scenario(
          o.n, o.f, o.spread, grid[tasks[t].first + i], o.rounds, o.seed);
      set_certify_attack(s, o);
      replicas.push_back(std::move(s));
    }
    std::vector<RunMetrics> metrics;
    {
      ScopedSpan engine(log, "batch_runner.run_sbg_batch", task_id);
      engine.attr("n", static_cast<double>(o.n));
      engine.attr("replicas", static_cast<double>(replicas.size()));
      engine.attr("rounds", static_cast<double>(o.rounds));
      metrics = run_sbg_batch(replicas, run_options);
    }
    if (!audits) return;
    for (std::size_t i = 0; i < replicas.size(); ++i) {
      const Scenario& s = replicas[i];
      const RunMetrics& m = metrics[i];
      Verdict& v = verdicts[tasks[t].first + i];
      v.disagreement = m.final_disagreement();
      v.dist = m.final_max_dist();
      v.witnesses_ok =
          m.state_witness.all_passed() && m.gradient_witness.all_passed();
      if (s.step.kind != StepKind::Harmonic) continue;
      const double L = family_gradient_bound(s.honest_functions());
      {
        ScopedSpan check(log, "trace.check_sbg_invariants", task_id);
        const InvariantReport inv =
            check_sbg_invariants(*m.trace, s.f, L, harmonic);
        if (!inv.ok) v.invariant_violation = inv.violations.front();
      }
      const Series bound = disagreement_upper_bound(
          m.disagreement[0], L, harmonic, s.n - s.f, s.f, s.rounds);
      for (std::size_t r = 0; r < bound.size(); ++r) {
        if (m.disagreement[r] > bound[r] + 1e-9) {
          v.bound_violation = "bound violated under " +
                              attack_kind_name(s.attack.kind) + " at round " +
                              std::to_string(r);
          break;
        }
      }
    }
  };
  run_pool(log, section.id(), o.num_threads, tasks.size(), run_task);
  if (!audits) return;

  Worst disagreement, dist;
  std::string witness_detail = "all audits passed";
  std::string invariant_detail = "I1-I3 held every round";
  std::string bound_detail = "measured <= Lemma 3 bound every round";
  bool witnesses_ok = true, invariants_ok = true, bounds_ok = true;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const Verdict& v = verdicts[i];
    const std::string name = attack_kind_name(grid[i]);
    disagreement.fold(v.disagreement, grid[i]);
    dist.fold(v.dist, grid[i]);
    if (!v.witnesses_ok) {
      witnesses_ok = false;
      witness_detail = "witness audit failed under " + name;
    }
    if (!v.invariant_violation.empty()) {
      invariants_ok = false;
      invariant_detail = "under " + name + ": " + v.invariant_violation;
    }
    if (!v.bound_violation.empty()) {
      bounds_ok = false;
      bound_detail = v.bound_violation;
    }
  }
  checks.push_back({"theorem2-consensus",
                    disagreement.value <= o.consensus_eps,
                    disagreement.detail()});
  checks.push_back(
      {"theorem2-optimality", dist.value <= o.optimality_eps, dist.detail()});
  checks.push_back({"lemma2-witnesses", witnesses_ok, witness_detail});
  checks.push_back({"trace-invariants", invariants_ok, invariant_detail});
  checks.push_back({"lemma3-bound-domination", bounds_ok, bound_detail});
}

// Async section: the attack grid through the n > 5f event-driven engine.
void certify_async(SpanLog& log, long parent, const CertifyOptions& o,
                   Checks& checks) {
  const std::vector<AttackKind>& grid = certify_attacks();
  ScopedSpan section(log, "certify.async", parent);
  const std::vector<MegabatchTask> tasks = plan_section(
      log, section.id(), o, {MegabatchEngine::kAsync, o.async_n, o.async_f, 1},
      o.async_rounds);
  std::vector<std::pair<double, double>> results(grid.size());
  const auto run_task = [&](std::size_t t, long task_id) {
    std::vector<AsyncScenario> replicas;
    for (std::size_t i = 0; i < tasks[t].count; ++i) {
      AsyncScenario s = make_standard_async_scenario(
          o.async_n, o.async_f, o.spread, grid[tasks[t].first + i],
          o.async_rounds, o.seed);
      set_certify_attack(s, o);
      replicas.push_back(std::move(s));
    }
    std::vector<AsyncRunMetrics> metrics;
    {
      ScopedSpan engine(log, "batch_async_runner.run_async_sbg_batch",
                        task_id);
      metrics = run_async_sbg_batch(replicas);
    }
    for (std::size_t i = 0; i < replicas.size(); ++i)
      results[tasks[t].first + i] = {metrics[i].disagreement.back(),
                                     metrics[i].max_dist_to_y.back()};
  };
  run_pool(log, section.id(), o.num_threads, tasks.size(), run_task);
  Worst disagreement, dist;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    disagreement.fold(results[i].first, grid[i]);
    dist.fold(results[i].second, grid[i]);
  }
  checks.push_back({"async-consensus",
                    disagreement.value <= o.async_consensus_eps,
                    disagreement.detail()});
  checks.push_back({"async-optimality", dist.value <= o.async_optimality_eps,
                    dist.detail()});
}

// Vector section: the attack grid through the coordinate-wise engine.
void certify_vector(SpanLog& log, long parent, const CertifyOptions& o,
                    Checks& checks) {
  const std::vector<AttackKind>& grid = certify_attacks();
  ScopedSpan section(log, "certify.vector", parent);
  const std::vector<MegabatchTask> tasks = plan_section(
      log, section.id(), o, {MegabatchEngine::kVector, o.n, o.f, o.vector_dim},
      o.vector_rounds);
  std::vector<std::pair<double, double>> results(grid.size());
  const auto run_task = [&](std::size_t t, long task_id) {
    std::vector<VectorScenario> replicas;
    for (std::size_t i = 0; i < tasks[t].count; ++i) {
      VectorScenario s = make_standard_vector_scenario(
          o.n, o.f, o.spread, grid[tasks[t].first + i], o.vector_rounds,
          o.seed, o.vector_dim);
      set_certify_attack(s, o);
      replicas.push_back(std::move(s));
    }
    std::vector<VectorRunResult> metrics;
    {
      ScopedSpan engine(log, "batch_vector_runner.run_vector_sbg_batch",
                        task_id);
      metrics = run_vector_sbg_batch(replicas);
    }
    for (std::size_t i = 0; i < replicas.size(); ++i)
      results[tasks[t].first + i] = {
          metrics[i].disagreement.back(),
          metrics[i].dist_to_average_optimum.back()};
  };
  run_pool(log, section.id(), o.num_threads, tasks.size(), run_task);
  Worst disagreement, dist;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    disagreement.fold(results[i].first, grid[i]);
    dist.fold(results[i].second, grid[i]);
  }
  checks.push_back({"vector-consensus",
                    disagreement.value <= o.vector_consensus_eps,
                    disagreement.detail()});
  checks.push_back({"vector-optimality",
                    dist.value <= o.vector_optimality_eps, dist.detail()});
}

// Liveness contrast: the untrimmed DGD baseline must fail.
void certify_dgd(SpanLog& log, long parent, const CertifyOptions& o,
                 Checks& checks) {
  ScopedSpan span(log, "baseline.run_dgd", parent);
  Scenario s = make_standard_scenario(o.n, o.f, o.spread,
                                      AttackKind::PullToTarget, o.rounds,
                                      o.seed);
  set_certify_attack(s, o);
  const double dgd_dist = run_dgd(s).final_max_dist();
  checks.push_back({"attack-liveness (DGD must fail)",
                    dgd_dist > 10.0 * o.optimality_eps,
                    "DGD dist " + format_double(dgd_dist, 4)});
}

// ftmao_certify's stdout for a finished barrage.
std::string certify_report(const CertifyOptions& o, const Checks& checks) {
  std::ostringstream os;
  os << "certifying SBG at n=" << o.n << ", f=" << o.f << " over 10 attacks, "
     << o.rounds << " rounds...\n\n";
  Table table({"check", "result", "detail"});
  bool passed = true;
  for (const CertifyCheck& check : checks) {
    table.row().add(check.name).add(check.passed ? "PASS" : "FAIL");
    table.add(check.detail);
    passed = passed && check.passed;
  }
  table.print(os);
  os << "\n" << (passed ? "CERTIFIED" : "FAILED") << "\n";
  return os.str();
}

int run_certify_mode(const Args& args) {
  CertifyOptions o;
  o.n = args.get_size("n");
  o.f = args.get_size("f");
  o.seed = args.get_size("seed");
  const bool audits = !args.has("no-audit");
  SpanLog log;
  Checks checks;
  engine_stats_reset();
  {
    ScopedSpan pass(log, "pass", 0);
    certify_sync(log, pass.id(), o, audits, checks);
    if (audits) {
      certify_async(log, pass.id(), o, checks);
      certify_vector(log, pass.id(), o, checks);
      certify_dgd(log, pass.id(), o, checks);
    }
    record_engine_stats(pass);
  }
  if (audits) write_file(args.get("out"), certify_report(o, checks));
  log.write(args.get("spans"));
  return 0;
}

// --- layer probes -----------------------------------------------------

volatile double g_sink = 0.0;  // keeps probed results observable

/// Median per-call nanoseconds of `call`. Calls are timed in batches of at
/// least 1 ms, so clock resolution does not matter; at least 21 batches
/// are taken, more while the time budget lasts.
double median_call_ns(const std::function<void()>& call,
                      double budget_s = 0.2) {
  std::size_t batch = 1;
  while (true) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) call();
    if (seconds_between(t0, Clock::now()) >= 1e-3 || batch >= (1u << 20))
      break;
    batch *= 2;
  }
  std::vector<double> samples;
  const auto budget = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(budget_s));
  const auto deadline = Clock::now() + budget;
  while (samples.size() < 21 ||
         (Clock::now() < deadline && samples.size() < 201)) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) call();
    samples.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                      static_cast<double>(batch));
  }
  return quantile(samples, 0.5);
}

/// One round of H x F send_to calls on an n=31 view holding the standard
/// scenario's initial broadcasts. The round advances per call, so the
/// strategies' per-round memos recompute as they do in the engine.
double adversary_round_ns(AttackKind kind, double spread) {
  const Scenario s = make_standard_scenario(31, 10, spread, kind, 4000, 1);
  const std::vector<std::size_t> honest = s.honest_indices();
  std::vector<Received<SbgPayload>> broadcasts;
  for (std::size_t i : honest) {
    const double x = s.initial_states[i];
    broadcasts.push_back({AgentId{static_cast<std::uint32_t>(i)},
                          SbgPayload{x, s.functions[i]->derivative(x)}});
  }
  Rng rng(s.seed);
  std::vector<std::unique_ptr<SbgAdversary>> adversaries;
  for (std::size_t idx : s.faulty)
    adversaries.push_back(
        make_adversary(s.attack, rng.substream("adversary", idx)));
  std::uint32_t round = 0;
  return median_call_ns([&] {
    const RoundView<SbgPayload> view{Round{++round}, broadcasts};
    double sum = 0.0;
    for (std::size_t j = 0; j < adversaries.size(); ++j) {
      const AgentId self{static_cast<std::uint32_t>(s.faulty[j])};
      for (std::size_t r : honest) {
        const std::optional<SbgPayload> p = adversaries[j]->send_to(
            self, AgentId{static_cast<std::uint32_t>(r)}, view);
        if (p) sum += p->state;
      }
    }
    g_sink = g_sink + sum;
  });
}

/// One trim_batch on an n x 32-lane block. The comparator network is
/// data-independent, so reusing the (by then sorted) block costs the same
/// as a fresh one.
double trim_batch_ns(std::size_t n, std::size_t f) {
  constexpr std::size_t kLanes = 32;
  Rng rng(n);
  std::vector<double> data(n * kLanes);
  for (double& v : data) v = rng.uniform(-4.0, 4.0);
  std::vector<double> out(kLanes);
  return median_call_ns([&] {
    trim_batch(data.data(), n, kLanes, f, out.data());
    g_sink = g_sink + out[0];
  });
}

/// find_admissible_witness on the query an audited n=22, f=7 round poses:
/// the 15 honest states, and the Trim midpoint after 7 split-brain values.
double witness_us(double spread) {
  const std::size_t f = 7;
  const Scenario s =
      make_standard_scenario(22, f, spread, AttackKind::SplitBrain, 4000, 1);
  std::vector<double> values;
  for (std::size_t i : s.honest_indices())
    values.push_back(s.initial_states[i]);
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t m = values.size();
  lp::WitnessQuery query;
  query.values = values;
  // The f Byzantine values sit above every honest one, so Trim keeps
  // sorted[f] .. sorted[m - 1].
  query.target = 0.5 * (sorted[f] + sorted[m - 1]);
  query.gamma = m - f;
  query.beta = 1.0 / (2.0 * static_cast<double>(m - f));
  query.tolerance = 1e-7;
  if (!lp::find_admissible_witness(query).found)
    throw std::runtime_error("witness probe: no witness found");
  const double ns = median_call_ns([&] {
    g_sink = g_sink + (lp::find_admissible_witness(query).found ? 1.0 : 0.0);
  });
  return ns / 1e3;
}

/// Disk-tier insert and cold lookup of every cell key of the fabric grid,
/// each through a fresh ResultCache, as each worker process has. Each
/// sample writes a new directory under --cache-dir and nothing is deleted
/// here, so no sample pays for freeing another's files.
std::pair<double, double> cache_us(const Args& args) {
  SweepConfig config;
  config.sizes = parse_sizes(args.get("fabric-sizes"));
  config.attacks = parse_attacks(args.get("fabric-attacks"));
  config.dims = parse_dims(args.get("fabric-dims"));
  for (std::uint64_t s = 1; s <= args.get_size("fabric-seeds"); ++s)
    config.seeds.push_back(s);
  config.rounds = args.get_size("fabric-rounds");
  config.spread = args.get_double("spread");
  std::vector<CellKey> keys;
  for (const CellSpec& spec : sweep_cell_specs(config))
    keys.push_back(make_cell_key(sweep_cell_cache_spec(config, spec)));
  PayloadWriter writer;
  writer.put_u64(config.seeds.size());
  for (std::size_t i = 0; i < 2 * config.seeds.size(); ++i)
    writer.put_double(0.125 * static_cast<double>(i));

  const std::filesystem::path root = args.get("cache-dir");
  std::vector<double> insert_samples, lookup_samples;
  for (int sample = 0; sample < 15; ++sample) {
    const std::filesystem::path dir = root / ("s" + std::to_string(sample));
    if (std::filesystem::exists(dir))
      throw std::runtime_error("cache probe: '" + dir.string() + "' exists");
    CacheConfig cache_config;
    cache_config.dir = dir.string();
    {
      ResultCache cache(cache_config);
      const auto t0 = Clock::now();
      for (const CellKey& key : keys) cache.insert(key, writer.bytes());
      insert_samples.push_back(seconds_between(t0, Clock::now()) * 1e6 /
                               static_cast<double>(keys.size()));
    }
    {
      ResultCache cache(cache_config);
      std::size_t hits = 0;
      const auto t0 = Clock::now();
      for (const CellKey& key : keys) hits += cache.lookup(key) ? 1 : 0;
      lookup_samples.push_back(seconds_between(t0, Clock::now()) * 1e6 /
                               static_cast<double>(keys.size()));
      if (hits != keys.size())
        throw std::runtime_error("cache probe: a disk lookup missed");
    }
  }
  return {quantile(lookup_samples, 0.5), quantile(insert_samples, 0.5)};
}

/// fork + exec + exit of `<binary> --help`, the way the fabric spawns its
/// shard workers.
double spawn_ms(const std::string& binary) {
  std::vector<double> samples;
  for (int i = 0; i < 21; ++i) {
    const auto t0 = Clock::now();
    const pid_t pid = fork();
    if (pid == 0) {
      const int null_fd = open("/dev/null", O_WRONLY);
      if (null_fd >= 0) dup2(null_fd, STDOUT_FILENO);
      char* argv[] = {const_cast<char*>(binary.c_str()),
                      const_cast<char*>("--help"), nullptr};
      execv(argv[0], argv);
      _exit(127);
    }
    if (pid < 0) throw std::runtime_error("spawn probe: fork failed");
    int status = 0;
    if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
      throw std::runtime_error("spawn probe: '" + binary + " --help' failed");
    samples.push_back(seconds_between(t0, Clock::now()) * 1e3);
  }
  return quantile(samples, 0.5);
}

/// 16 n=31 replicas of one attack through run_sbg_batch, run alone.
double attack_s(AttackKind kind, double spread) {
  std::vector<Scenario> replicas;
  for (std::uint64_t seed = 1; seed <= 16; ++seed)
    replicas.push_back(
        make_standard_scenario(31, 10, spread, kind, 4000, seed));
  std::vector<double> samples;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    const std::vector<RunMetrics> ms = run_sbg_batch(replicas);
    samples.push_back(seconds_between(t0, Clock::now()));
    g_sink = g_sink + ms.front().final_disagreement();
  }
  return quantile(samples, 0.5);
}

int run_layers_mode(const Args& args) {
  const double spread = args.get_double("spread");
  std::vector<std::pair<std::string, double>> out;
  for (const char* name : {"split-brain", "sign-flip", "pull"})
    out.emplace_back(std::string("batch_runner.attack_s.") + name,
                     attack_s(parse_attack_kind(name), spread));
  for (const char* name : {"split-brain", "sign-flip", "pull", "noise"})
    out.emplace_back(std::string("adversary.round_ns.") + name,
                     adversary_round_ns(parse_attack_kind(name), spread));
  out.emplace_back("trim.trim_batch_ns.n13", trim_batch_ns(13, 4));
  out.emplace_back("trim.trim_batch_ns.n31", trim_batch_ns(31, 10));
  out.emplace_back("lp.witness_us", witness_us(spread));
  const auto [lookup_us, insert_us] = cache_us(args);
  out.emplace_back("cache.lookup_us", lookup_us);
  out.emplace_back("cache.insert_us", insert_us);
  out.emplace_back("apps.spawn_ms", spawn_ms(args.get("sweep-bin")));

  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << '{';
  for (std::size_t i = 0; i < out.size(); ++i)
    os << (i > 0 ? "," : "") << '"' << out[i].first << "\":" << out[i].second;
  os << "}\n";
  std::cout << os.str();
  return 0;
}

int run_machine_mode() {
  std::cout << "{\"detected_isa\":\"" << simd_isa_name(simd_detect())
            << "\",\"active_isa\":\"" << simd_isa_name(simd_active())
            << "\",\"compiler\":\"" << PERFBENCH_COMPILER
            << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
            << "\",\"build_git_rev\":\"" << build_git_revision() << "\"}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_probe sweep|certify|layers|machine "
                 "[--flag value ...]\n";
    return 2;
  }
  const std::string mode = argv[1];
  try {
    const Args args(argc, argv);
    if (mode == "sweep") return run_sweep_mode(args);
    if (mode == "certify") return run_certify_mode(args);
    if (mode == "layers") return run_layers_mode(args);
    if (mode == "machine") return run_machine_mode();
    std::cerr << "perfbench_probe: unknown mode '" << mode << "'\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_probe: " << e.what() << "\n";
    return 1;
  }
}
