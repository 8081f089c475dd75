#include "sim/certify.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <sstream>

#include "cache/cell_key.hpp"
#include "cache/result_cache.hpp"
#include "common/contracts.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "core/theory.hpp"
#include "func/library.hpp"
#include "sim/batch_async_runner.hpp"
#include "sim/batch_runner.hpp"
#include "sim/batch_vector_runner.hpp"
#include "sim/megabatch.hpp"
#include "sim/runner.hpp"
#include "sim/vector_scenario.hpp"
#include "sim/scenario_io.hpp"
#include "sim/trace.hpp"

namespace ftmao {

namespace {

const std::vector<AttackKind>& attack_grid() {
  static const std::vector<AttackKind> grid{
      AttackKind::None,         AttackKind::Silent,
      AttackKind::FixedValue,   AttackKind::SplitBrain,
      AttackKind::HullEdgeUp,   AttackKind::HullEdgeDown,
      AttackKind::RandomNoise,  AttackKind::SignFlip,
      AttackKind::PullToTarget, AttackKind::FlipFlop};
  return grid;
}

Scenario scenario_for(const CertifyOptions& o, AttackKind kind) {
  Scenario s =
      make_standard_scenario(o.n, o.f, o.spread, kind, o.rounds, o.seed);
  s.attack.target = -6.0 * o.spread;
  s.attack.gradient_magnitude = 10.0;
  return s;
}

// Canonical cache spec for one per-attack run of a certification section.
// `section` names the engine family ("certify-sync" also covers the audit
// knobs, which are compile-time constants folded into the schema rev);
// (n, f, dim, rounds) are the section's own values, which differ from the
// sync section's for async/vector. Attack target/gradient overrides are
// derived from spread, so spread covers them.
std::string certify_cache_spec(const CertifyOptions& o, const char* section,
                               AttackKind kind, std::size_t n, std::size_t f,
                               std::size_t dim, std::size_t rounds) {
  std::ostringstream os;
  os << section << ";family=std-mixed;n=" << n << ";f=" << f << ";dim=" << dim
     << ";attack=" << attack_kind_name(kind)
     << ";spread=" << cache_canon_double(o.spread) << ";rounds=" << rounds
     << ";seed=" << o.seed << ";constraint=none";
  return os.str();
}

}  // namespace

CertificationReport certify_sbg(const CertifyOptions& options) {
  FTMAO_EXPECTS(options.n > 3 * options.f);
  CertificationReport report;

  double worst_disagreement = 0.0;
  std::string worst_disagreement_attack = "none";
  double worst_dist = 0.0;
  std::string worst_dist_attack = "none";
  bool witnesses_ok = true;
  std::string witness_detail = "all audits passed";
  bool invariants_ok = true;
  std::string invariant_detail = "I1-I3 held every round";
  bool bounds_ok = true;
  std::string bound_detail = "measured <= Lemma 3 bound every round";

  // Each attack's run is independent; evaluate them on the pool, writing
  // per-attack verdicts into fixed slots, then fold in grid order below so
  // the report (including which attack is named "worst") is byte-identical
  // to the serial path regardless of thread count.
  struct AttackVerdict {
    std::string attack;
    double disagreement = 0.0;
    double dist = 0.0;
    bool witnesses_ok = true;
    bool invariants_ok = true;
    std::string invariant_violation;
    bool bounds_ok = true;
    std::string bound_violation;
  };
  const std::vector<AttackKind>& grid = attack_grid();
  std::vector<AttackVerdict> verdicts(grid.size());

  // Cache pre-pass: per-attack verdicts whose canonical key resolves are
  // restored field-for-field from the payload; the rest land on `pending`
  // and are simulated exactly as without a cache. A payload that fails to
  // decode is discarded and the attack recomputed.
  std::vector<std::size_t> pending(grid.size());
  std::iota(pending.begin(), pending.end(), std::size_t{0});
  std::vector<CellKey> sync_keys;
  if (options.cache != nullptr) {
    pending.clear();
    sync_keys.reserve(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      sync_keys.push_back(make_cell_key(
          certify_cache_spec(options, "certify-sync", grid[i], options.n,
                             options.f, 1, options.rounds)));
      bool filled = false;
      if (const std::optional<std::string> payload =
              options.cache->lookup(sync_keys[i])) {
        try {
          PayloadReader reader(*payload);
          AttackVerdict v;
          v.attack = attack_kind_name(grid[i]);
          v.disagreement = reader.get_double();
          v.dist = reader.get_double();
          v.witnesses_ok = reader.get_bool();
          v.invariants_ok = reader.get_bool();
          v.invariant_violation = reader.get_string();
          v.bounds_ok = reader.get_bool();
          v.bound_violation = reader.get_string();
          if (reader.exhausted()) {
            verdicts[i] = std::move(v);
            filled = true;
          }
        } catch (const ContractViolation&) {
          filled = false;
        }
      }
      if (!filled) pending.push_back(i);
    }
  }

  const HarmonicStep harmonic;
  // Every attack in a section runs the same scenario shape, so each
  // section's pending list is sliced by the megabatch planner into
  // lane-aligned tasks (batch-1 tasks on the reference engine under
  // scalar_engine); task ranges index the pending list. A task's attacks
  // advance in lockstep through the batched engine, and the per-attack
  // verdicts (audits, invariants, bound domination) are then computed
  // from each replica's metrics exactly as the scalar path would: each
  // replica's numbers are independent of its batch-mates.
  const std::size_t batch_size = options.scalar_engine ? 1 : options.batch_size;
  const std::vector<MegabatchTask> sync_tasks = plan_uniform_slices(
      pending.size(), batch_size, options.rounds,
      MegabatchKey{MegabatchEngine::kSync, options.n, options.f, 1});
  const std::size_t num_chunks = sync_tasks.size();
  parallel_for_each(options.num_threads, num_chunks, [&](std::size_t task) {
    const std::size_t first = sync_tasks[task].first;
    const std::size_t batch = sync_tasks[task].count;
    RunOptions run_options;
    run_options.record_trace = true;
    run_options.audit_witnesses = true;
    run_options.audit_every = 5;
    run_options.audit_max_rounds = 100;

    std::vector<Scenario> replicas;
    replicas.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i)
      replicas.push_back(scenario_for(options, grid[pending[first + i]]));
    const std::vector<RunMetrics> metrics =
        run_replicas(replicas, options.scalar_engine, run_options);

    for (std::size_t i = 0; i < batch; ++i) {
      const Scenario& s = replicas[i];
      const RunMetrics& m = metrics[i];
      AttackVerdict& v = verdicts[pending[first + i]];
      v.attack = attack_kind_name(grid[pending[first + i]]);
      v.disagreement = m.final_disagreement();
      v.dist = m.final_max_dist();
      v.witnesses_ok =
          m.state_witness.all_passed() && m.gradient_witness.all_passed();

      const double L = family_gradient_bound(s.honest_functions());
      if (s.step.kind == StepKind::Harmonic) {
        const InvariantReport inv =
            check_sbg_invariants(*m.trace, s.f, L, harmonic);
        if (!inv.ok) {
          v.invariants_ok = false;
          v.invariant_violation = inv.violations.front();
        }
        const Series bound = disagreement_upper_bound(
            m.disagreement[0], L, harmonic, s.n - s.f, s.f, s.rounds);
        for (std::size_t t = 0; t < bound.size(); ++t) {
          if (m.disagreement[t] > bound[t] + 1e-9) {
            v.bounds_ok = false;
            std::ostringstream os;
            os << "bound violated under " << v.attack << " at round " << t;
            v.bound_violation = os.str();
            break;
          }
        }
      }
    }
  });

  if (options.cache != nullptr) {
    for (std::size_t i : pending) {
      const AttackVerdict& v = verdicts[i];
      PayloadWriter writer;
      writer.put_double(v.disagreement);
      writer.put_double(v.dist);
      writer.put_bool(v.witnesses_ok);
      writer.put_bool(v.invariants_ok);
      writer.put_string(v.invariant_violation);
      writer.put_bool(v.bounds_ok);
      writer.put_string(v.bound_violation);
      options.cache->insert(sync_keys[i], writer.bytes());
    }
  }

  for (const AttackVerdict& v : verdicts) {
    if (v.disagreement > worst_disagreement) {
      worst_disagreement = v.disagreement;
      worst_disagreement_attack = v.attack;
    }
    if (v.dist > worst_dist) {
      worst_dist = v.dist;
      worst_dist_attack = v.attack;
    }
    if (!v.witnesses_ok) {
      witnesses_ok = false;
      witness_detail = "witness audit failed under " + v.attack;
    }
    if (!v.invariants_ok) {
      invariants_ok = false;
      invariant_detail = "under " + v.attack + ": " + v.invariant_violation;
    }
    if (!v.bounds_ok) {
      bounds_ok = false;
      bound_detail = v.bound_violation;
    }
  }

  auto add = [&report](std::string name, bool ok, std::string detail) {
    report.checks.push_back({std::move(name), ok, std::move(detail)});
  };
  add("theorem2-consensus", worst_disagreement <= options.consensus_eps,
      "worst " + format_double(worst_disagreement, 4) + " (" +
          worst_disagreement_attack + ")");
  add("theorem2-optimality", worst_dist <= options.optimality_eps,
      "worst " + format_double(worst_dist, 4) + " (" + worst_dist_attack + ")");
  add("lemma2-witnesses", witnesses_ok, witness_detail);
  add("trace-invariants", invariants_ok, invariant_detail);
  add("lemma3-bound-domination", bounds_ok, bound_detail);

  // Asynchronous section: the same attack grid through the event-driven
  // n > 5f engine (batched across attacks), checking that Theorem 2's
  // guarantees survive message delays. Per-attack results land in fixed
  // slots and fold in grid order, like the synchronous section.
  if (options.async_rounds > 0) {
    FTMAO_EXPECTS(options.async_n > 5 * options.async_f);
    std::vector<std::pair<double, double>> async_results(grid.size());

    std::vector<std::size_t> async_pending(grid.size());
    std::iota(async_pending.begin(), async_pending.end(), std::size_t{0});
    std::vector<CellKey> async_keys;
    if (options.cache != nullptr) {
      async_pending.clear();
      async_keys.reserve(grid.size());
      for (std::size_t i = 0; i < grid.size(); ++i) {
        async_keys.push_back(make_cell_key(certify_cache_spec(
            options, "certify-async", grid[i], options.async_n,
            options.async_f, 1, options.async_rounds)));
        bool filled = false;
        if (const std::optional<std::string> payload =
                options.cache->lookup(async_keys[i])) {
          try {
            PayloadReader reader(*payload);
            const double disagreement = reader.get_double();
            const double dist = reader.get_double();
            if (reader.exhausted()) {
              async_results[i] = {disagreement, dist};
              filled = true;
            }
          } catch (const ContractViolation&) {
            filled = false;
          }
        }
        if (!filled) async_pending.push_back(i);
      }
    }

    const std::vector<MegabatchTask> async_tasks = plan_uniform_slices(
        async_pending.size(), batch_size, options.async_rounds,
        MegabatchKey{MegabatchEngine::kAsync, options.async_n, options.async_f,
                     1});
    parallel_for_each(
        options.num_threads, async_tasks.size(), [&](std::size_t task) {
          const std::size_t first = async_tasks[task].first;
          const std::size_t batch = async_tasks[task].count;
          std::vector<AsyncScenario> replicas;
          replicas.reserve(batch);
          for (std::size_t i = 0; i < batch; ++i) {
            AsyncScenario s = make_standard_async_scenario(
                options.async_n, options.async_f, options.spread,
                grid[async_pending[first + i]], options.async_rounds,
                options.seed);
            s.attack.target = -6.0 * options.spread;
            s.attack.gradient_magnitude = 10.0;
            replicas.push_back(std::move(s));
          }
          const std::vector<AsyncRunMetrics> metrics =
              run_replicas(replicas, options.scalar_engine);
          for (std::size_t i = 0; i < batch; ++i)
            async_results[async_pending[first + i]] = {
                metrics[i].disagreement.back(),
                metrics[i].max_dist_to_y.back()};
        });

    if (options.cache != nullptr) {
      for (std::size_t i : async_pending) {
        PayloadWriter writer;
        writer.put_double(async_results[i].first);
        writer.put_double(async_results[i].second);
        options.cache->insert(async_keys[i], writer.bytes());
      }
    }

    double async_worst_disagreement = 0.0;
    std::string async_worst_disagreement_attack = "none";
    double async_worst_dist = 0.0;
    std::string async_worst_dist_attack = "none";
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (async_results[i].first > async_worst_disagreement) {
        async_worst_disagreement = async_results[i].first;
        async_worst_disagreement_attack = attack_kind_name(grid[i]);
      }
      if (async_results[i].second > async_worst_dist) {
        async_worst_dist = async_results[i].second;
        async_worst_dist_attack = attack_kind_name(grid[i]);
      }
    }
    add("async-consensus",
        async_worst_disagreement <= options.async_consensus_eps,
        "worst " + format_double(async_worst_disagreement, 4) + " (" +
            async_worst_disagreement_attack + ")");
    add("async-optimality", async_worst_dist <= options.async_optimality_eps,
        "worst " + format_double(async_worst_dist, 4) + " (" +
            async_worst_dist_attack + ")");
  }

  // Vector section: the attack grid once more, through the coordinate-wise
  // d-dimensional engine (lane-packed batch across attacks). Consensus must
  // clear its threshold; dist to the failure-free optimum is only held to
  // the loose vector_optimality_eps (the valid set may be non-convex, see
  // certify.hpp). Fixed slots + grid-order fold, like the other sections.
  if (options.vector_rounds > 0) {
    std::vector<std::pair<double, double>> vector_results(grid.size());

    std::vector<std::size_t> vector_pending(grid.size());
    std::iota(vector_pending.begin(), vector_pending.end(), std::size_t{0});
    std::vector<CellKey> vector_keys;
    if (options.cache != nullptr) {
      vector_pending.clear();
      vector_keys.reserve(grid.size());
      for (std::size_t i = 0; i < grid.size(); ++i) {
        vector_keys.push_back(make_cell_key(certify_cache_spec(
            options, "certify-vector", grid[i], options.n, options.f,
            options.vector_dim, options.vector_rounds)));
        bool filled = false;
        if (const std::optional<std::string> payload =
                options.cache->lookup(vector_keys[i])) {
          try {
            PayloadReader reader(*payload);
            const double disagreement = reader.get_double();
            const double dist = reader.get_double();
            if (reader.exhausted()) {
              vector_results[i] = {disagreement, dist};
              filled = true;
            }
          } catch (const ContractViolation&) {
            filled = false;
          }
        }
        if (!filled) vector_pending.push_back(i);
      }
    }

    const std::vector<MegabatchTask> vector_tasks = plan_uniform_slices(
        vector_pending.size(), batch_size, options.vector_rounds,
        MegabatchKey{MegabatchEngine::kVector, options.n, options.f,
                     options.vector_dim});
    parallel_for_each(
        options.num_threads, vector_tasks.size(), [&](std::size_t task) {
          const std::size_t first = vector_tasks[task].first;
          const std::size_t batch = vector_tasks[task].count;
          std::vector<VectorScenario> replicas;
          replicas.reserve(batch);
          for (std::size_t i = 0; i < batch; ++i) {
            VectorScenario s = make_standard_vector_scenario(
                options.n, options.f, options.spread,
                grid[vector_pending[first + i]], options.vector_rounds,
                options.seed, options.vector_dim);
            s.attack.target = -6.0 * options.spread;
            s.attack.gradient_magnitude = 10.0;
            replicas.push_back(std::move(s));
          }
          const std::vector<VectorRunResult> metrics =
              run_replicas(replicas, options.scalar_engine);
          for (std::size_t i = 0; i < batch; ++i)
            vector_results[vector_pending[first + i]] = {
                metrics[i].disagreement.back(),
                metrics[i].dist_to_average_optimum.back()};
        });

    if (options.cache != nullptr) {
      for (std::size_t i : vector_pending) {
        PayloadWriter writer;
        writer.put_double(vector_results[i].first);
        writer.put_double(vector_results[i].second);
        options.cache->insert(vector_keys[i], writer.bytes());
      }
    }

    double vector_worst_disagreement = 0.0;
    std::string vector_worst_disagreement_attack = "none";
    double vector_worst_dist = 0.0;
    std::string vector_worst_dist_attack = "none";
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (vector_results[i].first > vector_worst_disagreement) {
        vector_worst_disagreement = vector_results[i].first;
        vector_worst_disagreement_attack = attack_kind_name(grid[i]);
      }
      if (vector_results[i].second > vector_worst_dist) {
        vector_worst_dist = vector_results[i].second;
        vector_worst_dist_attack = attack_kind_name(grid[i]);
      }
    }
    add("vector-consensus",
        vector_worst_disagreement <= options.vector_consensus_eps,
        "worst " + format_double(vector_worst_disagreement, 4) + " (" +
            vector_worst_disagreement_attack + ")");
    add("vector-optimality", vector_worst_dist <= options.vector_optimality_eps,
        "worst " + format_double(vector_worst_dist, 4) + " (" +
            vector_worst_dist_attack + ")");
  }

  // Liveness contrast: the attack grid must actually bite — the untrimmed
  // baseline has to fail under the coordinated attack, otherwise the whole
  // certification would be vacuous.
  {
    double dgd_dist = 0.0;
    bool dgd_cached = false;
    CellKey dgd_key;
    if (options.cache != nullptr) {
      dgd_key = make_cell_key(
          certify_cache_spec(options, "certify-dgd", AttackKind::PullToTarget,
                             options.n, options.f, 1, options.rounds));
      if (const std::optional<std::string> payload =
              options.cache->lookup(dgd_key)) {
        try {
          PayloadReader reader(*payload);
          const double dist = reader.get_double();
          if (reader.exhausted()) {
            dgd_dist = dist;
            dgd_cached = true;
          }
        } catch (const ContractViolation&) {
          dgd_cached = false;
        }
      }
    }
    if (!dgd_cached) {
      Scenario s = scenario_for(options, AttackKind::PullToTarget);
      const RunMetrics dgd = run_dgd(s);
      dgd_dist = dgd.final_max_dist();
      if (options.cache != nullptr) {
        PayloadWriter writer;
        writer.put_double(dgd_dist);
        options.cache->insert(dgd_key, writer.bytes());
      }
    }
    add("attack-liveness (DGD must fail)",
        dgd_dist > 10.0 * options.optimality_eps,
        "DGD dist " + format_double(dgd_dist, 4));
  }

  report.passed = std::all_of(report.checks.begin(), report.checks.end(),
                              [](const CertifyCheck& c) { return c.passed; });
  return report;
}

}  // namespace ftmao
