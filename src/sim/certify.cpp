#include "sim/certify.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/contracts.hpp"
#include "common/table.hpp"
#include "core/theory.hpp"
#include "func/library.hpp"
#include "sim/replica_driver.hpp"
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

// Every certify run aims its attack at -6 * spread with gradient
// magnitude 10 and runs on the options' seed: each section's replicas
// and the DGD contrast alike.
Replica aimed(const CertifyOptions& o, AttackKind kind) {
  Replica replica;
  replica.attack.kind = kind;
  replica.attack.target = -6.0 * o.spread;
  replica.attack.gradient_magnitude = 10.0;
  replica.seed = o.seed;
  return replica;
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

// One attack's verdict in the synchronous section. Its cache payload is
// the fields in declaration order.
struct AttackVerdict {
  double disagreement = 0.0;
  double dist = 0.0;
  bool witnesses_ok = true;
  bool invariants_ok = true;
  std::string invariant_violation;
  bool bounds_ok = true;
  std::string bound_violation;
};

// One section: the attack grid on `shape`. Each attack's result is
// restored from the cache, or run through the task runner and judged by
// judge(attack, run). Results land in grid order, so the report is the
// same for every thread count, batch size, engine and cache state.
template <class R, class S, class Judge, class Decode, class Encode>
std::vector<R> run_section(const CertifyOptions& o, const char* section,
                           const S& shape, const RunOptions& run_options,
                           const Judge& judge, const Decode& decode,
                           const Encode& encode) {
  const std::vector<AttackKind>& grid = attack_grid();
  std::vector<R> results(grid.size());
  cached_pass(
      o.cache, results,
      [&](std::size_t i) {
        return certify_cache_spec(o, section, grid[i], shape.n, shape.f,
                                  shape_key(shape).dim, shape.rounds);
      },
      decode, encode,
      [&](const std::vector<std::size_t>& pending) {
        run_shape(
            shape, pending.size(),
            [&](std::size_t k) { return aimed(o, grid[pending[k]]); },
            {o.num_threads, o.batch_size, o.scalar_engine}, run_options,
            [&](std::size_t k, const auto& run) {
              results[pending[k]] = judge(grid[pending[k]], run);
            });
      });
  return results;
}

// A section that keeps only each attack's finals (async, vector). Its
// cache payload is the final disagreement, then the final distance.
template <class S>
std::vector<Finals> run_finals_section(const CertifyOptions& o,
                                       const char* section, const S& shape) {
  return run_section<Finals>(
      o, section, shape, kFinalsOnly,
      [](AttackKind, const auto& run) { return finals_of(run); },
      [](PayloadReader& reader) {
        Finals finals;
        finals.disagreement = reader.get_double();
        finals.dist = reader.get_double();
        return finals;
      },
      [](PayloadWriter& writer, const Finals& finals) {
        writer.put_double(finals.disagreement);
        writer.put_double(finals.dist);
      });
}

// Adds the `name`-consensus and `name`-optimality checks: the worst
// final disagreement and distance over the grid, each naming the first
// attack that reaches it ("none" when no value exceeds 0).
template <class R>
void add_worst(std::vector<CertifyCheck>& checks, const std::string& name,
               const std::vector<R>& results, double consensus_eps,
               double optimality_eps) {
  const auto add = [&](const std::string& check, double R::*field,
                       double eps) {
    double worst = 0.0;
    std::string attack = "none";
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (results[i].*field > worst) {
        worst = results[i].*field;
        attack = attack_kind_name(attack_grid()[i]);
      }
    }
    checks.push_back({check, worst <= eps,
                      "worst " + format_double(worst, 4) + " (" + attack +
                          ")"});
  };
  add(name + "-consensus", &R::disagreement, consensus_eps);
  add(name + "-optimality", &R::dist, optimality_eps);
}

}  // namespace

CertificationReport certify_sbg(const CertifyOptions& options) {
  FTMAO_EXPECTS(options.n > 3 * options.f);
  // Refused up front: the vector section's layout needs a positive
  // width, and it runs only after the others.
  if (!std::isfinite(options.spread) || options.spread <= 0)
    throw ContractViolation("spread: must be finite and > 0");
  const std::vector<AttackKind>& grid = attack_grid();
  CertificationReport report;

  // Synchronous section: Theorem 2 across the attack grid, plus each
  // run's Lemma 2 witness audits, trace invariants and Lemma 3 bound
  // domination, judged from its metrics exactly as a lone run_sbg would.
  const Scenario shape =
      make_standard_scenario(options.n, options.f, options.spread,
                             AttackKind::None, options.rounds, options.seed);
  const double L = family_gradient_bound(shape.honest_functions());
  const HarmonicStep harmonic;
  RunOptions audited;
  audited.record_trace = true;
  audited.audit_witnesses = true;
  audited.audit_every = 5;
  audited.audit_max_rounds = 100;
  const std::vector<AttackVerdict> verdicts = run_section<AttackVerdict>(
      options, "certify-sync", shape, audited,
      [&](AttackKind attack, const RunMetrics& m) {
        AttackVerdict v;
        v.disagreement = m.final_disagreement();
        v.dist = m.final_max_dist();
        v.witnesses_ok =
            m.state_witness.all_passed() && m.gradient_witness.all_passed();
        const InvariantReport inv =
            check_sbg_invariants(*m.trace, shape.f, L, harmonic);
        if (!inv.ok) {
          v.invariants_ok = false;
          v.invariant_violation = inv.violations.front();
        }
        const Series bound =
            disagreement_upper_bound(m.disagreement[0], L, harmonic,
                                     shape.n - shape.f, shape.f, shape.rounds);
        for (std::size_t t = 0; t < bound.size(); ++t) {
          if (m.disagreement[t] > bound[t] + 1e-9) {
            v.bounds_ok = false;
            std::ostringstream os;
            os << "bound violated under " << attack_kind_name(attack)
               << " at round " << t;
            v.bound_violation = os.str();
            break;
          }
        }
        return v;
      },
      [](PayloadReader& reader) {
        AttackVerdict v;
        v.disagreement = reader.get_double();
        v.dist = reader.get_double();
        v.witnesses_ok = reader.get_bool();
        v.invariants_ok = reader.get_bool();
        v.invariant_violation = reader.get_string();
        v.bounds_ok = reader.get_bool();
        v.bound_violation = reader.get_string();
        return v;
      },
      [](PayloadWriter& writer, const AttackVerdict& v) {
        writer.put_double(v.disagreement);
        writer.put_double(v.dist);
        writer.put_bool(v.witnesses_ok);
        writer.put_bool(v.invariants_ok);
        writer.put_string(v.invariant_violation);
        writer.put_bool(v.bounds_ok);
        writer.put_string(v.bound_violation);
      });

  // The folds run in grid order; a failing check names its last
  // offender.
  bool witnesses_ok = true;
  std::string witness_detail = "all audits passed";
  bool invariants_ok = true;
  std::string invariant_detail = "I1-I3 held every round";
  bool bounds_ok = true;
  std::string bound_detail = "measured <= Lemma 3 bound every round";
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const AttackVerdict& v = verdicts[i];
    const std::string attack = attack_kind_name(grid[i]);
    if (!v.witnesses_ok) {
      witnesses_ok = false;
      witness_detail = "witness audit failed under " + attack;
    }
    if (!v.invariants_ok) {
      invariants_ok = false;
      invariant_detail = "under " + attack + ": " + v.invariant_violation;
    }
    if (!v.bounds_ok) {
      bounds_ok = false;
      bound_detail = v.bound_violation;
    }
  }
  add_worst(report.checks, "theorem2", verdicts, options.consensus_eps,
            options.optimality_eps);
  report.checks.push_back({"lemma2-witnesses", witnesses_ok, witness_detail});
  report.checks.push_back(
      {"trace-invariants", invariants_ok, invariant_detail});
  report.checks.push_back(
      {"lemma3-bound-domination", bounds_ok, bound_detail});

  // Asynchronous section: the same attack grid through the event-driven
  // n > 5f engine, checking that Theorem 2's guarantees survive message
  // delays.
  if (options.async_rounds > 0) {
    FTMAO_EXPECTS(options.async_n > 5 * options.async_f);
    add_worst(report.checks, "async",
              run_finals_section(
                  options, "certify-async",
                  make_standard_async_scenario(
                      options.async_n, options.async_f, options.spread,
                      AttackKind::None, options.async_rounds, options.seed)),
              options.async_consensus_eps, options.async_optimality_eps);
  }

  // Vector section: the attack grid once more, through the coordinate-wise
  // d-dimensional engine. Consensus must clear its threshold; dist to the
  // failure-free optimum is only held to the loose vector_optimality_eps
  // (the valid set may be non-convex, see certify.hpp).
  if (options.vector_rounds > 0) {
    add_worst(report.checks, "vector",
              run_finals_section(
                  options, "certify-vector",
                  make_standard_vector_scenario(
                      options.n, options.f, options.spread, AttackKind::None,
                      options.vector_rounds, options.seed,
                      options.vector_dim)),
              options.vector_consensus_eps, options.vector_optimality_eps);
  }

  // Liveness contrast: the attack grid must actually bite — the untrimmed
  // baseline has to fail under the coordinated attack, otherwise the whole
  // certification would be vacuous.
  const Scenario dgd_run =
      make_replica(shape, aimed(options, AttackKind::PullToTarget));
  std::vector<double> dgd_dist(1);
  cached_pass(
      options.cache, dgd_dist,
      [&](std::size_t) {
        return certify_cache_spec(options, "certify-dgd",
                                  AttackKind::PullToTarget, options.n,
                                  options.f, 1, options.rounds);
      },
      [](PayloadReader& reader) { return reader.get_double(); },
      [](PayloadWriter& writer, double dist) { writer.put_double(dist); },
      [&](const std::vector<std::size_t>& pending) {
        for (std::size_t i : pending)
          dgd_dist[i] = run_dgd(dgd_run).final_max_dist();
      });
  report.checks.push_back({"attack-liveness (DGD must fail)",
                           dgd_dist[0] > 10.0 * options.optimality_eps,
                           "DGD dist " + format_double(dgd_dist[0], 4)});

  report.passed = std::all_of(report.checks.begin(), report.checks.end(),
                              [](const CertifyCheck& c) { return c.passed; });
  return report;
}

}  // namespace ftmao
