// The grid drivers against a serial oracle. run_sweep, both attack
// searches and certify_sbg must equal plain loops written in this file:
// one reference-engine run (run_sbg, run_vector_scenario, run_async_sbg)
// per (cell, seed), candidate or attack, aggregated in order. The loops
// share no scheduling, scenario packing or result scatter with the
// drivers, so a driver bug common to the batched engines and the --scalar
// path (which run the same plan) cannot hide behind their agreement.
// Every driver mode is checked: scalar and batched engines, several batch
// sizes, one and several threads.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/step_size.hpp"
#include "core/theory.hpp"
#include "func/library.hpp"
#include "sim/async_runner.hpp"
#include "sim/attack_search.hpp"
#include "sim/certify.hpp"
#include "sim/runner.hpp"
#include "sim/scenario_io.hpp"
#include "sim/sweep.hpp"
#include "sim/trace.hpp"
#include "sim/vector_scenario.hpp"

namespace ftmao {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// One standard run per (cell, seed) in grid order — sizes, then dims,
// then attacks, seeds innermost — folded per cell by summarize. A grid's
// delayed strike wakes at round rounds / 2 + 1.
std::vector<SweepCell> serial_sweep(const SweepConfig& config) {
  const std::size_t wake = config.rounds / 2 + 1;
  std::vector<SweepCell> cells;
  for (const auto& [n, f] : config.sizes) {
    for (std::size_t dim : config.dims) {
      for (AttackKind attack : config.attacks) {
        std::vector<double> disagreements;
        std::vector<double> dists;
        for (std::uint64_t seed : config.seeds) {
          if (config.async_engine) {
            AsyncScenario s = make_standard_async_scenario(
                n, f, config.spread, attack, config.rounds, seed);
            s.attack.activation_round = wake;
            s.step = config.step;
            s.delay_kind = config.delay_kind;
            s.delay_lo = config.delay_lo;
            s.delay_hi = config.delay_hi;
            const AsyncRunMetrics m = run_async_sbg(s);
            disagreements.push_back(m.disagreement.back());
            dists.push_back(m.max_dist_to_y.back());
          } else if (dim == 1) {
            Scenario s = make_standard_scenario(n, f, config.spread, attack,
                                                config.rounds, seed);
            s.attack.activation_round = wake;
            s.step = config.step;
            const RunMetrics m = run_sbg(s);
            disagreements.push_back(m.final_disagreement());
            dists.push_back(m.final_max_dist());
          } else {
            VectorScenario s = make_standard_vector_scenario(
                n, f, config.spread, attack, config.rounds, seed, dim);
            s.attack.activation_round = wake;
            s.step = config.step;
            const VectorRunResult m = run_vector_scenario(s);
            disagreements.push_back(m.disagreement.back());
            dists.push_back(m.dist_to_average_optimum.back());
          }
        }
        SweepCell cell;
        cell.n = n;
        cell.f = f;
        cell.dim = dim;
        cell.attack = attack;
        cell.disagreement = summarize(disagreements);
        cell.dist_to_y = summarize(dists);
        cells.push_back(cell);
      }
    }
  }
  return cells;
}

void expect_summary_bits(const Summary& got, const Summary& want) {
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(bits(got.mean), bits(want.mean));
  EXPECT_EQ(bits(got.stddev), bits(want.stddev));
  EXPECT_EQ(bits(got.min), bits(want.min));
  EXPECT_EQ(bits(got.median), bits(want.median));
  EXPECT_EQ(bits(got.max), bits(want.max));
}

// run_sweep in every engine / batch size / thread count mode must equal
// the serial loop: the CSV byte for byte, and every summary bit for bit.
void expect_sweep_matches_serial_loop(SweepConfig config) {
  const std::vector<SweepCell> want = serial_sweep(config);
  const std::string want_csv = sweep_to_csv(want);
  for (bool scalar : {true, false}) {
    for (std::size_t batch : {std::size_t{0}, std::size_t{2}, std::size_t{3}}) {
      for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
        SCOPED_TRACE("scalar=" + std::to_string(scalar) +
                     " batch=" + std::to_string(batch) +
                     " threads=" + std::to_string(threads));
        config.scalar_engine = scalar;
        config.batch_size = batch;
        config.num_threads = threads;
        const std::vector<SweepCell> got = run_sweep(config);
        EXPECT_EQ(sweep_to_csv(got), want_csv);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t c = 0; c < got.size(); ++c) {
          EXPECT_EQ(got[c].n, want[c].n);
          EXPECT_EQ(got[c].f, want[c].f);
          EXPECT_EQ(got[c].dim, want[c].dim);
          EXPECT_EQ(got[c].attack, want[c].attack);
          expect_summary_bits(got[c].disagreement, want[c].disagreement);
          expect_summary_bits(got[c].dist_to_y, want[c].dist_to_y);
        }
      }
    }
  }
}

TEST(SweepOracle, SyncAndVectorGridMatchesSerialLoop) {
  SweepConfig config;
  config.sizes = {{7, 2}, {10, 3}};
  config.dims = {1, 3};
  config.attacks = {AttackKind::SplitBrain, AttackKind::SignFlip,
                    AttackKind::PullToTarget, AttackKind::RandomNoise};
  config.seeds = {1, 2, 3, 4, 5};
  config.rounds = 120;
  // Non-default spread and step, so a driver that dropped either would
  // disagree with the loop.
  config.spread = 6.0;
  config.step.kind = StepKind::Power;
  config.step.scale = 1.5;
  config.step.exponent = 0.8;
  expect_sweep_matches_serial_loop(config);
}

TEST(SweepOracle, AsyncGridMatchesSerialLoop) {
  SweepConfig config;
  config.async_engine = true;
  config.sizes = {{6, 1}, {11, 2}};
  config.attacks = {AttackKind::SplitBrain, AttackKind::SignFlip,
                    AttackKind::PullToTarget, AttackKind::RandomNoise};
  config.seeds = {1, 2, 3, 4, 5};
  config.rounds = 150;
  config.delay_lo = 0.4;
  config.delay_hi = 1.7;
  expect_sweep_matches_serial_loop(config);
}

TEST(SweepOracle, ShapesPastTheNetworksMatchSerialLoop) {
  // n = 65 is past the batched engines' n <= 64, so every mode runs it
  // one replica at a time on the reference engines: sync, vector and
  // async grids, per-message noise included.
  SweepConfig config;
  config.sizes = {{65, 21}};
  config.dims = {1, 2};
  config.attacks = {AttackKind::SplitBrain, AttackKind::PullToTarget,
                    AttackKind::RandomNoise};
  config.seeds = {1, 2};
  config.rounds = 12;
  expect_sweep_matches_serial_loop(config);
  config.async_engine = true;
  config.sizes = {{65, 12}};
  config.dims = {1};
  expect_sweep_matches_serial_loop(config);
}

TEST(SweepOracle, DelayedStrikeSleepsThroughTheFirstHalf) {
  // The loop wakes each delayed strike at round rounds / 2 + 1, and the
  // strike's row must differ from pull's, which acts from round 1. The
  // sync d = 1 rows cannot show it: on the standard cell every honest
  // agent trims one multiset and stays in Y, so pull and the strike both
  // read 0 there; the vector and async rows do.
  SweepConfig sync;
  sync.sizes = {{7, 2}, {10, 3}};
  sync.dims = {1, 2};
  sync.attacks = {AttackKind::PullToTarget, AttackKind::DelayedStrike};
  sync.seeds = {1, 2, 3};
  sync.rounds = 40;
  SweepConfig async = sync;
  async.async_engine = true;
  async.sizes = {{6, 1}, {11, 2}};
  async.dims = {1};
  for (const SweepConfig& config : {sync, async}) {
    SCOPED_TRACE("async=" + std::to_string(config.async_engine));
    expect_sweep_matches_serial_loop(config);
    const std::vector<SweepCell> cells = run_sweep(config);
    for (std::size_t c = 0; c + 1 < cells.size(); c += 2) {
      const SweepCell& pull = cells[c];
      const SweepCell& strike = cells[c + 1];
      ASSERT_EQ(strike.attack, AttackKind::DelayedStrike);
      SCOPED_TRACE("n=" + std::to_string(strike.n) +
                   " dim=" + std::to_string(strike.dim));
      if (!config.async_engine && strike.dim == 1) continue;
      EXPECT_TRUE(pull.disagreement.mean != strike.disagreement.mean ||
                  pull.dist_to_y.mean != strike.dist_to_y.mean);
    }
  }
}

// The expected search result: the attack-free reference run of `base`
// and one run per candidate, keyed by candidate name.
struct SerialSearch {
  double reference_state = 0.0;
  Interval optima{0.0};
  std::map<std::string, AttackOutcome> outcomes;
};

template <class S, class Run>
SerialSearch serial_search(const S& base,
                           const std::vector<AttackCandidate>& candidates,
                           Run run) {
  SerialSearch want;
  S clean = base;
  clean.attack = AttackConfig{};
  const auto reference = run(clean);
  want.reference_state = reference.final_states.front();
  want.optima = reference.optima;
  for (const AttackCandidate& c : candidates) {
    S attacked = base;
    attacked.attack = c.config;
    const auto m = run(attacked);
    AttackOutcome& o = want.outcomes[c.name];
    o.name = c.name;
    o.final_state = m.final_states.front();
    o.bias = std::abs(o.final_state - want.reference_state);
    o.dist_to_y = m.max_dist_to_y.back();
    o.disagreement = m.disagreement.back();
  }
  return want;
}

void expect_search_matches(const AttackSearchResult& got,
                           const SerialSearch& want) {
  EXPECT_EQ(bits(got.reference_state), bits(want.reference_state));
  EXPECT_EQ(bits(got.optima.lo()), bits(want.optima.lo()));
  EXPECT_EQ(bits(got.optima.hi()), bits(want.optima.hi()));
  ASSERT_EQ(got.outcomes.size(), want.outcomes.size());
  std::map<std::string, int> seen;
  for (std::size_t i = 0; i < got.outcomes.size(); ++i) {
    const AttackOutcome& o = got.outcomes[i];
    if (i > 0) {
      EXPECT_GE(got.outcomes[i - 1].bias, o.bias) << o.name;
    }
    ++seen[o.name];
    const auto it = want.outcomes.find(o.name);
    ASSERT_NE(it, want.outcomes.end()) << o.name;
    EXPECT_EQ(bits(o.final_state), bits(it->second.final_state)) << o.name;
    EXPECT_EQ(bits(o.bias), bits(it->second.bias)) << o.name;
    EXPECT_EQ(bits(o.dist_to_y), bits(it->second.dist_to_y)) << o.name;
    EXPECT_EQ(bits(o.disagreement), bits(it->second.disagreement)) << o.name;
  }
  EXPECT_EQ(seen.size(), want.outcomes.size());
}

template <class S, class Search, class Run>
void expect_search_matches_direct_runs(const S& base, Search search,
                                       Run run) {
  const std::vector<AttackCandidate> candidates = standard_attack_grid();
  const SerialSearch want = serial_search(base, candidates, run);
  ASSERT_EQ(want.outcomes.size(), candidates.size()) << "names not unique";
  for (bool scalar : {true, false}) {
    for (std::size_t batch : {std::size_t{0}, std::size_t{3}}) {
      for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
        SCOPED_TRACE("scalar=" + std::to_string(scalar) +
                     " batch=" + std::to_string(batch) +
                     " threads=" + std::to_string(threads));
        expect_search_matches(search(base, candidates, threads, batch, scalar),
                              want);
      }
    }
  }
}

TEST(AttackSearchOracle, SyncOutcomesMatchDirectRuns) {
  // The base's own attack must be ignored: the reference is attack-free.
  const Scenario base =
      make_standard_scenario(7, 2, 8.0, AttackKind::SplitBrain, 200, 3);
  expect_search_matches_direct_runs(
      base,
      [](const Scenario& b, const std::vector<AttackCandidate>& c,
         std::size_t threads, std::size_t batch, bool scalar) {
        return find_strongest_attack(b, c, threads, batch, scalar);
      },
      [](const Scenario& s) { return run_sbg(s); });
}

TEST(AttackSearchOracle, AsyncOutcomesMatchDirectRuns) {
  const AsyncScenario base =
      make_standard_async_scenario(11, 2, 8.0, AttackKind::SplitBrain, 100, 3);
  expect_search_matches_direct_runs(
      base,
      [](const AsyncScenario& b, const std::vector<AttackCandidate>& c,
         std::size_t threads, std::size_t batch, bool scalar) {
        return find_strongest_attack_async(b, c, threads, batch, scalar);
      },
      [](const AsyncScenario& s) { return run_async_sbg(s); });
}

// The expected certification: for each of certify's ten attacks, in its
// grid order, one run_sbg with certify's audit and trace options, one
// run_async_sbg and one run_vector_scenario on the standard scenarios,
// each aimed at -6 * spread with gradient magnitude 10; then one run_dgd
// under the aimed pull. Each "worst" names the first attack that reaches
// it; a failed audit, invariant or bound names the last offender.
CertificationReport serial_certify(const CertifyOptions& o) {
  const std::vector<AttackKind> attacks = {
      AttackKind::None,         AttackKind::Silent,
      AttackKind::FixedValue,   AttackKind::SplitBrain,
      AttackKind::HullEdgeUp,   AttackKind::HullEdgeDown,
      AttackKind::RandomNoise,  AttackKind::SignFlip,
      AttackKind::PullToTarget, AttackKind::FlipFlop};
  const auto aim = [&o](auto s) {
    s.attack.target = -6.0 * o.spread;
    s.attack.gradient_magnitude = 10.0;
    return s;
  };
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
  CertificationReport report;
  const auto add = [&report](const std::string& name, bool ok,
                             const std::string& detail) {
    report.checks.push_back({name, ok, detail});
  };

  Worst disagreement, dist;
  bool witnesses_ok = true, invariants_ok = true, bounds_ok = true;
  std::string witness_detail = "all audits passed";
  std::string invariant_detail = "I1-I3 held every round";
  std::string bound_detail = "measured <= Lemma 3 bound every round";
  RunOptions audited;
  audited.record_trace = true;
  audited.audit_witnesses = true;
  audited.audit_every = 5;
  audited.audit_max_rounds = 100;
  const HarmonicStep harmonic;
  for (AttackKind kind : attacks) {
    const std::string name = attack_kind_name(kind);
    const Scenario s = aim(
        make_standard_scenario(o.n, o.f, o.spread, kind, o.rounds, o.seed));
    const RunMetrics m = run_sbg(s, audited);
    disagreement.fold(m.final_disagreement(), kind);
    dist.fold(m.final_max_dist(), kind);
    if (!m.state_witness.all_passed() || !m.gradient_witness.all_passed()) {
      witnesses_ok = false;
      witness_detail = "witness audit failed under " + name;
    }
    const double L = family_gradient_bound(s.honest_functions());
    const InvariantReport inv = check_sbg_invariants(*m.trace, s.f, L,
                                                     harmonic);
    if (!inv.ok) {
      invariants_ok = false;
      invariant_detail = "under " + name + ": " + inv.violations.front();
    }
    const Series bound = disagreement_upper_bound(
        m.disagreement[0], L, harmonic, s.n - s.f, s.f, s.rounds);
    for (std::size_t t = 0; t < bound.size(); ++t) {
      if (m.disagreement[t] > bound[t] + 1e-9) {
        bounds_ok = false;
        bound_detail =
            "bound violated under " + name + " at round " + std::to_string(t);
        break;
      }
    }
  }
  add("theorem2-consensus", disagreement.value <= o.consensus_eps,
      disagreement.detail());
  add("theorem2-optimality", dist.value <= o.optimality_eps, dist.detail());
  add("lemma2-witnesses", witnesses_ok, witness_detail);
  add("trace-invariants", invariants_ok, invariant_detail);
  add("lemma3-bound-domination", bounds_ok, bound_detail);

  Worst async_disagreement, async_dist;
  for (AttackKind kind : attacks) {
    const AsyncRunMetrics m = run_async_sbg(aim(make_standard_async_scenario(
        o.async_n, o.async_f, o.spread, kind, o.async_rounds, o.seed)));
    async_disagreement.fold(m.disagreement.back(), kind);
    async_dist.fold(m.max_dist_to_y.back(), kind);
  }
  add("async-consensus", async_disagreement.value <= o.async_consensus_eps,
      async_disagreement.detail());
  add("async-optimality", async_dist.value <= o.async_optimality_eps,
      async_dist.detail());

  Worst vector_disagreement, vector_dist;
  for (AttackKind kind : attacks) {
    const VectorRunResult m =
        run_vector_scenario(aim(make_standard_vector_scenario(
            o.n, o.f, o.spread, kind, o.vector_rounds, o.seed, o.vector_dim)));
    vector_disagreement.fold(m.disagreement.back(), kind);
    vector_dist.fold(m.dist_to_average_optimum.back(), kind);
  }
  add("vector-consensus", vector_disagreement.value <= o.vector_consensus_eps,
      vector_disagreement.detail());
  add("vector-optimality", vector_dist.value <= o.vector_optimality_eps,
      vector_dist.detail());

  const double dgd_dist =
      run_dgd(aim(make_standard_scenario(o.n, o.f, o.spread,
                                         AttackKind::PullToTarget, o.rounds,
                                         o.seed)))
          .final_max_dist();
  add("attack-liveness (DGD must fail)", dgd_dist > 10.0 * o.optimality_eps,
      "DGD dist " + format_double(dgd_dist, 4));

  report.passed = true;
  for (const CertifyCheck& check : report.checks)
    report.passed = report.passed && check.passed;
  return report;
}

TEST(CertifyOracle, ReportMatchesDirectRuns) {
  CertifyOptions options;
  options.rounds = 150;
  options.async_rounds = 120;
  options.vector_dim = 3;
  options.vector_rounds = 120;
  // A non-default seed and spread, so a driver that dropped either would
  // disagree with the loops; thresholds that some sections miss, so the
  // pass flags are exercised both ways.
  options.seed = 3;
  options.spread = 6.0;
  options.consensus_eps = 0.015;
  options.async_consensus_eps = 0.01;
  options.vector_optimality_eps = 3.0;
  const CertificationReport want = serial_certify(options);
  for (bool scalar : {true, false}) {
    for (std::size_t batch : {std::size_t{0}, std::size_t{3}}) {
      for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
        SCOPED_TRACE("scalar=" + std::to_string(scalar) +
                     " batch=" + std::to_string(batch) +
                     " threads=" + std::to_string(threads));
        options.scalar_engine = scalar;
        options.batch_size = batch;
        options.num_threads = threads;
        const CertificationReport got = certify_sbg(options);
        EXPECT_EQ(got.passed, want.passed);
        ASSERT_EQ(got.checks.size(), want.checks.size());
        for (std::size_t i = 0; i < got.checks.size(); ++i) {
          EXPECT_EQ(got.checks[i].name, want.checks[i].name);
          EXPECT_EQ(got.checks[i].passed, want.checks[i].passed)
              << want.checks[i].name;
          EXPECT_EQ(got.checks[i].detail, want.checks[i].detail)
              << want.checks[i].name;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ftmao
