// Property-style parameterized sweeps: Theorem 2 across the (n, f) grid
// and random cost families/seeds; the trim-hull invariant through whole
// executions; and schedule-family behaviour.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/rng.hpp"
#include "core/valid_set.hpp"
#include "func/library.hpp"
#include "sim/runner.hpp"

namespace ftmao {
namespace {

// ------------------------------------------------ (n, f) resilience sweep

class ResilienceGrid
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(ResilienceGrid, Theorem2HoldsAcrossGrid) {
  const auto [n, f] = GetParam();
  Scenario s = make_standard_scenario(n, f, 8.0, AttackKind::SplitBrain, 4000);
  const RunMetrics m = run_sbg(s);
  EXPECT_LT(m.final_disagreement(), 0.1) << "n=" << n << " f=" << f;
  EXPECT_LT(m.final_max_dist(), 0.15) << "n=" << n << " f=" << f;
}

INSTANTIATE_TEST_SUITE_P(Grid, ResilienceGrid,
                         ::testing::Values(std::tuple{4u, 1u}, std::tuple{5u, 1u},
                                           std::tuple{7u, 2u}, std::tuple{10u, 3u},
                                           std::tuple{13u, 4u}, std::tuple{16u, 5u},
                                           std::tuple{25u, 8u}));

// --------------------------------------------- random families and seeds

class RandomFamilySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomFamilySweep, Theorem2OnRandomCosts) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  Scenario s;
  s.n = 10;
  s.f = 3;
  s.faulty = {2, 5, 8};  // non-contiguous fault pattern
  s.functions = make_random_family(s.n, rng);
  s.initial_states.resize(s.n);
  for (auto& x : s.initial_states) x = rng.uniform(-12.0, 12.0);
  s.attack.kind = AttackKind::SignFlip;
  // Random families can have small gradient scales (slow travel), so use
  // the slower-decaying valid schedule and a longer horizon.
  s.step = {StepKind::Power, 1.0, 0.6};
  s.rounds = 8000;
  s.seed = seed;
  const RunMetrics m = run_sbg(s);
  EXPECT_LT(m.final_disagreement(), 0.1) << "seed " << seed;
  EXPECT_LT(m.final_max_dist(), 0.3) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFamilySweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// ------------------------------------------------- honest-hull invariant

// Honest states never leave the interval spanned by the initial honest
// states inflated by the total gradient budget: |x_j[t]| stays within
// hull + sum(lambda)*L at all times. We check the much tighter empirical
// invariant that states never exceed the initial hull inflated by the
// partial step sums — the engine-level consequence of the trim-hull
// property of Step 3.
TEST(HonestHullInvariant, StatesBoundedByStepBudget) {
  Scenario s = make_standard_scenario(7, 2, 8.0, AttackKind::FixedValue, 1000);
  s.attack.state_magnitude = 1e6;  // wild outliers
  s.attack.gradient_magnitude = 1e6;
  const RunMetrics m = run_sbg(s);
  const double L = family_gradient_bound(s.honest_functions());
  double budget = 0.0;
  const HarmonicStep h(1.0);
  for (std::size_t t = 0; t < s.rounds; ++t) budget += h.at(t) * L;
  const double hull_hi = 4.0 + budget;  // initial honest states within [-4, 4]
  for (double x : m.final_states) {
    EXPECT_LE(std::abs(x), hull_hi);
    EXPECT_LT(std::abs(x), 100.0);  // far tighter in practice
  }
}

// ------------------------------------------------------- schedule family

// The label is what gtest prints for the parameter, and so what ctest
// names the case: a bare StepConfig prints as raw bytes, padding
// included, which changes from one process to the next.
struct ScheduleCase {
  const char* label;
  StepConfig step;
};

void PrintTo(const ScheduleCase& c, std::ostream* os) { *os << c.label; }

class ValidScheduleSweep : public ::testing::TestWithParam<ScheduleCase> {};

TEST_P(ValidScheduleSweep, ConsensusAndOptimalityForValidSchedules) {
  Scenario s = make_standard_scenario(7, 2, 8.0, AttackKind::SplitBrain, 8000);
  s.step = GetParam().step;
  const RunMetrics m = run_sbg(s);
  EXPECT_LT(m.final_disagreement(), 0.15);
  EXPECT_LT(m.final_max_dist(), 0.4);
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, ValidScheduleSweep,
    ::testing::Values(
        ScheduleCase{"Harmonic(1)", StepConfig{StepKind::Harmonic, 1.0, 0.0}},
        ScheduleCase{"Harmonic(0.5)", StepConfig{StepKind::Harmonic, 0.5, 0.0}},
        ScheduleCase{"Power(1, 0.75)", StepConfig{StepKind::Power, 1.0, 0.75}},
        ScheduleCase{"Power(1, 0.9)", StepConfig{StepKind::Power, 1.0, 0.9}},
        ScheduleCase{"Power(0.5, 0.6)", StepConfig{StepKind::Power, 0.5, 0.6}}));

// ------------------------------------------------------ trim-only ablation

// Ablation: the trimmed reduce is what separates SBG from plain averaging.
// A coordinated attack (fabricated states at the target plus poisoned
// gradients) captures DGD completely while SBG remains inside Y.
TEST(TrimAblation, CoordinatedAttackDefeatsAveragingNotSbg) {
  Scenario s = make_standard_scenario(7, 2, 8.0, AttackKind::PullToTarget, 3000);
  s.attack.target = 40.0;
  s.attack.gradient_magnitude = 10.0;
  const RunMetrics dgd = run_dgd(s);
  const RunMetrics sbg = run_sbg(s);
  EXPECT_GT(dgd.final_max_dist(), 5.0);
  EXPECT_LT(sbg.final_max_dist(), 0.1);
}

// -------------------------------------------- Y sampling cross-validation

class YConsistency : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(YConsistency, EnvelopeYContainsAndNearlyMatchesSampledHull) {
  Rng rng(GetParam());
  const auto fns = make_random_family(7, rng);
  const ValidFamily family(fns, 2);
  const Interval y = family.optima_set();
  Rng sampler = rng.substream("sample");
  const Interval hull = family.sampled_optima_hull(sampler, 800);
  EXPECT_GE(hull.lo(), y.lo() - 1e-6);
  EXPECT_LE(hull.hi(), y.hi() + 1e-6);
  // The envelope endpoints are attainable: targeted envelope functions at
  // the endpoints have argmins touching them.
  const Interval lo_argmin = family.envelope_function_at(y.lo(), true).argmin();
  const Interval hi_argmin = family.envelope_function_at(y.hi(), false).argmin();
  EXPECT_LE(std::abs(lo_argmin.lo() - y.lo()), 1e-5);
  EXPECT_LE(std::abs(hi_argmin.hi() - y.hi()), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, YConsistency,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

// ------------------------------------------------------------ chaos test

// Everything at once: Byzantine equivocation + an honest crash + random
// link loss, all inside the f budget and the loss-tolerance envelope.
// Theorem 2's guarantees must survive the combination.
TEST(Chaos, ByzantinePlusCrashPlusLossStillConverges) {
  Scenario s = make_standard_scenario(10, 3, 8.0, AttackKind::SplitBrain, 6000);
  s.faulty = {8, 9};        // 2 Byzantine
  s.crashes = {{7, 300}};   // +1 crash = budget f = 3 exactly
  s.drop_probability = 0.02;
  const RunMetrics m = run_sbg(s);
  EXPECT_EQ(m.final_states.size(), 7u);
  EXPECT_LT(m.final_disagreement(), 0.1);
  EXPECT_LT(m.final_max_dist(), 0.3);
}

// ------------------------------------------------------ default payloads

TEST(DefaultPayload, SilentAttackWithBiasedDefaultStillConverges) {
  // Step 2's default substitution is adversary-relevant: even a biased
  // default tuple is trimmed away like any outlier.
  Scenario s = make_standard_scenario(7, 2, 8.0, AttackKind::Silent, 4000);
  s.default_payload = SbgPayload{500.0, -500.0};
  const RunMetrics m = run_sbg(s);
  EXPECT_LT(m.final_disagreement(), 0.05);
  EXPECT_LT(m.final_max_dist(), 0.1);
}

}  // namespace
}  // namespace ftmao
