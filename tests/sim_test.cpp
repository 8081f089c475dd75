// Tests for the sim layer: scenario construction/validation, runner
// metric shapes and determinism, the crash runner, and the async runner.

#include <gtest/gtest.h>

#include <cmath>
#include <span>

#include "common/contracts.hpp"
#include "func/library.hpp"
#include "sim/async_runner.hpp"
#include "sim/batch_async_runner.hpp"
#include "sim/crash_runner.hpp"
#include "sim/runner.hpp"

namespace ftmao {
namespace {

// --------------------------------------------------------------- scenario

TEST(Scenario, StandardFactoryShape) {
  const Scenario s =
      make_standard_scenario(7, 2, 10.0, AttackKind::SplitBrain, 100);
  EXPECT_EQ(s.n, 7u);
  EXPECT_EQ(s.f, 2u);
  EXPECT_EQ(s.faulty.size(), 2u);
  EXPECT_EQ(s.functions.size(), 7u);
  EXPECT_EQ(s.initial_states.size(), 7u);
  EXPECT_NO_THROW(s.validate());
}

TEST(Scenario, HonestViewsExcludeFaulty) {
  const Scenario s = make_standard_scenario(7, 2, 10.0, AttackKind::None, 10);
  EXPECT_EQ(s.honest_functions().size(), 5u);
  const auto idx = s.honest_indices();
  EXPECT_EQ(idx.size(), 5u);
  for (std::size_t i : idx) EXPECT_FALSE(s.is_faulty(i));
}

TEST(Scenario, ValidationCatchesTooManyFaulty) {
  Scenario s = make_standard_scenario(7, 2, 10.0, AttackKind::None, 10);
  s.faulty = {0, 1, 2};  // more than f = 2
  EXPECT_THROW(s.validate(), ContractViolation);
}

TEST(Scenario, ValidationCatchesResilienceViolation) {
  EXPECT_THROW(make_standard_scenario(6, 2, 10.0, AttackKind::None, 10),
               ContractViolation);
}

TEST(Scenario, FewerActualFaultsThanFAllowed) {
  Scenario s = make_standard_scenario(7, 2, 10.0, AttackKind::SplitBrain, 200);
  s.faulty = {6};  // only one of the allowed two
  EXPECT_NO_THROW(s.validate());
  const RunMetrics m = run_sbg(s);
  EXPECT_LT(m.final_disagreement(), 1.0);
}

TEST(MakeSchedule, BuildsEachKind) {
  EXPECT_NE(make_schedule({StepKind::Harmonic, 1.0, 0.75}), nullptr);
  EXPECT_NE(make_schedule({StepKind::Power, 1.0, 0.75}), nullptr);
  EXPECT_NE(make_schedule({StepKind::Constant, 0.1, 0.75}), nullptr);
}

TEST(MakeAdversary, BuildsEachKind) {
  Rng rng(1);
  for (AttackKind kind :
       {AttackKind::None, AttackKind::Silent, AttackKind::FixedValue,
        AttackKind::SplitBrain, AttackKind::HullEdgeUp,
        AttackKind::HullEdgeDown, AttackKind::RandomNoise,
        AttackKind::SignFlip, AttackKind::PullToTarget}) {
    AttackConfig cfg;
    cfg.kind = kind;
    EXPECT_NE(make_adversary(cfg, rng.substream("a")), nullptr);
  }
}

// ----------------------------------------------------------------- runner

TEST(Runner, SeriesLengthsMatchRounds) {
  const Scenario s =
      make_standard_scenario(7, 1, 6.0, AttackKind::SplitBrain, 50);
  const RunMetrics m = run_sbg(s);
  EXPECT_EQ(m.disagreement.size(), 51u);  // index 0 + 50 iterations
  EXPECT_EQ(m.max_dist_to_y.size(), 51u);
  EXPECT_EQ(m.max_projection_error.size(), 51u);
  EXPECT_EQ(m.final_states.size(), 6u);  // honest agents only
}

TEST(Runner, DeterministicAcrossCalls) {
  const Scenario s =
      make_standard_scenario(7, 2, 6.0, AttackKind::RandomNoise, 200, 77);
  const RunMetrics a = run_sbg(s);
  const RunMetrics b = run_sbg(s);
  ASSERT_EQ(a.final_states.size(), b.final_states.size());
  for (std::size_t i = 0; i < a.final_states.size(); ++i)
    EXPECT_DOUBLE_EQ(a.final_states[i], b.final_states[i]);
}

TEST(Runner, SeedChangesRandomAttackTrajectory) {
  Scenario s1 =
      make_standard_scenario(7, 2, 6.0, AttackKind::RandomNoise, 200, 1);
  Scenario s2 = s1;
  s2.seed = 2;
  const RunMetrics a = run_sbg(s1);
  const RunMetrics b = run_sbg(s2);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.final_states.size(); ++i)
    any_diff |= a.final_states[i] != b.final_states[i];
  EXPECT_TRUE(any_diff);
}

TEST(Runner, WitnessAuditsPopulateStats) {
  Scenario s = make_standard_scenario(7, 1, 6.0, AttackKind::SplitBrain, 30);
  RunOptions opts;
  opts.audit_witnesses = true;
  const RunMetrics m = run_sbg(s, opts);
  EXPECT_GT(m.state_witness.checks, 0u);
  EXPECT_GT(m.gradient_witness.checks, 0u);
  EXPECT_TRUE(m.state_witness.all_passed());
  EXPECT_TRUE(m.gradient_witness.all_passed());
}

TEST(Runner, AuditEveryThinsChecks) {
  Scenario s = make_standard_scenario(7, 1, 6.0, AttackKind::SplitBrain, 30);
  RunOptions every, sparse;
  every.audit_witnesses = true;
  sparse.audit_witnesses = true;
  sparse.audit_every = 10;
  EXPECT_GT(run_sbg(s, every).state_witness.checks,
            run_sbg(s, sparse).state_witness.checks);
}

TEST(Runner, ConstraintKeepsStatesInside) {
  Scenario s = make_standard_scenario(7, 1, 6.0, AttackKind::FixedValue, 500);
  s.constraint = Interval(-1.0, 0.5);
  const RunMetrics m = run_sbg(s);
  for (double x : m.final_states) {
    EXPECT_GE(x, -1.0 - 1e-12);
    EXPECT_LE(x, 0.5 + 1e-12);
  }
}

// ------------------------------------------------------------ link drops

TEST(Drops, ZeroProbabilityMatchesNoFilter) {
  Scenario a = make_standard_scenario(7, 2, 6.0, AttackKind::SplitBrain, 300);
  Scenario b = a;
  b.drop_probability = 0.0;
  const RunMetrics ma = run_sbg(a);
  const RunMetrics mb = run_sbg(b);
  for (std::size_t i = 0; i < ma.final_states.size(); ++i)
    EXPECT_DOUBLE_EQ(ma.final_states[i], mb.final_states[i]);
}

TEST(Drops, DeterministicPerSeed) {
  Scenario s = make_standard_scenario(7, 2, 6.0, AttackKind::SplitBrain, 300);
  s.drop_probability = 0.2;
  const RunMetrics a = run_sbg(s);
  const RunMetrics b = run_sbg(s);
  for (std::size_t i = 0; i < a.final_states.size(); ++i)
    EXPECT_DOUBLE_EQ(a.final_states[i], b.final_states[i]);
}

TEST(Drops, ActuallyDropMessages) {
  // With a hostile default and heavy loss, the trajectory must differ
  // from the lossless run (defaults leak into some views).
  Scenario clean = make_standard_scenario(7, 2, 6.0, AttackKind::None, 300);
  clean.faulty.clear();
  clean.default_payload = SbgPayload{100.0, 0.0};
  Scenario lossy = clean;
  lossy.drop_probability = 0.4;
  const RunMetrics a = run_sbg(clean);
  const RunMetrics b = run_sbg(lossy);
  bool differs = false;
  for (std::size_t i = 0; i < a.final_states.size(); ++i)
    differs |= a.final_states[i] != b.final_states[i];
  EXPECT_TRUE(differs);
}

TEST(Drops, ModerateLossWithBenignDefaultStillConverges) {
  Scenario s = make_standard_scenario(7, 2, 6.0, AttackKind::SplitBrain, 4000);
  s.drop_probability = 0.1;
  const RunMetrics m = run_sbg(s);
  EXPECT_LT(m.final_disagreement(), 0.05);
  EXPECT_LT(m.final_max_dist(), 0.1);
}

TEST(Drops, InvalidProbabilityRejected) {
  Scenario s = make_standard_scenario(7, 2, 6.0, AttackKind::None, 10);
  s.drop_probability = 1.0;
  EXPECT_THROW(run_sbg(s), ContractViolation);
  s.drop_probability = -0.1;
  EXPECT_THROW(run_sbg(s), ContractViolation);
}

// ----------------------------------------------------- hybrid fault model

TEST(Hybrid, CrashPlusByzantineWithinBudgetConverges) {
  // f = 2 budget split: one Byzantine equivocator + one mid-run crash.
  Scenario s = make_standard_scenario(7, 2, 8.0, AttackKind::SplitBrain, 5000);
  s.faulty = {6};
  s.crashes = {{5, 500}};
  const RunMetrics m = run_sbg(s);
  EXPECT_EQ(m.final_states.size(), 5u);  // survivors only
  EXPECT_LT(m.final_disagreement(), 0.05);
  EXPECT_LT(m.final_max_dist(), 0.1);
}

TEST(Hybrid, CrashedAgentParticipatesUntilCrash) {
  // A crash at round 1 vs a very late crash give different outcomes: the
  // late-crasher's cost function influenced the trajectory for longer.
  Scenario early = make_standard_scenario(7, 2, 8.0, AttackKind::None, 3000);
  early.faulty.clear();
  early.crashes = {{6, 1}};
  Scenario late = early;
  late.crashes = {{6, 2500}};
  const double x_early = run_sbg(early).final_states.front();
  const double x_late = run_sbg(late).final_states.front();
  EXPECT_NE(x_early, x_late);
}

TEST(Hybrid, BudgetOverflowRejected) {
  Scenario s = make_standard_scenario(7, 2, 8.0, AttackKind::SplitBrain, 100);
  s.faulty = {5, 6};
  s.crashes = {{4, 10}};  // 3 faults > f = 2
  EXPECT_THROW(run_sbg(s), ContractViolation);
}

TEST(Hybrid, CrashAndByzantineMutuallyExclusive) {
  Scenario s = make_standard_scenario(7, 2, 8.0, AttackKind::SplitBrain, 100);
  s.faulty = {6};
  s.crashes = {{6, 10}};
  EXPECT_THROW(run_sbg(s), ContractViolation);
}

TEST(Hybrid, MetricsExcludeCrashedAgents) {
  Scenario s = make_standard_scenario(7, 2, 8.0, AttackKind::None, 200);
  s.faulty.clear();
  s.crashes = {{0, 50}, {6, 50}};
  const RunMetrics m = run_sbg(s);
  EXPECT_EQ(m.final_states.size(), 5u);
  // The valid family is over the 5 survivors (indices 1..5).
  EXPECT_EQ(s.honest_indices(),
            (std::vector<std::size_t>{1, 2, 3, 4, 5}));
}

// ----------------------------------------------------------- crash runner

CrashScenario small_crash_scenario(std::size_t rounds = 2000) {
  CrashScenario s;
  s.n = 5;
  s.functions = make_spread_hubers(5, 8.0);
  s.initial_states = {-4.0, -2.0, 0.0, 2.0, 4.0};
  s.rounds = rounds;
  return s;
}

TEST(CrashRunner, NoCrashesMatchesUniformOptimum) {
  const CrashScenario s = small_crash_scenario();
  const CrashRunMetrics m = run_crash(s);
  EXPECT_EQ(m.final_states.size(), 5u);
  EXPECT_LT(m.disagreement.back(), 0.01);
  // spread hubers are symmetric around 0.
  for (double x : m.final_states) EXPECT_NEAR(x, 0.0, 0.05);
  EXPECT_TRUE(m.optima.is_point() || m.optima.length() < 1e-6);
}

TEST(CrashRunner, EarlyCrashLeavesWeightNearZero) {
  CrashScenario s = small_crash_scenario();
  s.crashes = {{4, 1, 0}};  // agent 4 (optimum at +4) dies before sending
  const CrashRunMetrics m = run_crash(s);
  // Survivors' objective is centered at mean of {-4,-2,0,2} = -1.
  for (double x : m.final_states) EXPECT_NEAR(x, -1.0, 0.1);
}

TEST(CrashRunner, FinalStatesInsideCrashOptimaSet) {
  CrashScenario s = small_crash_scenario();
  s.crashes = {{4, 50, 2}, {0, 200, 1}};
  const CrashRunMetrics m = run_crash(s);
  for (double x : m.final_states)
    EXPECT_LE(m.optima.distance_to(x), 0.1);
  EXPECT_LT(m.disagreement.back(), 0.02);
}

TEST(CrashRunner, PartialDeliveryIsPerRecipient) {
  // Crash with recipients_served = 2: exactly the two lowest-indexed other
  // agents hear the final broadcast. Smoke-level: run completes and the
  // survivors still agree.
  CrashScenario s = small_crash_scenario(1500);
  s.crashes = {{2, 3, 2}};
  const CrashRunMetrics m = run_crash(s);
  EXPECT_LT(m.disagreement.back(), 0.05);
}

TEST(CrashRunner, ValidationCatchesBadEvents) {
  CrashScenario s = small_crash_scenario(10);
  s.crashes = {{9, 1, 0}};  // no such agent
  EXPECT_THROW(run_crash(s), ContractViolation);
  s.crashes = {{0, 1, 0}, {0, 2, 0}};  // duplicate agent
  EXPECT_THROW(run_crash(s), ContractViolation);
  s.crashes = {{0, 1, 0}, {1, 1, 0}, {2, 1, 0}, {3, 1, 0}, {4, 1, 0}};
  EXPECT_THROW(run_crash(s), ContractViolation);  // nobody survives
}

TEST(CrashOptimaSet, IntervalSpansCrashWeightRange) {
  // One crashed agent with optimum at +4 among survivors centered at -1:
  // alpha in [0,1] sweeps the optimum from -1 (alpha 0) toward higher.
  const auto fns = make_spread_hubers(5, 8.0);
  const std::vector<ScalarFunctionPtr> survivors(fns.begin(), fns.end() - 1);
  const std::vector<ScalarFunctionPtr> crashed{fns.back()};
  const Interval y = crash_optima_set(survivors, crashed);
  const Interval y_none = crash_optima_set(survivors, {});
  EXPECT_LT(y_none.length(), 1e-6);
  EXPECT_NEAR(y.lo(), y_none.lo(), 1e-6);  // alpha=0 endpoint
  EXPECT_GT(y.hi(), y.lo() + 0.1);         // alpha=1 pulls right
}

TEST(CrashWeightRecovery, MonotoneInCrashTime) {
  CrashScenario s = small_crash_scenario(20000);
  const std::vector<ScalarFunctionPtr> survivors(s.functions.begin(),
                                                 s.functions.end() - 1);
  double prev_alpha = -1.0;
  for (std::size_t crash_round : {1ul, 10ul, 100ul, 1000ul}) {
    s.crashes = {{4, crash_round, 0}};
    const CrashRunMetrics m = run_crash(s);
    const auto alpha = recover_single_crash_weight(
        survivors, *s.functions.back(), m.final_states.front());
    ASSERT_TRUE(alpha.has_value()) << "crash round " << crash_round;
    EXPECT_GE(*alpha, -0.01);
    EXPECT_LE(*alpha, 1.01);
    EXPECT_GT(*alpha, prev_alpha) << "crash round " << crash_round;
    prev_alpha = *alpha;
  }
}

TEST(CrashWeightRecovery, UninformativeAtCrashedOptimum) {
  const auto fns = make_spread_hubers(5, 8.0);
  const std::vector<ScalarFunctionPtr> survivors(fns.begin(), fns.end() - 1);
  // At the crashed agent's own optimum its gradient vanishes.
  EXPECT_FALSE(recover_single_crash_weight(survivors, *fns.back(), 4.0)
                   .has_value());
}

// ----------------------------------------------------------- async runner

AsyncScenario small_async_scenario(std::size_t rounds = 800) {
  AsyncScenario s;
  s.n = 6;
  s.f = 1;
  s.faulty = {5};
  s.functions = make_spread_hubers(6, 6.0);
  s.initial_states = {-3.0, -1.8, -0.6, 0.6, 1.8, 3.0};
  s.attack.kind = AttackKind::SplitBrain;
  s.rounds = rounds;
  return s;
}

TEST(AsyncRunner, ConvergesUnderUniformDelays) {
  const AsyncRunMetrics m = run_async_sbg(small_async_scenario());
  EXPECT_LT(m.disagreement.back(), 0.1);
  EXPECT_LT(m.max_dist_to_y.back(), 0.2);
  EXPECT_GT(m.virtual_time, 0.0);
}

TEST(AsyncRunner, SeriesCoverRequestedRounds) {
  AsyncScenario s = small_async_scenario(100);
  const AsyncRunMetrics m = run_async_sbg(s);
  EXPECT_GE(m.disagreement.size(), 101u);
}

TEST(AsyncRunner, DeterministicPerSeed) {
  const AsyncScenario s = small_async_scenario(150);
  const AsyncRunMetrics a = run_async_sbg(s);
  const AsyncRunMetrics b = run_async_sbg(s);
  ASSERT_EQ(a.final_states.size(), b.final_states.size());
  for (std::size_t i = 0; i < a.final_states.size(); ++i)
    EXPECT_DOUBLE_EQ(a.final_states[i], b.final_states[i]);
}

TEST(AsyncRunner, ToleratesTargetedSlowdown) {
  AsyncScenario s = small_async_scenario(600);
  s.delay_kind = DelayKind::TargetedSlow;
  s.delay_lo = 0.5;
  s.slow_delay = 25.0;
  s.slow_count = 1;
  const AsyncRunMetrics m = run_async_sbg(s);
  EXPECT_LT(m.disagreement.back(), 0.15);
}

TEST(AsyncRunner, HybridCrashPlusByzantineConverges) {
  // f = 2 budget: one Byzantine + one send-crash at virtual time 100.
  AsyncScenario s;
  s.n = 11;
  s.f = 2;
  s.faulty = {10};
  s.crashes = {{9, 100.0}};
  s.functions = make_spread_hubers(11, 8.0);
  s.initial_states.resize(11);
  for (std::size_t i = 0; i < 11; ++i)
    s.initial_states[i] = -4.0 + 0.8 * static_cast<double>(i);
  s.attack.kind = AttackKind::SplitBrain;
  s.rounds = 800;
  const AsyncRunMetrics m = run_async_sbg(s);
  EXPECT_EQ(m.final_states.size(), 9u);  // survivors only
  EXPECT_LT(m.disagreement.back(), 0.1);
}

TEST(AsyncRunner, CrashBudgetEnforced) {
  AsyncScenario s = small_async_scenario(10);
  s.crashes = {{0, 1.0}};  // faulty(1) + crash(1) > f = 1
  EXPECT_THROW(run_async_sbg(s), ContractViolation);
  s = small_async_scenario(10);
  s.faulty.clear();
  s.crashes = {{5, 1.0}};  // 5 is fine now (not faulty), within budget
  EXPECT_NO_THROW(run_async_sbg(s));
}

TEST(AsyncRunner, ValidationRefusesConsistentAttack) {
  // Neither async engine wraps its adversaries in the reliable-broadcast
  // restriction, so a consistent attack would run as a bare one.
  AsyncScenario s = small_async_scenario(10);
  s.attack.consistent = true;
  EXPECT_THROW(s.validate(), ContractViolation);
  EXPECT_THROW(run_async_sbg(s), ContractViolation);
  EXPECT_THROW(run_async_sbg_batch(std::span<const AsyncScenario>(&s, 1)),
               ContractViolation);
}

TEST(AsyncRunner, ValidationRequiresNGreaterThan5F) {
  AsyncScenario s = small_async_scenario(10);
  s.n = 5;
  s.functions.resize(5);
  s.initial_states.resize(5);
  s.faulty = {4};
  EXPECT_THROW(run_async_sbg(s), ContractViolation);
}

}  // namespace
}  // namespace ftmao
