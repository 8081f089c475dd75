// Golden-master regression tests: canonical scenarios pinned to their
// exact floating-point outcomes. Everything in the simulator is
// deterministic, so any diff here means behaviour changed — intentionally
// (update the constants, explain in the commit) or not (a bug).
//
// The pinned values were produced by the current implementation and
// cross-checked against the theory tests (bounds, witnesses, invariants),
// so they are known-good anchors, not mere snapshots.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "consensus/iterative.hpp"
#include "core/valid_set.hpp"
#include "sim/runner.hpp"
#include "sim/vector_scenario.hpp"
#include "trim/trim.hpp"

namespace ftmao {
namespace {

TEST(Golden, TrimCanonicalCases) {
  const std::vector<double> v{-3.0, -1.0, 0.0, 2.0, 5.0, 8.0, 13.0};
  EXPECT_DOUBLE_EQ(trim_value(v, 0), 5.0);    // (-3+13)/2
  EXPECT_DOUBLE_EQ(trim_value(v, 1), 3.5);    // (-1+8)/2
  EXPECT_DOUBLE_EQ(trim_value(v, 2), 2.5);    // (0+5)/2
  EXPECT_DOUBLE_EQ(trim_value(v, 3), 2.0);    // single survivor
}

TEST(Golden, StandardScenarioYInterval) {
  // Y of the standard 7/2 mixed family — pinned to 6 decimals.
  const Scenario s = make_standard_scenario(7, 2, 8.0, AttackKind::None, 1);
  const ValidFamily family(s.honest_functions(), s.f);
  EXPECT_NEAR(family.optima_set().lo(), -3.500457, 1e-5);
  EXPECT_NEAR(family.optima_set().hi(), 0.971214, 1e-5);
}

TEST(Golden, SbgSplitBrain500Rounds) {
  Scenario s = make_standard_scenario(7, 2, 8.0, AttackKind::SplitBrain, 500);
  const RunMetrics m = run_sbg(s);
  // All five honest agents, exact to double round-off.
  ASSERT_EQ(m.final_states.size(), 5u);
  for (double x : m.final_states) EXPECT_NEAR(x, -1.7311, 3e-3);
  EXPECT_NEAR(m.final_disagreement(), 0.0026704, 1e-4);
}

TEST(Golden, DgdFaultFree500Rounds) {
  Scenario s = make_standard_scenario(7, 0, 8.0, AttackKind::None, 500);
  s.faulty.clear();
  const RunMetrics m = run_dgd(s);
  for (double x : m.final_states) EXPECT_NEAR(x, -0.356543, 1e-4);
  EXPECT_LT(m.final_disagreement(), 1e-10);
}

TEST(Golden, IterativeConsensusHullEdge) {
  // Documented in consensus_test: the hull-edge attack on {0..4} with
  // n=7, f=2 converges to exactly 3 in one round.
  const IterativeConsensusConfig config{7, 2, 0.0};
  const auto r = run_iterative_consensus(
      config, {0, 1, 2, 3, 4}, 2,
      [](AgentId, AgentId,
         const RoundView<double>& view) -> std::optional<double> {
        double hi = view.honest_broadcasts.front().payload;
        for (const auto& m : view.honest_broadcasts)
          hi = std::max(hi, m.payload);
        return hi;
      },
      5);
  for (double v : r.final_values) EXPECT_DOUBLE_EQ(v, 3.0);
}

TEST(Golden, NoiseAttackSeededTrajectory) {
  // Pins the RNG plumbing end to end: any change to seeding, substream
  // derivation, or draw order shows up here.
  Scenario s =
      make_standard_scenario(7, 2, 8.0, AttackKind::RandomNoise, 100, 7);
  const RunMetrics m = run_sbg(s);
  EXPECT_NEAR(m.final_states.front(), -1.491553, 1e-4);
  const RunMetrics again = run_sbg(s);
  EXPECT_DOUBLE_EQ(m.final_states.front(), again.final_states.front());
}

// FNV-1a over the bit patterns of a run's final states and both series.
std::uint64_t vector_run_hash(const VectorRunResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](double x) {
    const auto bits = std::bit_cast<std::uint64_t>(x);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const Vec& x : r.final_states)
    for (std::size_t k = 0; k < x.dim(); ++k) mix(x[k]);
  for (std::size_t t = 0; t < r.disagreement.size(); ++t)
    mix(r.disagreement[t]);
  for (std::size_t t = 0; t < r.dist_to_average_optimum.size(); ++t)
    mix(r.dist_to_average_optimum[t]);
  return h;
}

TEST(Golden, VectorAttacksAtDimThree) {
  // Every attack of the vector catalogue on the standard 7/2 cell at
  // d = 3, 60 rounds, seed 3: pins the payload bits of each lifting (and
  // of the noise draw order) through the reference vector engine. The
  // cell is symmetric about 0, so sign-flip pins the same run as
  // silence; delayed-strike wakes in round 1 and pins pull's run.
  const struct {
    AttackKind kind;
    std::uint64_t hash;
  } pins[] = {
      {AttackKind::None, 0x795dbcbf6280f45aull},
      {AttackKind::Silent, 0x795dbcbf6280f45aull},
      {AttackKind::FixedValue, 0xbbb93b1a3e785620ull},
      {AttackKind::SplitBrain, 0x60c6b8625ba5ba72ull},
      {AttackKind::HullEdgeUp, 0x866608a4ea0a8168ull},
      {AttackKind::HullEdgeDown, 0x7f34bfcef4b445b5ull},
      {AttackKind::RandomNoise, 0x74228fb38586285dull},
      {AttackKind::SignFlip, 0x795dbcbf6280f45aull},
      {AttackKind::PullToTarget, 0x21e7f063392e1df2ull},
      {AttackKind::FlipFlop, 0xb5b4f8e9ca9525f6ull},
      {AttackKind::DelayedStrike, 0x21e7f063392e1df2ull},
  };
  for (const auto& pin : pins) {
    const VectorRunResult r = run_vector_scenario(
        make_standard_vector_scenario(7, 2, 8.0, pin.kind, 60, 3, 3));
    ASSERT_EQ(r.final_states.size(), 5u);
    ASSERT_EQ(r.disagreement.size(), 61u);
    EXPECT_EQ(vector_run_hash(r), pin.hash)
        << "attack " << static_cast<int>(pin.kind) << ": 0x" << std::hex
        << vector_run_hash(r);
  }
}

}  // namespace
}  // namespace ftmao
