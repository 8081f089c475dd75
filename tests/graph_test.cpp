// Tests for topologies and SBG on incomplete networks.

#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "func/library.hpp"
#include "graph/graph_runner.hpp"
#include "graph/robustness.hpp"
#include "graph/topology.hpp"
#include "sim/runner.hpp"

namespace ftmao {
namespace {

// ---------------------------------------------------------------- topology

TEST(Topology, CompleteGraphProperties) {
  const Topology t = make_complete(5);
  EXPECT_TRUE(t.is_complete());
  EXPECT_TRUE(t.strongly_connected());
  EXPECT_EQ(t.min_in_degree(), 4u);
  EXPECT_TRUE(t.supports_trim(2));
}

TEST(Topology, SelfLoopsIgnored) {
  Topology t(3);
  t.add_edge(1, 1);
  EXPECT_FALSE(t.has_edge(1, 1));
  EXPECT_EQ(t.in_degree(1), 0u);
}

TEST(Topology, RingLatticeDegrees) {
  const Topology t = make_ring_lattice(8, 2);
  for (std::size_t v = 0; v < 8; ++v) {
    EXPECT_EQ(t.in_degree(v), 4u);
    EXPECT_EQ(t.out_degree(v), 4u);
  }
  EXPECT_TRUE(t.strongly_connected());
  EXPECT_FALSE(t.is_complete());
  EXPECT_TRUE(t.supports_trim(2));
  EXPECT_FALSE(t.supports_trim(3));
}

TEST(Topology, RingLatticeRejectsOversizedK) {
  EXPECT_THROW(make_ring_lattice(6, 3), ContractViolation);
}

TEST(Topology, RandomOutRegularDegrees) {
  Rng rng(4);
  const Topology t = make_random_out_regular(10, 4, rng);
  for (std::size_t v = 0; v < 10; ++v) EXPECT_EQ(t.out_degree(v), 4u);
}

TEST(Topology, RandomOutRegularDeterministic) {
  Rng a(9), b(9);
  const Topology ta = make_random_out_regular(8, 3, a);
  const Topology tb = make_random_out_regular(8, 3, b);
  for (std::size_t u = 0; u < 8; ++u)
    for (std::size_t v = 0; v < 8; ++v)
      EXPECT_EQ(ta.has_edge(u, v), tb.has_edge(u, v));
}

TEST(Topology, BarbellStructure) {
  const Topology t = make_barbell(4, 1);
  EXPECT_EQ(t.n(), 8u);
  EXPECT_TRUE(t.strongly_connected());
  EXPECT_TRUE(t.has_edge(0, 4));
  EXPECT_TRUE(t.has_edge(4, 0));
  EXPECT_FALSE(t.has_edge(1, 5));
  // Clique interior: in-degree 3 (+1 bridge for the bridge endpoints).
  EXPECT_EQ(t.in_degree(1), 3u);
  EXPECT_EQ(t.in_degree(0), 4u);
}

TEST(Topology, DisconnectedDetected) {
  Topology t(4);
  t.add_edge(0, 1);
  t.add_edge(1, 0);
  t.add_edge(2, 3);
  t.add_edge(3, 2);
  EXPECT_FALSE(t.strongly_connected());
}

// ------------------------------------------------------------- robustness

TEST(Robustness, CompleteGraphIsCeilHalfRobust) {
  // Known: K_n is ceil(n/2)-robust and no more.
  for (std::size_t n : {4u, 5u, 7u, 8u}) {
    const Topology t = make_complete(n);
    EXPECT_EQ(max_robustness(t), (n + 1) / 2) << "n=" << n;
  }
}

TEST(Robustness, BareRingIsExactlyOneRobust) {
  const Topology t = make_ring_lattice(8, 1);
  EXPECT_TRUE(is_r_robust(t, 1));
  EXPECT_FALSE(is_r_robust(t, 2));
}

TEST(Robustness, DenserLatticesAreMoreRobust) {
  // Measured ladder on n = 9: k=1 -> 1, k=2 -> 2, k=3 -> 3, k=4 -> 5.
  // The f=1 worst-case guarantee needs 2f+1 = 3, reached at k = 3. Note
  // k = 2 converges under E12's specific attack despite lacking the
  // worst-case guarantee — robustness is about ALL adversaries.
  EXPECT_EQ(max_robustness(make_ring_lattice(9, 1)), 1u);
  EXPECT_EQ(max_robustness(make_ring_lattice(9, 2)), 2u);
  EXPECT_EQ(max_robustness(make_ring_lattice(9, 3)), 3u);
  EXPECT_GE(max_robustness(make_ring_lattice(9, 3)), required_robustness(1));
}

TEST(Robustness, DisconnectedGraphIsNotRobust) {
  Topology t(4);
  t.add_edge(0, 1);
  t.add_edge(1, 0);
  t.add_edge(2, 3);
  t.add_edge(3, 2);
  EXPECT_FALSE(is_r_robust(t, 1));
  EXPECT_EQ(max_robustness(t), 0u);
}

TEST(Robustness, ZeroRobustnessIsTrivial) {
  EXPECT_TRUE(is_r_robust(Topology(3), 0));
}

TEST(Robustness, MonotoneInR) {
  Rng rng(5);
  const Topology t = make_random_out_regular(7, 4, rng);
  const std::size_t r_max = max_robustness(t);
  for (std::size_t r = 1; r <= r_max; ++r) EXPECT_TRUE(is_r_robust(t, r));
  EXPECT_FALSE(is_r_robust(t, r_max + 1));
}

TEST(Robustness, SizeGuard) {
  EXPECT_THROW(is_r_robust(Topology(21), 1), ContractViolation);
}

// -------------------------------------------------------------- graph SBG

GraphScenario scenario_on(Topology topo, std::size_t f,
                          std::vector<std::size_t> faulty,
                          std::size_t rounds = 4000) {
  GraphScenario s;
  const std::size_t n = topo.n();
  s.topology = std::move(topo);
  s.f = f;
  s.faulty = std::move(faulty);
  s.functions = make_mixed_family(n, 8.0);
  s.initial_states.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    s.initial_states[i] = -4.0 + 8.0 * static_cast<double>(i) /
                                      static_cast<double>(n - 1);
  s.attack.kind = AttackKind::SplitBrain;
  s.rounds = rounds;
  return s;
}

TEST(GraphSbg, CompleteTopologyMatchesPlainSbg) {
  GraphScenario gs = scenario_on(make_complete(7), 2, {5, 6}, 1000);
  const GraphRunMetrics gm = run_graph_sbg(gs);

  Scenario ps = make_standard_scenario(7, 2, 8.0, AttackKind::SplitBrain, 1000);
  ps.initial_states = gs.initial_states;
  const RunMetrics pm = run_sbg(ps);

  ASSERT_EQ(gm.final_states.size(), pm.final_states.size());
  for (std::size_t i = 0; i < gm.final_states.size(); ++i)
    EXPECT_NEAR(gm.final_states[i], pm.final_states[i], 1e-9);
}

TEST(GraphSbg, DenseRingLatticeStillConverges) {
  // n=9, k=3 -> in-degree 6 >= 2f with f=1; dense enough in practice.
  GraphScenario gs = scenario_on(make_ring_lattice(9, 3), 1, {8}, 6000);
  const GraphRunMetrics m = run_graph_sbg(gs);
  EXPECT_LT(m.disagreement.back(), 0.1);
}

TEST(GraphSbg, SparseRingDegradesConsensusOrOptimality) {
  // Minimal in-degree (exactly 2f): the trim leaves a single survivor per
  // round, so robustness margins vanish. We don't assert failure — we
  // assert the measured gap is no better than the dense case, documenting
  // the open-problem territory.
  GraphScenario sparse = scenario_on(make_ring_lattice(9, 1), 1, {8}, 6000);
  GraphScenario dense = scenario_on(make_ring_lattice(9, 3), 1, {8}, 6000);
  const GraphRunMetrics ms = run_graph_sbg(sparse);
  const GraphRunMetrics md = run_graph_sbg(dense);
  EXPECT_GE(ms.max_dist_to_y.back() + 1e-9, md.max_dist_to_y.back());
}

TEST(GraphSbg, FaultFreeRingAgrees) {
  GraphScenario gs = scenario_on(make_ring_lattice(8, 1), 0, {}, 4000);
  gs.attack.kind = AttackKind::None;
  const GraphRunMetrics m = run_graph_sbg(gs);
  EXPECT_LT(m.disagreement.back(), 0.05);
}

TEST(GraphSbg, InsufficientInDegreeRejected) {
  // ring k=1 has in-degree 2 < 2f for f=2.
  GraphScenario gs = scenario_on(make_ring_lattice(9, 1), 2, {7, 8}, 100);
  EXPECT_THROW(run_graph_sbg(gs), ContractViolation);
}

TEST(GraphSbg, ConsistentAttackRejected) {
  // The graph engine builds bare adversaries: a consistent attack would
  // run as the unrestricted one.
  GraphScenario gs = scenario_on(make_complete(7), 2, {5, 6}, 10);
  gs.attack.consistent = true;
  EXPECT_THROW(gs.validate(), ContractViolation);
  EXPECT_THROW(run_graph_sbg(gs), ContractViolation);
}

TEST(GraphSbg, ByzantineCannotUseMissingLinks) {
  // The faulty agent has out-edges only within its clique; the other
  // clique must still converge (the attack cannot reach it directly).
  Topology t = make_barbell(4, 2);  // agents 0..3 and 4..7
  GraphScenario gs;
  gs.topology = t;
  gs.f = 1;
  gs.faulty = {3};
  gs.functions = make_spread_hubers(8, 8.0);
  gs.initial_states = {-4, -3, -2, -1, 1, 2, 3, 4};
  gs.attack.kind = AttackKind::FixedValue;
  gs.attack.state_magnitude = 1e6;
  gs.attack.gradient_magnitude = 1e6;
  gs.rounds = 4000;
  const GraphRunMetrics m = run_graph_sbg(gs);
  // All honest states must remain bounded (trim + topology confine the
  // attack), and the far clique converges internally.
  for (double x : m.final_states) EXPECT_LT(std::abs(x), 50.0);
}

}  // namespace
}  // namespace ftmao
