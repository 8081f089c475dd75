// Pins the bench-E13 demonstration as a regression test: the vector
// valid-optima set Y_k is NOT convex for the coupled (radial-Huber)
// family — the geometric obstruction that keeps coordinate-wise SBG a
// heuristic (Section 7) — while the separable family's Y_k stays a box.
// Also pins the caveat the heuristic inherits: consensus per coordinate,
// but no optimality guarantee for coupled costs.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/step_size.hpp"
#include "vector/vector_attacks.hpp"
#include "vector/vector_sbg.hpp"
#include "vector/vector_valid.hpp"

namespace ftmao {
namespace {

// The exact E13 family: five radial Hubers, f = 1.
std::vector<VectorFunctionPtr> radial_family() {
  return {
      std::make_shared<RadialHuber>(Vec{0.0, 0.0}, 3.0, 1.0),
      std::make_shared<RadialHuber>(Vec{8.0, 0.0}, 3.0, 1.0),
      std::make_shared<RadialHuber>(Vec{4.0, 7.0}, 3.0, 1.0),
      std::make_shared<RadialHuber>(Vec{0.5, 0.5}, 3.0, 1.0),
      std::make_shared<RadialHuber>(Vec{7.5, 0.5}, 3.0, 1.0),
  };
}

std::vector<VectorFunctionPtr> separable_family() {
  return {
      std::make_shared<SeparableHuber>(Vec{-3.0, 1.0}, 2.0, 1.0),
      std::make_shared<SeparableHuber>(Vec{-1.0, -2.0}, 2.0, 1.0),
      std::make_shared<SeparableHuber>(Vec{0.0, 0.0}, 2.0, 1.0),
      std::make_shared<SeparableHuber>(Vec{2.0, 2.0}, 2.0, 1.0),
      std::make_shared<SeparableHuber>(Vec{4.0, -1.0}, 2.0, 1.0),
  };
}

TEST(VectorValid, RadialFamilyYieldsNonConvexityCertificate) {
  const auto fns = radial_family();
  Rng rng(11);  // the E13 seed and budget, so the bench demo stays pinned
  const auto ce = find_nonconvexity(fns, 1, rng, 150);
  ASSERT_TRUE(ce.has_value())
      << "the radial family must certify a non-convex valid set";

  // Re-verify the certificate through the membership test itself: both
  // endpoints valid, the midpoint not.
  EXPECT_TRUE(is_valid_vector_optimum(ce->a, fns, 1, 1e-5));
  EXPECT_TRUE(is_valid_vector_optimum(ce->b, fns, 1, 1e-5));
  EXPECT_FALSE(is_valid_vector_optimum(ce->midpoint, fns, 1, 1e-5));

  // And the midpoint really is the midpoint of the segment.
  ASSERT_EQ(ce->midpoint.dim(), 2u);
  for (std::size_t k = 0; k < 2; ++k)
    EXPECT_DOUBLE_EQ(ce->midpoint[k], ce->a[k] + (ce->b[k] - ce->a[k]) / 2.0);
}

TEST(VectorValid, SeparableFamilyHasConvexValidBox) {
  // Per-coordinate the scalar valid set is an interval, so the separable
  // Y_k is a box: no midpoint of valid optima can fail membership.
  const auto fns = separable_family();
  Rng rng(11);
  EXPECT_FALSE(find_nonconvexity(fns, 1, rng, 60).has_value());
}

TEST(VectorValid, HeuristicKeepsConsensusButNotOptimalityForCoupledCosts) {
  // Coordinate-wise SBG on the radial family under split-brain: the
  // scalar contraction applies per coordinate, so the honest diameter
  // shrinks by orders of magnitude — but the consensus point is NOT
  // certified as a valid optimum (that guarantee is exactly what the
  // non-convexity above forfeits).
  VectorSbgConfig config;
  config.n = 7;
  config.f = 2;
  config.dim = 2;
  CoordinatewiseAdversary attack(
      std::make_unique<SplitBrainAdversary>(50.0, 5.0), /*negate_odd=*/true);
  std::vector<Vec> init;
  for (int i = 0; i < 5; ++i)
    init.push_back(Vec{-4.0 + 2.0 * i, 4.0 - 2.0 * i});
  const HarmonicStep schedule;
  const auto r =
      run_vector_sbg(config, radial_family(), init, 2, &attack, schedule, 3000);
  EXPECT_GT(r.disagreement[0], 1.0);
  EXPECT_LT(r.disagreement.back(), 0.2);
  // The distance to the honest average optimum stays bounded but need not
  // vanish; assert it is finite and recorded.
  EXPECT_EQ(r.dist_to_average_optimum.size(), 3001u);
  EXPECT_LT(r.dist_to_average_optimum.back(), 10.0);
}

}  // namespace
}  // namespace ftmao
