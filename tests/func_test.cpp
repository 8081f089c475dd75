// Unit + property tests for src/func: each concrete family's values,
// derivatives, bounds, argmins; weighted sums; the admissibility
// validator; and the deterministic/random family factories.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "func/combination.hpp"
#include "func/functions.hpp"
#include "func/library.hpp"
#include "func/validate.hpp"
#include "simd/det_math.hpp"

namespace ftmao {
namespace {

// ------------------------------------------------------------------ Huber

TEST(Huber, QuadraticCore) {
  const Huber h(1.0, 2.0, 1.0);
  EXPECT_DOUBLE_EQ(h.value(1.0), 0.0);
  EXPECT_DOUBLE_EQ(h.value(2.0), 0.5);
  EXPECT_DOUBLE_EQ(h.derivative(2.0), 1.0);
}

TEST(Huber, LinearTails) {
  const Huber h(0.0, 1.0, 2.0);
  // outside |r| > delta: value = scale*delta*(|r| - delta/2), slope = +-scale*delta
  EXPECT_DOUBLE_EQ(h.value(3.0), 2.0 * 1.0 * (3.0 - 0.5));
  EXPECT_DOUBLE_EQ(h.derivative(3.0), 2.0);
  EXPECT_DOUBLE_EQ(h.derivative(-3.0), -2.0);
}

TEST(Huber, GradientBoundTight) {
  const Huber h(0.0, 1.5, 2.0);
  EXPECT_DOUBLE_EQ(h.gradient_bound(), 3.0);
  EXPECT_DOUBLE_EQ(h.derivative(100.0), 3.0);
}

TEST(Huber, ArgminIsCenter) {
  EXPECT_EQ(Huber(-4.0, 1.0, 1.0).argmin(), Interval(-4.0));
}

TEST(Huber, RejectsBadParams) {
  EXPECT_THROW(Huber(0.0, 0.0, 1.0), ContractViolation);
  EXPECT_THROW(Huber(0.0, 1.0, -1.0), ContractViolation);
}

// ---------------------------------------------------------------- LogCosh

TEST(LogCosh, ZeroAtCenter) {
  const LogCosh h(2.0, 1.0, 1.0);
  EXPECT_NEAR(h.value(2.0), 0.0, 1e-12);
  EXPECT_NEAR(h.derivative(2.0), 0.0, 1e-12);
}

TEST(LogCosh, DerivativeIsTanh) {
  const LogCosh h(0.0, 2.0, 3.0);
  EXPECT_NEAR(h.derivative(2.0), 3.0 * std::tanh(1.0), 1e-12);
}

TEST(LogCosh, NoOverflowFarOut) {
  const LogCosh h(0.0, 1.0, 1.0);
  const double v = h.value(1e6);
  EXPECT_TRUE(std::isfinite(v));
  // asymptotically |x| - log 2
  EXPECT_NEAR(v, 1e6 - std::log(2.0), 1e-6);
  EXPECT_NEAR(h.derivative(1e6), 1.0, 1e-12);
}

TEST(LogCosh, DeterministicSaturationAttainsGradientBound) {
  // det_tanh returns exactly +/-1 for |z| >= 20, so far-out derivatives
  // hit the gradient bound bit-for-bit instead of approaching it from
  // below -- gradient_bound() is attained, not just a supremum.
  const LogCosh h(0.0, 2.0, 3.0);
  EXPECT_DOUBLE_EQ(h.derivative(64.0), 3.0);  // z = 32
  EXPECT_DOUBLE_EQ(h.derivative(-64.0), -3.0);
  EXPECT_DOUBLE_EQ(h.derivative(64.0), h.gradient_bound());
}

// -------------------------------------------------------------- SmoothAbs

TEST(SmoothAbs, ZeroAtCenterAndAsymptoticSlope) {
  const SmoothAbs h(1.0, 0.5, 2.0);
  EXPECT_DOUBLE_EQ(h.value(1.0), 0.0);
  EXPECT_NEAR(h.derivative(1000.0), 2.0, 1e-5);
  EXPECT_NEAR(h.derivative(-1000.0), -2.0, 1e-5);
}

TEST(SmoothAbs, SymmetricValue) {
  const SmoothAbs h(0.0, 0.3, 1.0);
  EXPECT_DOUBLE_EQ(h.value(2.0), h.value(-2.0));
}

TEST(SmoothAbs, GradientBoundReachedToTheLastUlp) {
  // |h'| = scale * |r| / sqrt(r^2 + eps^2) < scale everywhere, but at
  // r = 2^40 (r^2 and sqrt(r^2) both exact, eps^2 rounds away) the
  // quotient is exactly 1 and the bound is met bit-for-bit.
  const SmoothAbs h(0.0, 0.5, 2.0);
  EXPECT_LT(std::abs(h.derivative(3.0)), h.gradient_bound());
  const double r = 1099511627776.0;  // 2^40
  EXPECT_DOUBLE_EQ(h.derivative(r), 2.0);
  EXPECT_DOUBLE_EQ(h.derivative(-r), -2.0);
  EXPECT_DOUBLE_EQ(h.derivative(r), h.gradient_bound());
}

// -------------------------------------------------------------- FlatHuber

TEST(FlatHuber, ZeroOnFlatRegion) {
  const FlatHuber h(Interval(-1.0, 2.0), 1.0, 1.0);
  EXPECT_DOUBLE_EQ(h.value(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(h.value(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.value(2.0), 0.0);
  EXPECT_DOUBLE_EQ(h.derivative(0.5), 0.0);
}

TEST(FlatHuber, GrowsOutside) {
  const FlatHuber h(Interval(-1.0, 2.0), 1.0, 1.0);
  EXPECT_DOUBLE_EQ(h.value(3.0), 0.5);       // quadratic zone
  EXPECT_DOUBLE_EQ(h.derivative(3.0), 1.0);
  EXPECT_DOUBLE_EQ(h.derivative(-2.5), -1.0);  // saturated left
}

TEST(FlatHuber, ArgminIsFlatInterval) {
  const FlatHuber h(Interval(-1.0, 2.0), 1.0, 1.0);
  EXPECT_EQ(h.argmin(), Interval(-1.0, 2.0));
}

// -------------------------------------------------------- AsymmetricHuber

TEST(AsymmetricHuber, DifferentSaturationSlopes) {
  const AsymmetricHuber h(0.0, 1.0, 3.0, 2.0);
  EXPECT_DOUBLE_EQ(h.derivative(-10.0), -2.0);  // scale * delta_neg
  EXPECT_DOUBLE_EQ(h.derivative(10.0), 6.0);    // scale * delta_pos
  EXPECT_DOUBLE_EQ(h.derivative(0.5), 1.0);     // quadratic zone
  EXPECT_DOUBLE_EQ(h.gradient_bound(), 6.0);
}

TEST(AsymmetricHuber, ValueContinuousAtKinks) {
  const AsymmetricHuber h(1.0, 0.5, 2.0, 1.0);
  for (double kink : {1.0 - 0.5, 1.0 + 2.0}) {
    const double below = h.value(kink - 1e-9);
    const double above = h.value(kink + 1e-9);
    EXPECT_NEAR(below, above, 1e-7);
  }
  EXPECT_DOUBLE_EQ(h.value(1.0), 0.0);
}

TEST(AsymmetricHuber, ArgminIsCenter) {
  EXPECT_EQ(AsymmetricHuber(3.0, 1.0, 2.0, 1.0).argmin(), Interval(3.0));
}

TEST(AsymmetricHuber, RejectsBadParams) {
  EXPECT_THROW(AsymmetricHuber(0.0, 0.0, 1.0, 1.0), ContractViolation);
  EXPECT_THROW(AsymmetricHuber(0.0, 1.0, -1.0, 1.0), ContractViolation);
}

// ---------------------------------------------------------- SoftplusBasin

TEST(SoftplusBasin, MinimizerAtMidpoint) {
  const SoftplusBasin h(1.0, 3.0, 0.5, 1.0);
  EXPECT_EQ(h.argmin(), Interval(2.0));
  EXPECT_NEAR(h.derivative(2.0), 0.0, 1e-12);
}

TEST(SoftplusBasin, BoundedSlopes) {
  const SoftplusBasin h(-1.0, 1.0, 0.5, 2.0);
  EXPECT_NEAR(h.derivative(100.0), 2.0, 1e-9);
  EXPECT_NEAR(h.derivative(-100.0), -2.0, 1e-9);
  EXPECT_LT(std::abs(h.derivative(0.0)), 2.0);
}

TEST(SoftplusBasin, LipschitzBoundIsTighterThanGenericQuarter) {
  // L = scale/width * (1/4 + sigma'(gap/2)) with gap = (b-a)/width:
  // strictly below the generic scale/(2 width) whenever the basin has
  // width (sigma'(gap/2) < 1/4 for gap > 0), while staying a sound bound
  // on |h''| -- the finite-difference admissibility check covers that.
  const SoftplusBasin h(-1.0, 1.0, 0.5, 2.0);
  const double gap = (1.0 - -1.0) / 0.5;
  EXPECT_DOUBLE_EQ(
      h.lipschitz_bound(),
      2.0 / 0.5 * (0.25 + detmath::det_sigmoid_prime(gap / 2.0)));
  EXPECT_LT(h.lipschitz_bound(), 2.0 / (2.0 * 0.5));
  EXPECT_GT(h.lipschitz_bound(), 0.0);
}

TEST(SoftplusBasin, RejectsInvertedWalls) {
  EXPECT_THROW(SoftplusBasin(2.0, 1.0, 0.5, 1.0), ContractViolation);
}

// ----------------------------------------------- admissibility validation

// The label is what gtest prints for the parameter, and so what ctest
// names the case: a bare shared_ptr prints as its heap address, which
// changes from one process to the next.
struct AdmissibleCase {
  const char* label;
  ScalarFunctionPtr h;
};

void PrintTo(const AdmissibleCase& c, std::ostream* os) { *os << c.label; }

class AdmissibleFamilies : public ::testing::TestWithParam<AdmissibleCase> {};

TEST_P(AdmissibleFamilies, PassesFullValidation) {
  const ValidationReport report = validate_admissible(*GetParam().h);
  EXPECT_TRUE(report.ok) << (report.violations.empty()
                                 ? ""
                                 : report.violations.front());
}

INSTANTIATE_TEST_SUITE_P(
    AllConcreteTypes, AdmissibleFamilies,
    ::testing::Values(
        AdmissibleCase{"Huber(0, 2, 1)",
            std::make_shared<Huber>(0.0, 2.0, 1.0)},
        AdmissibleCase{"Huber(-7.5, 0.5, 3)",
            std::make_shared<Huber>(-7.5, 0.5, 3.0)},
        AdmissibleCase{"LogCosh(1, 1, 1)",
            std::make_shared<LogCosh>(1.0, 1.0, 1.0)},
        AdmissibleCase{"LogCosh(5, 0.25, 2)",
            std::make_shared<LogCosh>(5.0, 0.25, 2.0)},
        AdmissibleCase{"SmoothAbs(0, 0.5, 1)",
            std::make_shared<SmoothAbs>(0.0, 0.5, 1.0)},
        AdmissibleCase{"SmoothAbs(-3, 1, 0.5)",
            std::make_shared<SmoothAbs>(-3.0, 1.0, 0.5)},
        AdmissibleCase{"FlatHuber(-2..2, 1, 1)",
            std::make_shared<FlatHuber>(Interval(-2.0, 2.0), 1.0, 1.0)},
        AdmissibleCase{"FlatHuber(3..3.5, 2, 0.7)",
            std::make_shared<FlatHuber>(Interval(3.0, 3.5), 2.0, 0.7)},
        AdmissibleCase{"SoftplusBasin(-1, 1, 0.5, 1)",
            std::make_shared<SoftplusBasin>(-1.0, 1.0, 0.5, 1.0)},
        AdmissibleCase{"SoftplusBasin(2, 2, 1, 2)",
            std::make_shared<SoftplusBasin>(2.0, 2.0, 1.0, 2.0)},
        AdmissibleCase{"AsymmetricHuber(0, 1, 3, 1)",
            std::make_shared<AsymmetricHuber>(0.0, 1.0, 3.0, 1.0)},
        AdmissibleCase{"AsymmetricHuber(-4, 2.5, 0.5, 2)",
            std::make_shared<AsymmetricHuber>(-4.0, 2.5, 0.5, 2.0)}));

TEST(Validate, CatchesWrongGradientBound) {
  // A liar: claims gradient bound 0.1 but has slope up to 1.
  class Liar final : public ScalarFunction {
   public:
    double value(double x) const override { return std::abs(x) < 1 ? x * x / 2 : std::abs(x) - 0.5; }
    double derivative(double x) const override { return std::clamp(x, -1.0, 1.0); }
    double gradient_bound() const override { return 0.1; }
    double lipschitz_bound() const override { return 1.0; }
    Interval argmin() const override { return Interval(0.0); }
  };
  EXPECT_FALSE(validate_admissible(Liar{}).ok);
}

TEST(Validate, CatchesNonConvexity) {
  class Sine final : public ScalarFunction {
   public:
    double value(double x) const override { return std::sin(x); }
    double derivative(double x) const override { return std::cos(x); }
    double gradient_bound() const override { return 1.0; }
    double lipschitz_bound() const override { return 1.0; }
    Interval argmin() const override { return Interval(-M_PI / 2.0); }
  };
  const ValidationReport report = validate_admissible(Sine{});
  EXPECT_FALSE(report.ok);
}

TEST(Validate, CatchesWrongArgmin) {
  class WrongMin final : public ScalarFunction {
   public:
    double value(double x) const override { return std::hypot(x, 0.5) - 0.5; }
    double derivative(double x) const override { return x / std::hypot(x, 0.5); }
    double gradient_bound() const override { return 1.0; }
    double lipschitz_bound() const override { return 2.0; }
    Interval argmin() const override { return Interval(3.0); }  // lie: true min 0
  };
  EXPECT_FALSE(validate_admissible(WrongMin{}).ok);
}

// ------------------------------------------------------------ WeightedSum

TEST(WeightedSum, ValueAndDerivativeAreLinear) {
  const auto a = std::make_shared<Huber>(-1.0, 2.0, 1.0);
  const auto b = std::make_shared<Huber>(3.0, 2.0, 1.0);
  const WeightedSum sum({{0.25, a}, {0.75, b}});
  EXPECT_DOUBLE_EQ(sum.value(0.5), 0.25 * a->value(0.5) + 0.75 * b->value(0.5));
  EXPECT_DOUBLE_EQ(sum.derivative(0.5),
                   0.25 * a->derivative(0.5) + 0.75 * b->derivative(0.5));
}

TEST(WeightedSum, BoundsAreWeightedSums) {
  const auto a = std::make_shared<Huber>(0.0, 2.0, 1.0);  // L=2, lip=1
  const auto b = std::make_shared<LogCosh>(0.0, 1.0, 3.0);  // L=3, lip=3
  const WeightedSum sum({{0.5, a}, {0.5, b}});
  EXPECT_DOUBLE_EQ(sum.gradient_bound(), 0.5 * 2.0 + 0.5 * 3.0);
  EXPECT_DOUBLE_EQ(sum.lipschitz_bound(), 0.5 * 1.0 + 0.5 * 3.0);
}

TEST(WeightedSum, ArgminOfSymmetricPairIsMidpoint) {
  const auto a = std::make_shared<Huber>(-2.0, 10.0, 1.0);
  const auto b = std::make_shared<Huber>(2.0, 10.0, 1.0);
  const WeightedSum sum({{0.5, a}, {0.5, b}});
  EXPECT_NEAR(sum.argmin().midpoint(), 0.0, 1e-8);
}

TEST(WeightedSum, ArgminOfSmoothAbsPairIsFlat) {
  // Two equal-weight smooth-abs around distinct centers: between the
  // centers the derivative nearly cancels; true argmin of the exact |.|
  // pair is the whole segment, the smoothed version has a point near the
  // middle. Sanity: argmin lies between the centers.
  const auto a = std::make_shared<SmoothAbs>(-1.0, 0.1, 1.0);
  const auto b = std::make_shared<SmoothAbs>(1.0, 0.1, 1.0);
  const WeightedSum sum({{0.5, a}, {0.5, b}});
  EXPECT_GE(sum.argmin().lo(), -1.0 - 1e-9);
  EXPECT_LE(sum.argmin().hi(), 1.0 + 1e-9);
}

TEST(WeightedSum, SkewedWeightsMoveArgmin) {
  const auto a = std::make_shared<Huber>(-2.0, 10.0, 1.0);
  const auto b = std::make_shared<Huber>(2.0, 10.0, 1.0);
  const WeightedSum sum({{0.9, a}, {0.1, b}});
  // derivative: 0.9(x+2) + 0.1(x-2) = x + 1.6 -> argmin -1.6
  EXPECT_NEAR(sum.argmin().midpoint(), -1.6, 1e-8);
}

TEST(WeightedSum, ZeroWeightTermIgnoredInArgmin) {
  const auto a = std::make_shared<Huber>(1.0, 2.0, 1.0);
  const auto b = std::make_shared<Huber>(100.0, 2.0, 1.0);
  const WeightedSum sum({{1.0, a}, {0.0, b}});
  EXPECT_NEAR(sum.argmin().midpoint(), 1.0, 1e-8);
}

TEST(WeightedSum, RejectsDegenerateInputs) {
  const auto a = std::make_shared<Huber>(0.0, 1.0, 1.0);
  EXPECT_THROW(WeightedSum({}), ContractViolation);
  EXPECT_THROW(WeightedSum({{-0.5, a}}), ContractViolation);
  EXPECT_THROW(WeightedSum({{0.0, a}}), ContractViolation);  // zero total mass
}

TEST(WeightedSum, IsItselfAdmissible) {
  const auto a = std::make_shared<Huber>(-3.0, 2.0, 1.0);
  const auto b = std::make_shared<LogCosh>(1.0, 1.0, 2.0);
  const auto c = std::make_shared<FlatHuber>(Interval(0.0, 1.0), 1.0, 1.0);
  const WeightedSum sum({{0.2, a}, {0.5, b}, {0.3, c}});
  EXPECT_TRUE(validate_admissible(sum).ok);
}

TEST(UniformAverage, EqualWeights) {
  const auto a = std::make_shared<Huber>(-2.0, 10.0, 1.0);
  const auto b = std::make_shared<Huber>(0.0, 10.0, 1.0);
  const auto c = std::make_shared<Huber>(2.0, 10.0, 1.0);
  const WeightedSum avg = uniform_average({a, b, c});
  EXPECT_NEAR(avg.argmin().midpoint(), 0.0, 1e-8);
  for (const auto& term : avg.terms()) EXPECT_DOUBLE_EQ(term.weight, 1.0 / 3.0);
}

// ---------------------------------------------------------------- library

TEST(Library, SpreadHubersLayout) {
  const auto fns = make_spread_hubers(5, 8.0);
  ASSERT_EQ(fns.size(), 5u);
  EXPECT_DOUBLE_EQ(fns.front()->argmin().midpoint(), -4.0);
  EXPECT_DOUBLE_EQ(fns.back()->argmin().midpoint(), 4.0);
  EXPECT_DOUBLE_EQ(fns[2]->argmin().midpoint(), 0.0);
}

TEST(Library, SingleFunctionCentered) {
  const auto fns = make_spread_hubers(1, 8.0);
  EXPECT_DOUBLE_EQ(fns.front()->argmin().midpoint(), 0.0);
}

TEST(Library, MixedFamilyAllAdmissible) {
  for (const auto& fn : make_mixed_family(8, 10.0))
    EXPECT_TRUE(validate_admissible(*fn).ok);
}

TEST(Library, TranscendentalFamilyAdmissibleWithClosedFormDescriptors) {
  const auto family = make_transcendental_family(6, 8.0);
  ASSERT_EQ(family.size(), 6u);
  for (const auto& fn : family) {
    EXPECT_TRUE(validate_admissible(*fn).ok);
    const BatchGradientKernel d = fn->batch_gradient_kernel();
    ASSERT_TRUE(d.valid());
    for (double x : {-5.0, -0.5, 0.0, 1.25, 7.0}) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(fn->derivative(x)),
                std::bit_cast<std::uint64_t>(d.evaluate(x)));
    }
  }
}

TEST(Library, RandomFamilyDeterministicPerSeed) {
  Rng r1(99);
  Rng r2(99);
  const auto f1 = make_random_family(6, r1);
  const auto f2 = make_random_family(6, r2);
  ASSERT_EQ(f1.size(), f2.size());
  for (std::size_t i = 0; i < f1.size(); ++i) {
    EXPECT_DOUBLE_EQ(f1[i]->value(0.37), f2[i]->value(0.37));
    EXPECT_DOUBLE_EQ(f1[i]->derivative(-1.2), f2[i]->derivative(-1.2));
  }
}

TEST(Library, RandomFamilyAllAdmissible) {
  Rng rng(7);
  for (const auto& fn : make_random_family(12, rng))
    EXPECT_TRUE(validate_admissible(*fn).ok);
}

TEST(Library, FamilyGradientBoundIsMax) {
  const auto a = std::make_shared<Huber>(0.0, 2.0, 1.0);   // L = 2
  const auto b = std::make_shared<LogCosh>(0.0, 1.0, 5.0); // L = 5
  EXPECT_DOUBLE_EQ(family_gradient_bound({a, b}), 5.0);
}

}  // namespace
}  // namespace ftmao
