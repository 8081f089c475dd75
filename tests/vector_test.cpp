// Tests for the vector extension: Vec algebra, vector cost functions,
// coordinate-wise SBG behaviour, the recipient classes the vector attack
// liftings declare, and the non-convexity of the vector valid-optima set
// (the paper's core obstruction for k >= 2).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "core/step_size.hpp"
#include "sim/vector_scenario.hpp"
#include "vector/vector_attacks.hpp"
#include "vector/vector_sbg.hpp"
#include "vector/vector_valid.hpp"

namespace ftmao {
namespace {

// --------------------------------------------------------------------- Vec

TEST(Vec, Arithmetic) {
  const Vec a{1.0, 2.0};
  const Vec b{3.0, -1.0};
  EXPECT_EQ(a + b, (Vec{4.0, 1.0}));
  EXPECT_EQ(a - b, (Vec{-2.0, 3.0}));
  EXPECT_EQ(2.0 * a, (Vec{2.0, 4.0}));
  EXPECT_DOUBLE_EQ(a.dot(b), 1.0);
}

TEST(Vec, Norms) {
  const Vec v{3.0, -4.0};
  EXPECT_DOUBLE_EQ(v.norm2(), 5.0);
  EXPECT_DOUBLE_EQ(v.norm_inf(), 4.0);
  EXPECT_DOUBLE_EQ(v.distance_to(Vec{0.0, 0.0}), 5.0);
}

TEST(Vec, DimMismatchThrows) {
  Vec a{1.0, 2.0};
  const Vec b{1.0};
  EXPECT_THROW(a += b, ContractViolation);
  EXPECT_THROW(a.dot(b), ContractViolation);
}

// --------------------------------------------------------- cost functions

TEST(SeparableHuber, GradientPerCoordinate) {
  const SeparableHuber h(Vec{1.0, -1.0}, 2.0, 1.0);
  const Vec g = h.gradient(Vec{2.0, -1.0});
  EXPECT_DOUBLE_EQ(g[0], 1.0);
  EXPECT_DOUBLE_EQ(g[1], 0.0);
  EXPECT_DOUBLE_EQ(h.value(Vec{1.0, -1.0}), 0.0);
}

TEST(RadialHuber, RotationInvariantValue) {
  const RadialHuber h(Vec{0.0, 0.0}, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(h.value(Vec{3.0, 0.0}), h.value(Vec{0.0, 3.0}));
  EXPECT_DOUBLE_EQ(h.value(Vec{3.0, 4.0}), 1.0 * (5.0 - 0.5));
}

TEST(RadialHuber, GradientPointsAwayFromCenterBounded) {
  const RadialHuber h(Vec{1.0, 1.0}, 1.0, 2.0);
  const Vec g = h.gradient(Vec{4.0, 1.0});
  EXPECT_DOUBLE_EQ(g[0], 2.0);  // saturated slope scale*delta
  EXPECT_DOUBLE_EQ(g[1], 0.0);
  EXPECT_EQ(h.gradient(Vec{1.0, 1.0}), (Vec{0.0, 0.0}));
}

TEST(DirectionalHuber, GradientAlongDirection) {
  const DirectionalHuber h(Vec{3.0, 4.0}, 0.0, 1.0, 1.0);  // normalized inside
  const Vec g = h.gradient(Vec{10.0, 10.0});
  // gradient parallel to (0.6, 0.8)
  EXPECT_NEAR(g[0] / g[1], 0.6 / 0.8, 1e-12);
}

TEST(VectorWeightedSum, MinimizerOfSymmetricPair) {
  const auto a = std::make_shared<SeparableHuber>(Vec{-2.0, 0.0}, 5.0, 1.0);
  const auto b = std::make_shared<SeparableHuber>(Vec{2.0, 0.0}, 5.0, 1.0);
  const VectorWeightedSum sum({{0.5, a}, {0.5, b}});
  const Vec m = sum.a_minimizer();
  EXPECT_NEAR(m[0], 0.0, 1e-5);
  EXPECT_NEAR(m[1], 0.0, 1e-5);
}

// The honest uniform average of a standard vector cell: the sum whose
// minimizer the vector engines measure distances against.
VectorWeightedSum standard_cell_average(std::size_t n, std::size_t f,
                                        double spread, std::size_t dim) {
  const VectorScenario s = make_standard_vector_scenario(
      n, f, spread, AttackKind::None, 1, 1, dim);
  std::vector<VectorWeightedSum::Term> terms;
  const double w = 1.0 / static_cast<double>(s.honest_costs.size());
  for (const auto& fn : s.honest_costs) terms.push_back({w, fn});
  return VectorWeightedSum(std::move(terms));
}

// Plain gradient descent by 1/lipschitz_bound() from the origin for
// `steps` steps: the long-run reference a_minimizer must agree with.
Vec long_run_minimizer(const VectorWeightedSum& sum, int steps) {
  Vec x(sum.dim(), 0.0);
  const double step = 1.0 / sum.lipschitz_bound();
  for (int t = 0; t < steps; ++t) {
    const Vec g = sum.gradient(x);
    for (std::size_t k = 0; k < x.dim(); ++k) x[k] -= step * g[k];
  }
  return x;
}

TEST(VectorMinimizer, StandardCellsMeetTheToleranceAndTheLongRun) {
  for (std::size_t n : {4u, 7u, 10u, 13u, 22u, 31u}) {
    for (std::size_t dim : {2u, 3u, 8u, 9u}) {
      for (double spread : {8.0, 11.75}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " d=" +
                     std::to_string(dim) + " spread=" +
                     std::to_string(spread));
        const VectorWeightedSum sum =
            standard_cell_average(n, (n - 1) / 3, spread, dim);
        EXPECT_NEAR(sum.lipschitz_bound(), 1.0, 1e-12);
        const Vec x = sum.a_minimizer();
        EXPECT_LT(sum.gradient(x).norm2(), sum.gradient_tolerance());
        EXPECT_LT(x.distance_to(long_run_minimizer(sum, 5000)), 1e-9);
      }
    }
  }
}

TEST(VectorMinimizer, WideSpreadsConvergeToTheirOwnScale) {
  // At spread 1e6 the gradient's rounding alone exceeds 1e-12, so the
  // tolerance scales with the gradient bound.
  for (double spread : {1e6, 1e9}) {
    for (std::size_t n : {4u, 31u}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " spread=" + std::to_string(spread));
      const VectorWeightedSum sum =
          standard_cell_average(n, (n - 1) / 3, spread, 9);
      const Vec x = sum.a_minimizer();
      EXPECT_LT(sum.gradient(x).norm2(), sum.gradient_tolerance());
      EXPECT_LT(x.distance_to(long_run_minimizer(sum, 5000)),
                1e-9 * spread);
    }
  }
}

// A linear cost: its gradient is constant, so it has no minimizer, and
// any bound is a valid smoothness bound.
class Ramp final : public VectorFunction {
 public:
  std::size_t dim() const override { return 2; }
  double value(const Vec& x) const override { return x[0] - 2.0 * x[1]; }
  Vec gradient(const Vec&) const override { return Vec{1.0, -2.0}; }
  double gradient_bound() const override { return std::sqrt(5.0); }
  double lipschitz_bound() const override { return 1.0; }
  Vec a_minimizer() const override { return Vec(2, 0.0); }  // none exists
};

TEST(VectorMinimizer, CostWithoutMinimizerThrowsAtTheCap) {
  const VectorWeightedSum sum({{1.0, std::make_shared<Ramp>()}});
  EXPECT_THROW(sum.a_minimizer(), ContractViolation);
}

// Reports a quarter of the wrapped cost's smoothness bound, so a step of
// 1/lipschitz_bound() is four times too long.
class UnderstatedBound final : public VectorFunction {
 public:
  explicit UnderstatedBound(VectorFunctionPtr inner)
      : inner_(std::move(inner)) {}
  std::size_t dim() const override { return inner_->dim(); }
  double value(const Vec& x) const override { return inner_->value(x); }
  Vec gradient(const Vec& x) const override { return inner_->gradient(x); }
  double gradient_bound() const override { return inner_->gradient_bound(); }
  double lipschitz_bound() const override {
    return inner_->lipschitz_bound() / 4.0;
  }
  Vec a_minimizer() const override { return inner_->a_minimizer(); }

 private:
  VectorFunctionPtr inner_;
};

TEST(VectorMinimizer, UnderstatedBoundConvergesThroughTheArmijoGuard) {
  // Wide Hubers keep both terms quadratic, so the sum is the isotropic
  // quadratic 1.75/2 ||x - x*||^2: a four-times step would overshoot
  // x* threefold every step, and the centroid of the centers is not x*.
  const Vec a{1.0, -2.0, 3.0};
  const Vec b{-3.0, 1.0, 0.5};
  const VectorWeightedSum sum(
      {{0.25, std::make_shared<UnderstatedBound>(
                  std::make_shared<SeparableHuber>(a, 100.0, 4.0))},
       {0.75, std::make_shared<UnderstatedBound>(
                  std::make_shared<RadialHuber>(b, 100.0, 1.0))}});
  EXPECT_EQ(sum.lipschitz_bound(), 1.75 / 4.0);
  const Vec x = sum.a_minimizer();
  EXPECT_LT(sum.gradient(x).norm2(), sum.gradient_tolerance());
  for (std::size_t k = 0; k < 3; ++k)
    EXPECT_NEAR(x[k], (a[k] + 0.75 * b[k]) / 1.75, 1e-12) << k;
}

// ----------------------------------------------------- coordinate-wise SBG

VectorSbgConfig cfg(std::size_t n, std::size_t f, std::size_t dim) {
  VectorSbgConfig c;
  c.n = n;
  c.f = f;
  c.dim = dim;
  return c;
}

std::vector<VectorFunctionPtr> separable_costs() {
  return {
      std::make_shared<SeparableHuber>(Vec{-3.0, 1.0}, 2.0, 1.0),
      std::make_shared<SeparableHuber>(Vec{-1.0, -2.0}, 2.0, 1.0),
      std::make_shared<SeparableHuber>(Vec{0.0, 0.0}, 2.0, 1.0),
      std::make_shared<SeparableHuber>(Vec{2.0, 2.0}, 2.0, 1.0),
      std::make_shared<SeparableHuber>(Vec{4.0, -1.0}, 2.0, 1.0),
  };
}

std::vector<Vec> spread_initial(std::size_t count) {
  std::vector<Vec> out;
  for (std::size_t i = 0; i < count; ++i) {
    const double v = -4.0 + 8.0 * static_cast<double>(i) /
                                 static_cast<double>(count - 1);
    out.push_back(Vec{v, -v});
  }
  return out;
}

TEST(VectorSbg, ConsensusPerCoordinateUnderSplitBrain) {
  const HarmonicStep schedule;
  CoordinatewiseAdversary attack(
      std::make_unique<SplitBrainAdversary>(50.0, 5.0), /*negate_odd=*/true);
  const auto r = run_vector_sbg(cfg(7, 2, 2), separable_costs(),
                                spread_initial(5), 2, &attack, schedule, 6000);
  EXPECT_LT(r.disagreement.back(), 0.05);
}

TEST(VectorSbg, SeparableCostsLandNearAverageOptimumRegion) {
  // For separable costs, each coordinate independently satisfies the
  // scalar Theorem 2, so the final point sits inside the per-coordinate
  // valid boxes — within a modest distance of the average optimum.
  const HarmonicStep schedule;
  CoordinatewiseAdversary attack(
      std::make_unique<SplitBrainAdversary>(50.0, 5.0), /*negate_odd=*/true);
  const auto r = run_vector_sbg(cfg(7, 2, 2), separable_costs(),
                                spread_initial(5), 2, &attack, schedule, 6000);
  EXPECT_LT(r.dist_to_average_optimum.back(), 4.0);
}

TEST(VectorSbg, FaultFreeWithPositiveFConverges) {
  // No actual faults, but the algorithm still trims for f = 1.
  const HarmonicStep schedule;
  const auto r = run_vector_sbg(cfg(5, 1, 2), separable_costs(),
                                spread_initial(5), 0, nullptr, schedule, 4000);
  EXPECT_LT(r.disagreement.back(), 0.05);
  EXPECT_LT(r.dist_to_average_optimum.back(), 0.5);
}

// ------------------------------------------- recipient classes (liftings)

constexpr AttackKind kEveryAttack[] = {
    AttackKind::None,         AttackKind::Silent,
    AttackKind::FixedValue,   AttackKind::SplitBrain,
    AttackKind::HullEdgeUp,   AttackKind::HullEdgeDown,
    AttackKind::RandomNoise,  AttackKind::SignFlip,
    AttackKind::PullToTarget, AttackKind::FlipFlop,
    AttackKind::DelayedStrike};

AttackConfig vector_attack_config(AttackKind kind) {
  AttackConfig config;
  config.kind = kind;
  config.activation_round = 3;  // delayed-strike wakes mid-run below
  return config;
}

bool same_bits(const std::optional<VecPayload>& a,
               const std::optional<VecPayload>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a) return true;
  if (a->state.dim() != b->state.dim() ||
      a->gradient.dim() != b->gradient.dim())
    return false;
  for (std::size_t k = 0; k < a->state.dim(); ++k) {
    if (std::bit_cast<std::uint64_t>(a->state[k]) !=
            std::bit_cast<std::uint64_t>(b->state[k]) ||
        std::bit_cast<std::uint64_t>(a->gradient[k]) !=
            std::bit_cast<std::uint64_t>(b->gradient[k]))
      return false;
  }
  return true;
}

TEST(VectorRecipientClass, LiftingsDeclareTheScalarClasses) {
  const Rng rng(5);
  for (std::size_t dim : {1u, 3u}) {
    for (AttackKind kind : kEveryAttack) {
      SCOPED_TRACE("dim " + std::to_string(dim) + " kind " +
                   std::to_string(static_cast<int>(kind)));
      const auto adv = make_vector_adversary(vector_attack_config(kind), dim,
                                             rng.substream("a", 0));
      for (std::uint32_t r = 0; r < 8; ++r) {
        const RecipientClass declared = adv->recipient_class(AgentId{r});
        if (kind == AttackKind::SplitBrain) {
          EXPECT_EQ(declared, r % 2);
        } else if (kind == AttackKind::RandomNoise) {
          EXPECT_EQ(declared, kPerMessage);
        } else {
          EXPECT_EQ(declared, 0u);
        }
      }
    }
  }
}

TEST(VectorRecipientClass, DeclaredClassesKeepTheirPromise) {
  // The scalar promise test (adversary_test.cpp) for the liftings at d = 1
  // and d = 3: `a` is asked for every recipient, a twin from another RNG
  // substream only once per class at its first recipient, and the two
  // must agree bit for bit wherever the class is not kPerMessage.
  constexpr std::uint32_t kRecipients = 9;
  const Rng rng(11);
  for (std::size_t dim : {1u, 3u}) {
    for (AttackKind kind : kEveryAttack) {
      SCOPED_TRACE("dim " + std::to_string(dim) + " kind " +
                   std::to_string(static_cast<int>(kind)));
      const AttackConfig config = vector_attack_config(kind);
      const auto a = make_vector_adversary(
          config, dim, rng.substream("vector-adversary", 7));
      const auto twin = make_vector_adversary(
          config, dim, rng.substream("vector-adversary", 8));
      Rng draws(3);
      for (std::uint32_t t = 1; t <= 6; ++t) {
        std::vector<Received<VecPayload>> msgs;
        for (std::uint32_t j = 0; j < kRecipients; ++j) {
          VecPayload p{Vec(dim), Vec(dim)};
          for (std::size_t k = 0; k < dim; ++k) {
            p.state[k] = draws.uniform(-5.0, 5.0);
            p.gradient[k] = draws.uniform(-2.0, 2.0);
          }
          msgs.push_back({AgentId{j}, std::move(p)});
        }
        const RoundView<VecPayload> view{Round{t}, msgs};
        std::vector<std::optional<VecPayload>> seen;
        for (std::uint32_t j = 0; j < kRecipients; ++j)
          seen.push_back(a->send_to(AgentId{20}, AgentId{j}, view));
        std::vector<std::optional<VecPayload>> answer(kRecipients);
        for (std::uint32_t j = 0; j < kRecipients; ++j) {
          const RecipientClass cls = a->recipient_class(AgentId{j});
          if (cls == kPerMessage) continue;
          std::uint32_t first = 0;
          while (a->recipient_class(AgentId{first}) != cls) ++first;
          if (first == j)
            answer[j] = twin->send_to(AgentId{21}, AgentId{j}, view);
          EXPECT_TRUE(same_bits(seen[j], answer[first]))
              << "round " << t << " recipient " << j;
        }
      }
    }
  }
}

TEST(VectorSummaryPayload, MatchesSendToOverRandomViews) {
  // The vector twin of the scalar summary test (adversary_test.cpp) at
  // d = 1 and d = 3: `a` is asked through send_to for every recipient in
  // engine order. A twin from the same config answers summary_payload
  // with each coordinate's HonestSummary::of once per class at the
  // class's first recipient, as the batch engine asks. The payloads must
  // agree bit for bit. Views draw ties and signed zeros, one round is
  // empty, and the rounds straddle delayed-strike's activation.
  constexpr std::uint32_t kRecipients = 9;
  const Rng rng(13);
  const double pool[] = {0.0, -0.0, 1.0, -1.0};
  for (std::size_t dim : {1u, 3u}) {
    for (AttackKind kind : kEveryAttack) {
      if (kind == AttackKind::RandomNoise) continue;
      SCOPED_TRACE("dim " + std::to_string(dim) + " kind " +
                   std::to_string(static_cast<int>(kind)));
      const AttackConfig config = vector_attack_config(kind);
      const auto a = make_vector_adversary(
          config, dim, rng.substream("vector-adversary", 7));
      const auto twin = make_vector_adversary(
          config, dim, rng.substream("vector-adversary", 8));
      Rng draws(17);
      auto draw = [&](double range) {
        return draws.uniform(0.0, 1.0) < 0.5
                   ? pool[draws.uniform_int(0, 3)]
                   : draws.uniform(-range, range);
      };
      for (std::uint32_t t = 1; t <= 6; ++t) {
        std::vector<Received<VecPayload>> msgs;
        for (std::uint32_t j = 0; t != 2 && j < kRecipients; ++j) {
          VecPayload p{Vec(dim), Vec(dim)};
          for (std::size_t k = 0; k < dim; ++k) {
            p.state[k] = draw(5.0);
            p.gradient[k] = draw(2.0);
          }
          msgs.push_back({AgentId{j}, std::move(p)});
        }
        const RoundView<VecPayload> view{Round{t}, msgs};
        std::vector<HonestSummary> summaries;
        for (std::size_t k = 0; k < dim; ++k) {
          std::vector<Received<SbgPayload>> coordinate;
          for (const auto& msg : msgs)
            coordinate.push_back(
                {msg.from,
                 SbgPayload{msg.payload.state[k], msg.payload.gradient[k]}});
          summaries.push_back(HonestSummary::of({Round{t}, coordinate}));
        }
        std::vector<std::optional<VecPayload>> answer(kRecipients);
        for (std::uint32_t j = 0; j < kRecipients; ++j) {
          const std::optional<VecPayload> seen =
              a->send_to(AgentId{20}, AgentId{j}, view);
          const RecipientClass cls = a->recipient_class(AgentId{j});
          std::uint32_t first = 0;
          while (a->recipient_class(AgentId{first}) != cls) ++first;
          if (first == j)
            answer[j] = twin->summary_payload(summaries, Round{t}, AgentId{j});
          EXPECT_TRUE(same_bits(seen, answer[first]))
              << "round " << t << " recipient " << j;
        }
      }
    }
  }
}

TEST(VectorRecipientClass, ScalarEngineNeverAsks) {
  // run_vector_sbg is the reference the batch engine is checked against,
  // so it must stay class-blind: it asks for payloads per message only.
  class ClassSpy final : public VectorAdversary {
   public:
    std::optional<VecPayload> summary_payload(std::span<const HonestSummary>,
                                              Round, AgentId) override {
      return std::nullopt;
    }
    RecipientClass recipient_class(AgentId) const override {
      ++asked;
      return 0;
    }
    mutable int asked = 0;
  };
  const HarmonicStep schedule;
  ClassSpy spy;
  run_vector_sbg(cfg(7, 2, 2), separable_costs(), spread_initial(5), 2, &spy,
                 schedule, 20);
  EXPECT_EQ(spy.asked, 0);
}

TEST(VectorSbg, DimMismatchRejected) {
  const HarmonicStep schedule;
  VectorSbgConfig c = cfg(4, 1, 3);  // functions are 2-D
  EXPECT_THROW(VectorSbgAgent(AgentId{0}, separable_costs()[0], Vec{0, 0, 0},
                              schedule, c),
               ContractViolation);
}

TEST(VectorSbg, BoxConstraintKeepsStatesInside) {
  const HarmonicStep schedule;
  VectorSbgConfig c = cfg(7, 2, 2);
  c.constraint = {Interval(-1.0, 0.5), Interval(0.0, 2.0)};
  CoordinatewiseAdversary attack(
      std::make_unique<SplitBrainAdversary>(50.0, 5.0), /*negate_odd=*/true);
  const auto r = run_vector_sbg(c, separable_costs(), spread_initial(5), 2,
                                &attack, schedule, 3000);
  for (const Vec& x : r.final_states) {
    EXPECT_GE(x[0], -1.0 - 1e-12);
    EXPECT_LE(x[0], 0.5 + 1e-12);
    EXPECT_GE(x[1], 0.0 - 1e-12);
    EXPECT_LE(x[1], 2.0 + 1e-12);
  }
  EXPECT_LT(r.disagreement.back(), 0.05);
}

TEST(VectorSbg, ConstraintDimMismatchRejected) {
  const HarmonicStep schedule;
  VectorSbgConfig c = cfg(7, 2, 2);
  c.constraint = {Interval(-1.0, 1.0)};  // only one interval for dim 2
  EXPECT_THROW(VectorSbgAgent(AgentId{0}, separable_costs()[0], Vec{0.0, 0.0},
                              schedule, c),
               ContractViolation);
}

TEST(VectorSbg, InactiveBoxMatchesUnconstrained) {
  const HarmonicStep schedule;
  VectorSbgConfig unconstrained = cfg(7, 2, 2);
  VectorSbgConfig boxed = cfg(7, 2, 2);
  boxed.constraint = {Interval(-100.0, 100.0), Interval(-100.0, 100.0)};
  CoordinatewiseAdversary attack_a(
      std::make_unique<SplitBrainAdversary>(50.0, 5.0), /*negate_odd=*/true);
  CoordinatewiseAdversary attack_b(
      std::make_unique<SplitBrainAdversary>(50.0, 5.0), /*negate_odd=*/true);
  const auto a = run_vector_sbg(unconstrained, separable_costs(),
                                spread_initial(5), 2, &attack_a, schedule, 500);
  const auto b = run_vector_sbg(boxed, separable_costs(), spread_initial(5), 2,
                                &attack_b, schedule, 500);
  ASSERT_EQ(a.final_states.size(), b.final_states.size());
  for (std::size_t i = 0; i < a.final_states.size(); ++i)
    EXPECT_EQ(a.final_states[i], b.final_states[i]);
}

// ------------------------------------------------- vector valid set Y_k

std::vector<VectorFunctionPtr> radial_triangle() {
  // Three radial hubers at the corners of a triangle + two repeats to get
  // m = 5 > 2f with f = 1. Coupled (rotation-invariant) costs.
  return {
      std::make_shared<RadialHuber>(Vec{0.0, 0.0}, 3.0, 1.0),
      std::make_shared<RadialHuber>(Vec{8.0, 0.0}, 3.0, 1.0),
      std::make_shared<RadialHuber>(Vec{4.0, 7.0}, 3.0, 1.0),
      std::make_shared<RadialHuber>(Vec{0.5, 0.5}, 3.0, 1.0),
      std::make_shared<RadialHuber>(Vec{7.5, 0.5}, 3.0, 1.0),
  };
}

TEST(VectorValid, UniformAverageOptimumIsValid) {
  const auto fns = radial_triangle();
  std::vector<VectorWeightedSum::Term> terms;
  for (const auto& fn : fns) terms.push_back({0.2, fn});
  const Vec opt = VectorWeightedSum(std::move(terms)).a_minimizer();
  EXPECT_TRUE(is_valid_vector_optimum(opt, fns, 1, 1e-3));
}

TEST(VectorValid, FarawayPointIsNotValid) {
  const auto fns = radial_triangle();
  EXPECT_FALSE(is_valid_vector_optimum(Vec{100.0, 100.0}, fns, 1, 1e-3));
}

TEST(VectorValid, RandomValidOptimaAreMembers) {
  const auto fns = radial_triangle();
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    const Vec x = random_valid_optimum(fns, 1, rng);
    EXPECT_TRUE(is_valid_vector_optimum(x, fns, 1, 1e-3)) << "sample " << i;
  }
}

TEST(VectorValid, SeparableFamilyMidpointsStayValid) {
  // For separable costs the valid set is (coordinate-wise) convex-ish: the
  // counterexample search should come up empty.
  const std::vector<VectorFunctionPtr> fns{
      std::make_shared<SeparableHuber>(Vec{0.0, 0.0}, 3.0, 1.0),
      std::make_shared<SeparableHuber>(Vec{1.0, 1.0}, 3.0, 1.0),
      std::make_shared<SeparableHuber>(Vec{2.0, -1.0}, 3.0, 1.0),
  };
  Rng rng(5);
  EXPECT_FALSE(find_nonconvexity(fns, 0, rng, 40).has_value());
}

TEST(VectorValid, CoupledFamilyExhibitsNonconvexity) {
  // The paper's obstruction: for coupled (radial) costs the valid-optima
  // set is NOT convex — two valid optima whose midpoint is not valid.
  const auto fns = radial_triangle();
  Rng rng(11);
  const auto counterexample = find_nonconvexity(fns, 1, rng, 120);
  ASSERT_TRUE(counterexample.has_value());
  EXPECT_TRUE(is_valid_vector_optimum(counterexample->a, fns, 1, 1e-3));
  EXPECT_TRUE(is_valid_vector_optimum(counterexample->b, fns, 1, 1e-3));
  EXPECT_FALSE(is_valid_vector_optimum(counterexample->midpoint, fns, 1, 1e-5));
}

}  // namespace
}  // namespace ftmao
