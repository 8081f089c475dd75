// Bit-identity tests for the batched vector engine (sim/batch_vector
// _runner): run_vector_sbg_batch must produce exactly the VectorRunResult
// run_vector_scenario produces per replica — every series entry, final
// state coordinate, and the failure-free optimum — compared bitwise, for
// whichever SIMD backend the FTMAO_ISA matrix selects. Also pins the
// dim == 1 collapse onto the scalar batched engine via ScalarAsVector.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "func/functions.hpp"
#include "sim/batch_runner.hpp"
#include "sim/batch_vector_runner.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "sim/scenario_io.hpp"
#include "sim/sweep.hpp"
#include "sim/vector_scenario.hpp"
#include "trim/trim_batch.hpp"
#include "vector/vector_function.hpp"

namespace ftmao {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_series_bits(const Series& a, const Series& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(bits(a[i]), bits(b[i]))
        << what << " diverges at index " << i << ": " << a[i] << " vs "
        << b[i];
}

void expect_vec_bits(const Vec& a, const Vec& b, const char* what) {
  ASSERT_EQ(a.dim(), b.dim()) << what;
  for (std::size_t k = 0; k < a.dim(); ++k)
    ASSERT_EQ(bits(a[k]), bits(b[k]))
        << what << " diverges at coordinate " << k << ": " << a[k] << " vs "
        << b[k];
}

void expect_result_identical(const VectorRunResult& scalar,
                             const VectorRunResult& batched) {
  expect_series_bits(scalar.disagreement, batched.disagreement,
                     "disagreement");
  expect_series_bits(scalar.dist_to_average_optimum,
                     batched.dist_to_average_optimum,
                     "dist_to_average_optimum");
  expect_vec_bits(scalar.failure_free_optimum, batched.failure_free_optimum,
                  "failure_free_optimum");
  ASSERT_EQ(scalar.final_states.size(), batched.final_states.size());
  for (std::size_t j = 0; j < scalar.final_states.size(); ++j)
    expect_vec_bits(scalar.final_states[j], batched.final_states[j],
                    "final_states");
}

void expect_batch_matches_scalar(const std::vector<VectorScenario>& replicas) {
  const std::vector<VectorRunResult> batched = run_vector_sbg_batch(replicas);
  ASSERT_EQ(batched.size(), replicas.size());
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    SCOPED_TRACE("replica " + std::to_string(i));
    expect_result_identical(run_vector_scenario(replicas[i]), batched[i]);
  }
}

std::vector<VectorScenario> seed_axis(std::size_t n, std::size_t f,
                                      std::size_t dim, AttackKind kind,
                                      std::size_t rounds, std::size_t seeds) {
  std::vector<VectorScenario> replicas;
  for (std::size_t s = 0; s < seeds; ++s)
    replicas.push_back(make_standard_vector_scenario(n, f, 8.0, kind, rounds,
                                                     1 + s, dim));
  return replicas;
}

TEST(BatchVectorRunner, EveryAttackKindMatchesScalar) {
  // Covers the shared-trims fast path (recipient-independent strategies),
  // the per-recipient slow path (SplitBrain), per-replica RNG streams
  // (RandomNoise), and the round-dependent strategies.
  for (AttackKind kind :
       {AttackKind::None, AttackKind::Silent, AttackKind::FixedValue,
        AttackKind::SplitBrain, AttackKind::HullEdgeUp,
        AttackKind::HullEdgeDown, AttackKind::RandomNoise,
        AttackKind::SignFlip, AttackKind::PullToTarget, AttackKind::FlipFlop,
        AttackKind::DelayedStrike}) {
    SCOPED_TRACE(static_cast<int>(kind));
    expect_batch_matches_scalar(seed_axis(7, 2, 2, kind, 40, 3));
  }
}

TEST(BatchVectorRunner, LaneBoundaryDimsMatchScalar) {
  // d = 7 / 8 / 9 straddle the widest register width; d = 1 with B = 1 is
  // the minimal single-lane batch. SplitBrain keeps the per-recipient
  // (non-uniform) path exercised at every width.
  for (std::size_t dim : {1u, 2u, 7u, 8u, 9u}) {
    for (std::size_t seeds : {1u, 3u}) {
      SCOPED_TRACE("dim=" + std::to_string(dim) +
                   " seeds=" + std::to_string(seeds));
      expect_batch_matches_scalar(
          seed_axis(7, 2, dim, AttackKind::SplitBrain, 30, seeds));
      expect_batch_matches_scalar(
          seed_axis(7, 2, dim, AttackKind::SignFlip, 30, seeds));
    }
  }
}

TEST(BatchVectorRunner, ConstraintDefaultsAndPartialByzMatchScalar) {
  auto replicas = seed_axis(7, 2, 3, AttackKind::Silent, 40, 3);
  for (VectorScenario& s : replicas) {
    s.constraint = {Interval{-3.0, 3.0}, Interval{-1.5, 2.5},
                    Interval{0.0, 4.0}};
    s.default_payload = VecPayload{Vec{1.5, -0.5, 2.0}, Vec{-0.25, 0.5, 0.0}};
    // Fewer actual faults than the f budget: one Byzantine slot becomes a
    // sixth honest agent.
    s.byzantine_count = 1;
    s.honest_costs.push_back(
        std::make_shared<SeparableHuber>(Vec{1.0, -1.0, 0.5}, 1.0, 1.0));
    s.honest_initial.push_back(Vec{1.0, -1.0, 0.5});
  }
  expect_batch_matches_scalar(replicas);
}

TEST(BatchVectorRunner, HeterogeneousReplicasMatchScalar) {
  // Same shape (n, f, dim, rounds, byzantine_count), everything else
  // different per replica: attack, step schedule, seed, constraint,
  // default payload. Forces the non-uniform payload path in mixed rounds.
  auto replicas = seed_axis(7, 2, 4, AttackKind::None, 30, 4);
  replicas[1].attack.kind = AttackKind::PullToTarget;
  replicas[1].attack.target = -11.0;
  replicas[1].step.kind = StepKind::Power;
  replicas[2].attack.kind = AttackKind::RandomNoise;
  replicas[2].default_payload =
      VecPayload{Vec{1.5, -0.5, 0.25, -0.125}, Vec{0.5, -0.5, 0.5, -0.5}};
  replicas[3].attack.kind = AttackKind::SplitBrain;
  replicas[3].constraint = {Interval{-6.0, 6.0}, Interval{-6.0, 6.0},
                            Interval{-6.0, 6.0}, Interval{-6.0, 6.0}};
  replicas[3].seed = 99;
  expect_batch_matches_scalar(replicas);
}

TEST(BatchVectorRunner, MixedSplitBrainSignFlipClassesMatchScalar) {
  // Cross-attack pack: split-brain (per-recipient-half payloads, two view
  // classes) mixed with sign-flip and pull in one lane-packed batch must
  // stay bit-identical to the scalar engine.
  auto replicas = seed_axis(7, 2, 3, AttackKind::SplitBrain, 40, 4);
  replicas[1].attack.kind = AttackKind::SignFlip;
  replicas[1].attack.amplification = 4.0;
  replicas[2].attack.kind = AttackKind::PullToTarget;
  replicas[2].attack.target = 20.0;
  replicas[2].attack.gradient_magnitude = 10.0;
  replicas[3].seed = 77;
  expect_batch_matches_scalar(replicas);
}

TEST(BatchVectorRunner, PerMessageBesideDeclaredClassesMatchesScalar) {
  // Noise is asked per message (every recipient its own class); pull and
  // split-brain in the same pack ask once per declared class and copy the
  // answer to every sender row and every recipient of the class.
  for (std::size_t dim : {1u, 3u}) {
    SCOPED_TRACE("dim=" + std::to_string(dim));
    auto replicas = seed_axis(10, 3, dim, AttackKind::RandomNoise, 40, 3);
    replicas[1].attack.kind = AttackKind::PullToTarget;
    replicas[1].attack.target = 20.0;
    replicas[2].attack.kind = AttackKind::SplitBrain;
    expect_batch_matches_scalar(replicas);
  }
}

// Random packs through the shared round (sim/batch_round.hpp): each
// fixed seed draws one shape (n, f, Byzantine senders, d, rounds) and
// 1-17 replicas, each with its own attack (any of the 11), delayed-strike
// activation, per-coordinate constraint and default payload. A mismatch
// names the pack.
TEST(BatchVectorRunner, RandomPacksMatchScalar) {
  constexpr AttackKind kKinds[] = {
      AttackKind::None,         AttackKind::Silent,
      AttackKind::FixedValue,   AttackKind::SplitBrain,
      AttackKind::HullEdgeUp,   AttackKind::HullEdgeDown,
      AttackKind::RandomNoise,  AttackKind::SignFlip,
      AttackKind::PullToTarget, AttackKind::FlipFlop,
      AttackKind::DelayedStrike};
  constexpr std::size_t kSizes[] = {4, 5, 7, 13, 31, 32, 33, 64};
  constexpr std::size_t kDims[] = {1, 2, 3, 8};
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    const auto pick = [&rng](std::size_t count) {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(count) - 1));
    };
    const auto random_vec = [&rng](std::size_t dim, double range) {
      Vec v(dim);
      for (std::size_t k = 0; k < dim; ++k) v[k] = rng.uniform(-range, range);
      return v;
    };
    const std::size_t n = kSizes[pick(std::size(kSizes))];
    const std::size_t f = 1 + pick((n - 1) / 3);
    const std::size_t byzantine = pick(f + 1);
    const std::size_t dim = kDims[pick(std::size(kDims))];
    const std::size_t rounds = 20 + pick(41);

    std::string pack = "seed=" + std::to_string(seed) +
                       " n=" + std::to_string(n) + " f=" + std::to_string(f) +
                       " byzantine=" + std::to_string(byzantine) +
                       " d=" + std::to_string(dim) + " attacks:";
    std::vector<VectorScenario> replicas;
    for (std::size_t r = 1 + pick(17); r > 0; --r) {
      const AttackKind kind = kKinds[pick(std::size(kKinds))];
      VectorScenario s = make_standard_vector_scenario(
          n, f, rng.uniform(2.0, 12.0), kind, rounds, 1 + pick(1000), dim);
      // The f - byzantine unused Byzantine slots become honest agents.
      s.byzantine_count = byzantine;
      for (std::size_t i = byzantine; i < f; ++i) {
        s.honest_costs.push_back(std::make_shared<SeparableHuber>(
            random_vec(dim, 4.0), rng.uniform(0.5, 2.0), 1.0));
        s.honest_initial.push_back(random_vec(dim, 4.0));
      }
      s.attack.activation_round = 1 + pick(rounds);
      s.attack.target = rng.uniform(-20.0, 20.0);
      if (rng.bernoulli(0.3)) {
        for (std::size_t k = 0; k < dim; ++k) {
          const double lo = rng.uniform(-6.0, 0.0);
          s.constraint.push_back(Interval{lo, lo + rng.uniform(0.5, 8.0)});
        }
      }
      if (rng.bernoulli(0.5))
        s.default_payload =
            VecPayload{random_vec(dim, 3.0), random_vec(dim, 3.0)};
      pack += " " + attack_kind_name(kind);
      replicas.push_back(std::move(s));
    }
    SCOPED_TRACE(pack);
    expect_batch_matches_scalar(replicas);
  }
}

TEST(BatchVectorRunner, DelayedStrikeMidRunBesideSplitBrainMatchesScalar) {
  auto replicas = seed_axis(7, 2, 3, AttackKind::DelayedStrike, 40, 3);
  replicas[0].attack.activation_round = 15;
  replicas[1].attack.kind = AttackKind::SplitBrain;
  replicas[2].attack.activation_round = 30;
  replicas[2].attack.target = 12.0;
  expect_batch_matches_scalar(replicas);
}

TEST(BatchVectorRunner, NoByzantineAgentsTrimTheHonestRowsAlone) {
  // F = 0: the selected honest ranks f and H-1-f give the trim pair.
  auto replicas = seed_axis(7, 2, 2, AttackKind::SignFlip, 30, 3);
  for (VectorScenario& s : replicas) {
    s.byzantine_count = 0;
    for (double c : {1.0, -2.0}) {
      s.honest_costs.push_back(
          std::make_shared<SeparableHuber>(Vec{c, -c}, 1.0, 1.0));
      s.honest_initial.push_back(Vec{c, 0.5 * c});
    }
  }
  expect_batch_matches_scalar(replicas);
}

TEST(BatchVectorRunner, NetworkLimitBoundaryMatchesScalar) {
  // n = 32 and 33, either side of a power of two (the networks are
  // generated for the next one and pruned), and n = 64, the last n they
  // cover: the d = 2 lanes mix two declared classes (split-brain) with
  // one and with a per-message noise replica, whose F rows per recipient
  // are sorted and merged. n = 65 is refused (the grid drivers run it on
  // run_vector_scenario).
  for (std::size_t n :
       {std::size_t{32}, std::size_t{33}, kMaxSortingNetworkN}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    auto replicas =
        seed_axis(n, (n - 1) / 3, 2, AttackKind::SplitBrain, 20, 4);
    replicas[1].attack.kind = AttackKind::SignFlip;
    replicas[2].attack.kind = AttackKind::HullEdgeDown;
    replicas[3].attack.kind = AttackKind::RandomNoise;
    expect_batch_matches_scalar(replicas);
  }
  EXPECT_THROW(run_vector_sbg_batch(seed_axis(kMaxSortingNetworkN + 1, 21, 2,
                                              AttackKind::SignFlip, 5, 2)),
               ContractViolation);
}

TEST(BatchVectorRunner, SpecialValuesMatchScalar) {
  // Signed zeros, denormals, and huge coordinates flow through the trim
  // networks and fused step with the same bits on every backend.
  std::vector<VectorScenario> replicas;
  for (std::uint64_t seed : {1u, 2u}) {
    VectorScenario s;
    s.n = 7;
    s.f = 2;
    s.dim = 3;
    s.byzantine_count = 2;
    s.attack.kind = AttackKind::FixedValue;
    s.attack.state_magnitude = 1e300;
    s.attack.gradient_magnitude = 5e-324;  // denormal payload gradient
    s.rounds = 25;
    s.seed = seed;
    s.default_payload = VecPayload{Vec{-0.0, 0.0, -0.0}, Vec{0.0, -0.0, 0.0}};
    const double denormal = std::numeric_limits<double>::denorm_min();
    const std::vector<Vec> centers = {Vec{-0.0, 1.0, -1.0},
                                      Vec{denormal, -denormal, 0.0},
                                      Vec{4.0, -4.0, 1e8},
                                      Vec{-2.0, 2.0, -1e8},
                                      Vec{0.5, -0.5, 0.25}};
    for (const Vec& c : centers) {
      s.honest_costs.push_back(std::make_shared<SeparableHuber>(c, 0.5, 1.0));
      s.honest_initial.push_back(c);
    }
    replicas.push_back(std::move(s));
  }
  expect_batch_matches_scalar(replicas);
}

TEST(BatchVectorRunner, DimOneCollapsesOntoScalarBatchEngine) {
  // The same population expressed as dim-1 vector scenarios (scalar costs
  // wrapped in ScalarAsVector) and as scalar Scenarios must land on
  // bitwise-identical final states through their respective batched
  // engines. Every attack but noise, whose payloads depend on the
  // adversary RNG stream and per-sender instancing (the two engines seed
  // their adversaries differently); delayed-strike wakes mid-run.
  constexpr std::size_t kN = 7, kF = 2, kRounds = 50;
  for (AttackKind kind :
       {AttackKind::None, AttackKind::Silent, AttackKind::FixedValue,
        AttackKind::SplitBrain, AttackKind::HullEdgeUp,
        AttackKind::HullEdgeDown, AttackKind::SignFlip,
        AttackKind::PullToTarget, AttackKind::FlipFlop,
        AttackKind::DelayedStrike}) {
    SCOPED_TRACE(static_cast<int>(kind));
    std::vector<Scenario> scalar_replicas;
    std::vector<VectorScenario> vector_replicas;
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      Scenario s;
      s.n = kN;
      s.f = kF;
      for (std::size_t b = 0; b < kF; ++b) s.faulty.push_back(kN - 1 - b);
      VectorScenario v;
      v.n = kN;
      v.f = kF;
      v.dim = 1;
      v.byzantine_count = kF;
      for (std::size_t i = 0; i < kN; ++i) {
        const double center =
            -4.0 + 8.0 * static_cast<double>(i) / static_cast<double>(kN - 1);
        auto cost = std::make_shared<Huber>(center, 2.0, 1.0);
        s.functions.push_back(cost);
        s.initial_states.push_back(center);
        if (i < kN - kF) {
          v.honest_costs.push_back(std::make_shared<ScalarAsVector>(cost));
          v.honest_initial.push_back(Vec(1, center));
        }
      }
      s.attack.kind = kind;
      s.attack.activation_round = kRounds / 2;
      s.rounds = kRounds;
      s.seed = seed;
      v.attack = s.attack;
      v.rounds = kRounds;
      v.seed = seed;
      scalar_replicas.push_back(std::move(s));
      vector_replicas.push_back(std::move(v));
    }
    const std::vector<RunMetrics> scalar = run_sbg_batch(scalar_replicas);
    const std::vector<VectorRunResult> vector =
        run_vector_sbg_batch(vector_replicas);
    ASSERT_EQ(scalar.size(), vector.size());
    for (std::size_t r = 0; r < scalar.size(); ++r) {
      SCOPED_TRACE("replica " + std::to_string(r));
      ASSERT_EQ(scalar[r].final_states.size(), vector[r].final_states.size());
      for (std::size_t j = 0; j < scalar[r].final_states.size(); ++j) {
        ASSERT_EQ(vector[r].final_states[j].dim(), 1u);
        ASSERT_EQ(bits(scalar[r].final_states[j]),
                  bits(vector[r].final_states[j][0]))
            << "agent " << j;
      }
    }
  }
}

// A finals-only result keeps one entry per series, the full run's last,
// and the full run's optimum and final states, bit for bit.
void expect_finals_of(const VectorRunResult& full,
                      const VectorRunResult& lean) {
  ASSERT_EQ(lean.disagreement.size(), 1u);
  ASSERT_EQ(lean.dist_to_average_optimum.size(), 1u);
  EXPECT_EQ(bits(lean.disagreement.back()), bits(full.disagreement.back()));
  EXPECT_EQ(bits(lean.dist_to_average_optimum.back()),
            bits(full.dist_to_average_optimum.back()));
  expect_vec_bits(full.failure_free_optimum, lean.failure_free_optimum,
                  "failure_free_optimum");
  ASSERT_EQ(lean.final_states.size(), full.final_states.size());
  for (std::size_t j = 0; j < full.final_states.size(); ++j)
    expect_vec_bits(full.final_states[j], lean.final_states[j],
                    "final_states");
}

TEST(BatchVectorRunner, FinalsOnlyKeepTheFullRunsLastEntries) {
  // record_series = false, what the sweep and certify ask for, in both
  // engines. Every attack rides one mixed pack, which noise makes
  // per-message; the ten class-declaring attacks also ride one that
  // trims by selection. n = 10 keeps the optimum off the centroid.
  RunOptions finals_only;
  finals_only.record_series = false;
  for (std::size_t dim : {1u, 2u, 3u}) {
    for (bool with_noise : {true, false}) {
      SCOPED_TRACE("dim=" + std::to_string(dim) +
                   " noise=" + std::to_string(with_noise));
      std::vector<VectorScenario> pack;
      for (AttackKind kind :
           {AttackKind::None, AttackKind::Silent, AttackKind::FixedValue,
            AttackKind::SplitBrain, AttackKind::HullEdgeUp,
            AttackKind::HullEdgeDown, AttackKind::RandomNoise,
            AttackKind::SignFlip, AttackKind::PullToTarget,
            AttackKind::FlipFlop, AttackKind::DelayedStrike}) {
        if (kind == AttackKind::RandomNoise && !with_noise) continue;
        VectorScenario s = make_standard_vector_scenario(
            10, 3, 8.0, kind, 40, pack.size() + 1, dim);
        s.attack.activation_round = 21;
        pack.push_back(std::move(s));
      }
      const std::vector<VectorRunResult> full = run_vector_sbg_batch(pack);
      const std::vector<VectorRunResult> lean =
          run_vector_sbg_batch(pack, finals_only);
      ASSERT_EQ(lean.size(), pack.size());
      for (std::size_t i = 0; i < pack.size(); ++i) {
        SCOPED_TRACE("replica " + std::to_string(i));
        ASSERT_EQ(full[i].disagreement.size(), 41u);
        expect_finals_of(full[i], lean[i]);
        const VectorRunResult reference =
            run_vector_scenario(pack[i], finals_only);
        expect_finals_of(run_vector_scenario(pack[i]), reference);
        expect_result_identical(reference, lean[i]);
      }
    }
  }
}

TEST(BatchVectorRunner, MismatchedShapeThrows) {
  std::vector<VectorScenario> replicas =
      seed_axis(7, 2, 2, AttackKind::None, 10, 1);
  replicas.push_back(
      make_standard_vector_scenario(7, 2, 8.0, AttackKind::None, 10, 2, 3));
  EXPECT_THROW(run_vector_sbg_batch(replicas), ContractViolation);
}

TEST(BatchVectorRunner, EmptyBatchReturnsEmpty) {
  EXPECT_TRUE(run_vector_sbg_batch({}).empty());
}

TEST(SweepVector, DimAxisEnumeratesDimsMiddle) {
  SweepConfig config;
  config.sizes = {{7, 2}, {10, 3}};
  config.dims = {1, 4};
  config.attacks = {AttackKind::Silent, AttackKind::SignFlip};
  config.seeds = {1};
  const auto specs = sweep_cell_specs(config);
  ASSERT_EQ(specs.size(), 8u);
  // sizes-major, dims-middle, attacks-minor.
  EXPECT_EQ(specs[0], (CellSpec{7, 2, 1, AttackKind::Silent}));
  EXPECT_EQ(specs[1], (CellSpec{7, 2, 1, AttackKind::SignFlip}));
  EXPECT_EQ(specs[2], (CellSpec{7, 2, 4, AttackKind::Silent}));
  EXPECT_EQ(specs[3], (CellSpec{7, 2, 4, AttackKind::SignFlip}));
  EXPECT_EQ(specs[4], (CellSpec{10, 3, 1, AttackKind::Silent}));
}

TEST(SweepVector, CsvIdenticalAcrossEnginesAndBatchSizes) {
  // The --dim grid axis routes d >= 2 cells through the vector engines;
  // the CSV must be bit-identical between the scalar reference path and
  // the batched path at every batch size, with dim = 1 rows untouched.
  SweepConfig config;
  config.sizes = {{7, 2}};
  config.dims = {1, 2, 8};
  config.attacks = {AttackKind::SplitBrain, AttackKind::SignFlip};
  config.seeds = {1, 2, 3};
  config.rounds = 60;

  config.scalar_engine = true;
  const std::string reference = sweep_to_csv(run_sweep(config));
  config.scalar_engine = false;
  for (std::size_t batch_size : {0u, 1u, 2u}) {
    config.batch_size = batch_size;
    EXPECT_EQ(reference, sweep_to_csv(run_sweep(config)))
        << "batch_size=" << batch_size;
  }
}

TEST(SweepVector, AsyncEngineRejectsVectorDims) {
  SweepConfig config;
  config.sizes = {{11, 2}};
  config.dims = {2};
  config.attacks = {AttackKind::Silent};
  config.seeds = {1};
  config.async_engine = true;
  EXPECT_THROW(config.validate(), ContractViolation);
}

}  // namespace
}  // namespace ftmao
