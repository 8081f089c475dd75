// Bit-identity tests for the batched replica engine (sim/batch_runner):
// run_sbg_batch must produce exactly the RunMetrics run_sbg produces per
// scenario — every series entry, final state, witness counter, and trace
// snapshot, compared bitwise. Exercised across attacks (including
// randomized and consistent-broadcast ones), crashes, link drops,
// constraints, and audit options, plus end-to-end through the sweep /
// attack-search / certify drivers at several batch sizes.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "func/functions.hpp"
#include "sim/attack_search.hpp"
#include "sim/batch_runner.hpp"
#include "sim/certify.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "sim/scenario_io.hpp"
#include "sim/sweep.hpp"
#include "trim/trim_batch.hpp"

namespace ftmao {
namespace {

void expect_series_identical(const Series& a, const Series& b,
                             const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Bitwise equality — the engine's determinism contract.
    ASSERT_EQ(a[i], b[i]) << what << " diverges at index " << i;
  }
}

void expect_witness_identical(const WitnessStats& a, const WitnessStats& b) {
  EXPECT_EQ(a.checks, b.checks);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.inexact, b.inexact);
  EXPECT_EQ(a.min_weight_seen, b.min_weight_seen);
  EXPECT_EQ(a.min_support_seen, b.min_support_seen);
}

void expect_metrics_identical(const RunMetrics& scalar,
                              const RunMetrics& batched) {
  expect_series_identical(scalar.disagreement, batched.disagreement,
                          "disagreement");
  expect_series_identical(scalar.max_dist_to_y, batched.max_dist_to_y,
                          "max_dist_to_y");
  expect_series_identical(scalar.max_projection_error,
                          batched.max_projection_error,
                          "max_projection_error");
  EXPECT_EQ(scalar.final_states, batched.final_states);
  EXPECT_EQ(scalar.optima, batched.optima);
  expect_witness_identical(scalar.state_witness, batched.state_witness);
  expect_witness_identical(scalar.gradient_witness, batched.gradient_witness);
  ASSERT_EQ(scalar.trace.has_value(), batched.trace.has_value());
  if (scalar.trace) {
    EXPECT_EQ(scalar.trace->honest_ids, batched.trace->honest_ids);
    ASSERT_EQ(scalar.trace->rounds.size(), batched.trace->rounds.size());
    for (std::size_t t = 0; t < scalar.trace->rounds.size(); ++t)
      ASSERT_EQ(scalar.trace->rounds[t], batched.trace->rounds[t])
          << "trace diverges at round " << t;
  }
}

void expect_batch_matches_scalar(const std::vector<Scenario>& replicas,
                                 const RunOptions& options = {}) {
  const std::vector<RunMetrics> batched = run_sbg_batch(replicas, options);
  ASSERT_EQ(batched.size(), replicas.size());
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    SCOPED_TRACE("replica " + std::to_string(i));
    expect_metrics_identical(run_sbg(replicas[i], options), batched[i]);
  }
}

std::vector<Scenario> seed_axis(std::size_t n, std::size_t f, AttackKind kind,
                                std::size_t rounds, std::size_t seeds) {
  std::vector<Scenario> replicas;
  for (std::size_t s = 0; s < seeds; ++s)
    replicas.push_back(
        make_standard_scenario(n, f, 8.0, kind, rounds, 1 + s));
  return replicas;
}

TEST(BatchRunner, EveryAttackKindMatchesScalar) {
  // Covers the uniform fast path (recipient-independent strategies), the
  // per-recipient slow path (SplitBrain), and randomized per-recipient RNG
  // streams (RandomNoise).
  for (AttackKind kind :
       {AttackKind::None, AttackKind::Silent, AttackKind::FixedValue,
        AttackKind::SplitBrain, AttackKind::HullEdgeUp,
        AttackKind::HullEdgeDown, AttackKind::RandomNoise,
        AttackKind::SignFlip, AttackKind::PullToTarget, AttackKind::FlipFlop,
        AttackKind::DelayedStrike}) {
    SCOPED_TRACE(static_cast<int>(kind));
    expect_batch_matches_scalar(seed_axis(7, 2, kind, 60, 3));
  }
}

TEST(BatchRunner, SingleReplicaBatchMatchesScalar) {
  expect_batch_matches_scalar(seed_axis(10, 3, AttackKind::SignFlip, 50, 1));
}

TEST(BatchRunner, ConsistentBroadcastWrapperMatchesScalar) {
  auto replicas = seed_axis(7, 2, AttackKind::SplitBrain, 50, 3);
  for (Scenario& s : replicas) s.attack.consistent = true;
  expect_batch_matches_scalar(replicas);
}

TEST(BatchRunner, LinkDropsMatchScalar) {
  auto replicas = seed_axis(7, 2, AttackKind::PullToTarget, 60, 3);
  for (std::size_t i = 0; i < replicas.size(); ++i)
    replicas[i].drop_probability = 0.1 + 0.1 * static_cast<double>(i);
  expect_batch_matches_scalar(replicas);
}

TEST(BatchRunner, CrashesMatchScalar) {
  auto replicas = seed_axis(8, 2, AttackKind::SignFlip, 60, 3);
  for (Scenario& s : replicas) {
    s.faulty = {7};  // one Byzantine + one crash, within the f = 2 budget
    s.crashes = {{0, 20}};
  }
  expect_batch_matches_scalar(replicas);
}

TEST(BatchRunner, ConstraintAndProjectionErrorsMatchScalar) {
  auto replicas = seed_axis(7, 2, AttackKind::HullEdgeUp, 60, 3);
  for (Scenario& s : replicas) s.constraint = Interval{-1.0, 1.0};
  expect_batch_matches_scalar(replicas);
}

TEST(BatchRunner, AuditAndTraceMatchScalar) {
  RunOptions options;
  options.audit_witnesses = true;
  options.audit_every = 3;
  options.audit_max_rounds = 30;
  options.record_trace = true;
  expect_batch_matches_scalar(seed_axis(7, 2, AttackKind::SplitBrain, 40, 2),
                              options);
  expect_batch_matches_scalar(seed_axis(7, 2, AttackKind::SignFlip, 40, 2),
                              options);
}

TEST(BatchRunner, HeterogeneousReplicasMatchScalar) {
  // Same shape, everything else different: attack, step schedule, drops,
  // constraint, default payload.
  std::vector<Scenario> replicas = seed_axis(7, 2, AttackKind::None, 50, 4);
  replicas[1].attack.kind = AttackKind::PullToTarget;
  replicas[1].attack.target = -11.0;
  replicas[1].step.kind = StepKind::Power;
  replicas[2].attack.kind = AttackKind::RandomNoise;
  replicas[2].drop_probability = 0.2;
  replicas[2].default_payload = SbgPayload{1.5, -0.5};
  replicas[3].constraint = Interval{-2.0, 2.0};
  replicas[3].seed = 99;
  // A shared fault/crash schedule keeps the shape identical across
  // replicas; the crash counts against f, so one Byzantine agent remains.
  for (Scenario& s : replicas) {
    s.faulty = {6};
    s.crashes = {{1, 25}};
  }
  expect_batch_matches_scalar(replicas);
}

TEST(BatchRunner, MixedSplitBrainSignFlipClassesMatchScalar) {
  // Split-brain payloads differ per recipient half (two view classes);
  // sign-flip and pull are recipient-uniform. A batch mixing them must
  // resolve trims through exactly the two shared classes per round and
  // stay bit-identical to the scalar engine — the cross-attack pack the
  // megabatch scheduler produces.
  std::vector<Scenario> replicas =
      seed_axis(7, 2, AttackKind::SplitBrain, 60, 3);
  replicas[1].attack.kind = AttackKind::SignFlip;
  replicas[1].attack.amplification = 5.0;
  replicas[2].attack.kind = AttackKind::PullToTarget;
  replicas[2].attack.target = 20.0;
  replicas[2].attack.gradient_magnitude = 10.0;
  expect_batch_matches_scalar(replicas);
}

// The declared-class payload plane: a class-declaring replica is asked
// once per (replica, class) and its answer fills the class's payload
// rows, while a per-message replica keeps the scalar call order. The
// packs below mix the two kinds of replica in one engine call.

TEST(BatchRunner, PerMessageBesideDeclaredClassesMatchesScalar) {
  // Noise is asked per message, so every recipient becomes its own class;
  // pull (one class), split-brain (two) and consistent split-brain (one)
  // still ask once per declared class and copy the answer across.
  std::vector<Scenario> replicas =
      seed_axis(10, 3, AttackKind::RandomNoise, 60, 4);
  replicas[1].attack.kind = AttackKind::PullToTarget;
  replicas[1].attack.target = 20.0;
  replicas[2].attack.kind = AttackKind::SplitBrain;
  replicas[3].attack.kind = AttackKind::SplitBrain;
  replicas[3].attack.consistent = true;
  expect_batch_matches_scalar(replicas);
}

TEST(BatchRunner, ConsistentNoiseBesideConsistentPullMatchesScalar) {
  // A wrapped noise strategy replays one answer per round to everyone, but
  // that answer comes from each sender's own RNG stream: it stays
  // per-message, beside a wrapped pull that declares one class.
  std::vector<Scenario> replicas =
      seed_axis(7, 2, AttackKind::RandomNoise, 60, 3);
  replicas[1].attack.kind = AttackKind::PullToTarget;
  replicas[1].attack.target = -15.0;
  for (Scenario& s : replicas) s.attack.consistent = true;
  expect_batch_matches_scalar(replicas);
}

TEST(BatchRunner, DelayedStrikeMidRunBesideSplitBrainMatchesScalar) {
  // Delayed-strike declares its late strategy's class for the whole run;
  // its dormant payload is the same for every recipient, so the two split-
  // brain parity classes hold before and after activation.
  std::vector<Scenario> replicas =
      seed_axis(7, 2, AttackKind::DelayedStrike, 60, 3);
  replicas[0].attack.activation_round = 25;
  replicas[1].attack.kind = AttackKind::SplitBrain;
  replicas[2].attack.activation_round = 40;
  replicas[2].attack.target = 12.0;
  expect_batch_matches_scalar(replicas);
}

TEST(BatchRunner, DropsAndCrashWithDeclaredClassesMatchScalar) {
  // A delivery filter makes every recipient's honest rows its own, so
  // trims run per recipient while the Byzantine rows still come from one
  // call per (replica, class). Audits read the per-recipient trims.
  RunOptions options;
  options.audit_witnesses = true;
  options.audit_every = 7;
  options.audit_max_rounds = 60;
  std::vector<Scenario> replicas =
      seed_axis(8, 2, AttackKind::SplitBrain, 60, 3);
  replicas[1].attack.kind = AttackKind::SignFlip;
  replicas[2].attack.kind = AttackKind::PullToTarget;
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    replicas[i].faulty = {7};  // one Byzantine + one crash, f = 2
    replicas[i].crashes = {{0, 20}};
    replicas[i].drop_probability = 0.1 * static_cast<double>(i);
  }
  expect_batch_matches_scalar(replicas, options);
}

// Random packs through the shared round (sim/batch_round.hpp): each
// fixed seed draws one shape (n, f, Byzantine senders, crashes, rounds)
// and 1-17 replicas, each with its own attack (any of the 11, wrapped in
// the reliable-broadcast restriction or not), delayed-strike activation,
// constraint, default payload and drop probability. A mismatch names
// the pack.
TEST(BatchRunner, RandomPacksMatchScalar) {
  constexpr AttackKind kKinds[] = {
      AttackKind::None,         AttackKind::Silent,
      AttackKind::FixedValue,   AttackKind::SplitBrain,
      AttackKind::HullEdgeUp,   AttackKind::HullEdgeDown,
      AttackKind::RandomNoise,  AttackKind::SignFlip,
      AttackKind::PullToTarget, AttackKind::FlipFlop,
      AttackKind::DelayedStrike};
  constexpr std::size_t kSizes[] = {4, 5, 7, 13, 31, 32, 33, 64};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const auto pick = [&rng](std::size_t count) {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(count) - 1));
    };
    const std::size_t n = kSizes[pick(std::size(kSizes))];
    const std::size_t f = 1 + pick((n - 1) / 3);
    const std::size_t byzantine = pick(f + 1);
    const std::size_t crashing = pick(f - byzantine + 1);
    const std::size_t rounds = 20 + pick(41);
    // Distinct agents: the Byzantine senders, then the crashing ones.
    std::vector<std::size_t> agents(n);
    for (std::size_t i = 0; i < n; ++i) agents[i] = i;
    for (std::size_t i = 0; i < byzantine + crashing; ++i)
      std::swap(agents[i], agents[i + pick(n - i)]);
    std::vector<std::size_t> faulty(agents.begin(),
                                    agents.begin() + byzantine);
    std::vector<std::pair<std::size_t, std::size_t>> crashes;
    for (std::size_t i = byzantine; i < byzantine + crashing; ++i)
      crashes.push_back({agents[i], 1 + pick(rounds)});

    std::string pack = "seed=" + std::to_string(seed) +
                       " n=" + std::to_string(n) + " f=" + std::to_string(f) +
                       " byzantine=" + std::to_string(byzantine) +
                       " crashes=" + std::to_string(crashing) + " attacks:";
    std::vector<Scenario> replicas;
    for (std::size_t r = 1 + pick(17); r > 0; --r) {
      const AttackKind kind = kKinds[pick(std::size(kKinds))];
      Scenario s = make_standard_scenario(n, f, rng.uniform(2.0, 12.0), kind,
                                          rounds, 1 + pick(1000));
      s.faulty = faulty;
      s.crashes = crashes;
      s.attack.consistent = rng.bernoulli(0.3);
      s.attack.activation_round = 1 + pick(rounds);
      s.attack.target = rng.uniform(-20.0, 20.0);
      if (rng.bernoulli(0.3)) {
        const double lo = rng.uniform(-6.0, 0.0);
        s.constraint = Interval{lo, lo + rng.uniform(0.5, 8.0)};
      }
      if (rng.bernoulli(0.5))
        s.default_payload =
            SbgPayload{rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)};
      if (rng.bernoulli(0.3)) s.drop_probability = rng.uniform(0.0, 0.5);
      pack += " " + attack_kind_name(kind) + (s.attack.consistent ? "*" : "");
      replicas.push_back(std::move(s));
    }
    SCOPED_TRACE(pack + " (* consistent)");
    expect_batch_matches_scalar(replicas);
  }
}

TEST(BatchRunner, FinalValuesOnlyMatchScalarAndTheFullRun) {
  // record_series = false, what the sweep asks for: each series keeps one
  // entry, the final round's, with the full run's bits.
  RunOptions finals_only;
  finals_only.record_series = false;
  std::vector<Scenario> replicas =
      seed_axis(7, 2, AttackKind::SplitBrain, 60, 3);
  replicas[1].attack.kind = AttackKind::RandomNoise;
  replicas[2].constraint = Interval{-1.0, 1.0};
  expect_batch_matches_scalar(replicas, finals_only);
  const std::vector<RunMetrics> full = run_sbg_batch(replicas);
  const std::vector<RunMetrics> lean = run_sbg_batch(replicas, finals_only);
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    SCOPED_TRACE("replica " + std::to_string(i));
    ASSERT_EQ(lean[i].disagreement.size(), 1u);
    ASSERT_EQ(lean[i].max_dist_to_y.size(), 1u);
    ASSERT_EQ(lean[i].max_projection_error.size(), 1u);
    EXPECT_EQ(lean[i].final_disagreement(), full[i].final_disagreement());
    EXPECT_EQ(lean[i].final_max_dist(), full[i].final_max_dist());
    EXPECT_EQ(lean[i].max_projection_error.back(),
              full[i].max_projection_error.back());
    EXPECT_EQ(lean[i].final_states, full[i].final_states);
  }
  finals_only.record_trace = true;  // a trace needs every round
  EXPECT_THROW(run_sbg_batch(replicas, finals_only), ContractViolation);
  EXPECT_THROW(run_sbg(replicas[0], finals_only), ContractViolation);
}

// Trim by selection: every pack selects the honest order statistics and
// merges each class's Byzantine rows into them, one row of F copies or,
// beside a per-message replica, F sorted rows; every strategy is asked
// through summary_payload. The packs below cover per-message packs,
// delivery filters, partial Byzantine sets, the network limit and the
// signed zeros the selections may return.

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_series_bits(const Series& a, const Series& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(bits(a[i]), bits(b[i])) << what << " diverges at index " << i;
}

void expect_batch_matches_scalar_bitwise(
    const std::vector<Scenario>& replicas) {
  const std::vector<RunMetrics> batched = run_sbg_batch(replicas);
  ASSERT_EQ(batched.size(), replicas.size());
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    SCOPED_TRACE("replica " + std::to_string(i));
    const RunMetrics scalar = run_sbg(replicas[i]);
    expect_series_bits(scalar.disagreement, batched[i].disagreement,
                       "disagreement");
    expect_series_bits(scalar.max_dist_to_y, batched[i].max_dist_to_y,
                       "max_dist_to_y");
    expect_series_bits(scalar.max_projection_error,
                       batched[i].max_projection_error,
                       "max_projection_error");
    ASSERT_EQ(scalar.final_states.size(), batched[i].final_states.size());
    for (std::size_t j = 0; j < scalar.final_states.size(); ++j)
      EXPECT_EQ(bits(scalar.final_states[j]), bits(batched[i].final_states[j]))
          << "final state " << j;
  }
}

TEST(BatchRunner, NoisePackKeepsTheFullSortBesideSummaryReaders) {
  // One per-message replica makes every recipient its own class with F
  // Byzantine rows, sorted and merged into the selected honest runs
  // around the trimmed ranks: the full sort's bits without the full
  // sort. The summary readers beside it answer summary_payload too.
  std::vector<Scenario> replicas =
      seed_axis(13, 4, AttackKind::RandomNoise, 50, 5);
  replicas[1].attack.kind = AttackKind::SignFlip;
  replicas[2].attack.kind = AttackKind::HullEdgeDown;
  replicas[3].attack.kind = AttackKind::FlipFlop;
  replicas[4].attack.kind = AttackKind::DelayedStrike;
  replicas[4].attack.activation_round = 20;
  expect_batch_matches_scalar(replicas);
}

TEST(BatchRunner, DropsAndCrashSelectPerRecipientBesideSummaryReaders) {
  // A delivery filter: each recipient's own honest rows are selected and
  // merged, while the summaries come from one selection of the
  // broadcasts per round (the rushing adversary sees every broadcast).
  RunOptions options;
  options.audit_witnesses = true;
  options.audit_every = 5;
  options.audit_max_rounds = 50;
  std::vector<Scenario> replicas =
      seed_axis(13, 4, AttackKind::HullEdgeUp, 50, 5);
  replicas[1].attack.kind = AttackKind::FlipFlop;
  replicas[2].attack.kind = AttackKind::DelayedStrike;
  replicas[2].attack.activation_round = 25;
  replicas[3].attack.kind = AttackKind::Silent;
  replicas[3].default_payload = SbgPayload{0.75, -0.25};
  replicas[4].attack.kind = AttackKind::FixedValue;
  replicas[4].attack.consistent = true;
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    replicas[i].faulty = {10, 11, 12};  // three Byzantine + one crash, f = 4
    replicas[i].crashes = {{2, 15}};
    replicas[i].drop_probability = 0.08 * static_cast<double>(i);
  }
  expect_batch_matches_scalar(replicas, options);
}

TEST(BatchRunner, PartialByzantineMergesFewerCopiesThanF) {
  // F < f: the merge reads honest ranks f-F and H-1-f+F, or the runs
  // between them when a noise replica in the pack sends F different
  // rows. F = 0 trims the honest rows alone. With drops, each
  // recipient's rows are selected.
  for (std::size_t byzantine : {0u, 1u, 2u, 3u}) {
    for (double drop : {0.0, 0.15}) {
      for (bool noise : {false, true}) {
        SCOPED_TRACE(std::to_string(byzantine) + " Byzantine, drop " +
                     std::to_string(drop) + (noise ? ", noise" : ""));
        std::vector<Scenario> replicas =
            seed_axis(13, 4, AttackKind::SplitBrain, 40, 4);
        replicas[1].attack.kind = AttackKind::SignFlip;
        replicas[2].attack.kind = AttackKind::PullToTarget;
        replicas[2].attack.target = 9.0;
        replicas[3].attack.kind =
            noise ? AttackKind::RandomNoise : AttackKind::HullEdgeDown;
        for (Scenario& s : replicas) {
          s.faulty.clear();
          for (std::size_t b = 0; b < byzantine; ++b)
            s.faulty.push_back(12 - b);
          s.drop_probability = drop;
        }
        expect_batch_matches_scalar(replicas);
      }
    }
  }
}

TEST(BatchRunner, NetworkLimitBoundaryMatchesScalar) {
  // n = 32 and 33, either side of a power of two (the networks are
  // generated for the next one and pruned), and n = 64, the last n they
  // cover, with a noise replica beside the class-declaring ones; n = 65
  // is refused (the grid drivers run it on run_sbg).
  for (std::size_t n :
       {std::size_t{32}, std::size_t{33}, kMaxSortingNetworkN}) {
    SCOPED_TRACE(n);
    std::vector<Scenario> replicas =
        seed_axis(n, (n - 1) / 3, AttackKind::SignFlip, 25, 5);
    replicas[1].attack.kind = AttackKind::SplitBrain;
    replicas[2].attack.kind = AttackKind::PullToTarget;
    replicas[3].attack.kind = AttackKind::HullEdgeUp;
    replicas[3].attack.consistent = true;
    replicas[4].attack.kind = AttackKind::RandomNoise;
    expect_batch_matches_scalar(replicas);
  }
  EXPECT_THROW(run_sbg_batch(seed_axis(kMaxSortingNetworkN + 1, 21,
                                       AttackKind::SignFlip, 5, 2)),
               ContractViolation);
}

TEST(BatchRunner, SignedZeroStatesAndBoundsMatchScalarBitwise) {
  // Every cost is a Huber centred at 0, initial states alternate +0.0 and
  // -0.0, and the payloads are zeros of either sign, so every order
  // statistic ties between the two zeros. The selections and the merge
  // may return the other zero than the scalar nth_element; the Trim
  // midpoint ignores that, so every output keeps the scalar engine's
  // bits, signs of zero included.
  std::vector<Scenario> replicas;
  for (AttackKind kind :
       {AttackKind::Silent, AttackKind::FixedValue, AttackKind::HullEdgeUp,
        AttackKind::SignFlip, AttackKind::PullToTarget,
        AttackKind::SplitBrain}) {
    Scenario s = make_standard_scenario(10, 3, 8.0, kind, 30, 1);
    for (std::size_t i = 0; i < s.n; ++i) {
      s.functions[i] = std::make_shared<Huber>(0.0, 2.0, 1.0);
      s.initial_states[i] = i % 2 == 0 ? 0.0 : -0.0;
    }
    s.default_payload = SbgPayload{-0.0, -0.0};
    s.attack.state_magnitude = -0.0;
    s.attack.gradient_magnitude = 0.0;
    s.attack.target = -0.0;
    replicas.push_back(s);
  }
  replicas[1].constraint = Interval(-0.0, 0.0);
  replicas[3].constraint = Interval(-0.0, 0.0);
  expect_batch_matches_scalar_bitwise(replicas);
  // The same pack with a drop filter selects per recipient.
  for (Scenario& s : replicas) s.drop_probability = 0.2;
  expect_batch_matches_scalar_bitwise(replicas);
}

TEST(BatchRunner, MismatchedShapeThrows) {
  std::vector<Scenario> replicas = seed_axis(7, 2, AttackKind::None, 20, 1);
  replicas.push_back(
      make_standard_scenario(10, 3, 8.0, AttackKind::None, 20, 2));
  EXPECT_THROW(run_sbg_batch(replicas), ContractViolation);
}

TEST(BatchRunner, EmptyBatchReturnsEmpty) {
  EXPECT_TRUE(run_sbg_batch({}).empty());
}

TEST(SweepBatched, CsvIdenticalAcrossEnginesAndBatchSizes) {
  SweepConfig config;
  config.sizes = {{7, 2}, {10, 3}};
  config.attacks = {AttackKind::SplitBrain, AttackKind::SignFlip};
  config.seeds = {1, 2, 3, 4, 5};
  config.rounds = 120;

  config.scalar_engine = true;
  const std::string reference = sweep_to_csv(run_sweep(config));
  config.scalar_engine = false;
  for (std::size_t batch_size : {0u, 1u, 3u, 5u, 7u}) {
    config.batch_size = batch_size;
    EXPECT_EQ(reference, sweep_to_csv(run_sweep(config)))
        << "batch_size=" << batch_size;
  }
}

TEST(AttackSearchBatched, RankingIdenticalAcrossEnginesAndBatchSizes) {
  const Scenario base =
      make_standard_scenario(7, 2, 8.0, AttackKind::None, 150, 5);
  const auto grid = standard_attack_grid();
  const AttackSearchResult reference =
      find_strongest_attack(base, grid, 1, 0, /*scalar_engine=*/true);
  for (std::size_t batch_size : {0u, 1u, 4u}) {
    const AttackSearchResult batched =
        find_strongest_attack(base, grid, 1, batch_size);
    ASSERT_EQ(reference.outcomes.size(), batched.outcomes.size());
    EXPECT_EQ(reference.reference_state, batched.reference_state);
    for (std::size_t i = 0; i < reference.outcomes.size(); ++i) {
      EXPECT_EQ(reference.outcomes[i].name, batched.outcomes[i].name);
      EXPECT_EQ(reference.outcomes[i].final_state,
                batched.outcomes[i].final_state);
      EXPECT_EQ(reference.outcomes[i].bias, batched.outcomes[i].bias);
    }
  }
}

TEST(CertifyBatched, ReportIdenticalAcrossEngines) {
  CertifyOptions options;
  options.n = 7;
  options.f = 2;
  options.rounds = 150;

  options.scalar_engine = true;
  const CertificationReport reference = certify_sbg(options);
  options.scalar_engine = false;
  for (std::size_t batch_size : {0u, 3u}) {
    options.batch_size = batch_size;
    const CertificationReport batched = certify_sbg(options);
    EXPECT_EQ(reference.passed, batched.passed);
    ASSERT_EQ(reference.checks.size(), batched.checks.size());
    for (std::size_t i = 0; i < reference.checks.size(); ++i) {
      EXPECT_EQ(reference.checks[i].name, batched.checks[i].name);
      EXPECT_EQ(reference.checks[i].passed, batched.checks[i].passed);
      EXPECT_EQ(reference.checks[i].detail, batched.checks[i].detail);
    }
  }
}

}  // namespace
}  // namespace ftmao
