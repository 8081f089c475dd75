// Tests for the Byzantine strategy implementations: each attack's payload
// shape, determinism, its observed interaction with the round view, and
// the recipient classes it declares to the batch engines.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "adversary/strategies.hpp"
#include "baseline/consistent.hpp"
#include "common/rng.hpp"
#include "sim/scenario.hpp"
#include "vector/vector_attacks.hpp"

namespace ftmao {
namespace {

std::vector<Received<SbgPayload>> honest_msgs(
    std::initializer_list<std::pair<std::uint32_t, SbgPayload>> items) {
  std::vector<Received<SbgPayload>> out;
  for (const auto& [id, payload] : items) out.push_back({AgentId{id}, payload});
  return out;
}

TEST(Silent, AlwaysOmits) {
  SilentAdversary adv;
  const auto msgs = honest_msgs({{0, {1.0, 1.0}}});
  const RoundView<SbgPayload> view{Round{1}, msgs};
  EXPECT_FALSE(adv.send_to(AgentId{9}, AgentId{0}, view).has_value());
}

TEST(FixedValue, AlwaysSendsSamePayload) {
  FixedValueAdversary adv(SbgPayload{4.0, -2.0});
  const RoundView<SbgPayload> view{Round{1}, {}};
  for (std::uint32_t r = 0; r < 5; ++r) {
    const auto p = adv.send_to(AgentId{9}, AgentId{r}, view);
    ASSERT_TRUE(p.has_value());
    EXPECT_DOUBLE_EQ(p->state, 4.0);
    EXPECT_DOUBLE_EQ(p->gradient, -2.0);
  }
}

TEST(SplitBrain, ParityDeterminesSign) {
  SplitBrainAdversary adv(10.0, 2.0);
  const RoundView<SbgPayload> view{Round{1}, {}};
  const auto even = adv.send_to(AgentId{9}, AgentId{2}, view);
  const auto odd = adv.send_to(AgentId{9}, AgentId{3}, view);
  ASSERT_TRUE(even && odd);
  EXPECT_DOUBLE_EQ(even->state, 10.0);
  EXPECT_DOUBLE_EQ(odd->state, -10.0);
  EXPECT_DOUBLE_EQ(even->gradient, 2.0);
  EXPECT_DOUBLE_EQ(odd->gradient, -2.0);
}

TEST(HullEdge, TracksHonestExtremes) {
  HullEdgeAdversary up(/*push_up=*/true);
  HullEdgeAdversary down(/*push_up=*/false);
  const auto msgs =
      honest_msgs({{0, {1.0, -3.0}}, {1, {5.0, 2.0}}, {2, {-2.0, 0.5}}});
  const RoundView<SbgPayload> view{Round{1}, msgs};
  // push_up: max state with MIN gradient (both bias the update upward).
  const auto hi = up.send_to(AgentId{9}, AgentId{0}, view);
  ASSERT_TRUE(hi);
  EXPECT_DOUBLE_EQ(hi->state, 5.0);
  EXPECT_DOUBLE_EQ(hi->gradient, -3.0);
  const auto lo = down.send_to(AgentId{9}, AgentId{0}, view);
  ASSERT_TRUE(lo);
  EXPECT_DOUBLE_EQ(lo->state, -2.0);
  EXPECT_DOUBLE_EQ(lo->gradient, 2.0);
}

TEST(HullEdge, StaysInsideHonestRangeByConstruction) {
  // The attack value always equals an honest value, so trimming can never
  // prove it faulty — yet it maximally biases the reduce.
  HullEdgeAdversary adv(true);
  const auto msgs = honest_msgs({{0, {1.0, 0.0}}, {1, {2.0, 0.0}}});
  const RoundView<SbgPayload> view{Round{1}, msgs};
  const auto p = adv.send_to(AgentId{9}, AgentId{0}, view);
  ASSERT_TRUE(p);
  EXPECT_GE(p->state, 1.0);
  EXPECT_LE(p->state, 2.0);
}

TEST(HullEdge, OmitsWithNoObservations) {
  HullEdgeAdversary adv(true);
  const RoundView<SbgPayload> view{Round{1}, {}};
  EXPECT_FALSE(adv.send_to(AgentId{9}, AgentId{0}, view).has_value());
}

TEST(RandomNoise, DeterministicPerSeedAndBounded) {
  RandomNoiseAdversary a(Rng(3), 5.0, 1.0);
  RandomNoiseAdversary b(Rng(3), 5.0, 1.0);
  const RoundView<SbgPayload> view{Round{1}, {}};
  for (int i = 0; i < 50; ++i) {
    const auto pa = a.send_to(AgentId{9}, AgentId{0}, view);
    const auto pb = b.send_to(AgentId{9}, AgentId{0}, view);
    ASSERT_TRUE(pa && pb);
    EXPECT_DOUBLE_EQ(pa->state, pb->state);
    EXPECT_LE(std::abs(pa->state), 5.0);
    EXPECT_LE(std::abs(pa->gradient), 1.0);
  }
}

TEST(SignFlip, InvertsAndAmplifiesMeanGradient) {
  SignFlipAdversary adv(3.0);
  const auto msgs = honest_msgs({{0, {0.0, 1.0}}, {1, {2.0, 3.0}}});
  const RoundView<SbgPayload> view{Round{1}, msgs};
  const auto p = adv.send_to(AgentId{9}, AgentId{0}, view);
  ASSERT_TRUE(p);
  EXPECT_DOUBLE_EQ(p->gradient, -3.0 * 2.0);  // mean gradient = 2
  // state = median of {0, 2} (upper median) = 2
  EXPECT_DOUBLE_EQ(p->state, 2.0);
}

TEST(PullToTarget, PointsGradientTowardTarget) {
  PullToTargetAdversary adv(-10.0, 5.0);
  const auto msgs =
      honest_msgs({{0, {0.0, 0.0}}, {1, {2.0, 0.0}}, {2, {4.0, 0.0}}});
  const RoundView<SbgPayload> view{Round{1}, msgs};
  const auto p = adv.send_to(AgentId{9}, AgentId{0}, view);
  ASSERT_TRUE(p);
  EXPECT_DOUBLE_EQ(p->state, -10.0);
  EXPECT_DOUBLE_EQ(p->gradient, 5.0);  // median 2 > target: push down
}

TEST(PullToTarget, FlipsWhenMedianBelowTarget) {
  PullToTargetAdversary adv(10.0, 5.0);
  const auto msgs = honest_msgs({{0, {0.0, 0.0}}});
  const RoundView<SbgPayload> view{Round{1}, msgs};
  const auto p = adv.send_to(AgentId{9}, AgentId{0}, view);
  ASSERT_TRUE(p);
  EXPECT_DOUBLE_EQ(p->gradient, -5.0);
}

TEST(DelayedActivation, MimicsHonestThenStrikes) {
  DelayedActivationAdversary adv(
      Round{10}, std::make_unique<PullToTargetAdversary>(-100.0, 5.0));
  const auto msgs = honest_msgs({{0, {1.0, 0.5}}, {1, {3.0, 1.5}}});
  const RoundView<SbgPayload> dormant{Round{5}, msgs};
  const auto p1 = adv.send_to(AgentId{9}, AgentId{0}, dormant);
  ASSERT_TRUE(p1);
  EXPECT_DOUBLE_EQ(p1->state, 3.0);     // upper median of honest states
  EXPECT_DOUBLE_EQ(p1->gradient, 1.5);  // upper median of honest gradients
  const RoundView<SbgPayload> active{Round{10}, msgs};
  const auto p2 = adv.send_to(AgentId{9}, AgentId{0}, active);
  ASSERT_TRUE(p2);
  EXPECT_DOUBLE_EQ(p2->state, -100.0);  // now pulling to target
}

TEST(DelayedActivation, OwningConstructorWorks) {
  DelayedActivationAdversary adv(
      Round{1}, std::make_unique<PullToTargetAdversary>(7.0, 1.0));
  const auto msgs = honest_msgs({{0, {0.0, 0.0}}});
  const RoundView<SbgPayload> view{Round{3}, msgs};
  const auto p = adv.send_to(AgentId{9}, AgentId{0}, view);
  ASSERT_TRUE(p);
  EXPECT_DOUBLE_EQ(p->state, 7.0);
}

TEST(FlipFlopAttack, AlternatesDirectionByPeriod) {
  FlipFlopAdversary adv(2);
  const auto msgs = honest_msgs({{0, {1.0, -1.0}}, {1, {5.0, 2.0}}});
  // rounds 0,1 -> high phase; rounds 2,3 -> low phase (period 2).
  const auto hi = adv.send_to(AgentId{9}, AgentId{0}, {Round{1}, msgs});
  const auto lo = adv.send_to(AgentId{9}, AgentId{0}, {Round{2}, msgs});
  ASSERT_TRUE(hi && lo);
  EXPECT_DOUBLE_EQ(hi->state, 5.0);
  EXPECT_DOUBLE_EQ(hi->gradient, -1.0);  // min gradient drags upward
  EXPECT_DOUBLE_EQ(lo->state, 1.0);
  EXPECT_DOUBLE_EQ(lo->gradient, 2.0);
}

// ----------------------------------------------------- ConsistentWrapper

TEST(ConsistentWrapper, ForcesIdenticalPayloadsWithinRound) {
  ConsistentWrapper wrapped(std::make_unique<SplitBrainAdversary>(10.0, 2.0));
  const RoundView<SbgPayload> view{Round{1}, {}};
  const auto p0 = wrapped.send_to(AgentId{9}, AgentId{0}, view);
  const auto p1 = wrapped.send_to(AgentId{9}, AgentId{1}, view);
  ASSERT_TRUE(p0 && p1);
  EXPECT_DOUBLE_EQ(p0->state, p1->state);  // split-brain neutralized
  EXPECT_DOUBLE_EQ(p0->gradient, p1->gradient);
}

TEST(ConsistentWrapper, RefreshesAcrossRounds) {
  // An adversary whose payload depends on the round would be frozen within
  // a round but must be re-queried on the next round.
  class RoundEcho final : public SbgAdversary {
   public:
    std::optional<SbgPayload> summary_payload(const HonestSummary&,
                                              Round round, AgentId) override {
      return SbgPayload{static_cast<double>(round.value), 0.0};
    }
  };
  ConsistentWrapper wrapped(std::make_unique<RoundEcho>());
  const RoundView<SbgPayload> v1{Round{1}, {}};
  const RoundView<SbgPayload> v2{Round{2}, {}};
  EXPECT_DOUBLE_EQ(wrapped.send_to(AgentId{9}, AgentId{0}, v1)->state, 1.0);
  EXPECT_DOUBLE_EQ(wrapped.send_to(AgentId{9}, AgentId{1}, v1)->state, 1.0);
  EXPECT_DOUBLE_EQ(wrapped.send_to(AgentId{9}, AgentId{0}, v2)->state, 2.0);
}

TEST(ConsistentWrapper, PreservesOmissions) {
  ConsistentWrapper wrapped(std::make_unique<SilentAdversary>());
  const RoundView<SbgPayload> view{Round{1}, {}};
  EXPECT_FALSE(wrapped.send_to(AgentId{9}, AgentId{0}, view).has_value());
}

// ------------------------------------------------------ recipient classes

constexpr AttackKind kEveryAttack[] = {
    AttackKind::None,         AttackKind::Silent,
    AttackKind::FixedValue,   AttackKind::SplitBrain,
    AttackKind::HullEdgeUp,   AttackKind::HullEdgeDown,
    AttackKind::RandomNoise,  AttackKind::SignFlip,
    AttackKind::PullToTarget, AttackKind::FlipFlop,
    AttackKind::DelayedStrike};

AttackConfig attack_config(AttackKind kind, bool consistent) {
  AttackConfig config;
  config.kind = kind;
  config.consistent = consistent;
  config.activation_round = 3;  // delayed-strike wakes mid-run below
  return config;
}

bool same_bits(const std::optional<SbgPayload>& a,
               const std::optional<SbgPayload>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a) return true;
  return std::bit_cast<std::uint64_t>(a->state) ==
             std::bit_cast<std::uint64_t>(b->state) &&
         std::bit_cast<std::uint64_t>(a->gradient) ==
             std::bit_cast<std::uint64_t>(b->gradient);
}

TEST(RecipientClass, EachStrategyDeclaresItsClasses) {
  const Rng rng(5);
  for (AttackKind kind : kEveryAttack) {
    SCOPED_TRACE(static_cast<int>(kind));
    const auto adv =
        make_adversary(attack_config(kind, false), rng.substream("a", 0));
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

TEST(RecipientClass, DelayedActivationForwardsItsLateStrategy) {
  DelayedActivationAdversary split_later(
      Round{10}, std::make_unique<SplitBrainAdversary>(10.0, 2.0));
  DelayedActivationAdversary noise_later(
      Round{10}, std::make_unique<RandomNoiseAdversary>(Rng(3), 5.0, 1.0));
  for (std::uint32_t r = 0; r < 6; ++r) {
    EXPECT_EQ(split_later.recipient_class(AgentId{r}), r % 2);
    EXPECT_EQ(noise_later.recipient_class(AgentId{r}), kPerMessage);
  }
}

TEST(RecipientClass, ConsistentWrapperDeclaresOneClassExceptForNoise) {
  const Rng rng(5);
  for (AttackKind kind : kEveryAttack) {
    SCOPED_TRACE(static_cast<int>(kind));
    const auto adv =
        make_adversary(attack_config(kind, true), rng.substream("a", 0));
    const RecipientClass expected =
        kind == AttackKind::RandomNoise ? kPerMessage : 0;
    for (std::uint32_t r = 0; r < 8; ++r)
      EXPECT_EQ(adv->recipient_class(AgentId{r}), expected);
  }
}

TEST(RecipientClass, DeclaredClassesKeepTheirPromise) {
  // Over several rounds of random views, strategy `a` is asked for every
  // recipient in engine order, as the scalar engine asks. A twin built
  // from the same config on another RNG substream, speaking as another
  // sender, is asked only once per class at the class's first recipient,
  // as the batch engines ask. Wherever the class is not kPerMessage, every
  // recipient's payload from `a` must equal the twin's answer for its
  // class, bit for bit. The rounds straddle delayed-strike's activation.
  constexpr std::uint32_t kRecipients = 9;
  const Rng rng(11);
  for (bool consistent : {false, true}) {
    for (AttackKind kind : kEveryAttack) {
      SCOPED_TRACE(std::string(consistent ? "consistent " : "") +
                   std::to_string(static_cast<int>(kind)));
      const AttackConfig config = attack_config(kind, consistent);
      const auto a = make_adversary(config, rng.substream("adversary", 7));
      const auto twin = make_adversary(config, rng.substream("adversary", 8));
      Rng draws(3);
      for (std::uint32_t t = 1; t <= 6; ++t) {
        std::vector<Received<SbgPayload>> msgs;
        for (std::uint32_t j = 0; j < kRecipients; ++j)
          msgs.push_back({AgentId{j}, SbgPayload{draws.uniform(-5.0, 5.0),
                                                 draws.uniform(-2.0, 2.0)}});
        const RoundView<SbgPayload> view{Round{t}, msgs};
        std::vector<std::optional<SbgPayload>> seen;
        for (std::uint32_t j = 0; j < kRecipients; ++j)
          seen.push_back(a->send_to(AgentId{20}, AgentId{j}, view));
        std::vector<std::optional<SbgPayload>> answer(kRecipients);
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

// ------------------------------------------------------- summary payloads

TEST(SummaryPayload, PerMessageStrategiesAnswerAsSendToDoes) {
  // The batch engines ask noise summary_payload once per message, so it
  // must draw exactly send_to's stream: two twins, one asked each way
  // in turn, stay bit-identical. Scalar noise, then vector noise at d = 3.
  const auto msgs = honest_msgs({{0, {1.0, 2.0}}});
  const RoundView<SbgPayload> view{Round{1}, msgs};
  RandomNoiseAdversary a(Rng(3), 5.0, 1.0);
  RandomNoiseAdversary b(Rng(3), 5.0, 1.0);
  for (std::uint32_t j = 0; j < 20; ++j) {
    EXPECT_TRUE(same_bits(a.send_to(AgentId{9}, AgentId{j}, view),
                          b.summary_payload(HonestSummary{}, Round{1},
                                            AgentId{j})));
  }
  const RoundView<VecPayload> vector_view{Round{1}, {}};
  const std::vector<HonestSummary> summaries(3);
  VectorRandomNoise va(Rng(4), 3, 5.0, 1.0);
  VectorRandomNoise vb(Rng(4), 3, 5.0, 1.0);
  for (std::uint32_t j = 0; j < 20; ++j) {
    const auto pa = va.send_to(AgentId{9}, AgentId{j}, vector_view);
    const auto pb = vb.summary_payload(summaries, Round{1}, AgentId{j});
    ASSERT_TRUE(pa && pb);
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(pa->state[k]),
                std::bit_cast<std::uint64_t>(pb->state[k]));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(pa->gradient[k]),
                std::bit_cast<std::uint64_t>(pb->gradient[k]));
    }
  }

  // A wrapped noise replays its round's first summary answer to every
  // recipient, as its send_to does, and draws afresh in the next round.
  RandomNoiseAdversary reference(Rng(5), 5.0, 1.0);
  ConsistentWrapper wrapped(
      std::make_unique<RandomNoiseAdversary>(Rng(5), 5.0, 1.0));
  for (std::uint32_t t = 1; t <= 3; ++t) {
    const std::optional<SbgPayload> first =
        reference.summary_payload(HonestSummary{}, Round{t}, AgentId{0});
    for (std::uint32_t j = 0; j < 4; ++j)
      EXPECT_TRUE(same_bits(
          wrapped.summary_payload(HonestSummary{}, Round{t}, AgentId{j}),
          first))
          << "round " << t << " recipient " << j;
  }
}

TEST(SummaryPayload, HonestSummaryFoldsLikeTheScalarStrategies) {
  const double states[] = {3.0, -1.0, 2.0, -0.0, 0.0};
  const double gradients[] = {0.5, -2.0, 1.5, 0.25, -0.75};
  std::vector<Received<SbgPayload>> msgs;
  for (std::uint32_t j = 0; j < 5; ++j)
    msgs.push_back({AgentId{j}, SbgPayload{states[j], gradients[j]}});
  const HonestSummary s = HonestSummary::of({Round{1}, msgs});
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.state.min, -1.0);
  EXPECT_EQ(s.state.median, 0.0);  // rank 5/2 = 2 of {-1, -0, 0, 2, 3}
  EXPECT_EQ(s.state.max, 3.0);
  EXPECT_EQ(s.gradient.min, -2.0);
  EXPECT_EQ(s.gradient.median, 0.25);
  EXPECT_EQ(s.gradient.max, 1.5);
  EXPECT_EQ(s.gradient_mean, (((0.5 + -2.0) + 1.5) + 0.25 + -0.75) / 5.0);
  EXPECT_EQ(HonestSummary::of({Round{1}, {}}).count, 0u);
}

TEST(SummaryPayload, MatchesSendToOverRandomViews) {
  // Strategy `a` is asked through send_to for every recipient in engine
  // order, as the scalar engines ask. A twin from the same config answers
  // summary_payload(HonestSummary::of(view), ...) once per class at the
  // class's first recipient, as the sync batch engine asks. The payloads
  // must agree bit for bit. Views draw ties and signed zeros, one round
  // is empty, and the rounds straddle delayed-strike's activation.
  constexpr std::uint32_t kRecipients = 9;
  const Rng rng(13);
  const double pool[] = {0.0, -0.0, 1.0, -1.0};
  for (bool consistent : {false, true}) {
    for (AttackKind kind : kEveryAttack) {
      if (kind == AttackKind::RandomNoise) continue;
      SCOPED_TRACE(std::string(consistent ? "consistent " : "") +
                   std::to_string(static_cast<int>(kind)));
      const AttackConfig config = attack_config(kind, consistent);
      const auto a = make_adversary(config, rng.substream("adversary", 7));
      const auto twin = make_adversary(config, rng.substream("adversary", 8));
      Rng draws(17);
      auto draw = [&](double range) {
        return draws.uniform(0.0, 1.0) < 0.5
                   ? pool[draws.uniform_int(0, 3)]
                   : draws.uniform(-range, range);
      };
      for (std::uint32_t t = 1; t <= 6; ++t) {
        std::vector<Received<SbgPayload>> msgs;
        if (t != 2)
          for (std::uint32_t j = 0; j < kRecipients; ++j)
            msgs.push_back({AgentId{j}, SbgPayload{draw(5.0), draw(2.0)}});
        const RoundView<SbgPayload> view{Round{t}, msgs};
        const HonestSummary summary = HonestSummary::of(view);
        std::vector<std::optional<SbgPayload>> answer(kRecipients);
        for (std::uint32_t j = 0; j < kRecipients; ++j) {
          const std::optional<SbgPayload> seen =
              a->send_to(AgentId{20}, AgentId{j}, view);
          const RecipientClass cls = a->recipient_class(AgentId{j});
          std::uint32_t first = 0;
          while (a->recipient_class(AgentId{first}) != cls) ++first;
          if (first == j)
            answer[j] = twin->summary_payload(summary, Round{t}, AgentId{j});
          EXPECT_TRUE(same_bits(seen, answer[first]))
              << "round " << t << " recipient " << j;
        }
      }
    }
  }
}

// --------------------------------------------------------- shared send_to

// A strategy that forgets summary_payload does not compile: both bases
// leave it pure, and send_to is theirs alone.
static_assert(std::is_abstract_v<SbgAdversary>);
static_assert(std::is_abstract_v<VectorAdversary>);

bool same_summary(const HonestSummary& a, const HonestSummary& b) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const auto same_stats = [&](const HonestSummary::Stats& x,
                              const HonestSummary::Stats& y) {
    return bits(x.min) == bits(y.min) && bits(x.median) == bits(y.median) &&
           bits(x.max) == bits(y.max);
  };
  return a.count == b.count && same_stats(a.state, b.state) &&
         same_stats(a.gradient, b.gradient) &&
         bits(a.gradient_mean) == bits(b.gradient_mean);
}

TEST(SharedSendTo, SummarizesTheFirstViewOfEachRound) {
  // A strategy that implements only summary_payload, asked through
  // send_to. The engines hold a round's view fixed, so the round's first
  // view is summarized once and answers the round's other recipients,
  // even one shown another view; the next round summarizes afresh.
  class SummarySpy final : public SbgAdversary {
   public:
    std::optional<SbgPayload> summary_payload(const HonestSummary& summary,
                                              Round, AgentId) override {
      seen.push_back(summary);
      return SbgPayload{summary.state.max, summary.gradient.min};
    }
    std::vector<HonestSummary> seen;
  };
  const auto first = honest_msgs({{0, {1.0, -3.0}}, {1, {5.0, 2.0}}});
  const auto other = honest_msgs({{0, {-7.0, 4.0}}});
  SummarySpy spy;
  const auto p0 = spy.send_to(AgentId{9}, AgentId{0}, {Round{1}, first});
  const auto p1 = spy.send_to(AgentId{9}, AgentId{1}, {Round{1}, other});
  const auto p2 = spy.send_to(AgentId{9}, AgentId{0}, {Round{2}, other});
  ASSERT_EQ(spy.seen.size(), 3u);
  const HonestSummary of_first = HonestSummary::of({Round{1}, first});
  EXPECT_TRUE(same_summary(spy.seen[0], of_first));
  EXPECT_TRUE(same_summary(spy.seen[1], of_first));
  EXPECT_TRUE(
      same_summary(spy.seen[2], HonestSummary::of({Round{2}, other})));
  EXPECT_TRUE(same_bits(p0, SbgPayload{5.0, -3.0}));
  EXPECT_TRUE(same_bits(p1, p0));
  EXPECT_TRUE(same_bits(p2, SbgPayload{-7.0, 4.0}));
}

TEST(SharedSendTo, VectorBaseSummarizesEachCoordinate) {
  // The vector base hands summary_payload one HonestSummary::of per
  // coordinate of the view, once per round, and an empty span for an
  // empty view.
  class SummarySpy final : public VectorAdversary {
   public:
    std::optional<VecPayload> summary_payload(
        std::span<const HonestSummary> summaries, Round, AgentId) override {
      seen.emplace_back(summaries.begin(), summaries.end());
      return std::nullopt;
    }
    std::vector<std::vector<HonestSummary>> seen;
  };
  const std::vector<Received<VecPayload>> msgs = {
      {AgentId{0}, {Vec{1.0, -0.0, 4.0}, Vec{0.5, 2.0, -1.0}}},
      {AgentId{1}, {Vec{-2.0, 0.0, 4.0}, Vec{1.5, -2.0, 3.0}}},
      {AgentId{2}, {Vec{3.0, 7.0, -4.0}, Vec{0.25, 0.0, 2.0}}}};
  SummarySpy spy;
  spy.send_to(AgentId{9}, AgentId{0}, {Round{1}, msgs});
  spy.send_to(AgentId{9}, AgentId{1}, {Round{1}, msgs});
  spy.send_to(AgentId{9}, AgentId{0}, {Round{2}, {}});
  ASSERT_EQ(spy.seen.size(), 3u);
  for (std::size_t call = 0; call < 2; ++call) {
    ASSERT_EQ(spy.seen[call].size(), 3u);
    for (std::size_t k = 0; k < 3; ++k) {
      std::vector<Received<SbgPayload>> coordinate;
      for (const auto& msg : msgs)
        coordinate.push_back(
            {msg.from, {msg.payload.state[k], msg.payload.gradient[k]}});
      EXPECT_TRUE(same_summary(spy.seen[call][k],
                               HonestSummary::of({Round{1}, coordinate})))
          << "call " << call << " coordinate " << k;
    }
  }
  EXPECT_TRUE(spy.seen[2].empty());
}

TEST(SharedSendTo, ConsistentFactoryStrategiesAnswerEveryRecipientAlike) {
  // make_adversary wraps every kind in a ConsistentWrapper when the
  // config asks, noise included. Asked through send_to, every recipient
  // of a round gets the round's first answer, bit for bit. The rounds
  // straddle delayed-strike's activation.
  constexpr std::uint32_t kRecipients = 9;
  const Rng rng(19);
  for (AttackKind kind : kEveryAttack) {
    SCOPED_TRACE(static_cast<int>(kind));
    EXPECT_EQ(dynamic_cast<ConsistentWrapper*>(
                  make_adversary(attack_config(kind, false), rng).get()),
              nullptr);
    const auto adv = make_adversary(attack_config(kind, true),
                                    rng.substream("adversary", 7));
    EXPECT_NE(dynamic_cast<ConsistentWrapper*>(adv.get()), nullptr);
    Rng draws(23);
    for (std::uint32_t t = 1; t <= 6; ++t) {
      std::vector<Received<SbgPayload>> msgs;
      for (std::uint32_t j = 0; j < kRecipients; ++j)
        msgs.push_back({AgentId{j}, SbgPayload{draws.uniform(-5.0, 5.0),
                                               draws.uniform(-2.0, 2.0)}});
      const RoundView<SbgPayload> view{Round{t}, msgs};
      const std::optional<SbgPayload> first =
          adv->send_to(AgentId{20}, AgentId{0}, view);
      for (std::uint32_t j = 1; j < kRecipients; ++j)
        EXPECT_TRUE(
            same_bits(adv->send_to(AgentId{20}, AgentId{j}, view), first))
            << "round " << t << " recipient " << j;
    }
  }
}

}  // namespace
}  // namespace ftmao
