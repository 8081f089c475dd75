// Tests for the synchronous round engine, the asynchronous event engine,
// and the delay models, using minimal instrumented node types.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "common/contracts.hpp"
#include "net/async.hpp"
#include "net/delay.hpp"
#include "net/sync.hpp"

namespace ftmao {
namespace {

// A node that records everything it sees and broadcasts its id + round.
class RecordingNode final : public SyncNode<int> {
 public:
  explicit RecordingNode(AgentId id) : id_(id) {}

  int broadcast(Round t) override {
    return static_cast<int>(id_.value * 1000 + t.value);
  }

  void step(Round, std::span<const Received<int>> inbox) override {
    inboxes_.emplace_back(inbox.begin(), inbox.end());
  }

  const std::vector<std::vector<Received<int>>>& inboxes() const {
    return inboxes_;
  }

 private:
  AgentId id_;
  std::vector<std::vector<Received<int>>> inboxes_;
};

// Byzantine node sending recipient-dependent values.
class PerRecipientByz final : public ByzantineNode<int> {
 public:
  std::optional<int> send_to(AgentId, AgentId recipient,
                             const RoundView<int>&) override {
    return static_cast<int>(recipient.value) * 7;
  }
};

class OmittingByz final : public ByzantineNode<int> {
 public:
  std::optional<int> send_to(AgentId, AgentId,
                             const RoundView<int>&) override {
    return std::nullopt;
  }
};

// Byzantine node that proves it can see honest broadcasts of the round.
class EchoingByz final : public ByzantineNode<int> {
 public:
  std::optional<int> send_to(AgentId, AgentId,
                             const RoundView<int>& view) override {
    int sum = 0;
    for (const auto& msg : view.honest_broadcasts) sum += msg.payload;
    return sum;
  }
};

TEST(SyncEngine, DeliversAllHonestBroadcasts) {
  RecordingNode a{AgentId{0}}, b{AgentId{1}}, c{AgentId{2}};
  SyncEngine<int> engine;
  engine.add_honest(AgentId{0}, &a);
  engine.add_honest(AgentId{1}, &b);
  engine.add_honest(AgentId{2}, &c);
  engine.run_round(Round{1});

  ASSERT_EQ(a.inboxes().size(), 1u);
  const auto& inbox = a.inboxes()[0];
  ASSERT_EQ(inbox.size(), 2u);  // from b and c, not from itself
  std::set<std::uint32_t> senders;
  for (const auto& msg : inbox) senders.insert(msg.from.value);
  EXPECT_EQ(senders, (std::set<std::uint32_t>{1, 2}));
}

TEST(SyncEngine, OwnBroadcastNotDelivered) {
  RecordingNode a{AgentId{0}}, b{AgentId{1}};
  SyncEngine<int> engine;
  engine.add_honest(AgentId{0}, &a);
  engine.add_honest(AgentId{1}, &b);
  engine.run_round(Round{1});
  for (const auto& msg : a.inboxes()[0]) EXPECT_NE(msg.from, AgentId{0});
}

TEST(SyncEngine, ByzantineSendsPerRecipientValues) {
  RecordingNode a{AgentId{0}}, b{AgentId{1}};
  PerRecipientByz byz;
  SyncEngine<int> engine;
  engine.add_honest(AgentId{0}, &a);
  engine.add_honest(AgentId{1}, &b);
  engine.add_byzantine(AgentId{9}, &byz);
  engine.run_round(Round{1});

  auto find_from = [](const std::vector<Received<int>>& inbox, AgentId id) {
    for (const auto& msg : inbox)
      if (msg.from == id) return msg.payload;
    ADD_FAILURE() << "message not found";
    return -1;
  };
  EXPECT_EQ(find_from(a.inboxes()[0], AgentId{9}), 0 * 7);
  EXPECT_EQ(find_from(b.inboxes()[0], AgentId{9}), 1 * 7);
}

TEST(SyncEngine, OmissionDeliversNothing) {
  RecordingNode a{AgentId{0}}, b{AgentId{1}};
  OmittingByz byz;
  SyncEngine<int> engine;
  engine.add_honest(AgentId{0}, &a);
  engine.add_honest(AgentId{1}, &b);
  engine.add_byzantine(AgentId{5}, &byz);
  engine.run_round(Round{1});
  EXPECT_EQ(a.inboxes()[0].size(), 1u);  // only from b
}

TEST(SyncEngine, ByzantineObservesCurrentRoundHonestBroadcasts) {
  RecordingNode a{AgentId{0}}, b{AgentId{1}};
  EchoingByz byz;
  SyncEngine<int> engine;
  engine.add_honest(AgentId{0}, &a);
  engine.add_honest(AgentId{1}, &b);
  engine.add_byzantine(AgentId{2}, &byz);
  engine.run_round(Round{3});
  // honest broadcasts in round 3: 0*1000+3 and 1*1000+3, summed
  const int expected = (0 * 1000 + 3) + (1 * 1000 + 3);
  bool found = false;
  for (const auto& msg : a.inboxes()[0]) {
    if (msg.from == AgentId{2}) {
      EXPECT_EQ(msg.payload, expected);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(SyncEngine, RunExecutesRequestedRounds) {
  RecordingNode a{AgentId{0}}, b{AgentId{1}};
  SyncEngine<int> engine;
  engine.add_honest(AgentId{0}, &a);
  engine.add_honest(AgentId{1}, &b);
  engine.run(5);
  EXPECT_EQ(a.inboxes().size(), 5u);
  EXPECT_EQ(b.inboxes().size(), 5u);
}

TEST(SyncEngine, DuplicateIdRejected) {
  RecordingNode a{AgentId{0}}, b{AgentId{0}};
  SyncEngine<int> engine;
  engine.add_honest(AgentId{0}, &a);
  EXPECT_THROW(engine.add_honest(AgentId{0}, &b), ContractViolation);
  PerRecipientByz byz;
  EXPECT_THROW(engine.add_byzantine(AgentId{0}, &byz), ContractViolation);
}

TEST(SyncEngine, DeliveryFilterBlocksSelectedLinks) {
  RecordingNode a{AgentId{0}}, b{AgentId{1}}, c{AgentId{2}};
  SyncEngine<int> engine;
  engine.add_honest(AgentId{0}, &a);
  engine.add_honest(AgentId{1}, &b);
  engine.add_honest(AgentId{2}, &c);
  // Block everything from agent 1.
  engine.set_delivery_filter(
      [](AgentId from, AgentId, Round) { return from != AgentId{1}; });
  engine.run_round(Round{1});
  for (const auto& msg : a.inboxes()[0]) EXPECT_NE(msg.from, AgentId{1});
  EXPECT_EQ(a.inboxes()[0].size(), 1u);
  // Agent 1 still receives (only its sends are blocked).
  EXPECT_EQ(b.inboxes()[0].size(), 2u);
}

TEST(SyncEngine, MessageCounterCountsDeliveredOnly) {
  RecordingNode a{AgentId{0}}, b{AgentId{1}}, c{AgentId{2}};
  SyncEngine<int> engine;
  engine.add_honest(AgentId{0}, &a);
  engine.add_honest(AgentId{1}, &b);
  engine.add_honest(AgentId{2}, &c);
  engine.run_round(Round{1});
  EXPECT_EQ(engine.messages_delivered(), 6u);  // 3 recipients x 2 senders
  engine.set_delivery_filter(
      [](AgentId from, AgentId, Round) { return from != AgentId{1}; });
  engine.run_round(Round{2});
  EXPECT_EQ(engine.messages_delivered(), 6u + 4u);  // agent 1's sends dropped
}

// ------------------------------------------------------------ delay models

TEST(Delay, FixedAlwaysSame) {
  FixedDelay d(2.5);
  EXPECT_DOUBLE_EQ(d.delay(AgentId{0}, AgentId{1}, 0.0), 2.5);
  EXPECT_DOUBLE_EQ(d.delay(AgentId{3}, AgentId{2}, 17.0), 2.5);
  EXPECT_THROW(FixedDelay(0.0), ContractViolation);
}

TEST(Delay, UniformWithinRangeAndDeterministic) {
  UniformDelay d1(1.0, 2.0, Rng(5));
  UniformDelay d2(1.0, 2.0, Rng(5));
  for (int i = 0; i < 100; ++i) {
    const double v = d1.delay(AgentId{0}, AgentId{1}, 0.0);
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, 2.0);
    EXPECT_DOUBLE_EQ(v, d2.delay(AgentId{0}, AgentId{1}, 0.0));
  }
}

TEST(Delay, TargetedSlowdownSlowsSelectedSenders) {
  TargetedSlowdown d({AgentId{1}}, 0.5, 9.0);
  EXPECT_DOUBLE_EQ(d.delay(AgentId{1}, AgentId{0}, 0.0), 9.0);
  EXPECT_DOUBLE_EQ(d.delay(AgentId{0}, AgentId{1}, 0.0), 0.5);
}

// ------------------------------------------------------------ async engine

// Minimal async node: waits for `quorum` round-tagged messages (self
// included), then sums them and advances.
class QuorumSummer final : public AsyncNode<int> {
 public:
  QuorumSummer(int seed, std::size_t quorum) : value_(seed), quorum_(quorum) {}

  int initial_broadcast() override { return value_; }

  std::optional<int> on_message(const TaggedMessage<int>& msg) override {
    if (msg.round < round_) return std::nullopt;
    auto& bucket = buffer_[msg.round.value];
    bucket.emplace(msg.from, msg.payload);
    const auto it = buffer_.find(round_.value);
    if (it == buffer_.end() || it->second.size() < quorum_) return std::nullopt;
    int sum = 0;
    for (const auto& [from, v] : it->second) sum += v;
    value_ = sum;
    history_.push_back(sum);
    buffer_.erase(it);
    round_ = round_.next();
    return value_;
  }

  Round current_round() const override { return round_; }
  const std::vector<int>& history() const { return history_; }

 private:
  int value_;
  std::size_t quorum_;
  Round round_{1};
  std::map<std::uint32_t, std::map<AgentId, int>> buffer_;
  std::vector<int> history_;
};

TEST(AsyncEngine, AllNodesCompleteRoundsWithUniformDelays) {
  UniformDelay delays(0.5, 1.5, Rng(3));
  AsyncEngine<int> engine(delays);
  QuorumSummer a(1, 3), b(2, 3), c(4, 3);
  engine.add_honest(AgentId{0}, &a);
  engine.add_honest(AgentId{1}, &b);
  engine.add_honest(AgentId{2}, &c);
  const double time = engine.run_until_round(Round{4});
  EXPECT_GT(time, 0.0);
  EXPECT_GT(a.current_round().value, 4u);
  EXPECT_GT(b.current_round().value, 4u);
  EXPECT_GT(c.current_round().value, 4u);
  // Full quorum of 3 means everyone sums all values: round 1 -> 7 for all.
  ASSERT_GE(a.history().size(), 1u);
  EXPECT_EQ(a.history()[0], 7);
  EXPECT_EQ(b.history()[0], 7);
  EXPECT_EQ(c.history()[0], 7);
}

TEST(AsyncEngine, DeterministicAcrossRuns) {
  auto run = [] {
    UniformDelay delays(0.1, 2.0, Rng(11));
    AsyncEngine<int> engine(delays);
    QuorumSummer a(1, 2), b(2, 2), c(5, 2);
    engine.add_honest(AgentId{0}, &a);
    engine.add_honest(AgentId{1}, &b);
    engine.add_honest(AgentId{2}, &c);
    engine.run_until_round(Round{6});
    return std::tuple{a.history(), b.history(), c.history()};
  };
  EXPECT_EQ(run(), run());
}

// Async Byzantine that sends different values to different recipients.
class AsyncSplitByz final : public ByzantineNode<int> {
 public:
  std::optional<int> send_to(AgentId, AgentId recipient,
                             const RoundView<int>&) override {
    return recipient.value == 0 ? 100 : -100;
  }
};

TEST(AsyncEngine, ByzantineMessagesReachHonestNodes) {
  FixedDelay delays(1.0);
  AsyncEngine<int> engine(delays);
  // Quorum 3 out of {2 honest + 1 byz}: the byz message is required.
  QuorumSummer a(1, 3), b(2, 3);
  AsyncSplitByz byz;
  engine.add_honest(AgentId{0}, &a);
  engine.add_honest(AgentId{1}, &b);
  engine.add_byzantine(AgentId{2}, &byz);
  engine.run_until_round(Round{1});
  ASSERT_GE(a.history().size(), 1u);
  ASSERT_GE(b.history().size(), 1u);
  EXPECT_EQ(a.history()[0], 1 + 2 + 100);
  EXPECT_EQ(b.history()[0], 1 + 2 - 100);
}

TEST(AsyncEngine, SlowSenderDoesNotBlockQuorumProgress) {
  TargetedSlowdown delays({AgentId{2}}, 0.5, 50.0);
  AsyncEngine<int> engine(delays);
  // Quorum 2 of 3: the two fast nodes can advance without the slow one.
  QuorumSummer a(1, 2), b(2, 2), c(4, 2);
  engine.add_honest(AgentId{0}, &a);
  engine.add_honest(AgentId{1}, &b);
  engine.add_honest(AgentId{2}, &c);
  const double time = engine.run_until_round(Round{3});
  EXPECT_GT(a.current_round().value, 3u);
  EXPECT_GT(b.current_round().value, 3u);
  EXPECT_LT(time, 200.0);
}

}  // namespace
}  // namespace ftmao
