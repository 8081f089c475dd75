#pragma once

// Asynchronous event-driven engine (Section 7's asynchronous extension).
//
// Messages carry a round tag and arrive after model-chosen delays. An
// honest node advances its round when it holds round-tagged messages from
// a quorum of distinct senders (the n > 5f variant uses quorum n - f,
// counting itself); advancing produces the next round's broadcast.
//
// Byzantine agents are triggered per round: as soon as the first honest
// broadcast of round t exists, each Byzantine agent chooses a per-recipient
// (possibly inconsistent, possibly absent) round-t payload, observing the
// honest round-t payloads that exist so far. They are the synchronous
// engine's ByzantineNode (net/sync.hpp), asked through the same send_to,
// so one strategy serves both engines. The engine is deterministic given
// the delay model's seed.

#include <cstdint>
#include <optional>
#include <queue>
#include <span>
#include <vector>

#include "common/contracts.hpp"
#include "common/types.hpp"
#include "net/delay.hpp"
#include "net/sync.hpp"

namespace ftmao {

template <typename P>
struct TaggedMessage {
  AgentId from;
  Round round;
  P payload;
};

/// Honest asynchronous node: buffers tagged messages internally and
/// reports a new broadcast when its quorum for the current round is met.
template <typename P>
class AsyncNode {
 public:
  virtual ~AsyncNode() = default;

  /// Round-1 payload, emitted at time 0.
  virtual P initial_broadcast() = 0;

  /// Delivers one message. Returns the next round's broadcast payload if
  /// this delivery completed the current round's quorum, otherwise
  /// nullopt. May be called with future-round messages (buffer them) and
  /// duplicate senders (ignore repeats).
  virtual std::optional<P> on_message(const TaggedMessage<P>& msg) = 0;

  /// Round the node is currently collecting (1-based).
  virtual Round current_round() const = 0;
};

template <typename P>
class AsyncEngine {
 public:
  explicit AsyncEngine(DelayModel& delays) : delays_(&delays) {}

  void add_honest(AgentId id, AsyncNode<P>* node) {
    FTMAO_EXPECTS(node != nullptr);
    honest_.push_back({id, node});
  }

  void add_byzantine(AgentId id, ByzantineNode<P>* node) {
    FTMAO_EXPECTS(node != nullptr);
    byzantine_.push_back({id, node});
  }

  /// Total deliveries processed so far.
  std::uint64_t messages_delivered() const { return delivered_; }

  /// Silences a sender from `time` on (crash fault: the node may keep
  /// running locally, but nothing it sends after the crash is delivered).
  void set_sender_crash(AgentId id, double time) {
    FTMAO_EXPECTS(time >= 0.0);
    crashes_.push_back({id, time});
  }

  /// Runs until every honest node has advanced past `target_round` or no
  /// events remain. Returns the virtual time consumed.
  double run_until_round(Round target_round) {
    // Time 0: everyone broadcasts round 1.
    for (auto& [id, node] : honest_) {
      publish(id, Round{1}, node->initial_broadcast(), 0.0);
    }
    double now = 0.0;
    while (!queue_.empty() && !all_done(target_round)) {
      Event ev = queue_.top();
      queue_.pop();
      now = ev.time;
      AsyncNode<P>* node = find_honest(ev.to);
      if (node == nullptr) continue;  // recipient not honest (shouldn't happen)
      ++delivered_;
      if (auto next = node->on_message(ev.msg)) {
        publish(ev.to, node->current_round(), *next, now);
      }
    }
    return now;
  }

 private:
  struct Event {
    double time;
    std::uint64_t seq;  // FIFO tie-break for determinism
    AgentId to;
    TaggedMessage<P> msg;

    bool operator>(const Event& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  // Broadcasts `payload` tagged `round` from an honest sender, schedules
  // deliveries, and triggers Byzantine round-`round` sends on the first
  // honest broadcast of that round.
  bool sender_crashed(AgentId from, double now) const {
    for (const auto& [id, time] : crashes_) {
      if (id == from && now >= time) return true;
    }
    return false;
  }

  void publish(AgentId from, Round round, const P& payload, double now) {
    if (sender_crashed(from, now)) return;
    honest_round_msgs_.push_back({from, round, payload});
    for (auto& [rid, rnode] : honest_) {
      if (rid == from) {
        // Self-delivery is immediate (an agent always has its own value).
        enqueue(now, rid, {from, round, payload});
      } else {
        enqueue(now + delays_->delay(from, rid, now), rid,
                {from, round, payload});
      }
    }
    trigger_byzantine(round, now);
  }

  void trigger_byzantine(Round round, double now) {
    if (byzantine_.empty()) return;
    if (std::find(byz_rounds_sent_.begin(), byz_rounds_sent_.end(), round) !=
        byz_rounds_sent_.end())
      return;
    byz_rounds_sent_.push_back(round);

    std::vector<Received<P>> visible;
    for (const auto& m : honest_round_msgs_) {
      if (m.round == round) visible.push_back({m.from, m.payload});
    }
    const RoundView<P> view{round, visible};
    for (auto& [bid, bnode] : byzantine_) {
      for (auto& [rid, rnode] : honest_) {
        if (auto payload = bnode->send_to(bid, rid, view)) {
          enqueue(now + delays_->delay(bid, rid, now), rid,
                  {bid, round, *payload});
        }
      }
    }
  }

  void enqueue(double time, AgentId to, TaggedMessage<P> msg) {
    queue_.push(Event{time, next_seq_++, to, std::move(msg)});
  }

  AsyncNode<P>* find_honest(AgentId id) {
    for (auto& [hid, node] : honest_)
      if (hid == id) return node;
    return nullptr;
  }

  bool all_done(Round target) const {
    for (const auto& [id, node] : honest_) {
      if (node->current_round() <= target) return false;
    }
    return true;
  }

  DelayModel* delays_;
  std::vector<std::pair<AgentId, AsyncNode<P>*>> honest_;
  std::vector<std::pair<AgentId, ByzantineNode<P>*>> byzantine_;
  std::vector<TaggedMessage<P>> honest_round_msgs_;
  std::vector<Round> byz_rounds_sent_;
  std::vector<std::pair<AgentId, double>> crashes_;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t delivered_ = 0;
};

}  // namespace ftmao
