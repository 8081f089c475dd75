#include "sim/batch_async_runner.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "adversary/strategies.hpp"
#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "core/async_sbg.hpp"
#include "core/payload.hpp"
#include "core/step_size.hpp"
#include "core/valid_set.hpp"
#include "net/delay.hpp"
#include "sim/batch_grad.hpp"
#include "sim/megabatch.hpp"
#include "simd/simd.hpp"
#include "trim/trim_batch.hpp"

namespace ftmao {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

// ---------------------------------------------------------------------------
// Pass 1: value-free scheduling replay.
// ---------------------------------------------------------------------------

/// One replica's recorded schedule: everything Pass 2 needs to replay the
/// numeric work without the event loop.
struct LaneSchedule {
  std::vector<std::vector<std::uint64_t>> masks;  ///< per honest agent
  std::vector<std::size_t> completed;             ///< per honest agent
  std::vector<std::uint32_t> first_publisher;     ///< per triggered round
  double virtual_time = 0.0;
  std::uint64_t delivered = 0;
};

bool contains(const std::vector<std::size_t>& v, std::size_t x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

// HonestSummary::of a trigger view, which holds one broadcast: every
// order statistic is that broadcast, and the mean folds it as of() does,
// from 0.0, so the sign of a zero is kept.
HonestSummary trigger_summary(double state, double gradient) {
  HonestSummary s;
  s.count = 1;
  s.state = {state, state, state};
  s.gradient = {gradient, gradient, gradient};
  s.gradient_mean = (0.0 + gradient) / 1.0;
  return s;
}

// Flat replay of AsyncEngine<SbgPayload> driving AsyncSbgAgents
// (net/async.hpp, core/async_sbg.cpp) with the values stripped and the
// value-independent slow parts replaced:
//   - events carry (time, seq, to, from, round) — no payload copies, no
//     virtual on_message dispatch;
//   - a round's buffer is the bitmask of distinct senders: stale rounds are
//     dropped, first-per-sender-wins degenerates to an idempotent bit OR,
//     the popcount quorum test compares the same distinct-sender count, and
//     at most one round advances per delivery — so the advance fires on
//     exactly the delivery the real agent's does;
//   - the Byzantine trigger dedup is an O(1) contiguity check against the
//     recorded first-publisher list instead of the engine's O(rounds)
//     membership scan, and the trigger view is the publishing agent alone
//     instead of an O(rounds * n) rescan of every honest broadcast so far.
//     Both rest on the same invariant: a round is triggered at its first
//     successful honest publish (a round-(t+1) publish needs some agent to
//     have completed round t, which needs an earlier honest round-t
//     publish), so at trigger time the view holds exactly that one
//     broadcast. The FTMAO_EXPECTS below rechecks the premise every round.
// Everything order-sensitive is preserved call-for-call: agents are walked
// in the same add (= agent index) order, the delay model is consulted in
// the same (from, to, now) sequence, events tie-break on the same monotone
// seq, and the adversaries are asked in send_to's nesting (sender outer,
// recipient inner), through summary_payload with the trigger view's
// summary — so the delay RNG stream, the adversary RNG streams, and the
// event order are identical to run_async_sbg's engine (asserted per field
// at the bit level by tests/batch_async_runner_test.cpp).
LaneSchedule replay_schedule(const AsyncScenario& s) {
  AsyncSbgConfig config;
  config.n = s.n;
  config.f = s.f;
  config.validate();
  const std::size_t quorum = config.quorum();

  Rng rng(s.seed);
  const std::unique_ptr<DelayModel> delays = make_async_delay_model(s, rng);

  std::vector<std::uint32_t> honest;    // agent ids, index order
  std::vector<std::uint32_t> byz_ids;   // agent ids, index order
  std::vector<std::unique_ptr<SbgAdversary>> adversaries;
  std::vector<std::size_t> honest_slot(s.n, kNone);
  for (std::size_t i = 0; i < s.n; ++i) {
    if (contains(s.faulty, i)) {
      adversaries.push_back(
          make_adversary(s.attack, rng.substream("adversary", i)));
      byz_ids.push_back(static_cast<std::uint32_t>(i));
    } else {
      honest_slot[i] = honest.size();
      honest.push_back(static_cast<std::uint32_t>(i));
    }
  }
  const std::size_t H = honest.size();

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> crash_time(s.n, kInf);
  for (const auto& [who, when] : s.crashes)
    crash_time[who] = std::min(crash_time[who], when);

  struct Ev {
    double time;
    std::uint64_t seq;  // FIFO tie-break, same ordering as AsyncEngine
    std::uint32_t to, from, round;
    bool operator>(const Ev& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };
  std::priority_queue<Ev, std::vector<Ev>, std::greater<Ev>> queue;
  std::uint64_t next_seq = 0;

  LaneSchedule out;
  out.masks.assign(H, {});
  out.completed.assign(H, 0);
  out.first_publisher.reserve(s.rounds + 2);
  std::vector<std::uint32_t> round(H, 1);
  for (auto& m : out.masks) m.reserve(s.rounds + 8);
  // Presence does not depend on the trigger's values: Pass 2 asks again
  // with the true ones.
  const HonestSummary trigger = trigger_summary(0.0, 0.0);

  auto mask_slot = [&](std::size_t u, std::uint32_t r) -> std::uint64_t& {
    auto& v = out.masks[u];
    if (v.size() < r) v.resize(r, 0);
    return v[r - 1];
  };

  auto publish = [&](std::uint32_t from, std::uint32_t r, double now) {
    if (now >= crash_time[from]) return;  // crashed sender: nothing delivered
    for (const std::uint32_t rid : honest) {
      // Self-delivery is immediate (an agent always has its own value).
      const double at = rid == from
                            ? now
                            : now + delays->delay(AgentId{from}, AgentId{rid},
                                                  now);
      queue.push({at, next_seq++, rid, from, r});
    }
    if (!adversaries.empty() && r > out.first_publisher.size()) {
      FTMAO_EXPECTS(r == out.first_publisher.size() + 1);
      out.first_publisher.push_back(from);
      for (std::size_t b = 0; b < adversaries.size(); ++b) {
        const AgentId byz{byz_ids[b]};
        for (const std::uint32_t rid : honest) {
          if (adversaries[b]->summary_payload(trigger, Round{r}, AgentId{rid}))
            queue.push({now + delays->delay(byz, AgentId{rid}, now),
                        next_seq++, rid, byz_ids[b], r});
        }
      }
    }
  };

  // Time 0: everyone broadcasts round 1.
  for (const std::uint32_t id : honest) publish(id, 1, 0.0);

  const auto target = static_cast<std::uint32_t>(s.rounds);
  std::size_t done = 0;  // honest agents with round > target
  double now = 0.0;
  while (!queue.empty() && done < H) {
    const Ev ev = queue.top();
    queue.pop();
    now = ev.time;
    const std::size_t u = honest_slot[ev.to];
    ++out.delivered;
    if (ev.round < round[u]) continue;  // stale round, ignore
    mask_slot(u, ev.round) |= std::uint64_t{1} << ev.from;
    if (std::popcount(mask_slot(u, round[u])) < static_cast<int>(quorum))
      continue;
    out.completed[u] = round[u]++;
    if (round[u] == target + 1) ++done;
    publish(ev.to, round[u], now);
  }
  out.virtual_time = now;
  return out;
}

// ---------------------------------------------------------------------------
// Pass 2 + 3: lockstep numeric replay over SoA lanes.
// ---------------------------------------------------------------------------

class BatchedAsyncRunner {
 public:
  explicit BatchedAsyncRunner(std::span<const AsyncScenario> replicas)
      : replicas_(replicas),
        kernels_(&simd_kernels_for_lanes(replicas.size())) {
    const AsyncScenario& first = replicas.front();
    B_ = replicas.size();
    const std::size_t w = kernels_->width;
    Bpad_ = (B_ + w - 1) / w * w;
    n_ = first.n;
    f_ = first.f;
    rounds_ = first.rounds;
    quorum_ = n_ - f_;

    // Honest engine agents in *index* order — run_async_sbg adds agents in
    // index order with surviving and crashing interleaved, and folds
    // metrics over survivors in that order. (The sync batch runner's
    // survivors-first order does not apply here.)
    honest_pos_.assign(n_, kNone);
    byz_pos_.assign(n_, kNone);
    auto is_crashed = [&first](std::size_t i) {
      for (const auto& [who, when] : first.crashes)
        if (who == i) return true;
      return false;
    };
    for (std::size_t i = 0; i < n_; ++i) {
      if (contains(first.faulty, i)) {
        byz_pos_[i] = faulty_ids_.size();
        faulty_ids_.push_back(AgentId{static_cast<std::uint32_t>(i)});
      } else {
        honest_pos_[i] = honest_ids_.size();
        honest_ids_.push_back(AgentId{static_cast<std::uint32_t>(i)});
        surviving_.push_back(is_crashed(i) ? 0 : 1);
      }
    }
    H_ = honest_ids_.size();
    F_ = faulty_ids_.size();

    // Devirtualized gradient descriptors, SoA, as in the sync runner: a
    // row takes the SIMD kernel only if every replica's cost exposes the
    // same closed-form descriptor shape. finish_row gives transcendental
    // padding lanes neutral widths (scale 0 -> gradient +/-0, benign).
    fns_.assign(H_ * Bpad_, nullptr);
    grad_.init(H_, Bpad_);
    for (std::size_t u = 0; u < H_; ++u) {
      const std::size_t idx = honest_ids_[u].value;
      for (std::size_t r = 0; r < B_; ++r) {
        const std::size_t l = u * Bpad_ + r;
        fns_[l] = replicas[r].functions[idx].get();
        grad_.set(u, l, r == 0, fns_[l]->batch_gradient_kernel());
      }
      grad_.finish_row(u, B_);
    }

    schedules_.reserve(B_);
    adversaries_.resize(B_);
    for (std::size_t r = 0; r < B_; ++r) {
      const AsyncScenario& s = replicas[r];
      schedules_.push_back(make_schedule(s.step));
      // Fresh adversary instances seeded exactly as Pass 1 seeded the ones
      // behind the recorders (Rng substreams are value-independent of draw
      // order). Pass 2 re-issues the same trigger-call sequence, so their
      // RNG streams and presence decisions replay identically — this time
      // against the true payload views.
      Rng rng(s.seed);
      for (const AgentId b : faulty_ids_)
        adversaries_[r].push_back(
            make_adversary(s.attack, rng.substream("adversary", b.value)));
    }

    // Async steps are unconstrained: clamp rows are (-inf, +inf) — the
    // bitwise identity on the stepped value — with an all-zero projection
    // mask, matching the scalar agent's bare trimmed step.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    clo_.assign(Bpad_, -kInf);
    chi_.assign(Bpad_, kInf);
    pemask_.assign(Bpad_, 0.0);

    lambda_.assign(Bpad_, 0.0);
    mx_.resize(n_ * Bpad_);
    mg_.resize(n_ * Bpad_);
    txc_.resize(Bpad_);
    tgc_.resize(Bpad_);
    lamc_.resize(Bpad_);
    nxc_.resize(Bpad_);
    pec_.resize(Bpad_);
    bpx_.assign(H_ * F_ * Bpad_, 0.0);
    bpg_.assign(H_ * F_ * Bpad_, 0.0);
    bucket_lanes_.resize(f_ + 1);
    bucket_masks_.resize(f_ + 1);
  }

  std::vector<AsyncRunMetrics> run() {
    engine_stats_record(B_, B_, Bpad_);
    lanes_.reserve(B_);
    std::size_t t_max = 0;
    for (std::size_t r = 0; r < B_; ++r) {
      lanes_.push_back(replay_schedule(replicas_[r]));
      for (std::size_t c : lanes_.back().completed) t_max = std::max(t_max, c);
    }

    // Full state history, hist(t, u, r): needed for the per-round metric
    // folds and because lanes advance through round t at different event
    // times — a sender's round-t tuple may sit buffered while the batch
    // walks ahead. Gradients only ever reach one round back (a sender in a
    // round-t multiset completed round t-1 and wrote its slot then), so
    // they ping-pong between two planes instead.
    hist_.assign((t_max + 1) * H_ * Bpad_, 0.0);
    g_[0].assign(H_ * Bpad_, 0.0);
    g_[1].assign(H_ * Bpad_, 0.0);
    for (std::size_t u = 0; u < H_; ++u) {
      const std::size_t idx = honest_ids_[u].value;
      for (std::size_t r = 0; r < B_; ++r)
        hist(0, u)[r] = replicas_[r].initial_states[idx];
      write_gradient_row(u, 0, 0);
    }

    for (std::size_t t = 1; t <= t_max; ++t) {
      const std::size_t gprev = (t - 1) & 1;
      const std::size_t gcur = t & 1;
      for (std::size_t r = 0; r < B_; ++r)
        lambda_[r] = schedules_[r]->at(t - 1);
      if (F_ > 0) fill_byzantine(t, gprev);
      for (std::size_t u = 0; u < H_; ++u) {
        step_agent(u, t, gprev);
        write_gradient_row(u, t, gcur);
      }
    }

    return fold_metrics();
  }

 private:
  double* hist(std::size_t t, std::size_t u) {
    return hist_.data() + (t * H_ + u) * Bpad_;
  }

  // Replays every lane's round-t Byzantine trigger: the recorded first
  // publisher's true round-t tuple is the trigger view, and each
  // (recipient, sender) payload lands in its lane-padded row. Presence
  // needs no tracking here: a Byzantine bit in an advance mask implies
  // that round's message was sent (and so freshly written this round);
  // absent payloads leave stale lanes no mask ever selects.
  void fill_byzantine(std::size_t t, std::size_t gprev) {
    const Round round{static_cast<std::uint32_t>(t)};
    for (std::size_t r = 0; r < B_; ++r) {
      const LaneSchedule& lane = lanes_[r];
      if (t > lane.first_publisher.size()) continue;
      const std::uint32_t pub = lane.first_publisher[t - 1];
      const std::size_t up = honest_pos_[pub];
      const HonestSummary trigger = trigger_summary(
          hist(t - 1, up)[r], g_[gprev][up * Bpad_ + r]);
      for (std::size_t b = 0; b < F_; ++b) {
        for (std::size_t u = 0; u < H_; ++u) {
          if (auto p = adversaries_[r][b]->summary_payload(trigger, round,
                                                           honest_ids_[u])) {
            const std::size_t o = (u * F_ + b) * Bpad_ + r;
            bpx_[o] = p->state;
            bpg_[o] = p->gradient;
          }
        }
      }
    }
  }

  // Advances agent u through round t in every lane whose schedule says it
  // completed round t. Multiset sizes vary in [n-f, n] (buffers keep
  // accumulating past the quorum until the delivery-driven advance), so
  // lanes are bucketed by size and each bucket runs the batched trim once.
  void step_agent(std::size_t u, std::size_t t, std::size_t gprev) {
    for (auto& b : bucket_lanes_) b.clear();
    for (auto& b : bucket_masks_) b.clear();
    for (std::size_t r = 0; r < B_; ++r) {
      if (lanes_[r].completed[u] < t) continue;
      const std::uint64_t mask = lanes_[r].masks[u][t - 1];
      const std::size_t m = static_cast<std::size_t>(std::popcount(mask));
      bucket_lanes_[m - quorum_].push_back(static_cast<std::uint32_t>(r));
      bucket_masks_[m - quorum_].push_back(mask);
    }

    const double* gp = g_[gprev].data();
    const double* hprev = hist(t - 1, 0);
    double* hcur = hist(t, 0);
    for (std::size_t bi = 0; bi <= f_; ++bi) {
      const std::size_t count = bucket_lanes_[bi].size();
      if (count == 0) continue;
      const std::size_t m = quorum_ + bi;
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint32_t r = bucket_lanes_[bi][i];
        std::uint64_t mask = bucket_masks_[bi][i];
        // Gather in ascending AgentId order — the order AsyncSbgAgent's
        // std::map iteration feeds trim_value.
        std::size_t row = 0;
        while (mask != 0) {
          const std::size_t s =
              static_cast<std::size_t>(std::countr_zero(mask));
          mask &= mask - 1;
          const std::size_t slot = row * count + i;
          if (honest_pos_[s] != kNone) {
            const std::size_t hl = honest_pos_[s] * Bpad_ + r;
            mx_[slot] = hprev[hl];
            mg_[slot] = gp[hl];
          } else {
            const std::size_t o = (u * F_ + byz_pos_[s]) * Bpad_ + r;
            mx_[slot] = bpx_[o];
            mg_[slot] = bpg_[o];
          }
          ++row;
        }
      }
      trim_batch(mx_.data(), m, count, f_, *kernels_, txc_.data());
      trim_batch(mg_.data(), m, count, f_, *kernels_, tgc_.data());
      for (std::size_t i = 0; i < count; ++i)
        lamc_[i] = lambda_[bucket_lanes_[bi][i]];
      kernels_->fused_step(txc_.data(), tgc_.data(), lamc_.data(), clo_.data(),
                           chi_.data(), pemask_.data(), nxc_.data(),
                           pec_.data(), count);
      const std::size_t ubase = u * Bpad_;
      for (std::size_t i = 0; i < count; ++i)
        hcur[ubase + bucket_lanes_[bi][i]] = nxc_[i];
    }
  }

  // Gradient of agent u's round-t state into g plane `gcur`. Kernel rows
  // evaluate the whole row (lanes that did not complete round t hold a
  // benign 0.0 state and produce garbage gradients no mask ever reads —
  // a sender appears in a round-(t+1) multiset only if it completed round
  // t); virtual rows evaluate only the lanes that completed.
  void write_gradient_row(std::size_t u, std::size_t t, std::size_t gcur) {
    const std::size_t base = u * Bpad_;
    const double* x = hist(t, u);
    double* g = g_[gcur].data() + base;
    if (grad_.fast(u)) {
      grad_.run(*kernels_, u, x, g);
    } else {
      for (std::size_t r = 0; r < B_; ++r) {
        if (lanes_[r].completed[u] >= t)
          g[r] = fns_[base + r]->derivative(x[r]);
      }
    }
  }

  // Pass 3: per-replica metrics, mirroring run_async_sbg's fold exactly —
  // survivors in index order, lo/hi seeded from the first survivor, the
  // distance fold seeded from 0.0.
  std::vector<AsyncRunMetrics> fold_metrics() {
    std::vector<AsyncRunMetrics> out(B_);
    for (std::size_t r = 0; r < B_; ++r) {
      AsyncRunMetrics& m = out[r];
      const LaneSchedule& lane = lanes_[r];
      std::vector<ScalarFunctionPtr> honest_fns;
      for (std::size_t u = 0; u < H_; ++u) {
        if (surviving_[u])
          honest_fns.push_back(replicas_[r].functions[honest_ids_[u].value]);
      }
      const ValidFamily family(honest_fns, f_);
      m.optima = family.optima_set();
      m.virtual_time = lane.virtual_time;
      m.messages_delivered = lane.delivered;

      std::size_t common_rounds = rounds_ + 1;
      std::size_t first_survivor = kNone;
      for (std::size_t u = 0; u < H_; ++u) {
        if (!surviving_[u]) continue;
        if (first_survivor == kNone) first_survivor = u;
        common_rounds = std::min(common_rounds, lane.completed[u] + 1);
      }
      for (std::size_t t = 0; t < common_rounds; ++t) {
        double lo = hist(t, first_survivor)[r];
        double hi = lo;
        double dist = 0.0;
        for (std::size_t u = 0; u < H_; ++u) {
          if (!surviving_[u]) continue;
          const double x = hist(t, u)[r];
          lo = std::min(lo, x);
          hi = std::max(hi, x);
          dist = std::max(dist, m.optima.distance_to(x));
        }
        m.disagreement.push(hi - lo);
        m.max_dist_to_y.push(dist);
      }
      for (std::size_t u = 0; u < H_; ++u) {
        if (surviving_[u])
          m.final_states.push_back(hist(lane.completed[u], u)[r]);
      }
    }
    return out;
  }

  std::span<const AsyncScenario> replicas_;
  const SimdKernels* kernels_;
  std::size_t B_ = 0, Bpad_ = 0, n_ = 0, f_ = 0, rounds_ = 0, quorum_ = 0;
  std::size_t H_ = 0, F_ = 0;
  std::vector<AgentId> honest_ids_;  ///< index order (crashing interleaved)
  std::vector<AgentId> faulty_ids_;
  std::vector<std::uint8_t> surviving_;    ///< per honest agent
  std::vector<std::size_t> honest_pos_;    ///< agent index -> honest slot
  std::vector<std::size_t> byz_pos_;       ///< agent index -> faulty slot

  std::vector<const ScalarFunction*> fns_;  ///< (honest, lane), Bpad stride
  BatchGradientPlanes grad_;
  std::vector<std::unique_ptr<StepSchedule>> schedules_;
  std::vector<std::vector<std::unique_ptr<SbgAdversary>>> adversaries_;

  std::vector<LaneSchedule> lanes_;
  std::vector<double> hist_;  ///< (t, honest, lane)
  std::vector<double> g_[2];  ///< gradient ping-pong planes
  std::vector<double> bpx_, bpg_;  ///< (recipient, byz, lane) round payloads
  std::vector<double> clo_, chi_, pemask_, lambda_;
  std::vector<double> mx_, mg_;  ///< gather matrices, compact column stride
  std::vector<double> txc_, tgc_, lamc_, nxc_, pec_;
  std::vector<std::vector<std::uint32_t>> bucket_lanes_;
  std::vector<std::vector<std::uint64_t>> bucket_masks_;
};

}  // namespace

std::vector<AsyncRunMetrics> run_async_sbg_batch(
    std::span<const AsyncScenario> replicas) {
  if (replicas.empty()) return {};
  const AsyncScenario& first = replicas.front();
  for (const AsyncScenario& s : replicas) {
    s.validate();
    FTMAO_EXPECTS(s.n == first.n);
    FTMAO_EXPECTS(s.f == first.f);
    FTMAO_EXPECTS(s.faulty == first.faulty);
    FTMAO_EXPECTS(s.crashes == first.crashes);
    FTMAO_EXPECTS(s.rounds == first.rounds);
  }
  // One sender-mask bit per agent, and the trims on the networks.
  static_assert(kMaxSortingNetworkN <= 64);
  FTMAO_EXPECTS(first.n <= kMaxSortingNetworkN);
  return BatchedAsyncRunner(replicas).run();
}

}  // namespace ftmao
