#include "sim/batch_runner.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "adversary/strategies.hpp"
#include "baseline/consistent.hpp"
#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "core/admissibility.hpp"
#include "core/payload.hpp"
#include "core/step_size.hpp"
#include "core/valid_set.hpp"
#include "net/batch.hpp"
#include "sim/batch_grad.hpp"
#include "sim/broadcast_selection.hpp"
#include "sim/megabatch.hpp"
#include "simd/simd.hpp"
#include "trim/trim_batch.hpp"

namespace ftmao {

namespace {

// All-ones mask double for masked_blend (a lane is "taken" iff any bit is
// set; stored masks are all-ones / all-zeros).
const double kAllBits = std::bit_cast<double>(~std::uint64_t{0});

// Advances B replicas of one scenario shape in lockstep. SoA lane layout:
// every per-agent array is indexed lane(j, r) = j * Bpad + r, where Bpad
// rounds B up to the active SIMD backend's lane width, so one agent's
// values across the batch are contiguous, vector-aligned rows for the
// explicit lane kernels (simd/simd.hpp). Lanes r >= B are padding: they
// hold benign finite values, are advanced by the same strictly lanewise
// kernels (so they can never contaminate a real lane), and are never read
// back. See batch_runner.hpp for the determinism contract.
class BatchedSbgRunner {
 public:
  BatchedSbgRunner(std::span<const Scenario> replicas,
                   const RunOptions& options)
      : scenarios_(replicas),
        options_(options),
        kernels_(&simd_kernels_for_lanes(replicas.size())) {
    FTMAO_EXPECTS(!replicas.empty());
    const Scenario& first = replicas.front();
    for (const Scenario& s : replicas) {
      s.validate();
      // Shape fields must match across the batch; everything else (seed,
      // functions, states, attack, step, constraint, drops) is per-replica.
      FTMAO_EXPECTS(s.n == first.n);
      FTMAO_EXPECTS(s.f == first.f);
      FTMAO_EXPECTS(s.rounds == first.rounds);
      FTMAO_EXPECTS(s.faulty == first.faulty);
      FTMAO_EXPECTS(s.crashes == first.crashes);
    }
    B_ = replicas.size();
    Bpad_ = ((B_ + kernels_->width - 1) / kernels_->width) * kernels_->width;
    n_ = first.n;
    f_ = first.f;
    rounds_ = first.rounds;

    // Engine-honest population in the scalar runner's add order: surviving
    // honest agents first (metrics are taken over exactly these), then
    // crashing-but-honest agents.
    const std::vector<std::size_t> honest_idx = first.honest_indices();
    S_ = honest_idx.size();
    honest_ids_.reserve(honest_idx.size() + first.crashes.size());
    for (std::size_t idx : honest_idx)
      honest_ids_.push_back(AgentId{static_cast<std::uint32_t>(idx)});
    for (const auto& [who, when] : first.crashes)
      honest_ids_.push_back(AgentId{static_cast<std::uint32_t>(who)});
    H_ = honest_ids_.size();
    F_ = first.faulty.size();
    FTMAO_EXPECTS(H_ + F_ == n_);
    FTMAO_EXPECTS(n_ <= kMaxSortingNetworkN);

    fns_.resize(H_ * Bpad_);
    x_.resize(H_ * Bpad_);
    bx_.resize(H_ * Bpad_);
    bg_.resize(H_ * Bpad_);
    // Devirtualized gradient descriptors, SoA. A row (= one agent across
    // all replicas) takes the SIMD fast path only if every replica's cost
    // exposes the SAME kernel shape (clamp / tanh / smooth-abs /
    // softplus-diff); mixed rows keep the virtual per-replica
    // derivative() calls. finish_row gives transcendental padding lanes
    // neutral widths (their shapes divide by the width parameter).
    grad_.init(H_, Bpad_);
    for (std::size_t j = 0; j < H_; ++j) {
      const std::size_t idx = honest_ids_[j].value;
      for (std::size_t r = 0; r < B_; ++r) {
        const Scenario& s = replicas[r];
        const std::size_t l = lane(j, r);
        fns_[l] = s.functions[idx].get();
        grad_.set(j, l, r == 0, fns_[l]->batch_gradient_kernel());
        double x0 = s.initial_states[idx];
        if (s.constraint) x0 = s.constraint->project(x0);
        x_[l] = x0;
      }
      grad_.finish_row(j, B_);
    }

    schedules_.reserve(B_);
    families_.reserve(B_);
    constraint_.reserve(B_);
    defaults_.reserve(B_);
    drop_p_.reserve(B_);
    drop_seed_.reserve(B_);
    filter_on_.reserve(B_);
    adversaries_.resize(B_);
    wrappers_.resize(B_);
    byz_nodes_.resize(B_);
    has_crashes_ = !first.crashes.empty();
    constexpr std::uint32_t kNeverCrashes =
        std::numeric_limits<std::uint32_t>::max();
    crash_round_.assign(n_, kNeverCrashes);
    for (const auto& [who, when] : first.crashes)
      crash_round_[who] = static_cast<std::uint32_t>(when);

    for (std::size_t r = 0; r < B_; ++r) {
      const Scenario& s = replicas[r];
      schedules_.push_back(make_schedule(s.step));
      families_.emplace_back(s.honest_functions(), s.f);
      constraint_.push_back(s.constraint);
      defaults_.push_back(s.default_payload);
      drop_p_.push_back(s.drop_probability);
      drop_seed_.push_back(mix64(s.seed ^ 0xD509F00DULL));
      filter_on_.push_back(s.drop_probability > 0.0 || has_crashes_ ? 1 : 0);
      any_filter_ = any_filter_ || filter_on_.back() != 0;

      // Per-replica adversary objects, seeded exactly as the scalar runner
      // seeds them, so randomized strategies consume identical streams.
      Rng rng(s.seed);
      for (std::size_t idx : s.faulty) {
        adversaries_[r].push_back(
            make_adversary(s.attack, rng.substream("adversary", idx)));
        SbgAdversary* node = adversaries_[r].back().get();
        if (s.attack.consistent) {
          wrappers_[r].push_back(
              std::make_unique<ConsistentWrapper>(*adversaries_[r].back()));
          node = wrappers_[r].back().get();
        }
        byz_nodes_[r].push_back(node);
      }
    }

    // Recipient classes from the strategies' declarations. Every sender
    // of a replica is built from one config, so the first one speaks for
    // all; without senders every recipient trims the same multiset.
    std::vector<RecipientClass> declared(B_ * H_, 0);
    if (F_ > 0) {
      for (std::size_t r = 0; r < B_; ++r)
        for (std::size_t j = 0; j < H_; ++j)
          declared[r * H_ + j] =
              byz_nodes_[r][0]->recipient_class(honest_ids_[j]);
    }
    partition_ = partition_recipients(declared, B_, H_);

    // Trim by selection: the honest order statistics the trims read are
    // selected once per round (once per recipient under a delivery
    // filter), and each class's Byzantine rows are merged into them. The
    // rows are one payload where every replica declares classes; a
    // per-message replica may send each recipient F different rows.
    // Strategies are asked summary_payload with the HonestSummary of the
    // selected broadcasts.
    payload_rows_ =
        partition_.any_per_message ? F_ : std::min<std::size_t>(F_, 1);
    const RankSet trim_ranks = merge_trim_ranks(H_, F_, f_, payload_rows_);
    selection_.init(H_, Bpad_, any_filter_ ? 0 : trim_ranks, F_ > 0);
    if (any_filter_) recipient_net_ = selection_network(H_, trim_ranks);

    FTMAO_EXPECTS(options_.record_series || !options_.record_trace);
    metrics_.resize(B_);
    for (std::size_t r = 0; r < B_; ++r) {
      metrics_[r].optima = families_[r].optima_set();
      if (options_.record_trace) {
        metrics_[r].trace.emplace();
        metrics_[r].trace->honest_ids = honest_idx;
      }
    }

    // Per-replica projection parameters, SoA for the fused step kernel.
    // Unconstrained lanes clamp against (-inf, +inf) — a bitwise identity
    // on the unprojected value — with an all-zero mask selecting the
    // literal 0.0 projection error the scalar path records. Padding lanes
    // clamp to [0, 0] with mask 0, pinning them at a benign finite value.
    clo_.assign(Bpad_, 0.0);
    chi_.assign(Bpad_, 0.0);
    pemask_.assign(Bpad_, 0.0);
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < B_; ++r) {
      if (constraint_[r]) {
        clo_[r] = constraint_[r]->lo();
        chi_[r] = constraint_[r]->hi();
        pemask_[r] = kAllBits;
      } else {
        clo_[r] = -kInf;
        chi_[r] = kInf;
      }
    }

    if (any_filter_) {
      dx_.resize(H_ * Bpad_);
      dg_.resize(H_ * Bpad_);
    }
    ctx_.resize(H_ * Bpad_);
    ctg_.resize(H_ * Bpad_);
    trim_done_.assign(H_, 0);
    lambda_.assign(Bpad_, 0.0);
    pe_.assign(H_ * Bpad_, 0.0);
    trimmed_state_.resize(S_ * Bpad_);
    trimmed_gradient_.resize(S_ * Bpad_);
    // Byzantine payload matrices, lane-padded to stride Bpad so each
    // (class, sender) row is a whole vector row for the masked blend;
    // presence is a stored all-ones/all-zeros double mask. Padding lanes
    // keep mask 0 and blend to the (benign) default row.
    const std::size_t payload_rows = partition_.classes * payload_rows_;
    bpx_.assign(payload_rows * Bpad_, 0.0);
    bpg_.assign(payload_rows * Bpad_, 0.0);
    bpresent_.assign(payload_rows * Bpad_, 0.0);
    // Per-replica default payloads as SoA rows for the blend kernels.
    defx_.assign(Bpad_, 0.0);
    defg_.assign(Bpad_, 0.0);
    for (std::size_t r = 0; r < B_; ++r) {
      defx_[r] = defaults_[r].state;
      defg_[r] = defaults_[r].gradient;
    }
    dmask_.assign(Bpad_, 0.0);
    vx_.resize(payload_rows_ * Bpad_);
    vg_.resize(payload_rows_ * Bpad_);
  }

  std::vector<RunMetrics> run() {
    engine_stats_record(B_, B_, Bpad_);
    if (options_.record_series) {
      for (std::size_t r = 0; r < B_; ++r) {
        record(r);
        metrics_[r].max_projection_error.push(0.0);
      }
    }

    for (std::size_t t = 1; t <= rounds_; ++t) {
      const bool audit = options_.audit_witnesses &&
                         t <= options_.audit_max_rounds &&
                         (t - 1) % options_.audit_every == 0;
      const Round round{static_cast<std::uint32_t>(t)};

      broadcast_phase();
      if (selection_.active())
        selection_.select(bx_.data(), bg_.data(), *kernels_);
      if (F_ > 0) collect_byzantine(round);
      for (std::size_t r = 0; r < B_; ++r)
        lambda_[r] = schedules_[r]->at(t - 1);
      std::fill(trim_done_.begin(), trim_done_.end(), std::uint8_t{0});
      for (std::size_t j = 0; j < H_; ++j) step_recipient(j, round, audit);
      finish_round(audit, options_.record_series || t == rounds_);
    }

    for (std::size_t r = 0; r < B_; ++r) {
      metrics_[r].final_states.reserve(S_);
      for (std::size_t j = 0; j < S_; ++j)
        metrics_[r].final_states.push_back(x_[lane(j, r)]);
    }
    return std::move(metrics_);
  }

 private:
  std::size_t lane(std::size_t j, std::size_t r) const {
    return j * Bpad_ + r;
  }

  // Mirrors the delivery filter the scalar runner installs (crash
  // silencing + seeded link drops) for an honest sender. Byzantine
  // messages are never filtered: drops exempt them and Scenario::validate
  // keeps crashes off the faulty set.
  bool deliverable(std::uint32_t from, std::uint32_t to, std::uint32_t t,
                   std::size_t r) const {
    if (!filter_on_[r]) return true;
    if (t >= crash_round_[from]) return false;
    const double p = drop_p_[r];
    if (p <= 0.0) return true;
    std::uint64_t h = mix64(drop_seed_[r] ^ from);
    h = mix64(h ^ to);
    h = mix64(h ^ t);
    return static_cast<double>(h >> 11) * 0x1.0p-53 >= p;
  }

  // Step 1: every engine-honest agent's broadcast, SoA. Rows whose costs
  // all expose the same closed-form descriptor shape (clamp or one of
  // the transcendental kinds) evaluate h'(x) through the SIMD gradient
  // kernel — one indirect call per row instead of one virtual call per
  // lane; derivative() is pure, so the reordering is unobservable and
  // every kernel is pinned bitwise to derivative() by the
  // BatchGradientKernel contract.
  void broadcast_phase() {
    for (std::size_t j = 0; j < H_; ++j) {
      const std::size_t base = lane(j, 0);
      const double* x = x_.data() + base;
      double* bx = bx_.data() + base;
      double* bg = bg_.data() + base;
      std::memcpy(bx, x, Bpad_ * sizeof(double));
      if (grad_.fast(j)) {
        grad_.run(*kernels_, j, x, bg);
      } else {
        for (std::size_t r = 0; r < B_; ++r)
          bg[r] = fns_[base + r]->derivative(x[r]);
      }
    }
  }

  // Step 2a for the whole round: the Byzantine payload rows of every
  // recipient class (partition_), each strategy asked summary_payload
  // with the HonestSummary of its replica's selected broadcasts. A
  // replica whose strategy declares classes is asked once per class, at
  // the class's first recipient, and the answer fills the class's row:
  // the declaration promises a payload that depends only on the attack
  // config and the round's broadcasts, and all F senders of a replica
  // are built from one config. A per-message replica is asked for every
  // (recipient, sender) in the scalar engine's call order (recipient
  // outer, sender inner), so its RNG streams advance identically; each
  // recipient is then its own class with F rows.
  void collect_byzantine(Round t) {
    const std::size_t C = partition_.classes;
    for (std::size_t r = 0; r < B_; ++r) {
      const HonestSummary summary = selection_.summary(r);
      if (partition_.per_message[r]) {
        for (std::size_t j = 0; j < H_; ++j)
          for (std::size_t b = 0; b < F_; ++b)
            store_payload(partition_.class_of[j], b, r,
                          byz_nodes_[r][b]->summary_payload(
                              summary, t, honest_ids_[j]));
        continue;
      }
      SbgAdversary& node = *byz_nodes_[r][0];
      for (std::size_t c = 0; c < C; ++c) {
        const std::size_t src = partition_.source[r * C + c];
        if (src == c) {
          const std::optional<SbgPayload> payload = node.summary_payload(
              summary, t, honest_ids_[partition_.first[c]]);
          for (std::size_t b = 0; b < payload_rows_; ++b)
            store_payload(c, b, r, payload);
          continue;
        }
        for (std::size_t b = 0; b < payload_rows_; ++b) {
          const std::size_t from = (src * payload_rows_ + b) * Bpad_ + r;
          const std::size_t to = (c * payload_rows_ + b) * Bpad_ + r;
          bpx_[to] = bpx_[from];
          bpg_[to] = bpg_[from];
          bpresent_[to] = bpresent_[from];
        }
      }
    }
  }

  void store_payload(std::size_t c, std::size_t b, std::size_t r,
                     const std::optional<SbgPayload>& payload) {
    const std::size_t o = (c * payload_rows_ + b) * Bpad_ + r;
    bpx_[o] = payload ? payload->state : 0.0;
    bpg_[o] = payload ? payload->gradient : 0.0;
    bpresent_[o] = payload ? kAllBits : 0.0;
  }

  // Steps 2b-3 for one recipient across all replicas: trim the D^x/D^g
  // multisets with the batched kernels, apply the gradient step.
  void step_recipient(std::size_t j, Round t, bool audit) {
    const std::size_t cls = partition_.class_of[j];

    // Class trim sharing: without a delivery filter every recipient's
    // honest rows are all H broadcasts, so recipients of one class trim
    // bitwise the same multiset in a different (trim-irrelevant) order.
    // The first recipient of each class computes the trim pair into the
    // class row and the rest reuse its bits. A filter makes the honest
    // rows per-recipient, so then each recipient trims its own.
    const std::size_t unit = any_filter_ ? j : cls;
    double* tx = ctx_.data() + unit * Bpad_;
    double* tg = ctg_.data() + unit * Bpad_;
    if (!trim_done_[unit]) {
      trim_done_[unit] = 1;
      trim(j, cls, t, tx, tg);
    }

    // Fused projected step across the whole lane row:
    //   u = tx - lambda * tg;  x = clamp(u, clo, chi);  pe = masked(x - u)
    // — the scalar update's exact operation sequence (Interval::project is
    // std::clamp, matched tie-for-tie by the lane clamp; unconstrained
    // lanes clamp against +/-inf, a bitwise identity).
    const std::size_t base = lane(j, 0);
    kernels_->fused_step(tx, tg, lambda_.data(), clo_.data(),
                         chi_.data(), pemask_.data(), x_.data() + base,
                         pe_.data() + base, Bpad_);
    if (audit && j < S_) {
      std::memcpy(trimmed_state_.data() + base, tx, Bpad_ * sizeof(double));
      std::memcpy(trimmed_gradient_.data() + base, tg,
                  Bpad_ * sizeof(double));
    }
  }

  // The honest rows of recipient j's multisets into dx_/dg_: its own
  // tuple, then every other engine-honest sender's, undelivered ones
  // replaced by the default payload, as the scalar agent substitutes
  // them. Order is irrelevant to Trim.
  void assemble_honest(std::size_t j, Round t) {
    const AgentId rid = honest_ids_[j];
    double* dx = dx_.data();
    double* dg = dg_.data();
    std::size_t slot = 0;
    std::memcpy(dx, bx_.data() + lane(j, 0), Bpad_ * sizeof(double));
    std::memcpy(dg, bg_.data() + lane(j, 0), Bpad_ * sizeof(double));
    ++slot;
    for (std::size_t s = 0; s < H_; ++s) {
      if (s == j) continue;
      double* dxr = dx + slot * Bpad_;
      double* dgr = dg + slot * Bpad_;
      const double* sx = bx_.data() + lane(s, 0);
      const double* sg = bg_.data() + lane(s, 0);
      if (!any_filter_) {
        std::memcpy(dxr, sx, Bpad_ * sizeof(double));
        std::memcpy(dgr, sg, Bpad_ * sizeof(double));
      } else {
        // The per-lane drop decision is an integer hash (inherently
        // scalar); the payload-vs-default substitution it gates is a
        // full-row masked lane blend. Padding lanes of dmask_ stay 0
        // and blend to the benign default row.
        const std::uint32_t sid = honest_ids_[s].value;
        for (std::size_t r = 0; r < B_; ++r)
          dmask_[r] = deliverable(sid, rid.value, t.value, r) ? kAllBits : 0.0;
        kernels_->masked_blend(dmask_.data(), sx, sg, defx_.data(),
                               defg_.data(), dxr, dgr, Bpad_);
      }
      ++slot;
    }
    FTMAO_ENSURES(slot == H_);
  }

  // The trim pair: the honest order statistics (this round's broadcast
  // selection, or recipient j's own rows selected under a delivery
  // filter) merged with the class's Byzantine rows, absent payloads
  // (a silent adversary) blended to the default payload.
  void trim(std::size_t j, std::size_t cls, Round t, double* tx,
            double* tg) {
    const double* hx = selection_.states();
    const double* hg = selection_.gradients();
    if (any_filter_) {
      assemble_honest(j, t);
      apply_network(dx_.data(), Bpad_, recipient_net_, *kernels_);
      apply_network(dg_.data(), Bpad_, recipient_net_, *kernels_);
      hx = dx_.data();
      hg = dg_.data();
    }
    for (std::size_t b = 0; b < payload_rows_; ++b) {
      const std::size_t o = (cls * payload_rows_ + b) * Bpad_;
      kernels_->masked_blend(bpresent_.data() + o, bpx_.data() + o,
                             bpg_.data() + o, defx_.data(), defg_.data(),
                             vx_.data() + b * Bpad_, vg_.data() + b * Bpad_,
                             Bpad_);
    }
    merge_trim_batch(hx, H_, F_, f_, vx_.data(), payload_rows_, Bpad_,
                     *kernels_, tx);
    merge_trim_batch(hg, H_, F_, f_, vg_.data(), payload_rows_, Bpad_,
                     *kernels_, tg);
  }

  // Post-round bookkeeping per replica: metric series and the
  // projection-error fold (when `keep`), witness audits — each in the
  // scalar runner's operation order.
  void finish_round(bool audit, bool keep) {
    std::vector<double> pre_states;
    std::vector<double> pre_gradients;
    for (std::size_t r = 0; r < B_; ++r) {
      if (keep) record(r);

      if (audit) {
        pre_states.clear();
        pre_gradients.clear();
        for (std::size_t j = 0; j < S_; ++j) {
          pre_states.push_back(bx_[lane(j, r)]);
          pre_gradients.push_back(bg_[lane(j, r)]);
        }
        auto absorb = [](WitnessStats& stats, const TrimAuditResult& res) {
          ++stats.checks;
          if (!res.witness_found) ++stats.failures;
          if (!res.exact) ++stats.inexact;
          if (res.witness_found) {
            stats.min_weight_seen =
                std::min(stats.min_weight_seen, res.min_support_weight);
            stats.min_support_seen =
                std::min(stats.min_support_seen, res.support_size);
          }
        };
        RunMetrics& m = metrics_[r];
        for (std::size_t j = 0; j < S_; ++j) {
          absorb(m.state_witness,
                 audit_trim(pre_states, trimmed_state_[lane(j, r)], f_));
          absorb(m.gradient_witness,
                 audit_trim(pre_gradients, trimmed_gradient_[lane(j, r)], f_));
        }
      }
      if (keep) {
        double max_proj = 0.0;
        for (std::size_t j = 0; j < S_; ++j)
          max_proj = std::max(max_proj, std::abs(pe_[lane(j, r)]));
        metrics_[r].max_projection_error.push(max_proj);
      }
    }
  }

  void record(std::size_t r) {
    RunMetrics& m = metrics_[r];
    double lo = x_[lane(0, r)];
    double hi = lo;
    double dist = families_[r].distance_to_optima(lo);
    std::vector<double> snapshot;
    if (m.trace) snapshot.reserve(S_);
    for (std::size_t j = 0; j < S_; ++j) {
      const double xv = x_[lane(j, r)];
      lo = std::min(lo, xv);
      hi = std::max(hi, xv);
      dist = std::max(dist, families_[r].distance_to_optima(xv));
      if (m.trace) snapshot.push_back(xv);
    }
    m.disagreement.push(hi - lo);
    m.max_dist_to_y.push(dist);
    if (m.trace) m.trace->rounds.push_back(std::move(snapshot));
  }

  std::span<const Scenario> scenarios_;
  RunOptions options_;
  const SimdKernels* kernels_;  ///< active lane backend, captured once
  std::size_t B_ = 0;       ///< replicas in the batch
  std::size_t Bpad_ = 0;    ///< B rounded up to the backend lane width
  std::size_t n_ = 0;       ///< total agents
  std::size_t f_ = 0;       ///< fault bound
  std::size_t rounds_ = 0;
  std::size_t S_ = 0;       ///< surviving honest agents (metric population)
  std::size_t H_ = 0;       ///< engine-honest agents (surviving + crashing)
  std::size_t F_ = 0;       ///< Byzantine agents
  std::vector<AgentId> honest_ids_;

  // SoA state, lane(j, r) = j * Bpad + r.
  std::vector<const ScalarFunction*> fns_;
  std::vector<double> x_;   ///< current states
  std::vector<double> bx_;  ///< this round's broadcast states
  std::vector<double> bg_;  ///< this round's broadcast gradients

  // Devirtualized gradient descriptors (H x Bpad, SoA) with per-row
  // kernel kinds; see BatchGradientKernel / BatchGradientPlanes.
  BatchGradientPlanes grad_;

  // Per-replica projection parameters for the fused step (length Bpad).
  std::vector<double> clo_, chi_, pemask_;

  std::vector<std::unique_ptr<StepSchedule>> schedules_;
  std::vector<ValidFamily> families_;
  std::vector<std::optional<Interval>> constraint_;
  std::vector<SbgPayload> defaults_;
  std::vector<std::vector<std::unique_ptr<SbgAdversary>>> adversaries_;
  std::vector<std::vector<std::unique_ptr<ConsistentWrapper>>> wrappers_;
  std::vector<std::vector<SbgAdversary*>> byz_nodes_;
  RecipientPartition partition_;  ///< built once from the declarations

  // Trim by selection (see the constructor).
  std::size_t payload_rows_ = 0;  ///< Byzantine rows per class: 1, or F
  /// The round's selected broadcasts; inactive when nothing reads them.
  BroadcastSelection selection_;
  std::span<const ComparatorPair> recipient_net_;  ///< per recipient

  // Delivery-filter tables (crash schedule shared; drops seeded per
  // replica).
  bool has_crashes_ = false;
  bool any_filter_ = false;
  std::vector<std::uint32_t> crash_round_;
  std::vector<double> drop_p_;
  std::vector<std::uint64_t> drop_seed_;
  std::vector<std::uint8_t> filter_on_;

  std::vector<RunMetrics> metrics_;

  // Round-scoped scratch, sized once in the constructor.
  std::vector<double> dx_, dg_;  ///< a recipient's honest rows, H x Bpad
  std::vector<double> ctx_, ctg_;      ///< per-unit trim outputs, H x Bpad
  std::vector<std::uint8_t> trim_done_;  ///< unit trims computed this round?
  std::vector<double> lambda_;         ///< per-replica step size this round
  std::vector<double> pe_;             ///< projection errors, H x Bpad
  std::vector<double> trimmed_state_;  ///< audit diagnostics, S x Bpad
  std::vector<double> trimmed_gradient_;
  std::vector<double> bpx_, bpg_;    ///< Byzantine payloads, C x rows x Bpad
  std::vector<double> bpresent_;     ///< all-ones/all-zeros lane masks
  std::vector<double> defx_, defg_;  ///< default payload rows, length Bpad
  std::vector<double> dmask_;        ///< per-row delivery mask scratch
  std::vector<double> vx_, vg_;      ///< a class's blended rows
};

}  // namespace

std::vector<RunMetrics> run_sbg_batch(std::span<const Scenario> replicas,
                                      const RunOptions& options) {
  if (replicas.empty()) return {};
  return BatchedSbgRunner(replicas, options).run();
}

}  // namespace ftmao
