#include "sim/batch_vector_runner.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "common/contracts.hpp"
#include "net/batch.hpp"
#include "sim/batch_grad.hpp"
#include "sim/broadcast_selection.hpp"
#include "sim/megabatch.hpp"
#include "simd/simd.hpp"
#include "trim/trim_batch.hpp"

namespace ftmao {

namespace {

// All-ones mask double for masked_blend (a lane is "taken" iff any bit
// is set; stored masks are all-ones / all-zeros).
const double kAllBits = std::bit_cast<double>(~std::uint64_t{0});

class BatchedVectorSbgRunner {
 public:
  BatchedVectorSbgRunner(std::span<const VectorScenario> replicas,
                         bool record_series)
      : replicas_(replicas), record_series_(record_series) {
    FTMAO_EXPECTS(!replicas.empty());
    const VectorScenario& first = replicas.front();
    for (const VectorScenario& s : replicas) {
      s.validate();
      FTMAO_EXPECTS(s.n == first.n);
      FTMAO_EXPECTS(s.f == first.f);
      FTMAO_EXPECTS(s.dim == first.dim);
      FTMAO_EXPECTS(s.rounds == first.rounds);
      FTMAO_EXPECTS(s.byzantine_count == first.byzantine_count);
    }
    n_ = first.n;
    f_ = first.f;
    d_ = first.dim;
    F_ = first.byzantine_count;
    H_ = n_ - F_;
    rounds_ = first.rounds;
    FTMAO_EXPECTS(n_ <= kMaxSortingNetworkN);
    B_ = replicas.size();
    L_ = d_ * B_;
    kernels_ = &simd_kernels_for_lanes(L_);
    const std::size_t w = kernels_->width;
    Lpad_ = (L_ + w - 1) / w * w;

    x_.assign(H_ * Lpad_, 0.0);
    bx_.assign(H_ * Lpad_, 0.0);
    bg_.assign(H_ * Lpad_, 0.0);
    lam_.assign(Lpad_, 0.0);
    pe_.assign(Lpad_, 0.0);
    pemask_.assign(Lpad_, 0.0);
    clo_.assign(Lpad_, 0.0);
    chi_.assign(Lpad_, 0.0);
    defx_.assign(Lpad_, 0.0);
    defg_.assign(Lpad_, 0.0);
    xv_ = Vec(d_);
    gv_ = Vec(d_);

    const double inf = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < B_; ++r) {
      const VectorScenario& s = replicas_[r];
      for (std::size_t k = 0; k < d_; ++k) {
        const std::size_t l = k * B_ + r;
        if (s.constraint.empty()) {
          clo_[l] = -inf;
          chi_[l] = inf;
        } else {
          clo_[l] = s.constraint[k].lo();
          chi_[l] = s.constraint[k].hi();
        }
        // Unset default payloads mean zero vectors (the agent-ctor rule).
        defx_[l] = s.default_payload.state.dim() == 0
                       ? 0.0
                       : s.default_payload.state[k];
        defg_[l] = s.default_payload.gradient.dim() == 0
                       ? 0.0
                       : s.default_payload.gradient[k];
      }
      // Initial states, projected per coordinate exactly like the agent
      // constructor.
      for (std::size_t j = 0; j < H_; ++j) {
        for (std::size_t k = 0; k < d_; ++k) {
          double v = s.honest_initial[j][k];
          if (!s.constraint.empty()) v = s.constraint[k].project(v);
          x_[j * Lpad_ + k * B_ + r] = v;
        }
      }
      schedules_.push_back(make_schedule(s.step));
      if (F_ > 0) {
        Rng rng(s.seed);
        adversaries_.push_back(make_vector_adversary(
            s.attack, d_, rng.substream("vector-adversary", 0)));
      }
    }

    // Devirtualized gradient planes: agent row j takes the SIMD kernel
    // path iff every replica's cost j publishes per-coordinate
    // descriptors of one uniform kind (sim/batch_grad.hpp). Lanes follow
    // the engine layout l = k * B_ + r; the padding tail [L_, Lpad_)
    // gets neutral widths so transcendental rows stay finite there.
    grad_.init(H_, Lpad_);
    {
      std::vector<BatchGradientKernel> ks;
      for (std::size_t j = 0; j < H_; ++j) {
        for (std::size_t r = 0; r < B_; ++r) {
          ks.clear();
          if (!replicas_[r].honest_costs[j]->batch_gradient_kernels(ks) ||
              ks.size() != d_) {
            grad_.devirtualize(j);
            continue;
          }
          for (std::size_t k = 0; k < d_; ++k)
            grad_.set(j, j * Lpad_ + k * B_ + r, r == 0 && k == 0, ks[k]);
        }
        grad_.finish_row(j, L_);
      }
    }

    // Recipient classes from the strategies' declarations (one strategy
    // object per replica speaks for all its senders); without senders
    // every recipient trims the same multiset.
    std::vector<RecipientClass> declared(B_ * H_, 0);
    if (F_ > 0) {
      for (std::size_t r = 0; r < B_; ++r)
        for (std::size_t j = 0; j < H_; ++j)
          declared[r * H_ + j] = adversaries_[r]->recipient_class(
              AgentId{static_cast<std::uint32_t>(j)});
    }
    partition_ = partition_recipients(declared, B_, H_);
    ctx_.assign(partition_.classes * Lpad_, 0.0);
    ctg_.assign(partition_.classes * Lpad_, 0.0);
    trim_done_.assign(partition_.classes, 0);

    // Trim by selection: the broadcasts' order statistics the trims read
    // are selected once per round and each class's Byzantine rows are
    // merged into them, one payload where every replica declares classes,
    // else the F rows a per-message replica sent the recipient. The
    // strategies read the selection's summaries.
    payload_rows_ =
        partition_.any_per_message ? F_ : std::min<std::size_t>(F_, 1);
    selection_.init(H_, Lpad_, merge_trim_ranks(H_, F_, f_, payload_rows_),
                    F_ > 0);
    summaries_.resize(d_);
    const std::size_t payload_rows = partition_.classes * payload_rows_;
    bpx_.assign(payload_rows * Lpad_, 0.0);
    bpg_.assign(payload_rows * Lpad_, 0.0);
    bpresent_.assign(payload_rows * Lpad_, 0.0);
    vx_.assign(payload_rows_ * Lpad_, 0.0);
    vg_.assign(payload_rows_ * Lpad_, 0.0);

    // Failure-free optima: identical cost sets (by object identity; the
    // grid drivers' replicas of one shape share their shape's costs)
    // compute the reference minimizer once and reuse the result bits.
    results_.resize(B_);
    for (std::size_t r = 0; r < B_; ++r) {
      if (r > 0 && replicas_[r].honest_costs == replicas_[r - 1].honest_costs) {
        results_[r].failure_free_optimum =
            results_[r - 1].failure_free_optimum;
        continue;
      }
      std::vector<VectorWeightedSum::Term> terms;
      const double weight = 1.0 / static_cast<double>(H_);
      for (const auto& fn : replicas_[r].honest_costs)
        terms.push_back({weight, fn});
      results_[r].failure_free_optimum =
          VectorWeightedSum(std::move(terms)).a_minimizer();
    }
  }

  std::vector<VectorRunResult> run() {
    engine_stats_record(B_, L_, Lpad_);
    for (std::size_t t = 1; t <= rounds_; ++t) {
      if (record_series_)
        for (std::size_t r = 0; r < B_; ++r) record(r);
      broadcast_phase();
      selection_.select(bx_.data(), bg_.data(), *kernels_);
      if (F_ > 0) collect_byzantine(t);
      fill_lambda(t);
      step_phase();
    }
    for (std::size_t r = 0; r < B_; ++r) {
      record(r);
      for (std::size_t j = 0; j < H_; ++j) {
        Vec state(d_);
        for (std::size_t k = 0; k < d_; ++k)
          state[k] = x_[j * Lpad_ + k * B_ + r];
        results_[r].final_states.push_back(std::move(state));
      }
    }
    return std::move(results_);
  }

 private:
  double& x(std::size_t j, std::size_t k, std::size_t r) {
    return x_[j * Lpad_ + k * B_ + r];
  }

  // Step 1: snapshot states and compute every honest gradient once (the
  // scalar path evaluates the same pure gradient in both broadcast() and
  // step(); one evaluation produces the same bits).
  void broadcast_phase() {
    std::memcpy(bx_.data(), x_.data(), H_ * Lpad_ * sizeof(double));
    for (std::size_t j = 0; j < H_; ++j) {
      if (grad_.fast(j)) {
        // Closed-form row: one SIMD sweep over all coordinates and
        // replicas at once. Padding lanes compute +0.0 (scale 0), the
        // same bits the zero-initialized plane held before.
        grad_.run(*kernels_, j, x_.data() + j * Lpad_,
                  bg_.data() + j * Lpad_);
        continue;
      }
      for (std::size_t r = 0; r < B_; ++r) {
        for (std::size_t k = 0; k < d_; ++k) xv_[k] = x(j, k, r);
        replicas_[r].honest_costs[j]->gradient_into(xv_, gv_);
        for (std::size_t k = 0; k < d_; ++k)
          bg_[j * Lpad_ + k * B_ + r] = gv_[k];
      }
    }
  }

  // Step 2a: the Byzantine payload rows of every recipient class
  // (partition_), each strategy asked summary_payload with the summaries
  // of its replica's selected broadcasts, one per coordinate. A replica
  // whose strategy declares classes is asked once per class, at the
  // class's first recipient, and the answer fills the class's row (the
  // declaration promises a payload independent of the sender). A
  // per-message replica is asked for every (recipient, sender) in the
  // engine's exact call order (recipient-major, sender-minor), so its RNG
  // stream advances identically; each recipient is then its own class
  // with F rows.
  void collect_byzantine(std::size_t t) {
    const Round round{static_cast<std::uint32_t>(t)};
    const std::size_t C = partition_.classes;
    for (std::size_t r = 0; r < B_; ++r) {
      VectorAdversary& adversary = *adversaries_[r];
      for (std::size_t k = 0; k < d_; ++k)
        summaries_[k] = selection_.summary(k * B_ + r);
      if (partition_.per_message[r]) {
        for (std::size_t j = 0; j < H_; ++j)
          for (std::size_t b = 0; b < F_; ++b)
            store_payload(partition_.class_of[j], b, r,
                          adversary.summary_payload(
                              summaries_, round,
                              AgentId{static_cast<std::uint32_t>(j)}));
        continue;
      }
      for (std::size_t c = 0; c < C; ++c) {
        const std::size_t src = partition_.source[r * C + c];
        if (src == c) {
          const std::optional<VecPayload> payload = adversary.summary_payload(
              summaries_, round, AgentId{partition_.first[c]});
          for (std::size_t b = 0; b < payload_rows_; ++b)
            store_payload(c, b, r, payload);
          continue;
        }
        for (std::size_t b = 0; b < payload_rows_; ++b) {
          const std::size_t from = (src * payload_rows_ + b) * Lpad_;
          const std::size_t to = (c * payload_rows_ + b) * Lpad_;
          for (std::size_t k = 0; k < d_; ++k) {
            const std::size_t l = k * B_ + r;
            bpx_[to + l] = bpx_[from + l];
            bpg_[to + l] = bpg_[from + l];
            bpresent_[to + l] = bpresent_[from + l];
          }
        }
      }
    }
  }

  void store_payload(std::size_t c, std::size_t b, std::size_t r,
                     const std::optional<VecPayload>& payload) {
    if (payload.has_value()) {
      FTMAO_EXPECTS(payload->state.dim() == d_);
      FTMAO_EXPECTS(payload->gradient.dim() == d_);
    }
    const std::size_t o = (c * payload_rows_ + b) * Lpad_;
    for (std::size_t k = 0; k < d_; ++k) {
      const std::size_t l = o + k * B_ + r;
      bpx_[l] = payload ? payload->state[k] : 0.0;
      bpg_[l] = payload ? payload->gradient[k] : 0.0;
      bpresent_[l] = payload ? kAllBits : 0.0;
    }
  }

  void fill_lambda(std::size_t t) {
    for (std::size_t r = 0; r < B_; ++r) {
      const double lambda = schedules_[r]->at(t - 1);
      for (std::size_t k = 0; k < d_; ++k) lam_[k * B_ + r] = lambda;
    }
  }

  // The trim pair of class `cls`: the honest order statistics selected
  // this round (every recipient's honest rows are the broadcast
  // snapshot) merged with the class's Byzantine rows, absent payloads
  // blended to the per-replica default.
  void trim(std::size_t cls, double* tx, double* tg) {
    for (std::size_t b = 0; b < payload_rows_; ++b) {
      const std::size_t o = (cls * payload_rows_ + b) * Lpad_;
      kernels_->masked_blend(bpresent_.data() + o, bpx_.data() + o,
                             bpg_.data() + o, defx_.data(), defg_.data(),
                             vx_.data() + b * Lpad_, vg_.data() + b * Lpad_,
                             Lpad_);
    }
    merge_trim_batch(selection_.states(), H_, F_, f_, vx_.data(),
                     payload_rows_, Lpad_, *kernels_, tx);
    merge_trim_batch(selection_.gradients(), H_, F_, f_, vg_.data(),
                     payload_rows_, Lpad_, *kernels_, tg);
  }

  // Steps 2b-3: trim per (coordinate, replica) lane and apply the fused
  // projected step to each recipient row. Recipients of one class trim
  // the same multiset (this engine has no delivery filter), so the first
  // recipient of each class computes the trim pair into the class row and
  // the rest reuse it.
  void step_phase() {
    std::fill(trim_done_.begin(), trim_done_.end(), std::uint8_t{0});
    for (std::size_t j = 0; j < H_; ++j) {
      const std::size_t cls = partition_.class_of[j];
      double* tx = ctx_.data() + cls * Lpad_;
      double* tg = ctg_.data() + cls * Lpad_;
      if (!trim_done_[cls]) {
        trim_done_[cls] = 1;
        trim(cls, tx, tg);
      }
      kernels_->fused_step(tx, tg, lam_.data(), clo_.data(),
                           chi_.data(), pemask_.data(), x_.data() + j * Lpad_,
                           pe_.data(), Lpad_);
    }
  }

  // The reference recorder's exact fold order: per agent, the distance
  // to the failure-free optimum, then the pairwise L-inf diameters. It
  // costs O(H^2 d) per replica, so without record_series_ it runs once,
  // after the last round.
  void record(std::size_t r) {
    double diam = 0.0;
    double dist = 0.0;
    const Vec& opt = results_[r].failure_free_optimum;
    for (std::size_t a = 0; a < H_; ++a) {
      double acc = 0.0;
      for (std::size_t k = 0; k < d_; ++k) {
        const double dk = x(a, k, r) - opt[k];
        acc += dk * dk;
      }
      dist = std::max(dist, std::sqrt(acc));
      for (std::size_t b = a + 1; b < H_; ++b) {
        double best = 0.0;
        for (std::size_t k = 0; k < d_; ++k)
          best = std::max(best, std::abs(x(a, k, r) - x(b, k, r)));
        diam = std::max(diam, best);
      }
    }
    results_[r].disagreement.push(diam);
    results_[r].dist_to_average_optimum.push(dist);
  }

  std::span<const VectorScenario> replicas_;
  bool record_series_ = true;  ///< RunOptions::record_series
  const SimdKernels* kernels_ = nullptr;
  std::size_t n_ = 0, f_ = 0, d_ = 0, H_ = 0, F_ = 0;
  std::size_t rounds_ = 0, B_ = 0, L_ = 0, Lpad_ = 0;

  std::vector<double> x_, bx_, bg_;
  std::vector<double> ctx_, ctg_;  ///< per-class trim outputs, C x Lpad
  std::vector<std::uint8_t> trim_done_;  ///< class trims computed this round?
  std::vector<double> lam_, pe_, pemask_, clo_, chi_, defx_, defg_;
  std::vector<double> bpx_, bpg_, bpresent_;  ///< C x rows x Lpad payloads
  RecipientPartition partition_;  ///< built once from the declarations
  std::size_t payload_rows_ = 0;  ///< Byzantine rows per class: 1, or F
  BroadcastSelection selection_;  ///< this round's
  std::vector<HonestSummary> summaries_;  ///< one replica's, per coordinate
  std::vector<double> vx_, vg_;  ///< a class's blended rows
  std::vector<std::unique_ptr<StepSchedule>> schedules_;
  std::vector<std::unique_ptr<VectorAdversary>> adversaries_;
  std::vector<VectorRunResult> results_;
  BatchGradientPlanes grad_;
  Vec xv_, gv_;
};

}  // namespace

std::vector<VectorRunResult> run_vector_sbg_batch(
    std::span<const VectorScenario> replicas, const RunOptions& options) {
  if (replicas.empty()) return {};
  BatchedVectorSbgRunner runner(replicas, options.record_series);
  return runner.run();
}

}  // namespace ftmao
