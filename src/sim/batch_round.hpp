#pragma once

// One round of Algorithm SBG (Steps 1-3 of Sections 4 and 6: broadcast,
// Trim, projected step) over B replicas of one scenario shape, shared by
// the sync and vector batch engines (sim/batch_runner,
// sim/batch_vector_runner). The Section 7 vector heuristic runs the same
// round on every coordinate, so d coordinates of B replicas are just
// d * B lanes; the sync engine is d = 1.
//
// Lane layout: every per-agent row holds L = d * B doubles,
// coordinate-major, replica-minor,
//
//   lane(k, r) = k * B + r        (k < d, r < B),
//
// padded at the tail to a multiple of the width of the SIMD backend
// picked for L lanes (simd_kernels_for_lanes), so one agent's values are
// contiguous, vector-aligned rows for the lane kernels (simd/simd.hpp).
// Padding lanes hold benign finite values, are advanced by the same
// strictly lanewise kernels (so they never reach a real lane), and are
// never read back.
//
// The round, as an engine drives it:
//   broadcast()        snapshots the states; the engine then writes every
//                      row's gradients into bg(j);
//   select()           runs one selection network (trim/trim_batch.hpp)
//                      over the broadcasts: the ranks the trims read and,
//                      with Byzantine senders, ranks 0, H/2 and H-1 and
//                      the mean gradient row, each lane's HonestSummary;
//   collect(ask)       fills the Byzantine payload rows of every recipient
//                      class (net/batch.hpp) from the strategies' answers;
//   step_size(r, ...)  the engine writes the step-size row;
//   step(fill_honest)  per class (per recipient under a delivery filter)
//                      blends the class's Byzantine rows with the default
//                      payload and merges them into the honest order
//                      statistics (merge_trim_batch), then runs the fused
//                      projected step on every row.
//
// Determinism contract: each engine's output is bit-identical, replica by
// replica, to its reference engine (run_sbg, run_vector_scenario).
// Replicas never interact. Every strategy is asked summary_payload
// (adversary/strategies.hpp) with the HonestSummary of its replica's
// selected broadcasts: a class-declaring strategy once per (replica,
// class), at the class's first recipient, which its declaration makes
// unobservable; a per-message strategy for every (recipient, sender),
// recipient outer, the reference engine's call order, so its RNG stream
// advances identically. The selected order statistics equal a full
// sort's up to the sign of a zero, which reaches the state only through
// a Trim midpoint y_s + (y_l - y_s)/2 or a comparison (pull's median
// against its target), neither of which sees it. Every floating-point
// reduction (the summary's mean gradient, the engines' metric folds)
// runs in the reference engine's operation order, and the lane kernels
// follow std tie semantics (simd/simd.hpp), so every backend gives the
// same bits.
//
// Every member a round calls is defined here: calls out of line cost a
// measurable share of a round at the grids' sizes.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <new>
#include <optional>
#include <span>
#include <vector>

#include "adversary/strategies.hpp"
#include "common/contracts.hpp"
#include "net/batch.hpp"
#include "simd/simd.hpp"
#include "trim/trim_batch.hpp"
#include "vector/vector_sbg.hpp"

namespace ftmao {

/// Storage on 64-byte boundaries. The rows' stride is a multiple of the
/// backend width, so every lane row then starts on a cache line and no
/// full-width load splits one, whatever the heap placement.
template <class T>
struct CacheLineAllocator {
  using value_type = T;
  CacheLineAllocator() = default;
  template <class U>
  CacheLineAllocator(const CacheLineAllocator<U>&) {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{64}));
  }
  void deallocate(T* p, std::size_t) {
    ::operator delete(p, std::align_val_t{64});
  }
  friend bool operator==(CacheLineAllocator, CacheLineAllocator) {
    return true;
  }
};
using LaneRows = std::vector<double, CacheLineAllocator<double>>;

/// All-ones lane mask for masked_blend (a lane is taken iff any bit is
/// set; stored masks are all-ones or all-zeros).
inline const double kAllBits = std::bit_cast<double>(~std::uint64_t{0});

class BatchRound {
 public:
  /// Replica r's declared recipient class for honest row j.
  using Declare = std::function<RecipientClass(std::size_t r, std::size_t j)>;

  /// H honest rows, F <= f Byzantine senders, d coordinates of B
  /// replicas; `declare` is asked only when F > 0. With `filtered`, every
  /// recipient trims its own honest rows, which step's fill_honest
  /// writes; else a recipient class trims the broadcasts once. States,
  /// step sizes and default payloads start at 0, real lanes
  /// unconstrained.
  void init(std::size_t honest, std::size_t byzantine, std::size_t f,
            std::size_t dim, std::size_t replicas, bool filtered,
            const Declare& declare);

  const SimdKernels& kernels() const { return *kernels_; }
  std::size_t stride() const { return stride_; }
  std::size_t lane(std::size_t k, std::size_t r) const { return k * B_ + r; }

  double* x(std::size_t j) { return x_.data() + j * stride_; }
  const double* bx(std::size_t j) const { return bx_.data() + j * stride_; }
  double* bg(std::size_t j) { return bg_.data() + j * stride_; }
  const double* pe(std::size_t j) const { return pe_.data() + j * stride_; }
  /// Recipient j's trim pair of the last step.
  const double* tx(std::size_t j) const {
    return ctx_.data() + unit(j) * stride_;
  }
  const double* tg(std::size_t j) const {
    return ctg_.data() + unit(j) * stride_;
  }
  const double* default_x() const { return defx_.data(); }
  const double* default_g() const { return defg_.data(); }

  /// Projects lane l onto [lo, hi] and records its projection error.
  void bound(std::size_t l, double lo, double hi) {
    clo_[l] = lo;
    chi_[l] = hi;
    pemask_[l] = kAllBits;
  }
  void default_payload(std::size_t l, double state, double gradient) {
    defx_[l] = state;
    defg_[l] = gradient;
  }
  void step_size(std::size_t r, double lambda) {
    for (std::size_t k = 0; k < d_; ++k) lam_[lane(k, r)] = lambda;
  }

  void broadcast() {
    std::memcpy(bx_.data(), x_.data(), x_.size() * sizeof(double));
  }

  void select() {
    if (sx_.empty()) return;
    std::memcpy(sx_.data(), bx_.data(), sx_.size() * sizeof(double));
    std::memcpy(sg_.data(), bg_.data(), sg_.size() * sizeof(double));
    apply_network(sx_.data(), stride_, select_net_, *kernels_);
    apply_network(sg_.data(), stride_, select_net_, *kernels_);
    if (mean_.empty()) return;
    std::fill(mean_.begin(), mean_.end(), 0.0);
    for (std::size_t j = 0; j < H_; ++j)
      kernels_->accumulate_rows(mean_.data(), bg(j), stride_);
    kernels_->divide_rows(mean_.data(), static_cast<double>(H_), stride_);
  }

  /// Fills the Byzantine payload rows. `ask(r, b, j, summaries)` returns
  /// sender b's optional payload (SbgPayload or VecPayload) for honest
  /// row j of replica r, given its d coordinates' summaries.
  template <class Ask>
  void collect(Ask&& ask) {
    if (F_ == 0) return;
    const std::size_t C = partition_.classes;
    const std::span<const HonestSummary> summaries(summaries_);
    for (std::size_t r = 0; r < B_; ++r) {
      for (std::size_t k = 0; k < d_; ++k) summaries_[k] = summary(lane(k, r));
      if (partition_.per_message[r]) {
        for (std::size_t j = 0; j < H_; ++j)
          for (std::size_t b = 0; b < F_; ++b)
            store(partition_.class_of[j] * rows_ + b, r,
                  ask(r, b, j, summaries));
        continue;
      }
      for (std::size_t c = 0; c < C; ++c) {
        const std::size_t src = partition_.source[r * C + c];
        if (src == c) {
          const auto payload = ask(r, 0, partition_.first[c], summaries);
          for (std::size_t b = 0; b < rows_; ++b)
            store(c * rows_ + b, r, payload);
          continue;
        }
        for (std::size_t b = 0; b < rows_; ++b) {
          for (std::size_t k = 0; k < d_; ++k) {
            const std::size_t from = (src * rows_ + b) * stride_ + lane(k, r);
            const std::size_t to = (c * rows_ + b) * stride_ + lane(k, r);
            bpx_[to] = bpx_[from];
            bpg_[to] = bpg_[from];
            bpresent_[to] = bpresent_[from];
          }
        }
      }
    }
  }

  /// Trims and steps every row. Under a filter, `fill_honest(j, dx, dg)`
  /// first writes recipient j's H honest rows into dx and dg.
  template <class FillHonest>
  void step(FillHonest&& fill_honest) {
    if (filtered_) {
      for (std::size_t j = 0; j < H_; ++j) {
        fill_honest(j, dx_.data(), dg_.data());
        apply_network(dx_.data(), stride_, recipient_net_, *kernels_);
        apply_network(dg_.data(), stride_, recipient_net_, *kernels_);
        trim(dx_.data(), dg_.data(), partition_.class_of[j], j);
      }
    } else {
      for (std::size_t c = 0; c < partition_.classes; ++c)
        trim(sx_.data(), sg_.data(), c, c);
    }
    for (std::size_t j = 0; j < H_; ++j)
      kernels_->fused_step(tx(j), tg(j), lam_.data(), clo_.data(),
                           chi_.data(), pemask_.data(), x(j),
                           pe_.data() + j * stride_, stride_);
  }
  void step() { step([](std::size_t, double*, double*) {}); }

 private:
  std::size_t unit(std::size_t j) const {
    return filtered_ ? j : partition_.class_of[j];
  }

  // The selected broadcasts' HonestSummary at lane l. Its order
  // statistics may hold the other zero than HonestSummary::of's, which
  // SbgAdversary::summary_payload's promise allows; the mean is of()'s
  // sum in sender order, divided by H.
  HonestSummary summary(std::size_t l) const {
    const std::size_t mid = H_ / 2 * stride_ + l;
    const std::size_t last = (H_ - 1) * stride_ + l;
    HonestSummary s;
    s.count = H_;
    s.state = {sx_[l], sx_[mid], sx_[last]};
    s.gradient = {sg_[l], sg_[mid], sg_[last]};
    s.gradient_mean = mean_[l];
    return s;
  }

  // A payload into Byzantine row `row` at replica r's lanes.
  void store(std::size_t row, std::size_t r,
             const std::optional<SbgPayload>& p) {
    const std::size_t l = row * stride_ + r;
    bpx_[l] = p ? p->state : 0.0;
    bpg_[l] = p ? p->gradient : 0.0;
    bpresent_[l] = p ? kAllBits : 0.0;
  }
  void store(std::size_t row, std::size_t r,
             const std::optional<VecPayload>& p) {
    FTMAO_EXPECTS(!p || (p->state.dim() == d_ && p->gradient.dim() == d_));
    for (std::size_t k = 0; k < d_; ++k) {
      const std::size_t l = row * stride_ + lane(k, r);
      bpx_[l] = p ? p->state[k] : 0.0;
      bpg_[l] = p ? p->gradient[k] : 0.0;
      bpresent_[l] = p ? kAllBits : 0.0;
    }
  }

  // Trim unit u's pair: honest order statistics hx/hg merged with class
  // cls's Byzantine rows, absent payloads blended to the default.
  void trim(const double* hx, const double* hg, std::size_t cls,
            std::size_t u) {
    for (std::size_t b = 0; b < rows_; ++b) {
      const std::size_t o = (cls * rows_ + b) * stride_;
      kernels_->masked_blend(bpresent_.data() + o, bpx_.data() + o,
                             bpg_.data() + o, defx_.data(), defg_.data(),
                             vx_.data() + b * stride_,
                             vg_.data() + b * stride_, stride_);
    }
    merge_trim_batch(hx, H_, F_, f_, vx_.data(), rows_, stride_, *kernels_,
                     ctx_.data() + u * stride_);
    merge_trim_batch(hg, H_, F_, f_, vg_.data(), rows_, stride_, *kernels_,
                     ctg_.data() + u * stride_);
  }

  const SimdKernels* kernels_ = nullptr;
  std::size_t H_ = 0;       ///< honest rows
  std::size_t F_ = 0;       ///< Byzantine senders
  std::size_t f_ = 0;       ///< fault bound
  std::size_t d_ = 0;       ///< coordinates
  std::size_t B_ = 0;       ///< replicas
  std::size_t stride_ = 0;  ///< d * B rounded up to the backend width
  bool filtered_ = false;

  // H x stride rows: states, broadcasts, projection errors.
  LaneRows x_, bx_, bg_, pe_;
  // Per-lane rows: bounds, projection mask, defaults, step sizes.
  LaneRows clo_, chi_, pemask_, defx_, defg_, lam_;

  // The round's selected broadcasts (empty when nothing reads them) and
  // mean broadcast gradient (empty without Byzantine senders).
  std::span<const ComparatorPair> select_net_;
  LaneRows sx_, sg_, mean_;
  std::vector<HonestSummary> summaries_;  ///< one replica's, per coordinate

  RecipientPartition partition_;  ///< built once from the declarations
  std::size_t rows_ = 0;          ///< Byzantine rows per class: 1, or F
  /// Byzantine payloads and presence masks, C x rows x stride.
  LaneRows bpx_, bpg_, bpresent_;
  LaneRows vx_, vg_;  ///< a class's blended rows

  // Under a filter: recipient j's honest rows and their network.
  std::span<const ComparatorPair> recipient_net_;
  LaneRows dx_, dg_;
  LaneRows ctx_, ctg_;  ///< trim pairs, one row per unit
};

}  // namespace ftmao
