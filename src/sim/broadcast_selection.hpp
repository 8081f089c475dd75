#pragma once

// One round's honest broadcasts, selected for the sync and vector batch
// engines: the H state and gradient rows after a selection network
// (trim/trim_batch.hpp) over the ranks the trims read and, for a
// HonestSummary, ranks 0, H/2 and H-1 and the mean gradient row. Those
// order statistics equal HonestSummary::of's up to the sign of a zero,
// which SbgAdversary::summary_payload's promise allows; the mean is
// of()'s sum in sender order, divided by H.

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <span>
#include <vector>

#include "adversary/strategies.hpp"
#include "simd/simd.hpp"
#include "trim/trim_batch.hpp"

namespace ftmao {

class BroadcastSelection {
 public:
  /// Rows of `stride` lanes. Selects `ranks`, and with `summaries` also
  /// ranks 0, H/2 and H-1 and the mean gradient; nothing if neither.
  void init(std::size_t honest, std::size_t stride, RankSet ranks,
            bool summaries) {
    honest_ = honest;
    stride_ = stride;
    if (summaries)
      ranks |= (RankSet{1} << 0) | (RankSet{1} << (honest / 2)) |
               (RankSet{1} << (honest - 1));
    if (ranks == 0) return;
    net_ = selection_network(honest, ranks);
    x_.assign(honest * stride, 0.0);
    g_.assign(honest * stride, 0.0);
    mean_.assign(summaries ? stride : 0, 0.0);
  }

  bool active() const { return !x_.empty(); }

  /// Selects this round's broadcasts, H rows each of `bx` and `bg`.
  void select(const double* bx, const double* bg,
              const SimdKernels& kernels) {
    std::memcpy(x_.data(), bx, x_.size() * sizeof(double));
    std::memcpy(g_.data(), bg, g_.size() * sizeof(double));
    apply_network(x_.data(), stride_, net_, kernels);
    apply_network(g_.data(), stride_, net_, kernels);
    if (mean_.empty()) return;
    std::fill(mean_.begin(), mean_.end(), 0.0);
    for (std::size_t j = 0; j < honest_; ++j)
      kernels.accumulate_rows(mean_.data(), bg + j * stride_, stride_);
    kernels.divide_rows(mean_.data(), static_cast<double>(honest_),
                        stride_);
  }

  const double* states() const { return x_.data(); }
  const double* gradients() const { return g_.data(); }

  /// The broadcasts' HonestSummary at lane `l` (requires `summaries`).
  HonestSummary summary(std::size_t l) const {
    const std::size_t mid = honest_ / 2 * stride_ + l;
    const std::size_t last = (honest_ - 1) * stride_ + l;
    HonestSummary s;
    s.count = honest_;
    s.state = {x_[l], x_[mid], x_[last]};
    s.gradient = {g_[l], g_[mid], g_[last]};
    s.gradient_mean = mean_[l];
    return s;
  }

 private:
  std::size_t honest_ = 0;
  std::size_t stride_ = 0;
  std::span<const ComparatorPair> net_;
  std::vector<double> x_, g_;  ///< selected broadcasts, H x stride
  std::vector<double> mean_;   ///< mean broadcast gradient, stride
};

}  // namespace ftmao
