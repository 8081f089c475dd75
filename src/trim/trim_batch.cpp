#include "trim/trim_batch.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "common/contracts.hpp"

namespace ftmao {

namespace {

// Batcher odd-even mergesort comparators for `n` elements. Generated for
// the next power of two with comparators touching indices >= n pruned:
// pruned positions behave as +infinity padding at the top of the array,
// which a compare-exchange can never move below position n, so the pruned
// network sorts the real prefix exactly.
std::vector<ComparatorPair> make_batcher_network(std::size_t n) {
  std::size_t pow2 = 1;
  while (pow2 < n) pow2 <<= 1;
  std::vector<ComparatorPair> pairs;
  for (std::size_t p = 1; p < pow2; p <<= 1) {
    for (std::size_t k = p; k >= 1; k >>= 1) {
      for (std::size_t j = k % p; j + k < pow2; j += 2 * k) {
        for (std::size_t i = 0; i < k && i + j + k < pow2; ++i) {
          if ((i + j) / (2 * p) == (i + j + k) / (2 * p) && i + j + k < n) {
            pairs.emplace_back(static_cast<std::uint16_t>(i + j),
                               static_cast<std::uint16_t>(i + j + k));
          }
        }
      }
    }
  }
  return pairs;
}

// Backward liveness over the full network: a comparator stays iff one of
// its rows is live after it, and then both its rows are live before it.
std::vector<ComparatorPair> prune_to_ranks(
    std::span<const ComparatorPair> network, RankSet ranks) {
  std::vector<ComparatorPair> kept;
  RankSet live = ranks;
  for (auto it = network.rbegin(); it != network.rend(); ++it) {
    const RankSet rows = (RankSet{1} << it->first) | (RankSet{1} << it->second);
    if ((live & rows) == 0) continue;
    live |= rows;
    kept.push_back(*it);
  }
  std::reverse(kept.begin(), kept.end());
  return kept;
}

// The network runs on the runtime-dispatched SIMD lane backend: one
// indirect call applies the whole comparator sequence, each comparator a
// branchless lanewise conditional swap of two contiguous slot rows. (The
// conditional swap — not min/max — is what keeps signed-zero multisets
// intact and all backends bit-identical; see simd/simd.hpp.)
void sort_columns_network(double* data, std::size_t n, std::size_t batch,
                          const SimdKernels& kernels) {
  apply_network(data, batch, sorting_network(n), kernels);
}

void sort_columns_fallback(double* data, std::size_t n, std::size_t batch) {
  std::vector<double> column(n);
  for (std::size_t r = 0; r < batch; ++r) {
    for (std::size_t s = 0; s < n; ++s) column[s] = data[s * batch + r];
    std::sort(column.begin(), column.end());
    for (std::size_t s = 0; s < n; ++s) data[s * batch + r] = column[s];
  }
}

}  // namespace

std::span<const ComparatorPair> sorting_network(std::size_t n) {
  FTMAO_EXPECTS(n >= 2 && n <= kMaxSortingNetworkN);
  // Each n is built on its first use: a run reads a few fan-ins, and
  // building all 63 networks up front costs more than a short run trims.
  static std::array<std::once_flag, kMaxSortingNetworkN + 1> built;
  static std::array<std::vector<ComparatorPair>, kMaxSortingNetworkN + 1>
      table;
  std::call_once(built[n], [n] { table[n] = make_batcher_network(n); });
  return table[n];
}

std::span<const ComparatorPair> selection_network(std::size_t n,
                                                  RankSet ranks) {
  FTMAO_EXPECTS(n >= 1 && n <= kMaxSortingNetworkN);
  FTMAO_EXPECTS(ranks != 0 && (n == kMaxSortingNetworkN || ranks >> n == 0));
  if (n == 1) return {};
  // Node-based map: a returned span stays valid as entries are added.
  using Key = std::pair<std::size_t, RankSet>;
  static std::mutex mutex;
  static std::map<Key, std::vector<ComparatorPair>> cache;
  const std::lock_guard<std::mutex> lock(mutex);
  auto [it, fresh] = cache.try_emplace({n, ranks});
  if (fresh) it->second = prune_to_ranks(sorting_network(n), ranks);
  return it->second;
}

void apply_network(double* data, std::size_t batch,
                   std::span<const ComparatorPair> network,
                   const SimdKernels& kernels) {
  kernels.sort_network(data, batch, network.data(), network.size(), batch);
}

RankSet merge_trim_ranks(std::size_t honest, std::size_t copies,
                         std::size_t f, std::size_t rows) {
  FTMAO_EXPECTS(copies <= f && honest + copies >= 2 * f + 1);
  FTMAO_EXPECTS(copies == 0 || rows == 1 || rows == copies);
  // Ranks lo..lo+F, or only the ends for one row.
  const auto run = [&](std::size_t lo) {
    if (rows <= 1) return (RankSet{1} << lo) | (RankSet{1} << (lo + copies));
    return ((RankSet{2} << copies) - 1) << lo;
  };
  return run(f - copies) | run(honest - 1 - f);
}

void merge_trim_batch(const double* selected, std::size_t honest,
                      std::size_t copies, std::size_t f, double* v,
                      std::size_t rows, std::size_t batch,
                      const SimdKernels& kernels, double* out) {
  FTMAO_EXPECTS(copies <= f && honest + copies >= 2 * f + 1);
  FTMAO_EXPECTS(copies == 0 || rows == 1 || rows == copies);
  const auto row = [&](std::size_t k) { return selected + k * batch; };
  if (copies == 0) {
    kernels.trim_midpoint(row(f), row(honest - 1 - f), out, batch);
    return;
  }
  if (rows == 1) {
    // Ranks f and n-1-f of the merge: v clamped between the honest values
    // F ranks below and at that rank (simd/simd.hpp, merge_midpoint).
    kernels.merge_midpoint(v, row(f - copies), row(f), row(honest - 1 - f),
                           row(honest - 1 - f + copies), out, batch);
    return;
  }
  // F different values: sorted, they merge with the honest runs that
  // hold ranks f and n-1-f (simd/simd.hpp, merge_rows_midpoint).
  apply_network(v, batch, sorting_network(rows), kernels);
  kernels.merge_rows_midpoint(v, row(f - copies), row(honest - 1 - f), rows,
                              batch, out, batch);
}

void sort_columns(double* data, std::size_t n, std::size_t batch) {
  sort_columns(data, n, batch, simd_kernels());
}

void sort_columns(double* data, std::size_t n, std::size_t batch,
                  const SimdKernels& kernels) {
  FTMAO_EXPECTS(data != nullptr || n * batch == 0);
  if (n < 2 || batch == 0) return;
  if (n <= kMaxSortingNetworkN) {
    sort_columns_network(data, n, batch, kernels);
  } else {
    sort_columns_fallback(data, n, batch);
  }
}

void trim_batch(double* data, std::size_t n, std::size_t batch, std::size_t f,
                double* out_value, double* out_y_s, double* out_y_l) {
  trim_batch(data, n, batch, f, simd_kernels(), out_value, out_y_s, out_y_l);
}

void trim_batch(double* data, std::size_t n, std::size_t batch, std::size_t f,
                const SimdKernels& kernels, double* out_value, double* out_y_s,
                double* out_y_l) {
  FTMAO_EXPECTS(n >= 2 * f + 1);
  FTMAO_EXPECTS(out_value != nullptr);
  if (batch == 0) return;

  if (n > kMaxSortingNetworkN) {
    // Scalar fallback: the exact trim() selection per replica.
    std::vector<double> column(n);
    for (std::size_t r = 0; r < batch; ++r) {
      for (std::size_t s = 0; s < n; ++s) column[s] = data[s * batch + r];
      auto ys_it = column.begin() + static_cast<std::ptrdiff_t>(f);
      std::nth_element(column.begin(), ys_it, column.end());
      const double y_s = *ys_it;
      auto yl_it = column.begin() + static_cast<std::ptrdiff_t>(n - 1 - f);
      std::nth_element(ys_it, yl_it, column.end());
      const double y_l = *yl_it;
      out_value[r] = y_s + (y_l - y_s) / 2.0;
      if (out_y_s) out_y_s[r] = y_s;
      if (out_y_l) out_y_l[r] = y_l;
    }
    return;
  }

  if (n >= 2) sort_columns_network(data, n, batch, kernels);
  const double* ys_row = data + f * batch;
  const double* yl_row = data + (n - 1 - f) * batch;
  kernels.trim_midpoint(ys_row, yl_row, out_value, batch);
  if (out_y_s) std::copy(ys_row, ys_row + batch, out_y_s);
  if (out_y_l) std::copy(yl_row, yl_row + batch, out_y_l);
}

void trimmed_mean_batch(double* data, std::size_t n, std::size_t batch,
                        std::size_t f, double* out_mean) {
  trimmed_mean_batch(data, n, batch, f, simd_kernels(), out_mean);
}

void trimmed_mean_batch(double* data, std::size_t n, std::size_t batch,
                        std::size_t f, const SimdKernels& kernels,
                        double* out_mean) {
  FTMAO_EXPECTS(n >= 2 * f + 1);
  FTMAO_EXPECTS(out_mean != nullptr);
  if (batch == 0) return;

  sort_columns(data, n, batch, kernels);
  const std::size_t surviving = n - 2 * f;
  const double inv = static_cast<double>(surviving);
  for (std::size_t r = 0; r < batch; ++r) out_mean[r] = 0.0;
  // Ascending-row accumulation = the scalar path's sorted-order sum, so
  // the floating-point result matches trimmed_mean() bit for bit (the
  // lane kernels keep the per-replica operation order; only the replica
  // dimension is vectorized).
  for (std::size_t s = f; s < n - f; ++s)
    kernels.accumulate_rows(out_mean, data + s * batch, batch);
  kernels.divide_rows(out_mean, inv, batch);
}

}  // namespace ftmao
