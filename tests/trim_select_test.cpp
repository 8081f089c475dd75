// Tests for trim by selection (trim/trim_batch): the selection networks
// must leave every requested row with the full sorting network's bits,
// and merge_trim_batch must return trim_batch's midpoint bits on the
// assembled multiset of H honest values plus F copies of one value. The
// batch engines' bit-identity with the scalar engine rests on both.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cstdint>
#include <functional>
#include <limits>
#include <set>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "simd/simd.hpp"
#include "trim/trim_batch.hpp"

namespace ftmao {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

RankSet bit(std::size_t k) { return RankSet{1} << k; }

// Runs `body` once per compiled-and-supported SIMD backend.
void for_each_backend(const std::function<void(const SimdKernels&)>& body) {
  for (const SimdIsa isa : simd_compiled()) {
    if (!simd_supported(isa)) continue;
    SCOPED_TRACE(simd_isa_name(isa));
    body(simd_kernels_for(isa));
  }
}

// Every rank set the batch engines request of `honest` selected rows:
// the merge ranks for each (F, f) with F <= f, H + F >= 2f + 1 and
// H + F <= 32, alone (per-recipient selection, the vector engine) and
// with the HonestSummary ranks {0, H/2, H-1} (the sync engine's
// once-per-round selection), plus the summary ranks alone (a delivery
// filter on).
std::set<RankSet> engine_rank_sets(std::size_t honest) {
  const RankSet summary = bit(0) | bit(honest / 2) | bit(honest - 1);
  std::set<RankSet> sets = {summary};
  for (std::size_t copies = 0; honest + copies <= kMaxSortingNetworkN;
       ++copies) {
    for (std::size_t f = copies; honest + copies >= 2 * f + 1; ++f) {
      const RankSet trim = merge_trim_ranks(honest, copies, f);
      sets.insert(trim);
      sets.insert(trim | summary);
    }
  }
  return sets;
}

// Checks that every rank set's selection network leaves the full
// network's bits in each requested row. Runs on the active backend; the
// forced-ISA ctest entries (FTMAO_ISA) cover each backend in turn.
void expect_live_rows_match(const std::vector<double>& matrix,
                            std::size_t honest, std::size_t batch) {
  const SimdKernels& kernels = simd_kernels();
  std::vector<double> sorted = matrix;
  apply_network(sorted.data(), batch, sorting_network(honest), kernels);
  std::vector<double> selected(matrix.size());
  for (const RankSet ranks : engine_rank_sets(honest)) {
    selected = matrix;
    apply_network(selected.data(), batch, selection_network(honest, ranks),
                  kernels);
    for (std::size_t k = 0; k < honest; ++k) {
      if ((ranks & bit(k)) == 0) continue;
      for (std::size_t r = 0; r < batch; ++r)
        ASSERT_EQ(bits(sorted[k * batch + r]), bits(selected[k * batch + r]))
            << kernels.name << " H=" << honest << " ranks=" << ranks
            << " row " << k << " column " << r;
    }
  }
}

TEST(SelectionNetwork, LiveRowsMatchTheFullNetworkOnEveryZeroOnePattern) {
  // Exhaustive 0-1 inputs up to H = 16: one column per pattern.
  for (std::size_t honest = 2; honest <= 16; ++honest) {
    const std::size_t batch = std::size_t{1} << honest;
    std::vector<double> matrix(honest * batch);
    for (std::size_t r = 0; r < batch; ++r)
      for (std::size_t k = 0; k < honest; ++k)
        matrix[k * batch + r] = (r >> k) & 1u ? 1.0 : 0.0;
    expect_live_rows_match(matrix, honest, batch);
  }
}

TEST(SelectionNetwork, LiveRowsMatchTheFullNetworkWithTiesAndSignedZeros) {
  // Above H = 16: random columns from a small pool, so ties are common
  // and +0.0 / -0.0 meet in most columns.
  const std::vector<double> pool = {-0.0, 0.0, 0.0, -0.0, 1.0, -1.0, 2.5};
  Rng rng(41);
  for (std::size_t honest = 17; honest <= kMaxSortingNetworkN; ++honest) {
    const std::size_t batch = 67;
    std::vector<double> matrix(honest * batch);
    for (double& x : matrix)
      x = rng.uniform(0.0, 1.0) < 0.3
              ? rng.uniform(-3.0, 3.0)
              : pool[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(pool.size()) - 1))];
    expect_live_rows_match(matrix, honest, batch);
  }
}

TEST(SelectionNetwork, IsTheFullNetworkPrunedToTheRequestedRows) {
  for (std::size_t n = 2; n <= kMaxSortingNetworkN; ++n) {
    const auto full = sorting_network(n);
    const auto all_rows =
        n == 32 ? ~RankSet{0} : static_cast<RankSet>((RankSet{1} << n) - 1);
    // Every row requested: nothing is pruned.
    const auto whole = selection_network(n, all_rows);
    EXPECT_TRUE(std::equal(full.begin(), full.end(), whole.begin(),
                           whole.end()))
        << "n=" << n;
    // A selection is a subsequence of the full network, cached.
    const auto median = selection_network(n, bit(n / 2));
    EXPECT_EQ(median.data(), selection_network(n, bit(n / 2)).data());
    EXPECT_LE(median.size(), full.size());
    std::size_t at = 0;
    for (const ComparatorPair& c : median) {
      while (at < full.size() && full[at] != c) ++at;
      ASSERT_LT(at, full.size()) << "n=" << n << ": not a subsequence";
      ++at;
    }
  }
  // The n = 31, f = 10 engines select ranks {0, 10, 20} of the 21 honest
  // rows: 96 comparators per plane, where sorting the 31-row multiset
  // takes 186.
  EXPECT_EQ(merge_trim_ranks(21, 10, 10), bit(0) | bit(10) | bit(20));
  EXPECT_EQ(selection_network(21, bit(0) | bit(10) | bit(20)).size(), 96u);
  EXPECT_EQ(sorting_network(31).size(), 186u);
  EXPECT_TRUE(selection_network(1, bit(0)).empty());
}

TEST(SelectionNetwork, RejectsOutOfRangeRequests) {
  EXPECT_THROW(selection_network(0, bit(0)), ContractViolation);
  EXPECT_THROW(selection_network(kMaxSortingNetworkN + 1, bit(0)),
               ContractViolation);
  EXPECT_THROW(selection_network(5, 0), ContractViolation);
  EXPECT_THROW(selection_network(5, bit(5)), ContractViolation);
  EXPECT_THROW(merge_trim_ranks(5, 3, 2), ContractViolation);  // F > f
  EXPECT_THROW(merge_trim_ranks(3, 0, 2), ContractViolation);  // H+F < 2f+1
}

// Adversarial IEEE-754 values: signed zeros, infinities, denormals and
// magnitude extremes, mixed with ordinary values.
double special_value(Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  const double pool[] = {0.0,     -0.0,     kInf,    -kInf,   DBL_MIN,
                         -DBL_MIN, DBL_MAX, -DBL_MAX, kDenorm, -kDenorm};
  if (rng.uniform(0.0, 1.0) < 0.4) return rng.uniform(-10.0, 10.0);
  return pool[rng.uniform_int(0, 9)];
}

// merge_trim_batch on H honest rows and F copies of v against trim_batch
// on the assembled H + F rows, bit for bit, on every backend.
void expect_merge_matches_trim(std::size_t honest, std::size_t copies,
                               std::size_t f, const std::vector<double>& h,
                               const std::vector<double>& v,
                               std::size_t batch) {
  const std::size_t n = honest + copies;
  for_each_backend([&](const SimdKernels& kernels) {
    std::vector<double> assembled = h;
    for (std::size_t b = 0; b < copies; ++b)
      assembled.insert(assembled.end(), v.begin(), v.end());
    std::vector<double> expected(batch);
    trim_batch(assembled.data(), n, batch, f, kernels, expected.data());

    std::vector<double> selected = h;
    const RankSet ranks = merge_trim_ranks(honest, copies, f);
    apply_network(selected.data(), batch, selection_network(honest, ranks),
                  kernels);
    std::vector<double> got(batch);
    merge_trim_batch(selected.data(), honest, copies, f, v.data(), batch,
                     kernels, got.data());
    for (std::size_t r = 0; r < batch; ++r)
      ASSERT_EQ(bits(expected[r]), bits(got[r]))
          << "H=" << honest << " F=" << copies << " f=" << f << " column "
          << r << ": " << expected[r] << " vs " << got[r];
  });
}

TEST(MergeTrim, MidpointMatchesTrimBatchOnTheAssembledMultiset) {
  // Every (H, F, f) with F <= f up to n = 34: F = 0, partial F < f and
  // full F = f, on both sides of the network's n = 32 limit (trim_batch
  // falls back to nth_element past it; the honest selection stays a
  // network while H <= 32).
  Rng rng(43);
  const std::size_t batch = 13;
  for (std::size_t n = 1; n <= kMaxSortingNetworkN + 2; ++n) {
    for (std::size_t f = 0; 2 * f + 1 <= n; ++f) {
      for (std::size_t copies = 0; copies <= f; ++copies) {
        const std::size_t honest = n - copies;
        if (honest > kMaxSortingNetworkN) continue;
        std::vector<double> h(honest * batch);
        std::vector<double> v(batch);
        for (double& x : h) x = special_value(rng);
        for (double& x : v) x = special_value(rng);
        expect_merge_matches_trim(honest, copies, f, h, v, batch);
      }
    }
  }
}

TEST(MergeTrim, SignedZerosMeetAtTheTrimmedRanks) {
  // Columns of +0.0 / -0.0 honest values and a zero of either sign for
  // the F copies: the selection and the clamp may return the other zero
  // than the full sort, and the midpoint must still have its bits (+0.0
  // here: y_s + (y_l - y_s)/2 is +0.0 for any two zeros).
  const std::size_t honest = 9;
  const std::size_t copies = 3;
  const std::size_t f = 3;
  const std::size_t batch = std::size_t{1} << (honest + 1);
  std::vector<double> h(honest * batch);
  std::vector<double> v(batch);
  for (std::size_t r = 0; r < batch; ++r) {
    for (std::size_t k = 0; k < honest; ++k)
      h[k * batch + r] = (r >> k) & 1u ? -0.0 : 0.0;
    v[r] = (r >> honest) & 1u ? -0.0 : 0.0;
  }
  expect_merge_matches_trim(honest, copies, f, h, v, batch);
  std::vector<double> selected = h;
  apply_network(selected.data(), batch,
                selection_network(honest, merge_trim_ranks(honest, copies, f)),
                simd_kernels());
  std::vector<double> out(batch);
  merge_trim_batch(selected.data(), honest, copies, f, v.data(), batch,
                   simd_kernels(), out.data());
  for (double x : out) EXPECT_EQ(bits(x), bits(0.0));
}

TEST(MergeTrim, NoCopiesReadsNoPayloadRow) {
  // F = 0: the midpoint of honest ranks f and H-1-f; v may be null.
  const std::vector<double> h = {3.0, -1.0, 7.0, 0.5, 2.0};
  std::vector<double> selected = h;
  apply_network(selected.data(), 1,
                selection_network(5, merge_trim_ranks(5, 0, 1)),
                simd_kernels());
  double out = 0.0;
  merge_trim_batch(selected.data(), 5, 0, 1, nullptr, 1, simd_kernels(),
                   &out);
  EXPECT_EQ(out, 0.5 + (3.0 - 0.5) / 2.0);
}

}  // namespace
}  // namespace ftmao
