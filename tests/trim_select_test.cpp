// Tests for trim by selection (trim/trim_batch): the selection networks
// must leave every requested row with the full sorting network's bits,
// and merge_trim_batch must return trim_batch's midpoint bits on the
// assembled multiset of H honest values plus F copies of one value or F
// different values. The batch engines' bit-identity with the scalar
// engine rests on both.

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
// H + F <= kMaxSortingNetworkN, for one row of F copies and for F
// different rows, alone (per-recipient selection under a delivery
// filter, or no Byzantine agents) and with the HonestSummary ranks
// {0, H/2, H-1} (the once-per-round selection), plus the summary ranks
// alone (a delivery filter on).
std::set<RankSet> engine_rank_sets(std::size_t honest) {
  const RankSet summary = bit(0) | bit(honest / 2) | bit(honest - 1);
  std::set<RankSet> sets = {summary};
  for (std::size_t copies = 0; honest + copies <= kMaxSortingNetworkN;
       ++copies) {
    for (std::size_t f = copies; honest + copies >= 2 * f + 1; ++f) {
      for (std::size_t rows : {std::size_t{1}, copies}) {
        const RankSet trim = merge_trim_ranks(honest, copies, f, rows);
        sets.insert(trim);
        sets.insert(trim | summary);
      }
    }
  }
  return sets;
}

// Checks that the selection network of every rank set in `sets` leaves
// the full network's bits in each requested row. Runs on the active
// backend; the forced-ISA ctest entries (FTMAO_ISA) cover each backend
// in turn.
void expect_live_rows_match(const std::vector<double>& matrix,
                            std::size_t honest, std::size_t batch,
                            const std::set<RankSet>& sets) {
  const SimdKernels& kernels = simd_kernels();
  std::vector<double> sorted = matrix;
  apply_network(sorted.data(), batch, sorting_network(honest), kernels);
  std::vector<double> selected(matrix.size());
  for (const RankSet ranks : sets) {
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
    expect_live_rows_match(matrix, honest, batch, engine_rank_sets(honest));
  }
}

TEST(SelectionNetwork, LiveRowsMatchTheFullNetworkWithTiesAndSignedZeros) {
  // Above H = 16: random columns from a small pool, so ties are common
  // and +0.0 / -0.0 meet in most columns. Past H = 32, where the engines
  // request hundreds of rank sets per H, a random 40 of them.
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
    std::set<RankSet> sets = engine_rank_sets(honest);
    if (honest > 32) {
      const double keep = 40.0 / static_cast<double>(sets.size());
      std::erase_if(sets,
                    [&](RankSet) { return rng.uniform(0.0, 1.0) >= keep; });
    }
    expect_live_rows_match(matrix, honest, batch, sets);
  }
}

TEST(SelectionNetwork, IsTheFullNetworkPrunedToTheRequestedRows) {
  for (std::size_t n = 2; n <= kMaxSortingNetworkN; ++n) {
    const auto full = sorting_network(n);
    const auto all_rows = n == kMaxSortingNetworkN
                              ? ~RankSet{0}
                              : static_cast<RankSet>((RankSet{1} << n) - 1);
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

// merge_trim_batch on H honest rows and the F Byzantine values in `v`
// (one row of F copies, or F rows) against trim_batch on the assembled
// H + F rows, bit for bit, on every backend.
void expect_merge_matches_trim(std::size_t honest, std::size_t copies,
                               std::size_t f, const std::vector<double>& h,
                               const std::vector<double>& v,
                               std::size_t batch) {
  const std::size_t n = honest + copies;
  const std::size_t rows = v.size() / batch;
  for_each_backend([&](const SimdKernels& kernels) {
    std::vector<double> assembled = h;
    for (std::size_t b = 0; b < copies; ++b)
      assembled.insert(assembled.end(), v.begin() + (b % rows) * batch,
                       v.begin() + (b % rows + 1) * batch);
    std::vector<double> expected(batch);
    trim_batch(assembled.data(), n, batch, f, kernels, expected.data());

    std::vector<double> selected = h;
    const RankSet ranks = merge_trim_ranks(honest, copies, f, rows);
    apply_network(selected.data(), batch, selection_network(honest, ranks),
                  kernels);
    std::vector<double> byzantine = v;
    std::vector<double> got(batch);
    merge_trim_batch(selected.data(), honest, copies, f, byzantine.data(),
                     rows, batch, kernels, got.data());
    for (std::size_t r = 0; r < batch; ++r)
      ASSERT_EQ(bits(expected[r]), bits(got[r]))
          << "H=" << honest << " F=" << copies << " rows=" << rows
          << " f=" << f << " column " << r << ": " << expected[r] << " vs "
          << got[r];
  });
}

TEST(MergeTrim, MidpointMatchesTrimBatchOnTheAssembledMultiset) {
  // Every (H, F, f) with F <= f up to n = 66: F = 0, partial F < f and
  // full F = f, on both sides of the network's n = 64 limit (trim_batch
  // falls back to nth_element past it; the honest selection stays a
  // network while H <= 64). The F values are one row of copies and, for
  // F >= 2, F different rows (a per-message pack), sorted in place and
  // merged with the honest runs f-F..f and H-1-f..H-1-f+F.
  Rng rng(43);
  const std::size_t batch = 13;
  for (std::size_t n = 1; n <= kMaxSortingNetworkN + 2; ++n) {
    for (std::size_t f = 0; 2 * f + 1 <= n; ++f) {
      for (std::size_t copies = 0; copies <= f; ++copies) {
        const std::size_t honest = n - copies;
        if (honest > kMaxSortingNetworkN) continue;
        std::vector<double> h(honest * batch);
        for (double& x : h) x = special_value(rng);
        for (std::size_t rows : {std::size_t{1}, copies}) {
          if (rows == copies && copies < 2) continue;
          std::vector<double> v(rows * batch);
          for (double& x : v) x = special_value(rng);
          expect_merge_matches_trim(honest, copies, f, h, v, batch);
        }
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
  merge_trim_batch(selected.data(), honest, copies, f, v.data(), 1, batch,
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
  merge_trim_batch(selected.data(), 5, 0, 1, nullptr, 0, 1, simd_kernels(),
                   &out);
  EXPECT_EQ(out, 0.5 + (3.0 - 0.5) / 2.0);
}

TEST(MergeTrim, DifferentRowsReadTheHonestRunsAroundTheTrimmedRanks) {
  // n = 13, f = F = 4: ranks 0..4 and 4..8 of the 9 honest rows, every
  // row; one row of copies needs ranks 0, 4 and 8 only.
  EXPECT_EQ(merge_trim_ranks(9, 4, 4, 4), (RankSet{1} << 9) - 1);
  EXPECT_EQ(merge_trim_ranks(9, 4, 4, 1), bit(0) | bit(4) | bit(8));
  // H = 20, F = 2, f = 4: ranks 2..4 and 15..17.
  EXPECT_EQ(merge_trim_ranks(20, 2, 4, 2),
            bit(2) | bit(3) | bit(4) | bit(15) | bit(16) | bit(17));
  EXPECT_THROW(merge_trim_ranks(9, 3, 4, 2), ContractViolation);
  // Rows {4, 1}, sorted in place, merged with honest {0, 2, 3, 5, 6}:
  // the multiset {0, 1, 2, 3, 4, 5, 6} trims f = 2 to (2 + 4) / 2.
  std::vector<double> h = {6.0, 0.0, 3.0, 5.0, 2.0};
  std::vector<double> v = {4.0, 1.0};
  apply_network(h.data(), 1, selection_network(5, merge_trim_ranks(5, 2, 2, 2)),
                simd_kernels());
  double out = 0.0;
  merge_trim_batch(h.data(), 5, 2, 2, v.data(), 2, 1, simd_kernels(), &out);
  EXPECT_EQ(out, 3.0);
  EXPECT_EQ(v, (std::vector<double>{1.0, 4.0}));  // sorted in place
}

}  // namespace
}  // namespace ftmao
