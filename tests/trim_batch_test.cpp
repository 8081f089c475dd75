// Bit-identity tests for the batched SoA trim kernels (trim/trim_batch)
// against the scalar reducers in trim/trim.hpp. The batched engine's
// determinism contract rests on these kernels selecting exactly the same
// doubles as the scalar nth_element / sort paths, so every comparison here
// is bitwise (EXPECT_EQ on doubles), never approximate.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "simd/simd.hpp"
#include "trim/trim.hpp"
#include "trim/trim_batch.hpp"

namespace ftmao {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Runs `body` once per compiled-and-supported SIMD backend, with that
// backend forced active; restores the previously active backend after.
void for_each_backend(const std::function<void(const char*)>& body) {
  const SimdIsa prev = simd_active();
  for (const SimdIsa isa : simd_compiled()) {
    if (!simd_supported(isa)) continue;
    ASSERT_TRUE(simd_select(isa));
    body(simd_isa_name(isa));
  }
  ASSERT_TRUE(simd_select(prev));
}

// Column r of an n x batch SoA matrix.
std::vector<double> column_of(const std::vector<double>& matrix, std::size_t n,
                              std::size_t batch, std::size_t r) {
  std::vector<double> column(n);
  for (std::size_t s = 0; s < n; ++s) column[s] = matrix[s * batch + r];
  return column;
}

std::vector<double> random_matrix(std::size_t n, std::size_t batch, Rng& rng,
                                  bool with_ties) {
  std::vector<double> m(n * batch);
  for (auto& x : m) {
    x = with_ties ? std::floor(rng.uniform(-4.0, 4.0))
                  : rng.uniform(-100.0, 100.0);
  }
  return m;
}

TEST(SortingNetwork, SortsEveryZeroOnePattern) {
  // 0-1 principle: a comparator network sorts all inputs iff it sorts
  // every 0/1 vector. Exhaustive up to n = 16.
  for (std::size_t n = 2; n <= 16; ++n) {
    const auto network = sorting_network(n);
    for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
      std::vector<double> v(n);
      for (std::size_t i = 0; i < n; ++i) v[i] = (mask >> i) & 1u ? 1.0 : 0.0;
      for (const auto& [i, j] : network) {
        if (v[i] > v[j]) std::swap(v[i], v[j]);
      }
      ASSERT_TRUE(std::is_sorted(v.begin(), v.end()))
          << "network n=" << n << " fails on mask " << mask;
    }
  }
}

TEST(SortingNetwork, ComparatorsAreInBoundsAndOrdered) {
  for (std::size_t n = 2; n <= kMaxSortingNetworkN; ++n) {
    for (const auto& [i, j] : sorting_network(n)) {
      EXPECT_LT(i, j);
      EXPECT_LT(j, n);
    }
  }
}

TEST(SortColumns, MatchesStdSortPerColumn) {
  Rng rng(11);
  for (std::size_t n : {2u, 3u, 5u, 8u, 13u, 27u, 32u, 33u, 40u, 64u, 65u}) {
    for (std::size_t batch : {1u, 3u, 4u, 7u}) {
      auto matrix = random_matrix(n, batch, rng, n % 2 == 0);
      const auto original = matrix;
      sort_columns(matrix.data(), n, batch);
      for (std::size_t r = 0; r < batch; ++r) {
        auto expected = column_of(original, n, batch, r);
        std::sort(expected.begin(), expected.end());
        const auto got = column_of(matrix, n, batch, r);
        EXPECT_EQ(expected, got) << "n=" << n << " batch=" << batch
                                 << " column=" << r;
      }
    }
  }
}

TEST(TrimBatch, BitIdenticalToScalarTrim) {
  // Randomized cross-check over every fan-in the engines can see (network
  // path up to 64, scalar fallback at 65) and every valid f, with and
  // without ties.
  Rng rng(7);
  for (std::size_t n = 2; n <= kMaxSortingNetworkN + 1; ++n) {
    for (std::size_t f = 0; 2 * f + 1 <= n; ++f) {
      for (std::size_t batch : {1u, 3u, 8u}) {
        for (bool ties : {false, true}) {
          auto matrix = random_matrix(n, batch, rng, ties);
          const auto original = matrix;
          std::vector<double> value(batch), y_s(batch), y_l(batch);
          trim_batch(matrix.data(), n, batch, f, value.data(), y_s.data(),
                     y_l.data());
          for (std::size_t r = 0; r < batch; ++r) {
            const TrimResult expected =
                trim(column_of(original, n, batch, r), f);
            // Bitwise: the whole point of the batched kernel.
            EXPECT_EQ(expected.value, value[r])
                << "n=" << n << " f=" << f << " batch=" << batch << " r=" << r;
            EXPECT_EQ(expected.y_s, y_s[r]);
            EXPECT_EQ(expected.y_l, y_l[r]);
          }
        }
      }
    }
  }
}

TEST(TrimBatch, OptionalExtremesMayBeNull) {
  Rng rng(3);
  const std::size_t n = 7, f = 2, batch = 4;
  auto matrix = random_matrix(n, batch, rng, false);
  const auto original = matrix;
  std::vector<double> value(batch);
  trim_batch(matrix.data(), n, batch, f, value.data());
  for (std::size_t r = 0; r < batch; ++r) {
    EXPECT_EQ(trim(column_of(original, n, batch, r), f).value, value[r]);
  }
}

TEST(TrimBatch, TooFewValuesThrows) {
  std::vector<double> matrix(2, 0.0);
  std::vector<double> out(1);
  EXPECT_THROW(trim_batch(matrix.data(), 2, 1, 1, out.data()),
               ContractViolation);
}

TEST(TrimmedMeanBatch, BitIdenticalToScalarTrimmedMean) {
  Rng rng(19);
  for (std::size_t n = 2; n <= 33; ++n) {
    for (std::size_t f = 0; 2 * f + 1 <= n; ++f) {
      for (std::size_t batch : {1u, 5u}) {
        auto matrix = random_matrix(n, batch, rng, n % 3 == 0);
        const auto original = matrix;
        std::vector<double> mean(batch);
        trimmed_mean_batch(matrix.data(), n, batch, f, mean.data());
        for (std::size_t r = 0; r < batch; ++r) {
          EXPECT_EQ(trimmed_mean(column_of(original, n, batch, r), f), mean[r])
              << "n=" << n << " f=" << f << " batch=" << batch << " r=" << r;
        }
      }
    }
  }
}

TEST(TrimBatch, ZeroBatchIsANoOp) {
  double out = 0.0;
  trim_batch(nullptr, 7, 0, 2, &out);
  trimmed_mean_batch(nullptr, 7, 0, 2, &out);
  EXPECT_EQ(out, 0.0);
}

TEST(SortColumns, PreservesSignedZeroMultisetOnEveryBackend) {
  // The comparator is a conditional swap, so the network output must be a
  // true permutation of the input *bit patterns*: a column mixing +0.0
  // and -0.0 keeps exactly as many of each. (min/max-style comparators
  // fail this — they duplicate one zero and destroy the other.)
  for_each_backend([&](const char* isa) {
    for (std::size_t n : {2u, 3u, 4u, 7u, 8u, 16u, 32u}) {
      for (std::size_t batch : {1u, 3u, 4u, 5u}) {
        std::vector<double> matrix(n * batch);
        for (std::size_t s = 0; s < n; ++s)
          for (std::size_t r = 0; r < batch; ++r)
            matrix[s * batch + r] = ((s + r) % 2 == 0) ? 0.0 : -0.0;
        std::map<std::uint64_t, std::size_t> before;
        for (double v : matrix) ++before[bits(v)];
        sort_columns(matrix.data(), n, batch);
        std::map<std::uint64_t, std::size_t> after;
        for (double v : matrix) ++after[bits(v)];
        EXPECT_EQ(before, after) << isa << " n=" << n << " batch=" << batch;
        // And each column is sorted.
        for (std::size_t r = 0; r < batch; ++r) {
          for (std::size_t s = 0; s + 1 < n; ++s) {
            EXPECT_LE(matrix[s * batch + r], matrix[(s + 1) * batch + r]);
          }
        }
      }
    }
  });
}

// Adversarial IEEE-754 values through the full trim/trimmed-mean paths.
std::vector<double> special_matrix(std::size_t n, std::size_t batch,
                                   Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> pool = {
      0.0,     -0.0,     kInf,
      -kInf,   DBL_MIN,  -DBL_MIN,
      DBL_MAX, -DBL_MAX, std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min()};
  std::vector<double> m(n * batch);
  for (auto& x : m) {
    x = rng.uniform(0.0, 1.0) < 0.5
            ? pool[static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(pool.size()) - 1))]
            : rng.uniform(-10.0, 10.0);
  }
  return m;
}

TEST(TrimBatch, SpecialValuesBitIdenticalToScalarTrimOnEveryBackend) {
  // Signed zeros, +/-inf, denormals and magnitude extremes: the batched
  // midpoint must match the scalar trim() bit-for-bit on every backend.
  // (y_s / y_l may legitimately differ in the *sign of zero* when a
  // selection boundary falls inside a run of mixed-sign zeros — ordering
  // among equal-comparing values is unspecified — so those compare by
  // double equality; the midpoint value itself is bit-compared.)
  Rng rng(23);
  for (std::size_t n : {3u, 7u, 13u, 31u, 32u}) {
    for (std::size_t f = 0; 2 * f + 1 <= n && f <= 4; ++f) {
      for (std::size_t batch : {1u, 3u, 4u, 6u}) {
        const auto original = special_matrix(n, batch, rng);
        for_each_backend([&](const char* isa) {
          auto matrix = original;
          std::vector<double> value(batch), y_s(batch), y_l(batch);
          trim_batch(matrix.data(), n, batch, f, value.data(), y_s.data(),
                     y_l.data());
          for (std::size_t r = 0; r < batch; ++r) {
            const TrimResult expected =
                trim(column_of(original, n, batch, r), f);
            EXPECT_EQ(bits(expected.value), bits(value[r]))
                << isa << " n=" << n << " f=" << f << " r=" << r;
            EXPECT_EQ(expected.y_s, y_s[r]) << isa;
            EXPECT_EQ(expected.y_l, y_l[r]) << isa;
          }
        });
      }
    }
  }
}

TEST(TrimBatch, NetworkFallbackBoundaryParityOnEveryBackend) {
  // n = 64 runs the sorting network, n = 65 the nth_element fallback; the
  // two paths must agree bitwise with the scalar reference on either side
  // of the boundary, on every backend, including with special values.
  Rng rng(29);
  for (std::size_t n : {kMaxSortingNetworkN, kMaxSortingNetworkN + 1}) {
    for (std::size_t f : {0u, 2u, 10u}) {
      const std::size_t batch = 5;
      const auto original = special_matrix(n, batch, rng);
      for_each_backend([&](const char* isa) {
        auto matrix = original;
        std::vector<double> value(batch);
        trim_batch(matrix.data(), n, batch, f, value.data());
        auto mean_matrix = original;
        std::vector<double> mean(batch);
        trimmed_mean_batch(mean_matrix.data(), n, batch, f, mean.data());
        for (std::size_t r = 0; r < batch; ++r) {
          const auto column = column_of(original, n, batch, r);
          EXPECT_EQ(bits(trim(column, f).value), bits(value[r]))
              << isa << " n=" << n << " f=" << f << " r=" << r;
          EXPECT_EQ(bits(trimmed_mean(column, f)), bits(mean[r]))
              << isa << " n=" << n << " f=" << f << " r=" << r;
        }
      });
    }
  }
}

}  // namespace
}  // namespace ftmao
