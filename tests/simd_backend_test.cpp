// Equivalence tests for the SIMD lane backends (src/simd). The dispatch
// contract is that every compiled-and-supported backend — scalar, SSE2,
// AVX2, AVX-512 — produces bit-identical output to the scalar backend for
// every kernel, including on signed zeros, infinities, and denormals; and
// that the batched engine under any forced backend reproduces the scalar
// reference engine exactly. Comparisons are on bit patterns
// (std::bit_cast), not double equality, so +0.0 vs -0.0 divergence is
// caught.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "func/functions.hpp"
#include "sim/batch_runner.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "simd/simd.hpp"
#include "trim/trim_batch.hpp"

namespace ftmao {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

constexpr double kInf = std::numeric_limits<double>::infinity();

// Adversarial values: both zero signs, both infinities, denormals, and
// magnitude extremes, interleaved with ordinary values.
std::vector<double> special_pool() {
  return {0.0,
          -0.0,
          kInf,
          -kInf,
          std::numeric_limits<double>::denorm_min(),
          -std::numeric_limits<double>::denorm_min(),
          DBL_MIN,
          -DBL_MIN,
          DBL_MAX,
          -DBL_MAX,
          1.5,
          -2.25,
          3.0,
          -0.0,
          0.0,
          7.125};
}

std::vector<double> mixed_matrix(std::size_t n, std::size_t batch, Rng& rng) {
  const auto pool = special_pool();
  std::vector<double> m(n * batch);
  for (std::size_t i = 0; i < m.size(); ++i) {
    // Every third value from the special pool, the rest random.
    m[i] = (i % 3 == 0)
               ? pool[static_cast<std::size_t>(rng.uniform_int(
                     0, static_cast<std::int64_t>(pool.size()) - 1))]
               : rng.uniform(-50.0, 50.0);
  }
  return m;
}

// Runs `body` once per compiled-and-supported backend, with that backend
// forced active; restores the previously active backend afterwards.
void for_each_backend(
    const std::function<void(const SimdKernels&)>& body) {
  const SimdIsa prev = simd_active();
  for (const SimdIsa isa : simd_compiled()) {
    if (!simd_supported(isa)) continue;
    ASSERT_TRUE(simd_select(isa));
    body(simd_kernels());
  }
  ASSERT_TRUE(simd_select(prev));
}

TEST(SimdDispatch, ScalarAlwaysPresent) {
  bool has_scalar = false;
  for (const SimdIsa isa : simd_compiled())
    has_scalar = has_scalar || isa == SimdIsa::kScalar;
  EXPECT_TRUE(has_scalar);
  EXPECT_TRUE(simd_supported(SimdIsa::kScalar));
  EXPECT_EQ(simd_kernels_for(SimdIsa::kScalar).width, 1u);
}

TEST(SimdDispatch, DetectedBackendIsSupported) {
  EXPECT_TRUE(simd_supported(simd_detect()));
  // The active table always matches the active ISA tier.
  EXPECT_EQ(simd_kernels().isa, simd_active());
}

TEST(SimdDispatch, WidthAwareDetectObeysWasteRule) {
  // simd_detect_for_lanes picks the widest supported backend whose padded
  // waste stays under half a register: 2 * (roundup(L, w) - L) < w. Zero
  // lanes means "unknown", which falls back to plain detection.
  EXPECT_EQ(simd_detect_for_lanes(0), simd_detect());
  for (std::size_t lanes = 1; lanes <= 40; ++lanes) {
    const SimdIsa picked = simd_detect_for_lanes(lanes);
    EXPECT_TRUE(simd_supported(picked)) << "lanes=" << lanes;
    const std::size_t w = simd_kernels_for(picked).width;
    const std::size_t waste = (lanes + w - 1) / w * w - lanes;
    EXPECT_TRUE(picked == SimdIsa::kScalar || 2 * waste < w)
        << "lanes=" << lanes;
    // No wider supported backend also satisfies the rule.
    for (const SimdIsa isa : simd_compiled()) {
      if (!simd_supported(isa)) continue;
      const std::size_t w2 = simd_kernels_for(isa).width;
      if (w2 <= w) continue;
      const std::size_t waste2 = (lanes + w2 - 1) / w2 * w2 - lanes;
      EXPECT_FALSE(2 * waste2 < w2) << "lanes=" << lanes << " skipped wider "
                                    << simd_isa_name(isa);
    }
  }
}

TEST(SimdDispatch, WidthAwareDetectKnownLaneCounts) {
  // One lane can never fill more than half of any vector register.
  EXPECT_EQ(simd_detect_for_lanes(1), SimdIsa::kScalar);
  if (simd_supported(SimdIsa::kSse2)) {
    // Two lanes exactly fill SSE2; AVX2 would waste half its register.
    EXPECT_EQ(simd_detect_for_lanes(2), SimdIsa::kSse2);
  }
  if (simd_supported(SimdIsa::kAvx2)) {
    // Three lanes: SSE2 pads one of two (half wasted, rejected), AVX2
    // pads one of four (accepted). Four lanes fill AVX2 exactly; an
    // AVX-512 register would run half empty, so AVX2 wins even when
    // AVX-512 is supported — the seeds=3 scalar-batch regression.
    EXPECT_EQ(simd_detect_for_lanes(3), SimdIsa::kAvx2);
    EXPECT_EQ(simd_detect_for_lanes(4), SimdIsa::kAvx2);
  }
  if (simd_supported(SimdIsa::kAvx512)) {
    // Five lanes pad three of eight (under half), and multiples of eight
    // fill AVX-512 exactly — e.g. the d=8, B=3 vector batch (24 lanes).
    EXPECT_EQ(simd_detect_for_lanes(5), SimdIsa::kAvx512);
    EXPECT_EQ(simd_detect_for_lanes(8), SimdIsa::kAvx512);
    EXPECT_EQ(simd_detect_for_lanes(24), SimdIsa::kAvx512);
  }
}

TEST(SimdDispatch, KernelsForLanesHonoursExplicitOverride) {
  // Once an explicit selection is made (simd_select or a successful
  // FTMAO_ISA override), width-aware auto-dispatch defers to it.
  const SimdIsa prev = simd_active();
  ASSERT_TRUE(simd_select(SimdIsa::kScalar));
  EXPECT_EQ(simd_kernels_for_lanes(64).isa, SimdIsa::kScalar);
  ASSERT_TRUE(simd_select(prev));
  EXPECT_EQ(simd_kernels_for_lanes(64).isa, prev);
}

TEST(SimdDispatch, ParseIsaNames) {
  EXPECT_EQ(parse_simd_isa("scalar"), SimdIsa::kScalar);
  EXPECT_EQ(parse_simd_isa("sse2"), SimdIsa::kSse2);
  EXPECT_EQ(parse_simd_isa("avx2"), SimdIsa::kAvx2);
  EXPECT_EQ(parse_simd_isa("avx512"), SimdIsa::kAvx512);
  EXPECT_EQ(parse_simd_isa("auto"), simd_detect());
  EXPECT_THROW(parse_simd_isa("avx1024"), ContractViolation);
  EXPECT_THROW(parse_simd_isa(""), ContractViolation);
  for (const SimdIsa isa : simd_compiled())
    EXPECT_EQ(parse_simd_isa(simd_isa_name(isa)), isa);
}

TEST(SimdDispatch, SelectSwitchesActiveBackend) {
  const SimdIsa prev = simd_active();
  ASSERT_TRUE(simd_select(SimdIsa::kScalar));
  EXPECT_EQ(simd_active(), SimdIsa::kScalar);
  EXPECT_EQ(std::string(simd_kernels().name), "scalar");
  ASSERT_TRUE(simd_select(prev));
  EXPECT_EQ(simd_active(), prev);
}

TEST(SimdKernels, SortNetworkBitIdenticalAcrossBackends) {
  const SimdKernels& scalar = simd_kernels_for(SimdIsa::kScalar);
  Rng rng(101);
  for (std::size_t n : {2u, 3u, 7u, 13u, 31u, 32u}) {
    const auto network = sorting_network(n);
    for (std::size_t batch : {1u, 2u, 3u, 4u, 5u, 8u, 11u}) {
      const auto input = mixed_matrix(n, batch, rng);
      auto expected = input;
      scalar.sort_network(expected.data(), batch, network.data(),
                          network.size(), batch);
      for_each_backend([&](const SimdKernels& k) {
        auto got = input;
        k.sort_network(got.data(), batch, network.data(), network.size(),
                       batch);
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(bits(expected[i]), bits(got[i]))
              << k.name << " n=" << n << " batch=" << batch << " i=" << i;
        }
      });
    }
  }
}

TEST(SimdKernels, RowKernelsBitIdenticalAcrossBackends) {
  const SimdKernels& scalar = simd_kernels_for(SimdIsa::kScalar);
  Rng rng(103);
  for (std::size_t count : {1u, 2u, 3u, 4u, 7u, 16u, 33u}) {
    const auto ys = mixed_matrix(1, count, rng);
    const auto yl = mixed_matrix(1, count, rng);
    std::vector<double> mid_expected(count), acc_expected(count),
        div_expected(count);
    scalar.trim_midpoint(ys.data(), yl.data(), mid_expected.data(), count);
    acc_expected = ys;
    scalar.accumulate_rows(acc_expected.data(), yl.data(), count);
    div_expected = ys;
    scalar.divide_rows(div_expected.data(), 3.0, count);

    for_each_backend([&](const SimdKernels& k) {
      std::vector<double> mid(count), acc(ys), divr(ys);
      k.trim_midpoint(ys.data(), yl.data(), mid.data(), count);
      k.accumulate_rows(acc.data(), yl.data(), count);
      k.divide_rows(divr.data(), 3.0, count);
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(bits(mid_expected[i]), bits(mid[i])) << k.name;
        ASSERT_EQ(bits(acc_expected[i]), bits(acc[i])) << k.name;
        ASSERT_EQ(bits(div_expected[i]), bits(divr[i])) << k.name;
      }
    });
  }
}

TEST(SimdKernels, MergeMidpointBitIdenticalAcrossBackends) {
  // The merged-trim midpoint: v clamped into [ys_lo, ys_hi] and
  // [yl_lo, yl_hi] (bounds ordered, as selected ranks are), then the
  // Trim midpoint, on special values; every backend and the vector-tail
  // path must give the scalar backend's bits.
  const SimdKernels& scalar = simd_kernels_for(SimdIsa::kScalar);
  Rng rng(107);
  for (std::size_t count : {1u, 2u, 3u, 4u, 7u, 16u, 33u}) {
    const auto v = mixed_matrix(1, count, rng);
    auto a = mixed_matrix(1, count, rng);
    auto b = mixed_matrix(1, count, rng);
    auto c = mixed_matrix(1, count, rng);
    auto d = mixed_matrix(1, count, rng);
    for (std::size_t i = 0; i < count; ++i) {
      double q[] = {a[i], b[i], c[i], d[i]};
      std::sort(std::begin(q), std::end(q));
      a[i] = q[0];
      b[i] = q[1];
      c[i] = q[2];
      d[i] = q[3];
    }
    std::vector<double> expected(count);
    scalar.merge_midpoint(v.data(), a.data(), b.data(), c.data(), d.data(),
                          expected.data(), count);
    for (std::size_t i = 0; i < count; ++i) {
      // std::clamp's operation order, spelled out per lane.
      const double s = std::clamp(v[i], a[i], b[i]);
      const double l = std::clamp(v[i], c[i], d[i]);
      ASSERT_EQ(bits(s + (l - s) / 2.0), bits(expected[i]));
    }
    for_each_backend([&](const SimdKernels& k) {
      std::vector<double> out(count);
      k.merge_midpoint(v.data(), a.data(), b.data(), c.data(), d.data(),
                       out.data(), count);
      for (std::size_t i = 0; i < count; ++i)
        ASSERT_EQ(bits(expected[i]), bits(out[i])) << k.name;
    });
  }
}

TEST(SimdKernels, MergeRowsMidpointBitIdenticalAcrossBackends) {
  // The merge of F different rows: per lane, ascending honest runs of
  // F + 1 values at ys_h and yl_h and ascending Byzantine values b;
  // rank F of each run merged with b is min over j of
  // max(h[F - j], b[j - 1]). Special values; every backend and the
  // vector-tail path must give the scalar backend's bits.
  const SimdKernels& scalar = simd_kernels_for(SimdIsa::kScalar);
  Rng rng(109);
  for (std::size_t rows : {2u, 3u, 7u}) {
    for (std::size_t count : {1u, 3u, 4u, 9u, 33u}) {
      auto ys_h = mixed_matrix(rows + 1, count, rng);
      auto yl_h = mixed_matrix(rows + 1, count, rng);
      auto b = mixed_matrix(rows, count, rng);
      sort_columns(ys_h.data(), rows + 1, count);
      sort_columns(yl_h.data(), rows + 1, count);
      sort_columns(b.data(), rows, count);
      std::vector<double> expected(count);
      scalar.merge_rows_midpoint(b.data(), ys_h.data(), yl_h.data(), rows,
                                 count, expected.data(), count);
      for (std::size_t i = 0; i < count; ++i) {
        // std::min / std::max in the kernel's operation order.
        const auto rank = [&](const std::vector<double>& h) {
          double m = h[rows * count + i];
          for (std::size_t j = 1; j <= rows; ++j)
            m = std::min(m, std::max(h[(rows - j) * count + i],
                                     b[(j - 1) * count + i]));
          return m;
        };
        const double s = rank(ys_h);
        const double l = rank(yl_h);
        ASSERT_EQ(bits(s + (l - s) / 2.0), bits(expected[i]));
      }
      for_each_backend([&](const SimdKernels& k) {
        std::vector<double> out(count);
        k.merge_rows_midpoint(b.data(), ys_h.data(), yl_h.data(), rows, count,
                              out.data(), count);
        for (std::size_t i = 0; i < count; ++i)
          ASSERT_EQ(bits(expected[i]), bits(out[i])) << k.name;
      });
    }
  }
}

TEST(SimdKernels, GradientClampMatchesVirtualDerivativeBitwise) {
  // Three descriptor-bearing families; the descriptor must equal the
  // virtual derivative bit-for-bit on every probe (including +/-0, +/-inf
  // and denormals), and every backend's kernel must equal the descriptor.
  const Huber huber(1.5, 2.0, 0.75);
  const FlatHuber flat(Interval(-1.0, 2.0), 1.5, 1.25);
  const AsymmetricHuber asym(-0.5, 1.0, 3.0, 0.5);
  const ScalarFunction* fns[] = {&huber, &flat, &asym};

  std::vector<double> probes = special_pool();
  Rng rng(107);
  for (int i = 0; i < 64; ++i) probes.push_back(rng.uniform(-20.0, 20.0));

  for (const ScalarFunction* fn : fns) {
    const BatchGradientKernel d = fn->batch_gradient_kernel();
    ASSERT_TRUE(d.valid());
    for (double x : probes)
      ASSERT_EQ(bits(fn->derivative(x)), bits(d.evaluate(x)));
  }

  // Heterogeneous descriptors across one row, as batch_runner lays out
  // per-lane parameters.
  const std::size_t count = probes.size();
  std::vector<double> a(count), b(count), lo(count), hi(count), scale(count),
      expected(count);
  for (std::size_t i = 0; i < count; ++i) {
    const BatchGradientKernel d = fns[i % 3]->batch_gradient_kernel();
    a[i] = d.p0;
    b[i] = d.p1;
    lo[i] = d.p2;
    hi[i] = d.p3;
    scale[i] = d.scale;
    expected[i] = fns[i % 3]->derivative(probes[i]);
  }
  for_each_backend([&](const SimdKernels& k) {
    std::vector<double> g(count);
    k.gradient_clamp(probes.data(), a.data(), b.data(), lo.data(), hi.data(),
                     scale.data(), g.data(), count);
    for (std::size_t i = 0; i < count; ++i)
      ASSERT_EQ(bits(expected[i]), bits(g[i])) << k.name << " i=" << i;
  });
}

TEST(SimdKernels, FusedStepMatchesScalarUpdateBitwise) {
  Rng rng(109);
  const std::size_t count = 23;
  std::vector<double> tx = mixed_matrix(1, count, rng);
  std::vector<double> tg = mixed_matrix(1, count, rng);
  std::vector<double> lambda(count), clo(count), chi(count), mask(count);
  const double all_bits = std::bit_cast<double>(~std::uint64_t{0});
  for (std::size_t i = 0; i < count; ++i) {
    lambda[i] = rng.uniform(0.0, 0.5);
    if (i % 2 == 0) {  // constrained lane
      clo[i] = -3.0;
      chi[i] = 4.0;
      mask[i] = all_bits;
    } else {  // unconstrained lane
      clo[i] = -kInf;
      chi[i] = kInf;
      mask[i] = 0.0;
    }
  }

  // The scalar engine's update, verbatim (sim/runner step + projection).
  std::vector<double> x_expected(count), pe_expected(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double u = tx[i] - lambda[i] * tg[i];
    if (i % 2 == 0) {
      const double next = std::clamp(u, clo[i], chi[i]);
      x_expected[i] = next;
      pe_expected[i] = next - u;
    } else {
      x_expected[i] = u;
      pe_expected[i] = 0.0;
    }
  }

  for_each_backend([&](const SimdKernels& k) {
    std::vector<double> x(count), pe(count);
    k.fused_step(tx.data(), tg.data(), lambda.data(), clo.data(), chi.data(),
                 mask.data(), x.data(), pe.data(), count);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(bits(x_expected[i]), bits(x[i])) << k.name << " i=" << i;
      ASSERT_EQ(bits(pe_expected[i]), bits(pe[i])) << k.name << " i=" << i;
    }
  });
}

TEST(SimdKernels, MaskedBlendSelectsExactBitPatterns) {
  // The delivery-filter substitution: mask lanes are stored
  // all-ones/all-zeros doubles; taken lanes must reproduce the payload's
  // exact bit pattern (signed zeros, infinities, denormals included) and
  // dropped lanes the default's.
  Rng rng(113);
  const double all_bits = std::bit_cast<double>(~std::uint64_t{0});
  for (std::size_t count : {1u, 2u, 3u, 4u, 7u, 8u, 9u, 16u, 33u}) {
    const auto px = mixed_matrix(1, count, rng);
    const auto pg = mixed_matrix(1, count, rng);
    const auto dx = mixed_matrix(1, count, rng);
    const auto dg = mixed_matrix(1, count, rng);
    std::vector<double> mask(count);
    for (std::size_t i = 0; i < count; ++i)
      mask[i] = (i % 3 == 0) ? all_bits : 0.0;

    for_each_backend([&](const SimdKernels& k) {
      std::vector<double> outx(count), outg(count);
      k.masked_blend(mask.data(), px.data(), pg.data(), dx.data(), dg.data(),
                     outx.data(), outg.data(), count);
      for (std::size_t i = 0; i < count; ++i) {
        const bool take = (i % 3 == 0);
        ASSERT_EQ(bits(take ? px[i] : dx[i]), bits(outx[i]))
            << k.name << " count=" << count << " i=" << i;
        ASSERT_EQ(bits(take ? pg[i] : dg[i]), bits(outg[i]))
            << k.name << " count=" << count << " i=" << i;
      }
    });
  }
}

TEST(SimdEngine, BatchedEngineMatchesScalarEngineUnderEveryBackend) {
  // End-to-end: the batched engine forced onto each backend reproduces
  // the scalar reference engine bit-for-bit, final state by final state.
  for (const AttackKind kind :
       {AttackKind::None, AttackKind::SplitBrain, AttackKind::SignFlip}) {
    std::vector<Scenario> replicas;
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
      replicas.push_back(make_standard_scenario(7, 2, 8.0, kind, 60, seed));

    std::vector<RunMetrics> expected;
    for (const Scenario& s : replicas) expected.push_back(run_sbg(s));

    for_each_backend([&](const SimdKernels& k) {
      const std::vector<RunMetrics> got = run_sbg_batch(replicas);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t r = 0; r < got.size(); ++r) {
        ASSERT_EQ(got[r].final_states.size(), expected[r].final_states.size());
        for (std::size_t j = 0; j < got[r].final_states.size(); ++j) {
          ASSERT_EQ(bits(expected[r].final_states[j]),
                    bits(got[r].final_states[j]))
              << k.name << " attack=" << static_cast<int>(kind) << " r=" << r
              << " j=" << j;
        }
      }
    });
  }
}

}  // namespace
}  // namespace ftmao
