#pragma once

// Width-agnostic kernel bodies for the SIMD backends.
//
// A backend TU defines a `DoubleLanes` policy type and calls
// make_kernels<L>() to obtain its SimdKernels table. The policy supplies:
//
//   static constexpr std::size_t kWidth;   // doubles per vector
//   using Vec;                             // vector register type
//   static Vec  load(const double*);       // unaligned load of kWidth
//   static void store(double*, Vec);       // unaligned store of kWidth
//   static Vec  broadcast(double);
//   static Vec  add(Vec, Vec); sub(Vec, Vec); mul(Vec, Vec); div(Vec, Vec);
//   static Vec  less(Vec a, Vec b);        // ordered-quiet a < b, all-ones
//                                          // lane mask as Vec bits
//   static Vec  select(Vec m, Vec t, Vec f);     // m ? t : f, m from less()
//   static Vec  bitselect(Vec m, Vec t, Vec f);  // m ? t : f, m a *stored*
//                                                // all-ones/all-zeros mask
//   static Vec  sqrt(Vec);                 // IEEE 754 square root — the
//                                          // standard requires correct
//                                          // rounding, so hardware SQRTPD
//                                          // and std::sqrt agree bitwise
//   static Vec  exp2i(Vec t);              // 2^k for t = k + 1.5*2^52:
//                                          // ((bits(t) + 1023) << 52)
//                                          // reinterpreted as double —
//                                          // pure integer lane ops (see
//                                          // simd/det_math_impl.hpp)
//
// Every kernel body below performs the identical IEEE operation sequence
// per lane in every instantiation; vector tails reuse the scalar policy
// (ScalarLanes) so a lane computed in the tail is bit-identical to the
// same lane computed in a full vector. That — plus the conditional-swap
// comparator and first-argument-wins min/max (simd/simd.hpp, rules 2
// and 3) — is the whole cross-backend determinism argument.
//
// Instantiate only inside the backend's own TU (each policy type is
// TU-local, so template instantiations cannot collide across differently
// flagged objects).

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "simd/simd.hpp"

namespace ftmao::simd_detail {

/// The width-1 policy: plain doubles, branch-free selects. Used both as
/// the scalar backend's policy and as every wider backend's tail path.
struct ScalarLanes {
  static constexpr std::size_t kWidth = 1;
  using Vec = double;
  static Vec load(const double* p) { return *p; }
  static void store(double* p, Vec v) { *p = v; }
  static Vec broadcast(double x) { return x; }
  static Vec add(Vec a, Vec b) { return a + b; }
  static Vec sub(Vec a, Vec b) { return a - b; }
  static Vec mul(Vec a, Vec b) { return a * b; }
  static Vec div(Vec a, Vec b) { return a / b; }
  // Mask lanes are represented by their truth value; select() branches
  // on it. The wider policies use bit masks + blends — same selected
  // values, so results are bit-identical.
  static bool less(Vec a, Vec b) { return a < b; }
  static Vec select(bool m, Vec t, Vec f) { return m ? t : f; }
  // Stored masks are all-ones or all-zeros doubles.
  static Vec bitselect(Vec m, Vec t, Vec f) {
    return std::bit_cast<std::uint64_t>(m) != 0 ? t : f;
  }
  static Vec sqrt(Vec a) { return std::sqrt(a); }
  static Vec exp2i(Vec t) {
    return std::bit_cast<double>(
        (std::bit_cast<std::uint64_t>(t) + 1023u) << 52u);
  }
};

// std::min / std::max tie semantics (first argument wins on equality),
// expressed with the policy's compare+select so every backend agrees
// bitwise — including on (+0.0, -0.0), where hardware MINPD/MAXPD would
// return the second operand instead.
template <class L>
inline typename L::Vec lane_min(typename L::Vec a, typename L::Vec b) {
  return L::select(L::less(b, a), b, a);
}
template <class L>
inline typename L::Vec lane_max(typename L::Vec a, typename L::Vec b) {
  return L::select(L::less(a, b), b, a);
}
// std::clamp(v, lo, hi) == lane_min(lane_max(v, lo), hi) bitwise for
// lo <= hi (ties resolve identically because both pick the first
// argument; v < lo and hi < v cannot hold simultaneously).
template <class L>
inline typename L::Vec lane_clamp(typename L::Vec v, typename L::Vec lo,
                                  typename L::Vec hi) {
  return lane_min<L>(lane_max<L>(v, lo), hi);
}

}  // namespace ftmao::simd_detail

// Deterministic exp/tanh/sigmoid and the transcendental gradient kernels.
// Lives in its own header for readability; it extends ftmao::simd_detail
// and uses the lane helpers above, so it must be included exactly here.
#include "simd/det_math_impl.hpp"  // NOLINT(misc-include-cleaner)

namespace ftmao::simd_detail {

template <class L>
void sort_network_impl(double* data, std::size_t stride,
                       const ComparatorPair* pairs, std::size_t num_pairs,
                       std::size_t count) {
  for (std::size_t p = 0; p < num_pairs; ++p) {
    double* __restrict a = data + pairs[p].first * stride;
    double* __restrict b = data + pairs[p].second * stride;
    std::size_t k = 0;
    for (; k + L::kWidth <= count; k += L::kWidth) {
      const typename L::Vec va = L::load(a + k);
      const typename L::Vec vb = L::load(b + k);
      const auto swap = L::less(vb, va);  // conditional swap: b < a
      L::store(a + k, L::select(swap, vb, va));
      L::store(b + k, L::select(swap, va, vb));
    }
    for (; k < count; ++k) {
      const double va = a[k];
      const double vb = b[k];
      const bool swap = vb < va;
      a[k] = swap ? vb : va;
      b[k] = swap ? va : vb;
    }
  }
}

template <class L>
void trim_midpoint_impl(const double* ys, const double* yl, double* out,
                        std::size_t count) {
  const typename L::Vec two = L::broadcast(2.0);
  std::size_t k = 0;
  for (; k + L::kWidth <= count; k += L::kWidth) {
    const typename L::Vec s = L::load(ys + k);
    const typename L::Vec l = L::load(yl + k);
    L::store(out + k, L::add(s, L::div(L::sub(l, s), two)));
  }
  for (; k < count; ++k) out[k] = ys[k] + (yl[k] - ys[k]) / 2.0;
}

template <class L>
void merge_midpoint_impl(const double* v, const double* ys_lo,
                         const double* ys_hi, const double* yl_lo,
                         const double* yl_hi, double* out, std::size_t count) {
  const typename L::Vec two = L::broadcast(2.0);
  std::size_t k = 0;
  for (; k + L::kWidth <= count; k += L::kWidth) {
    const typename L::Vec vv = L::load(v + k);
    const typename L::Vec s =
        lane_clamp<L>(vv, L::load(ys_lo + k), L::load(ys_hi + k));
    const typename L::Vec l =
        lane_clamp<L>(vv, L::load(yl_lo + k), L::load(yl_hi + k));
    L::store(out + k, L::add(s, L::div(L::sub(l, s), two)));
  }
  for (; k < count; ++k) {
    using S = ScalarLanes;
    const double s = lane_clamp<S>(v[k], ys_lo[k], ys_hi[k]);
    const double l = lane_clamp<S>(v[k], yl_lo[k], yl_hi[k]);
    out[k] = s + (l - s) / 2.0;
  }
}

// Rank F of the F+1 ascending rows h merged with the F ascending rows b,
// at lane k: min over j = 0..F of max(h[F-j], b[j-1]), b[-1] = -inf.
template <class L>
inline typename L::Vec merged_rank(const double* h, const double* b,
                                   std::size_t rows, std::size_t stride,
                                   std::size_t k) {
  typename L::Vec m = L::load(h + rows * stride + k);
  for (std::size_t j = 1; j <= rows; ++j)
    m = lane_min<L>(m, lane_max<L>(L::load(h + (rows - j) * stride + k),
                                   L::load(b + (j - 1) * stride + k)));
  return m;
}

template <class L>
void merge_rows_midpoint_impl(const double* b, const double* ys_h,
                              const double* yl_h, std::size_t rows,
                              std::size_t stride, double* out,
                              std::size_t count) {
  const typename L::Vec two = L::broadcast(2.0);
  std::size_t k = 0;
  for (; k + L::kWidth <= count; k += L::kWidth) {
    const typename L::Vec s = merged_rank<L>(ys_h, b, rows, stride, k);
    const typename L::Vec l = merged_rank<L>(yl_h, b, rows, stride, k);
    L::store(out + k, L::add(s, L::div(L::sub(l, s), two)));
  }
  for (; k < count; ++k) {
    using S = ScalarLanes;
    const double s = merged_rank<S>(ys_h, b, rows, stride, k);
    const double l = merged_rank<S>(yl_h, b, rows, stride, k);
    out[k] = s + (l - s) / 2.0;
  }
}

template <class L>
void accumulate_rows_impl(double* acc, const double* row, std::size_t count) {
  std::size_t k = 0;
  for (; k + L::kWidth <= count; k += L::kWidth)
    L::store(acc + k, L::add(L::load(acc + k), L::load(row + k)));
  for (; k < count; ++k) acc[k] += row[k];
}

template <class L>
void divide_rows_impl(double* out, double divisor, std::size_t count) {
  const typename L::Vec d = L::broadcast(divisor);
  std::size_t k = 0;
  for (; k + L::kWidth <= count; k += L::kWidth)
    L::store(out + k, L::div(L::load(out + k), d));
  for (; k < count; ++k) out[k] /= divisor;
}

template <class L>
void gradient_clamp_impl(const double* x, const double* a, const double* b,
                         const double* lo, const double* hi,
                         const double* scale, double* g, std::size_t count) {
  const typename L::Vec zero = L::broadcast(0.0);
  std::size_t k = 0;
  for (; k + L::kWidth <= count; k += L::kWidth) {
    const typename L::Vec xv = L::load(x + k);
    const typename L::Vec below = lane_min<L>(L::sub(xv, L::load(a + k)), zero);
    const typename L::Vec above = lane_max<L>(L::sub(xv, L::load(b + k)), zero);
    const typename L::Vec r = lane_clamp<L>(L::add(below, above),
                                            L::load(lo + k), L::load(hi + k));
    L::store(g + k, L::mul(L::load(scale + k), r));
  }
  for (; k < count; ++k) {
    using S = ScalarLanes;
    const double below = lane_min<S>(x[k] - a[k], 0.0);
    const double above = lane_max<S>(x[k] - b[k], 0.0);
    g[k] = scale[k] * lane_clamp<S>(below + above, lo[k], hi[k]);
  }
}

template <class L>
void fused_step_impl(const double* tx, const double* tg, const double* lambda,
                     const double* clo, const double* chi,
                     const double* pe_mask, double* x, double* pe,
                     std::size_t count) {
  std::size_t k = 0;
  for (; k + L::kWidth <= count; k += L::kWidth) {
    const typename L::Vec u =
        L::sub(L::load(tx + k), L::mul(L::load(lambda + k), L::load(tg + k)));
    const typename L::Vec next =
        lane_clamp<L>(u, L::load(clo + k), L::load(chi + k));
    L::store(x + k, next);
    L::store(pe + k, L::bitselect(L::load(pe_mask + k), L::sub(next, u),
                                  L::broadcast(0.0)));
  }
  for (; k < count; ++k) {
    using S = ScalarLanes;
    const double u = tx[k] - lambda[k] * tg[k];
    const double next = lane_clamp<S>(u, clo[k], chi[k]);
    x[k] = next;
    pe[k] = S::bitselect(pe_mask[k], next - u, 0.0);
  }
}

template <class L>
void masked_blend_impl(const double* mask, const double* px, const double* pg,
                       const double* dx, const double* dg, double* outx,
                       double* outg, std::size_t count) {
  std::size_t k = 0;
  for (; k + L::kWidth <= count; k += L::kWidth) {
    const typename L::Vec m = L::load(mask + k);
    L::store(outx + k, L::bitselect(m, L::load(px + k), L::load(dx + k)));
    L::store(outg + k, L::bitselect(m, L::load(pg + k), L::load(dg + k)));
  }
  for (; k < count; ++k) {
    using S = ScalarLanes;
    outx[k] = S::bitselect(mask[k], px[k], dx[k]);
    outg[k] = S::bitselect(mask[k], pg[k], dg[k]);
  }
}

/// Builds the backend's kernel table. All pointers reference the TU-local
/// instantiations for policy L.
template <class L>
SimdKernels make_kernels(SimdIsa isa, const char* name) {
  SimdKernels k;
  k.isa = isa;
  k.name = name;
  k.width = L::kWidth;
  k.sort_network = &sort_network_impl<L>;
  k.trim_midpoint = &trim_midpoint_impl<L>;
  k.merge_midpoint = &merge_midpoint_impl<L>;
  k.merge_rows_midpoint = &merge_rows_midpoint_impl<L>;
  k.accumulate_rows = &accumulate_rows_impl<L>;
  k.divide_rows = &divide_rows_impl<L>;
  k.gradient_clamp = &gradient_clamp_impl<L>;
  k.gradient_tanh = &gradient_tanh_impl<L>;
  k.gradient_smooth_abs = &gradient_smooth_abs_impl<L>;
  k.gradient_softplus_diff = &gradient_softplus_diff_impl<L>;
  k.fused_step = &fused_step_impl<L>;
  k.masked_blend = &masked_blend_impl<L>;
  return k;
}

}  // namespace ftmao::simd_detail
