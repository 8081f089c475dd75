#pragma once

// Explicit SIMD lane backend with runtime ISA dispatch.
//
// The batched SoA engine (sim/batch_runner + trim/trim_batch) turned the
// round hot path into lanewise loops over contiguous replica rows. This
// subsystem stops relying on the -O2 autovectorizer for those loops:
// each kernel is written once against a width-agnostic `DoubleLanes`
// concept (simd/lanes_impl.hpp) and instantiated in four separately
// compiled translation units — scalar (width 1, portable), SSE2 (width
// 2), AVX2 (width 4), and AVX-512F (width 8), the wider three compiled
// with a per-TU -m<isa> so the rest of the tree keeps the default
// architecture. The best backend the CPU supports is selected once,
// lazily, via cpuid (runtime dispatch through a function-pointer table —
// one indirect call per *kernel invocation*, not per lane).
//
// Determinism contract (load-bearing — see docs/performance.md):
// every backend produces bit-identical results to every other backend,
// and to the scalar reference engine, for the same inputs. Three rules
// enforce this:
//   1. Identical per-lane operation sequences. A kernel performs the
//      same IEEE-754 operations in the same order in every lane of
//      every backend; vector tails fall through to the width-1 code
//      path of the *same* primitive. No FMA contraction is permitted
//      (the SIMD TUs are compiled with -ffp-contract=off and never
//      enable -mfma), so a*b+c rounds twice everywhere.
//   2. Compare-exchange is a conditional swap, not min/max. The
//      hardware MINPD/MAXPD instructions return the *second* operand on
//      equal inputs while std::min/std::max return the *first*; on the
//      pair (+0.0, -0.0), which compares equal, min/max formulations
//      therefore duplicate one bit pattern and destroy the other. The
//      sorting-network comparator here is
//          swap if b < a
//      which is multiset-preserving bit-for-bit: the network output is
//      a true permutation of the input doubles (signed zeros survive
//      with their signs), so selected order statistics are the same
//      doubles the scalar nth_element path selects, up to ordering of
//      equal-comparing values — and every downstream reduction
//      (midpoint, ascending-order mean) is insensitive to that ordering
//      at the bit level.
//   3. min/max primitives follow std::min/std::max tie semantics
//      (return the first argument on ties), implemented as compare +
//      blend, so clamp-style gradient kernels match std::clamp bitwise.
//
// NaNs: inputs are NaN-free by engine precondition (admissible costs
// and finite payloads). The ordered-quiet compares used here make NaN
// behavior *deterministic and backend-identical* anyway (a NaN never
// swaps), but sortedness is only guaranteed for NaN-free input.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>

namespace ftmao {

/// Comparator index pair (i, j), i < j: order rows i and j so the
/// lanewise-smaller values land in row i. (Canonical home of the type
/// used by trim/trim_batch's sorting networks.)
using ComparatorPair = std::pair<std::uint16_t, std::uint16_t>;

/// Instruction-set tiers, worst to best. kScalar is always compiled;
/// kSse2/kAvx2/kAvx512 exist only on x86-64 builds with
/// FTMAO_ENABLE_SIMD=ON and a compiler that accepts the per-TU flag.
enum class SimdIsa : std::uint8_t {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
  kAvx512 = 3
};

/// Devirtualized kernel entry points for one backend. All pointers are
/// always non-null. Every kernel is strictly lanewise: lane k of every
/// output depends only on lane k of every input, so callers may pad
/// arrays to a lane multiple with arbitrary finite values.
struct SimdKernels {
  SimdIsa isa = SimdIsa::kScalar;
  const char* name = "scalar";  ///< "scalar" | "sse2" | "avx2" | "avx512"
  std::size_t width = 1;        ///< doubles per vector register

  /// Applies a comparator network to an n x count matrix whose rows are
  /// `stride` doubles apart: for each pair (i, j), conditionally swaps
  /// data[i*stride + k] and data[j*stride + k] (k < count) so the
  /// smaller lands in row i. Multiset-preserving per lane (rule 2).
  void (*sort_network)(double* data, std::size_t stride,
                       const ComparatorPair* pairs, std::size_t num_pairs,
                       std::size_t count);

  /// out[k] = ys[k] + (yl[k] - ys[k]) / 2  — the Trim midpoint.
  void (*trim_midpoint)(const double* ys, const double* yl, double* out,
                        std::size_t count);

  /// The Trim midpoint of a merged multiset (trim/trim_batch.hpp:
  /// merge_trim_batch): ascending honest values h with F copies of v
  /// inserted hold v clamped between h[i-F] and h[i] at rank i, so
  ///   ys[k]  = clamp(v[k], ys_lo[k], ys_hi[k])
  ///   yl[k]  = clamp(v[k], yl_lo[k], yl_hi[k])
  ///   out[k] = ys[k] + (yl[k] - ys[k]) / 2
  /// with clamp following std::clamp tie semantics (rule 3).
  void (*merge_midpoint)(const double* v, const double* ys_lo,
                         const double* ys_hi, const double* yl_lo,
                         const double* yl_hi, double* out, std::size_t count);

  /// The Trim midpoint of a merged multiset whose F >= 2 Byzantine values
  /// differ (merge_trim_batch with F sorted rows). Rank i of ascending
  /// honest values h merged with ascending values b is
  ///   m(h, i)[k] = min over j = 0..F of max(h[i-j][k], b[j-1][k]),
  /// b[-1] = -inf. With the F+1 honest rows from rank f-F at `ys_h`, the
  /// F+1 from rank H-1-f at `yl_h` and the F rows of b at `b`, all
  /// `stride` doubles apart (so ys = m(ys_h, F), yl = m(yl_h, F)):
  ///   out[k] = ys[k] + (yl[k] - ys[k]) / 2
  /// with min and max following std::min/std::max tie semantics (rule 3).
  void (*merge_rows_midpoint)(const double* b, const double* ys_h,
                              const double* yl_h, std::size_t rows,
                              std::size_t stride, double* out,
                              std::size_t count);

  /// acc[k] += row[k]  — one ascending-order accumulation step of the
  /// batched trimmed mean.
  void (*accumulate_rows)(double* acc, const double* row, std::size_t count);

  /// out[k] = out[k] / divisor  — the trimmed-mean normalization.
  void (*divide_rows)(double* out, double divisor, std::size_t count);

  /// g[k] = scale[k] * clamp(min(x[k]-a[k], 0) + max(x[k]-b[k], 0),
  ///                         lo[k], hi[k])
  /// — the closed-form batch gradient of the piecewise-linear-saturated
  /// quadratic families (func/scalar_function.hpp: BatchGradientKernel).
  /// min/max/clamp follow std::min/std::max/std::clamp tie semantics
  /// (rule 3), so this is bit-identical to the virtual derivative().
  void (*gradient_clamp)(const double* x, const double* a, const double* b,
                         const double* lo, const double* hi,
                         const double* scale, double* g, std::size_t count);

  /// g[k] = scale[k] * tanh((x[k] - c[k]) / w[k])
  /// — the LogCosh batch gradient. tanh here is the deterministic
  /// polynomial implementation (simd/det_math_impl.hpp), NOT libm: the
  /// scalar LogCosh::derivative calls the width-1 instantiation of the
  /// same body, so this is bit-identical to the virtual path on every
  /// backend and platform.
  void (*gradient_tanh)(const double* x, const double* c, const double* w,
                        const double* scale, double* g, std::size_t count);

  /// g[k] = scale[k] * r / sqrt(r^2 + eps[k]^2), r = x[k] - c[k]
  /// — the SmoothAbs batch gradient (sqrt is correctly rounded by
  /// IEEE 754, so it is bit-stable across backends like add/mul).
  void (*gradient_smooth_abs)(const double* x, const double* c,
                              const double* eps, const double* scale, double* g,
                              std::size_t count);

  /// g[k] = scale[k] * (sigmoid((x[k]-b[k])/w[k]) - sigmoid((a[k]-x[k])/w[k]))
  /// — the SoftplusBasin batch gradient, on the deterministic sigmoid.
  void (*gradient_softplus_diff)(const double* x, const double* a,
                                 const double* b, const double* w,
                                 const double* scale, double* g,
                                 std::size_t count);

  /// Fused projected SBG step, x <- Pi(x - lambda[t] * g):
  ///   u[k]    = tx[k] - lambda[k] * tg[k]
  ///   next[k] = clamp(u[k], clo[k], chi[k])
  ///   x[k]    = next[k]
  ///   pe[k]   = pe_mask[k] ? next[k] - u[k] : 0.0
  /// Unconstrained lanes pass clo = -inf, chi = +inf (clamp is then the
  /// bitwise identity on finite u) with pe_mask all-zero, matching the
  /// scalar engine's literal 0.0 projection error. pe_mask lanes are
  /// all-ones / all-zeros bit masks.
  void (*fused_step)(const double* tx, const double* tg, const double* lambda,
                     const double* clo, const double* chi,
                     const double* pe_mask, double* x, double* pe,
                     std::size_t count);

  /// Masked payload blend, the delivery-filter substitution:
  ///   outx[k] = mask[k] ? px[k] : dx[k]
  ///   outg[k] = mask[k] ? pg[k] : dg[k]
  /// mask lanes are *stored* all-ones / all-zeros doubles (a lane is
  /// taken iff any mask bit is set, matching ScalarLanes::bitselect).
  /// Used by the batch engines to substitute per-replica default
  /// payloads where a Byzantine payload is absent or a delivery filter
  /// dropped the message — pure lane selection, so backend-independent
  /// at the bit level by construction.
  void (*masked_blend)(const double* mask, const double* px, const double* pg,
                       const double* dx, const double* dg, double* outx,
                       double* outg, std::size_t count);
};

/// Backends compiled into this binary (always contains kScalar).
std::span<const SimdIsa> simd_compiled();

/// True iff `isa` is compiled in AND the running CPU supports it.
bool simd_supported(SimdIsa isa);

/// The best supported backend per cpuid (ignores overrides).
SimdIsa simd_detect();

/// Width-aware detection for a batched workload with `lanes` useful
/// lanes per row: the widest supported backend whose register width
/// does not waste half or more of its lanes on row-tail padding, i.e.
/// the widest width w with
///
///   2 * (roundup(lanes, w) - lanes) < w.
///
/// A backend that pads a 3-lane row to 8 spends most of each register
/// on dead lanes and loses to a narrower tier on real batches (the
/// measured "avx512-auto slower at seeds=3" regression); this rule
/// keeps auto-dispatch on the widest backend that stays mostly busy.
/// lanes == 0 means "width unknown" and degrades to simd_detect().
SimdIsa simd_detect_for_lanes(std::size_t lanes);

/// The kernel table for a specific backend. Requires simd_supported(isa).
const SimdKernels& simd_kernels_for(SimdIsa isa);

/// The active backend. Selected on first use: FTMAO_ISA environment
/// override ("scalar" | "sse2" | "avx2" | "avx512"; unsupported values
/// warn on stderr and fall back) else simd_detect(). Subsequent calls
/// are a single atomic load.
const SimdKernels& simd_kernels();

/// The kernel table a batched engine should use for rows of `lanes`
/// useful lanes. An explicit override — a prior simd_select() call or a
/// successful FTMAO_ISA environment override — always wins (forced-ISA
/// tests and --isa depend on that); otherwise this is
/// simd_kernels_for(simd_detect_for_lanes(lanes)). Engines capture the
/// table once per run, so a later simd_select affects only new runs.
const SimdKernels& simd_kernels_for_lanes(std::size_t lanes);

/// The active backend's ISA tier.
SimdIsa simd_active();

/// Forces the active backend (the `--isa` flag, per-backend tests).
/// Returns false (and changes nothing) if unsupported. Not thread-safe
/// against concurrent kernel invocations: select before fanning out.
bool simd_select(SimdIsa isa);

/// "scalar" | "sse2" | "avx2" | "avx512".
const char* simd_isa_name(SimdIsa isa);

/// Parses an ISA name as accepted by --isa/FTMAO_ISA ("auto" returns
/// simd_detect()). Throws ContractViolation on unknown names.
SimdIsa parse_simd_isa(const std::string& name);

}  // namespace ftmao
