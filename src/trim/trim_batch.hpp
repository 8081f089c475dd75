#pragma once

// Batched (structure-of-arrays) variants of the Section 4 reducers.
//
// The sweep/certify/attack-search drivers run the *same* scenario shape
// many times (seeds, attack candidates); advancing B replicas in lockstep
// turns every Trim over a fan-in of n values into compare-exchanges over
// contiguous lanes of B doubles, executed by the runtime-dispatched SIMD
// lane backend (simd/simd.hpp: scalar, SSE2, AVX2 or AVX-512, selected by
// cpuid).
//
// Layout: `data` holds an n x batch matrix, row-major by *slot*:
// data[slot * batch + r] is the slot-th multiset entry of replica r. Rows
// are contiguous, so one comparator is one lanewise loop over two rows.
//
// Kernels. Trim reads only two order statistics of a multiset, ranks f
// and n-1-f, so the kernels select rather than sort wherever they can:
//   - sorting_network(n) is a Batcher odd-even mergesort network for
//     n <= kMaxSortingNetworkN: a fixed, data-independent sequence of
//     branchless lanewise conditional swaps. sort_columns runs it whole;
//     trim_batch and trimmed_mean_batch sort the n rows and read ranks
//     f..n-1-f. Larger n falls back to the scalar per-replica path
//     (nth_element / sort), bit-identical to trim()/trimmed_mean().
//   - selection_network(n, ranks) is that network pruned backward to the
//     rows a caller reads: every comparator no requested row depends on
//     is dropped. Selecting ranks {0, 10, 20} of 21 rows takes 96
//     comparators, where sorting 21 rows takes 112 and 31 rows 186.
//   - merge_trim_batch finishes the Trim of H honest values plus F
//     Byzantine values from a few selected honest ranks, without
//     assembling or sorting the n = H + F rows. The F values are one row
//     when every sender sends one payload (one recipient class, all its
//     senders built from one config), else F rows, sorted on their own
//     and merged: rank i of the merge is min over j = 0..F of
//     max(h[i-j], b[j-1]), with b[-1] = -inf.
//
// Bit-identity with the scalar reducers holds for every n, batch, and
// backend. The conditional-swap comparator is multiset-preserving even
// across signed zeros (simd/simd.hpp, rule 2), so a network's output rows
// are values of the input multiset and the order statistics it selects
// equal the scalar nth_element path's as values. Equal doubles differ at
// most in the sign of zero, and the Trim midpoint y_s + (y_l - y_s)/2 has
// the same bits whichever zero either operand carries; the midpoint and
// mean arithmetic matches the scalar implementations operation for
// operation in every lane.

#include <cstddef>
#include <cstdint>
#include <span>

#include "simd/simd.hpp"  // ComparatorPair, lane backends the kernels run on

namespace ftmao {

/// Largest fan-in handled by the fixed comparator networks, and so the
/// largest n the batch engines run (the async one keeps a 64-bit sender
/// mask too). The paper's complete graphs stay far below it (n <= ~32 in
/// every experiment); sim/replica_driver.hpp runs larger shapes on the
/// reference engines, and the batched kernels here fall back to the
/// scalar path per replica.
inline constexpr std::size_t kMaxSortingNetworkN = 64;

/// The Batcher odd-even mergesort comparator sequence for n elements
/// (2 <= n <= kMaxSortingNetworkN). Built on the first request for n and
/// cached for the process; thread-safe. Applying the comparators in order
/// sorts any n-element array ascending.
std::span<const ComparatorPair> sorting_network(std::size_t n);

/// Sorts every replica column of the n x batch SoA matrix ascending (row k
/// ends up holding each replica's k-th order statistic). Uses the
/// comparator network for n <= kMaxSortingNetworkN, per-column std::sort
/// beyond. Exposed for tests and for reducers that need full order
/// statistics.
void sort_columns(double* data, std::size_t n, std::size_t batch);

/// As above, but executed on a caller-chosen kernel table. The batched
/// engines pass the width-aware table they captured at construction
/// (simd_kernels_for_lanes) so the trim kernels run on the same backend
/// as the rest of the run; the table-less overloads use the process-wide
/// simd_kernels(). Results are bit-identical for every table (the SIMD
/// determinism contract), so the choice is purely a throughput knob.
void sort_columns(double* data, std::size_t n, std::size_t batch,
                  const SimdKernels& kernels);

/// Batched Trim (paper Section 4): for each replica r, drop the f smallest
/// and f largest of its n entries and write the midpoint of the surviving
/// extremes to out_value[r]. Optionally reports the surviving extremes
/// themselves (pass nullptr to skip). Destroys `data` (used as the
/// selection scratch). Requires n >= 2f + 1.
/// Bit-identical to trim() applied per replica.
void trim_batch(double* data, std::size_t n, std::size_t batch, std::size_t f,
                double* out_value, double* out_y_s = nullptr,
                double* out_y_l = nullptr);

/// Kernel-table overload (see sort_columns above).
void trim_batch(double* data, std::size_t n, std::size_t batch, std::size_t f,
                const SimdKernels& kernels, double* out_value,
                double* out_y_s = nullptr, double* out_y_l = nullptr);

/// Batched trimmed mean: mean of the surviving values after dropping the f
/// smallest and f largest, per replica. Destroys `data`. Requires
/// n >= 2f + 1. Bit-identical to trimmed_mean() applied per replica (the
/// surviving values are accumulated in ascending order, like the scalar
/// path).
void trimmed_mean_batch(double* data, std::size_t n, std::size_t batch,
                        std::size_t f, double* out_mean);

/// Kernel-table overload (see sort_columns above).
void trimmed_mean_batch(double* data, std::size_t n, std::size_t batch,
                        std::size_t f, const SimdKernels& kernels,
                        double* out_mean);

/// Bit k of a rank set names row k of an n-row matrix (n <= 64).
using RankSet = std::uint64_t;

/// The comparators of sorting_network(n) that the rows in `ranks` depend
/// on, in network order: the network pruned backward, keeping a
/// comparator iff a later kept comparator or a requested row reads one of
/// its two rows. Applying it leaves every requested row with exactly the
/// bits the full network leaves there; the other rows hold unspecified
/// values of the column. 1 <= n <= kMaxSortingNetworkN, `ranks` a
/// non-empty subset of [0, n). Built once per (n, ranks) and cached for
/// the process; thread-safe.
std::span<const ComparatorPair> selection_network(std::size_t n,
                                                  RankSet ranks);

/// Applies a comparator network (sorting_network or selection_network)
/// to every column of a matrix whose rows are `batch` doubles apart.
void apply_network(double* data, std::size_t batch,
                   std::span<const ComparatorPair> network,
                   const SimdKernels& kernels);

/// The honest ranks merge_trim_batch reads for H honest values and F <= f
/// Byzantine values in `rows` rows, H + F >= 2f + 1: f-F..f and
/// H-1-f..H-1-f+F, or for one row of F copies only the ends f-F, f,
/// H-1-f and H-1-f+F.
RankSet merge_trim_ranks(std::size_t honest, std::size_t copies,
                         std::size_t f, std::size_t rows = 1);

/// Batched Trim of the multiset of H honest values plus F Byzantine
/// values, per replica r: `selected` is an H x batch matrix whose rows at
/// merge_trim_ranks(H, F, f, rows) hold the honest order statistics
/// (after apply_network with a selection_network covering them). `v`
/// holds the Byzantine values in `rows` rows: one row, whose value every
/// sender sent, or F rows, which this sorts in place. Writes the midpoint
/// of ranks f and H+F-1-f of the merged multiset to out[r]. Requires
/// F <= f, H + F >= 2f + 1, and rows 1 or F; `v` is not read when
/// F == 0. Bit-identical to trim_batch on the assembled H + F rows: the
/// selected values agree up to the sign of zero, which the midpoint
/// ignores.
void merge_trim_batch(const double* selected, std::size_t honest,
                      std::size_t copies, std::size_t f, double* v,
                      std::size_t rows, std::size_t batch,
                      const SimdKernels& kernels, double* out);

}  // namespace ftmao
