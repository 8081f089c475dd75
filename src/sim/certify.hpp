#pragma once

// One-call certification: runs the full verification barrage for a given
// system size — Theorem 2 across the attack grid, Lemma 2 witness audits,
// execution-trace invariants, theory-bound domination, and a baseline
// liveness contrast (to prove the attacks actually bite). The `ftmao_certify`
// tool prints the report; CI-style users get a single pass/fail.

#include <cstdint>
#include <string>
#include <vector>

namespace ftmao {

class ResultCache;  // cache/result_cache.hpp

struct CertifyOptions {
  std::size_t n = 7;
  std::size_t f = 2;
  double spread = 8.0;
  std::size_t rounds = 4000;
  std::uint64_t seed = 1;
  double consensus_eps = 0.05;  ///< final-disagreement acceptance
  double optimality_eps = 0.1;  ///< final Dist-to-Y acceptance

  /// Worker threads for the attack grid (1 = serial, 0 = hardware
  /// concurrency). The report is identical for every value: per-attack
  /// results are computed into fixed slots and folded in grid order.
  std::size_t num_threads = 1;

  /// Attacks per batched-engine call (a section's attacks share one
  /// scenario shape, sliced by plan_uniform_slices, sim/megabatch.hpp).
  /// 0 = the planner's register-aligned packs of about
  /// kMegabatchAutoLaneTarget lanes (the default). The report is
  /// bit-identical for every value, and to scalar_engine.
  std::size_t batch_size = 0;

  /// Force the scalar reference engines: the same plan with one attack per
  /// task, each run by run_sbg (run_async_sbg, run_vector_scenario).
  bool scalar_engine = false;

  /// Asynchronous-engine section (Section 7, n > 5f variant): the attack
  /// grid is re-run through the batched asynchronous engine at this size
  /// under uniform delays, and the worst final disagreement / Dist-to-Y
  /// must clear the acceptance thresholds below. async_rounds = 0 skips
  /// the section (the report then has no async checks). The same
  /// num_threads / batch_size / scalar_engine knobs apply, with the same
  /// bit-identical-report guarantee.
  std::size_t async_n = 11;
  std::size_t async_f = 2;
  std::size_t async_rounds = 800;
  double async_consensus_eps = 0.1;   ///< final-disagreement acceptance
  double async_optimality_eps = 0.3;  ///< final Dist-to-Y acceptance

  /// Vector-engine section (Section 7's open problem, coordinate-wise
  /// trimming in d dimensions): the attack grid is re-run through the
  /// lane-packed batched vector engine at (n, f) and dimension vector_dim,
  /// and the worst final disagreement must clear vector_consensus_eps.
  /// Optimality is deliberately only a *bounded-drift* check: coordinate-
  /// wise trimming provably keeps consensus but not optimality — its valid
  /// set can be non-convex (tests/vector_valid_test.cpp certifies this for
  /// the standard cell's radial members), and hull-edge attacks legally
  /// park the consensus at the honest hull's boundary (~spread/2 per
  /// coordinate, so ~ spread/2 * sqrt(dim) in norm). The check asserts the
  /// adversary cannot drag the system *beyond* that hull scale toward its
  /// target (which sits 6 * spread per coordinate away). vector_rounds = 0
  /// skips the section. The same num_threads / batch_size / scalar_engine
  /// knobs apply, with the same bit-identical-report guarantee.
  std::size_t vector_dim = 8;
  std::size_t vector_rounds = 800;
  double vector_consensus_eps = 0.1;    ///< final-disagreement acceptance
  double vector_optimality_eps = 10.0;  ///< bounded-drift acceptance (norm)

  /// Content-addressed result cache (cache/result_cache.hpp). When set,
  /// each per-attack run of every section (sync, async, vector, the DGD
  /// liveness contrast) is looked up by its canonical key before
  /// simulating and inserted after. The report is bit-identical cold vs
  /// warm vs mixed; the cache is not part of the certification identity.
  ResultCache* cache = nullptr;
};

struct CertifyCheck {
  std::string name;
  bool passed = false;
  std::string detail;  ///< worst offender / measured headline value
};

struct CertificationReport {
  bool passed = false;
  std::vector<CertifyCheck> checks;
};

/// Runs the barrage. Deterministic per options.
CertificationReport certify_sbg(const CertifyOptions& options);

}  // namespace ftmao
