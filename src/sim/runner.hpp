#pragma once

// Executors: wire a Scenario into agents + adversaries + engine, run it,
// and collect metrics. One entry point per algorithm so benches and tests
// can compare like for like.

#include "sim/metrics.hpp"
#include "sim/scenario.hpp"

namespace ftmao {

struct RunOptions {
  bool audit_witnesses = false;  ///< per-iteration Lemma 2/Cor 1 LP audits
  std::size_t audit_every = 1;   ///< audit every k-th iteration
  std::size_t audit_max_rounds = 200;  ///< stop auditing after this many (LPs are costly)
  bool record_trace = false;  ///< keep the full per-round state trace
  /// false: the metric series keep only the final round's values (one
  /// entry each), for callers that read nothing else. A run of T rounds
  /// then holds O(1) metric memory per replica instead of O(T); the final
  /// values are the same bits. Needs record_trace off.
  bool record_series = true;
};

/// Algorithm SBG (Section 4), or projected SBG when the scenario carries a
/// constraint (Section 6).
RunMetrics run_sbg(const Scenario& scenario, const RunOptions& options = {});

/// Fault-oblivious distributed gradient descent under the same scenario.
RunMetrics run_dgd(const Scenario& scenario);

/// Communication-free local gradient descent under the same scenario.
RunMetrics run_local_gd(const Scenario& scenario);

}  // namespace ftmao
