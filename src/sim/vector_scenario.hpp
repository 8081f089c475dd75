#pragma once

// Declarative description of one coordinate-wise vector-SBG run — the
// d-dimensional analogue of sim/scenario.hpp, reusing the scalar
// AttackConfig / StepConfig vocabulary so vector cells ride the same
// sweep/certify grids (the --dim axis). The attack kinds map onto the
// scalar strategies lifted per coordinate (vector/vector_attacks.hpp),
// which are the scalar strategies at dim == 1.

#include <cstdint>
#include <memory>
#include <vector>

#include "common/interval.hpp"
#include "common/rng.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "vector/vector_attacks.hpp"
#include "vector/vector_sbg.hpp"

namespace ftmao {

struct VectorScenario {
  std::size_t n = 0;
  std::size_t f = 0;
  std::size_t dim = 1;

  /// One admissible cost per honest agent (agents 0 .. n-byzantine-1).
  std::vector<VectorFunctionPtr> honest_costs;
  std::vector<Vec> honest_initial;

  /// Byzantine agents occupy ids n-byzantine_count .. n-1 and share one
  /// adversary instance per run (the run_vector_sbg contract).
  std::size_t byzantine_count = 0;
  AttackConfig attack;
  StepConfig step;

  std::size_t rounds = 1;
  std::uint64_t seed = 1;

  /// Optional per-coordinate box constraint (empty = unconstrained).
  std::vector<Interval> constraint;
  VecPayload default_payload;  ///< zero vectors of dim if left empty

  void validate() const;
};

/// The scalar attack catalogue lifted per coordinate, or vector noise.
/// `rng` seeds the stateful strategy (random-noise); the liftings
/// ignore it.
std::unique_ptr<VectorAdversary> make_vector_adversary(
    const AttackConfig& config, std::size_t dim, Rng rng);

/// The standard vector cell: n agents (f Byzantine), separable-Huber
/// costs with centers spread over [-spread/2, spread/2] and alternating
/// per-coordinate sign, every third honest agent replaced by a radial
/// (coordinate-coupling) Huber when dim >= 2. Deterministic per
/// arguments; the seed only drives the adversary.
VectorScenario make_standard_vector_scenario(std::size_t n, std::size_t f,
                                             double spread, AttackKind attack,
                                             std::size_t rounds,
                                             std::uint64_t seed,
                                             std::size_t dim);

/// Scalar reference execution: one run_vector_sbg over the scenario's
/// agents/adversary. The batched engine (sim/batch_vector_runner.hpp) is
/// bit-identical to this per-field. Of `options`, only record_series is
/// read.
VectorRunResult run_vector_scenario(const VectorScenario& scenario,
                                    const RunOptions& options = {});

}  // namespace ftmao
