#include "sim/vector_scenario.hpp"

#include <algorithm>
#include <utility>

#include "common/contracts.hpp"

namespace ftmao {

void VectorScenario::validate() const {
  FTMAO_EXPECTS(n > 3 * f);
  FTMAO_EXPECTS(dim >= 1);
  FTMAO_EXPECTS(byzantine_count <= f);
  FTMAO_EXPECTS(honest_costs.size() + byzantine_count == n);
  FTMAO_EXPECTS(honest_initial.size() == honest_costs.size());
  FTMAO_EXPECTS(rounds >= 1);
  FTMAO_EXPECTS(constraint.empty() || constraint.size() == dim);
  // The consistency-restriction wrapper (baseline/consistent.hpp) has no
  // vector counterpart yet.
  FTMAO_EXPECTS(!attack.consistent);
  for (const auto& fn : honest_costs) {
    FTMAO_EXPECTS(fn != nullptr);
    FTMAO_EXPECTS(fn->dim() == dim);
  }
  for (const auto& x0 : honest_initial) FTMAO_EXPECTS(x0.dim() == dim);
}

std::unique_ptr<VectorAdversary> make_vector_adversary(
    const AttackConfig& config, std::size_t dim, Rng rng) {
  FTMAO_EXPECTS(dim >= 1);
  if (config.kind == AttackKind::RandomNoise)
    return std::make_unique<VectorRandomNoise>(rng, dim,
                                               config.state_magnitude,
                                               config.gradient_magnitude);
  const bool fixed = config.kind == AttackKind::FixedValue ||
                     config.kind == AttackKind::SplitBrain;
  if (fixed) {
    FTMAO_EXPECTS(config.state_magnitude >= 0.0);
    FTMAO_EXPECTS(config.gradient_magnitude >= 0.0);
  }
  return std::make_unique<CoordinatewiseAdversary>(
      make_adversary(config, rng), /*negate_odd=*/fixed);
}

VectorScenario make_standard_vector_scenario(std::size_t n, std::size_t f,
                                             double spread, AttackKind attack,
                                             std::size_t rounds,
                                             std::uint64_t seed,
                                             std::size_t dim) {
  FTMAO_EXPECTS(n > 3 * f);
  FTMAO_EXPECTS(dim >= 1);
  FTMAO_EXPECTS(spread > 0.0);
  VectorScenario s;
  s.n = n;
  s.f = f;
  s.dim = dim;
  s.byzantine_count = f;
  const std::size_t m = n - f;
  const double delta = std::max(spread / 4.0, 0.5);
  for (std::size_t i = 0; i < m; ++i) {
    const double base =
        m == 1 ? 0.0
               : -spread / 2.0 + spread * static_cast<double>(i) /
                                     static_cast<double>(m - 1);
    Vec center(dim);
    for (std::size_t k = 0; k < dim; ++k)
      center[k] = (k % 2 == 0 ? 1.0 : -1.0) * base;
    if (dim >= 2 && i % 3 == 2) {
      // Coordinate-coupled member: keeps the standard cell exercising the
      // non-separable case the open problem is actually about.
      s.honest_costs.push_back(
          std::make_shared<RadialHuber>(center, delta, 1.0));
    } else {
      s.honest_costs.push_back(
          std::make_shared<SeparableHuber>(center, delta, 1.0));
    }
    s.honest_initial.push_back(center);
  }
  s.attack.kind = attack;
  s.rounds = rounds;
  s.seed = seed;
  return s;
}

VectorRunResult run_vector_scenario(const VectorScenario& scenario,
                                    const RunOptions& options) {
  scenario.validate();
  const auto schedule = make_schedule(scenario.step);
  std::unique_ptr<VectorAdversary> adversary;
  if (scenario.byzantine_count > 0) {
    Rng rng(scenario.seed);
    adversary = make_vector_adversary(scenario.attack, scenario.dim,
                                      rng.substream("vector-adversary", 0));
  }
  VectorSbgConfig config;
  config.n = scenario.n;
  config.f = scenario.f;
  config.dim = scenario.dim;
  config.default_payload = scenario.default_payload;
  config.constraint = scenario.constraint;
  return run_vector_sbg(config, scenario.honest_costs, scenario.honest_initial,
                        scenario.byzantine_count, adversary.get(), *schedule,
                        scenario.rounds, options.record_series);
}

}  // namespace ftmao
