#include "sim/async_runner.hpp"

#include <algorithm>
#include <memory>

#include "common/contracts.hpp"
#include "core/async_sbg.hpp"
#include "func/library.hpp"
#include "core/valid_set.hpp"
#include "net/async.hpp"
#include "net/delay.hpp"

namespace ftmao {

void AsyncScenario::validate() const {
  FTMAO_EXPECTS(n > 5 * f);
  FTMAO_EXPECTS(faulty.size() + crashes.size() <= f);
  for (const auto& [who, when] : crashes) {
    FTMAO_EXPECTS(who < n);
    FTMAO_EXPECTS(when >= 0.0);
    FTMAO_EXPECTS(std::find(faulty.begin(), faulty.end(), who) == faulty.end());
  }
  FTMAO_EXPECTS(functions.size() == n);
  FTMAO_EXPECTS(initial_states.size() == n);
  FTMAO_EXPECTS(rounds >= 1);
  for (std::size_t i : faulty) FTMAO_EXPECTS(i < n);
  // The consistency restriction (baseline/consistent.hpp) is modelled
  // for synchronous rounds on the complete network only, so a consistent
  // attack is refused here although make_adversary would wrap it.
  FTMAO_EXPECTS(!attack.consistent);
}

namespace {

bool contains(const std::vector<std::size_t>& v, std::size_t x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

}  // namespace

std::unique_ptr<DelayModel> make_async_delay_model(const AsyncScenario& s,
                                                   const Rng& base) {
  switch (s.delay_kind) {
    case DelayKind::Fixed:
      return std::make_unique<FixedDelay>(s.delay_lo);
    case DelayKind::Uniform:
      return std::make_unique<UniformDelay>(s.delay_lo, s.delay_hi,
                                            base.substream("delay"));
    case DelayKind::TargetedSlow: {
      std::vector<AgentId> slow;
      for (std::size_t i = 0; i < s.n && slow.size() < s.slow_count; ++i) {
        if (!contains(s.faulty, i))
          slow.push_back(AgentId{static_cast<std::uint32_t>(i)});
      }
      return std::make_unique<TargetedSlowdown>(std::move(slow), s.delay_lo,
                                                s.slow_delay);
    }
  }
  FTMAO_EXPECTS(false);
  return nullptr;
}

AsyncRunMetrics run_async_sbg(const AsyncScenario& scenario) {
  scenario.validate();
  const std::unique_ptr<StepSchedule> schedule = make_schedule(scenario.step);

  AsyncSbgConfig config;
  config.n = scenario.n;
  config.f = scenario.f;

  auto is_crashed = [&scenario](std::size_t i) {
    for (const auto& [who, when] : scenario.crashes) {
      if (who == i) return true;
    }
    return false;
  };

  // The valid family (and metrics) cover the surviving honest agents.
  std::vector<ScalarFunctionPtr> honest_fns;
  for (std::size_t i = 0; i < scenario.n; ++i) {
    if (!contains(scenario.faulty, i) && !is_crashed(i))
      honest_fns.push_back(scenario.functions[i]);
  }
  const ValidFamily family(honest_fns, scenario.f);

  Rng rng(scenario.seed);
  const std::unique_ptr<DelayModel> delays =
      make_async_delay_model(scenario, rng);
  AsyncEngine<SbgPayload> engine(*delays);

  std::vector<std::unique_ptr<AsyncSbgAgent>> agents;      // survivors
  std::vector<std::unique_ptr<AsyncSbgAgent>> crashing;    // honest-until-crash
  std::vector<std::unique_ptr<SbgAdversary>> adversaries;
  for (std::size_t i = 0; i < scenario.n; ++i) {
    const AgentId id{static_cast<std::uint32_t>(i)};
    if (contains(scenario.faulty, i)) {
      adversaries.push_back(
          make_adversary(scenario.attack, rng.substream("adversary", i)));
      engine.add_byzantine(id, adversaries.back().get());
    } else if (is_crashed(i)) {
      crashing.push_back(std::make_unique<AsyncSbgAgent>(
          id, scenario.functions[i], scenario.initial_states[i], *schedule,
          config));
      engine.add_honest(id, crashing.back().get());
    } else {
      agents.push_back(std::make_unique<AsyncSbgAgent>(
          id, scenario.functions[i], scenario.initial_states[i], *schedule,
          config));
      engine.add_honest(id, agents.back().get());
    }
  }
  for (const auto& [who, when] : scenario.crashes)
    engine.set_sender_crash(AgentId{static_cast<std::uint32_t>(who)}, when);

  AsyncRunMetrics metrics;
  metrics.optima = family.optima_set();
  metrics.virtual_time = engine.run_until_round(
      Round{static_cast<std::uint32_t>(scenario.rounds)});

  // Rebuild per-round series from agent histories; every honest agent has
  // completed at least `rounds` rounds when run_until_round returns with a
  // non-empty queue guarantee (quorum n-f is satisfiable by honest agents
  // alone), but guard via the min length anyway.
  std::size_t common_rounds = scenario.rounds + 1;
  for (const auto& agent : agents)
    common_rounds = std::min(common_rounds, agent->history().size());
  for (std::size_t t = 0; t < common_rounds; ++t) {
    double lo = agents.front()->history()[t];
    double hi = lo;
    double dist = 0.0;
    for (const auto& agent : agents) {
      const double x = agent->history()[t];
      lo = std::min(lo, x);
      hi = std::max(hi, x);
      dist = std::max(dist, metrics.optima.distance_to(x));
    }
    metrics.disagreement.push(hi - lo);
    metrics.max_dist_to_y.push(dist);
  }
  for (const auto& agent : agents)
    metrics.final_states.push_back(agent->state());
  metrics.messages_delivered = engine.messages_delivered();
  return metrics;
}

std::string delay_kind_name(DelayKind kind) {
  switch (kind) {
    case DelayKind::Fixed:
      return "fixed";
    case DelayKind::Uniform:
      return "uniform";
    case DelayKind::TargetedSlow:
      return "targeted-slow";
  }
  FTMAO_EXPECTS(false);
  return {};
}

DelayKind parse_delay_kind(const std::string& name) {
  if (name == "fixed") return DelayKind::Fixed;
  if (name == "uniform") return DelayKind::Uniform;
  if (name == "targeted-slow") return DelayKind::TargetedSlow;
  throw ContractViolation("unknown delay kind '" + name +
                          "' (expected fixed|uniform|targeted-slow)");
}

AsyncScenario make_standard_async_scenario(std::size_t n, std::size_t f,
                                           double spread, AttackKind attack,
                                           std::size_t rounds,
                                           std::uint64_t seed) {
  FTMAO_EXPECTS(n > 5 * f);
  AsyncScenario s;
  s.n = n;
  s.f = f;
  for (std::size_t i = n - f; i < n; ++i) s.faulty.push_back(i);
  s.functions = make_mixed_family(n, spread);
  s.initial_states.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.initial_states[i] =
        n == 1 ? 0.0
               : -spread / 2.0 + spread * static_cast<double>(i) /
                                     static_cast<double>(n - 1);
  }
  s.attack.kind = attack;
  s.rounds = rounds;
  s.seed = seed;
  return s;
}

}  // namespace ftmao
