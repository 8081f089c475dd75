#include "sim/runner.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>

#include "baseline/dgd.hpp"
#include "baseline/local_gd.hpp"
#include "common/contracts.hpp"
#include "core/admissibility.hpp"
#include "core/sbg.hpp"
#include "core/valid_set.hpp"
#include "net/sync.hpp"

namespace ftmao {

namespace {

// Shared harness: builds the honest population via `make_agent`, attaches
// adversaries, runs the rounds, and collects the metric series. The
// `state_of` accessor reads an honest agent's state; `audit` (optional)
// runs post-step witness checks with access to the pre-round honest
// values.
template <typename Agent>
RunMetrics run_with_agents(
    const Scenario& scenario,
    const std::function<std::unique_ptr<Agent>(std::size_t idx, AgentId id)>&
        make_agent,
    const RunOptions& options) {
  scenario.validate();

  const std::vector<std::size_t> honest_idx = scenario.honest_indices();
  const ValidFamily family(scenario.honest_functions(), scenario.f);

  // Surviving honest agents first (metrics are taken over exactly these),
  // then crashing-but-honest agents (they follow the protocol until their
  // crash round; the delivery filter silences them afterwards).
  std::vector<std::unique_ptr<Agent>> agents;
  agents.reserve(honest_idx.size());
  std::vector<std::unique_ptr<Agent>> crashing_agents;
  SyncEngine<SbgPayload> engine;
  for (std::size_t idx : honest_idx) {
    agents.push_back(make_agent(idx, AgentId{static_cast<std::uint32_t>(idx)}));
    engine.add_honest(AgentId{static_cast<std::uint32_t>(idx)},
                      agents.back().get());
  }
  for (const auto& [who, when] : scenario.crashes) {
    crashing_agents.push_back(
        make_agent(who, AgentId{static_cast<std::uint32_t>(who)}));
    engine.add_honest(AgentId{static_cast<std::uint32_t>(who)},
                      crashing_agents.back().get());
  }

  Rng rng(scenario.seed);

  // Random link failures ([9],[15]-style): each honest->honest message is
  // lost independently with drop_probability. The decision is a pure hash
  // of (seed, from, to, round) so it is deterministic and independent of
  // delivery evaluation order. Byzantine senders are exempt (worst case:
  // the adversary's links never fail).
  if (scenario.drop_probability > 0.0 || !scenario.crashes.empty()) {
    const std::uint64_t drop_seed = mix64(scenario.seed ^ 0xD509F00DULL);
    const double p = scenario.drop_probability;
    // Precompute O(1)-lookup tables once per run instead of copying the
    // faulty/crash vectors into the lambda and scanning them per message:
    // faulty_bitmap[i] marks Byzantine senders (exempt from drops),
    // crash_round[i] is the round from which sender i falls silent.
    constexpr std::uint32_t kNeverCrashes =
        std::numeric_limits<std::uint32_t>::max();
    std::vector<std::uint8_t> faulty_bitmap(scenario.n, 0);
    for (std::size_t idx : scenario.faulty) faulty_bitmap[idx] = 1;
    std::vector<std::uint32_t> crash_round(scenario.n, kNeverCrashes);
    for (const auto& [who, when] : scenario.crashes)
      crash_round[who] = static_cast<std::uint32_t>(when);
    engine.set_delivery_filter(
        [drop_seed, p, faulty_bitmap = std::move(faulty_bitmap),
         crash_round = std::move(crash_round)](AgentId from, AgentId to,
                                               Round t) {
          if (t.value >= crash_round[from.value]) return false;
          if (p <= 0.0) return true;
          if (faulty_bitmap[from.value]) return true;
          std::uint64_t h = mix64(drop_seed ^ from.value);
          h = mix64(h ^ to.value);
          h = mix64(h ^ t.value);
          return static_cast<double>(h >> 11) * 0x1.0p-53 >= p;
        });
  }

  std::vector<std::unique_ptr<SbgAdversary>> adversaries;
  for (std::size_t idx : scenario.faulty) {
    adversaries.push_back(
        make_adversary(scenario.attack, rng.substream("adversary", idx)));
    engine.add_byzantine(AgentId{static_cast<std::uint32_t>(idx)},
                         adversaries.back().get());
  }

  FTMAO_EXPECTS(options.record_series || !options.record_trace);
  RunMetrics metrics;
  metrics.optima = family.optima_set();
  if (options.record_trace) {
    metrics.trace.emplace();
    metrics.trace->honest_ids = honest_idx;
  }

  auto record = [&] {
    double lo = agents.front()->state();
    double hi = lo;
    double dist = family.distance_to_optima(lo);
    std::vector<double> snapshot;
    if (metrics.trace) snapshot.reserve(agents.size());
    for (const auto& agent : agents) {
      const double x = agent->state();
      lo = std::min(lo, x);
      hi = std::max(hi, x);
      dist = std::max(dist, family.distance_to_optima(x));
      if (metrics.trace) snapshot.push_back(x);
    }
    metrics.disagreement.push(hi - lo);
    metrics.max_dist_to_y.push(dist);
    if (metrics.trace) metrics.trace->rounds.push_back(std::move(snapshot));
  };
  if (options.record_series) {
    record();
    metrics.max_projection_error.push(0.0);
  }

  const std::vector<ScalarFunctionPtr> honest_fns = scenario.honest_functions();

  for (std::size_t t = 1; t <= scenario.rounds; ++t) {
    const bool keep = options.record_series || t == scenario.rounds;
    const bool audit = options.audit_witnesses &&
                       t <= options.audit_max_rounds &&
                       (t - 1) % options.audit_every == 0;
    std::vector<double> pre_states;
    std::vector<double> pre_gradients;
    if (audit) {
      pre_states.reserve(agents.size());
      pre_gradients.reserve(agents.size());
      for (std::size_t a = 0; a < agents.size(); ++a) {
        pre_states.push_back(agents[a]->state());
        pre_gradients.push_back(
            honest_fns[a]->derivative(agents[a]->state()));
      }
    }

    engine.run_round(Round{static_cast<std::uint32_t>(t)});
    if (keep) record();

    double max_proj = 0.0;
    if constexpr (std::is_same_v<Agent, SbgAgent>) {
      if (keep) {
        for (const auto& agent : agents)
          max_proj = std::max(max_proj,
                              std::abs(agent->last_step().projection_error));
      }
      if (audit) {
        auto absorb = [](WitnessStats& stats, const TrimAuditResult& r) {
          ++stats.checks;
          if (!r.witness_found) ++stats.failures;
          if (!r.exact) ++stats.inexact;
          if (r.witness_found) {
            stats.min_weight_seen =
                std::min(stats.min_weight_seen, r.min_support_weight);
            stats.min_support_seen =
                std::min(stats.min_support_seen, r.support_size);
          }
        };
        for (const auto& agent : agents) {
          absorb(metrics.state_witness,
                 audit_trim(pre_states, agent->last_step().trimmed_state,
                            scenario.f));
          absorb(metrics.gradient_witness,
                 audit_trim(pre_gradients, agent->last_step().trimmed_gradient,
                            scenario.f));
        }
      }
    }
    if (keep) metrics.max_projection_error.push(max_proj);
  }

  metrics.final_states.reserve(agents.size());
  for (const auto& agent : agents)
    metrics.final_states.push_back(agent->state());
  return metrics;
}

}  // namespace

RunMetrics run_sbg(const Scenario& scenario, const RunOptions& options) {
  const std::unique_ptr<StepSchedule> schedule = make_schedule(scenario.step);
  SbgConfig config;
  config.n = scenario.n;
  config.f = scenario.f;
  config.default_payload = scenario.default_payload;
  config.constraint = scenario.constraint;

  return run_with_agents<SbgAgent>(
      scenario,
      [&](std::size_t idx, AgentId id) {
        return std::make_unique<SbgAgent>(id, scenario.functions[idx],
                                          scenario.initial_states[idx],
                                          *schedule, config);
      },
      options);
}

RunMetrics run_dgd(const Scenario& scenario) {
  const std::unique_ptr<StepSchedule> schedule = make_schedule(scenario.step);
  return run_with_agents<DgdAgent>(
      scenario,
      [&](std::size_t idx, AgentId id) {
        return std::make_unique<DgdAgent>(id, scenario.functions[idx],
                                          scenario.initial_states[idx],
                                          *schedule, scenario.n,
                                          scenario.default_payload);
      },
      RunOptions{});
}

RunMetrics run_local_gd(const Scenario& scenario) {
  const std::unique_ptr<StepSchedule> schedule = make_schedule(scenario.step);
  return run_with_agents<LocalGdAgent>(
      scenario,
      [&](std::size_t idx, AgentId id) {
        return std::make_unique<LocalGdAgent>(id, scenario.functions[idx],
                                              scenario.initial_states[idx],
                                              *schedule);
      },
      RunOptions{});
}

}  // namespace ftmao
