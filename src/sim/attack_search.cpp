#include "sim/attack_search.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <span>
#include <sstream>

#include "cache/cell_key.hpp"
#include "cache/result_cache.hpp"
#include "common/contracts.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "func/spec.hpp"
#include "sim/batch_async_runner.hpp"
#include "sim/batch_runner.hpp"
#include "sim/megabatch.hpp"
#include "sim/scenario_io.hpp"

namespace ftmao {

namespace {

// Canonical rendering of a candidate attack config: every AttackConfig
// field, so two candidates key identically iff the runs they induce are
// identical. The candidate's display name is deliberately absent (it is
// cosmetic and re-attached from the candidate list on a hit).
std::string attack_config_spec(const AttackConfig& c) {
  std::ostringstream os;
  os << "kind=" << attack_kind_name(c.kind)
     << ",smag=" << cache_canon_double(c.state_magnitude)
     << ",gmag=" << cache_canon_double(c.gradient_magnitude)
     << ",target=" << cache_canon_double(c.target)
     << ",amp=" << cache_canon_double(c.amplification)
     << ",flip=" << c.flip_period << ",act=" << c.activation_round
     << ",consistent=" << (c.consistent ? 1 : 0);
  return os.str();
}

// Canonical base identity for the synchronous search: the full scenario
// file of the attack-free variant (save_scenario writes every field at
// round-trip precision, functions in spec syntax).
std::string base_spec(const Scenario& clean) {
  std::ostringstream os;
  save_scenario(clean, os);
  return os.str();
}

// Canonical base identity for the asynchronous search: every AsyncScenario
// field except the attack (candidates supply it).
std::string base_spec(const AsyncScenario& base) {
  std::ostringstream os;
  os << "n=" << base.n << ";f=" << base.f << ";faulty=";
  for (std::size_t a : base.faulty) os << a << ',';
  os << ";functions=";
  for (const auto& fn : base.functions) os << to_spec(*fn) << '|';
  os << ";initial=";
  for (double x : base.initial_states) os << cache_canon_double(x) << ',';
  os << ";step=" << step_kind_name(base.step.kind) << ':'
     << cache_canon_double(base.step.scale) << ':'
     << cache_canon_double(base.step.exponent) << ";rounds=" << base.rounds
     << ";seed=" << base.seed << ";crashes=";
  for (const auto& [agent, time] : base.crashes)
    os << agent << '@' << cache_canon_double(time) << ',';
  os << ";delay=" << delay_kind_name(base.delay_kind) << ':'
     << cache_canon_double(base.delay_lo) << ':'
     << cache_canon_double(base.delay_hi)
     << ";slow=" << cache_canon_double(base.slow_delay) << 'x'
     << base.slow_count;
  return os.str();
}

}  // namespace

std::vector<AttackCandidate> standard_attack_grid() {
  std::vector<AttackCandidate> grid;
  auto add = [&grid](std::string name, AttackKind kind,
                     auto&&... setter) {
    AttackCandidate c;
    c.name = std::move(name);
    c.config.kind = kind;
    (setter(c.config), ...);
    grid.push_back(std::move(c));
  };

  add("silent", AttackKind::Silent);
  for (double mag : {10.0, 100.0, 1000.0}) {
    add("fixed@" + format_double(mag, 3), AttackKind::FixedValue,
        [mag](AttackConfig& c) {
          c.state_magnitude = mag;
          c.gradient_magnitude = mag / 10.0;
        });
    add("split-brain@" + format_double(mag, 3), AttackKind::SplitBrain,
        [mag](AttackConfig& c) {
          c.state_magnitude = mag;
          c.gradient_magnitude = mag / 10.0;
        });
  }
  add("hull-edge-up", AttackKind::HullEdgeUp);
  add("hull-edge-down", AttackKind::HullEdgeDown);
  for (double amp : {2.0, 5.0, 20.0}) {
    add("sign-flip x" + format_double(amp, 3), AttackKind::SignFlip,
        [amp](AttackConfig& c) { c.amplification = amp; });
  }
  for (double target : {-100.0, -10.0, 10.0, 100.0}) {
    add("pull->" + format_double(target, 3), AttackKind::PullToTarget,
        [target](AttackConfig& c) {
          c.target = target;
          c.gradient_magnitude = 10.0;
        });
  }
  for (std::size_t period : {1ul, 10ul, 100ul}) {
    add("flip-flop/" + std::to_string(period), AttackKind::FlipFlop,
        [period](AttackConfig& c) { c.flip_period = period; });
  }
  add("noise", AttackKind::RandomNoise);
  return grid;
}

namespace {

// The search body of both engines. S (Scenario or AsyncScenario) picks the
// base rendering and the run_replicas overload; `engine` tags the cache
// keys and `plan_engine` keys the plan.
template <class S>
AttackSearchResult search_attacks(
    const S& base, const std::vector<AttackCandidate>& candidates,
    std::size_t num_threads, std::size_t batch_size, bool scalar_engine,
    ResultCache* cache, const std::string& engine,
    MegabatchEngine plan_engine) {
  FTMAO_EXPECTS(!candidates.empty());

  S clean = base;
  clean.attack = AttackConfig{};
  clean.attack.kind = AttackKind::None;
  const std::string key_suffix =
      cache != nullptr ? ";engine=" + engine + ";base=" + base_spec(clean)
                       : std::string{};

  AttackSearchResult result;

  // Reference run (attack-free, on the reference engine). Cached payload
  // carries the consensus state and the Y interval bit-exactly, so bias
  // computed against a restored reference equals bias against a
  // recomputed one.
  bool have_reference = false;
  CellKey reference_key;
  if (cache != nullptr) {
    reference_key = make_cell_key("attack-search-ref" + key_suffix);
    if (const std::optional<std::string> payload = cache->lookup(reference_key)) {
      try {
        PayloadReader reader(*payload);
        const double state = reader.get_double();
        const double lo = reader.get_double();
        const double hi = reader.get_double();
        if (reader.exhausted()) {
          result.reference_state = state;
          result.optima = Interval(lo, hi);
          have_reference = true;
        }
      } catch (const ContractViolation&) {
        have_reference = false;
      }
    }
  }
  if (!have_reference) {
    const auto reference =
        run_replicas(std::span<const S>(&clean, 1), /*scalar_engine=*/true);
    result.reference_state = reference.front().final_states.front();
    result.optima = reference.front().optima;
    if (cache != nullptr) {
      PayloadWriter writer;
      writer.put_double(result.reference_state);
      writer.put_double(result.optima.lo());
      writer.put_double(result.optima.hi());
      cache->insert(reference_key, writer.bytes());
    }
  }

  // Index-addressed evaluation: outcome i always describes candidate i,
  // so the sort below sees the same array whatever the thread count,
  // batch size, or engine. All candidates share the base scenario's
  // shape, so a task's candidates advance in lockstep through the batched
  // engine.
  const std::size_t count = candidates.size();
  result.outcomes.resize(count);
  const double reference_state = result.reference_state;

  // Cache pre-pass over the candidates; misses land on `pending` and run
  // through the planned tasks below.
  std::vector<std::size_t> pending(count);
  std::iota(pending.begin(), pending.end(), std::size_t{0});
  std::vector<CellKey> keys;
  if (cache != nullptr) {
    pending.clear();
    keys.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      keys.push_back(
          make_cell_key("attack-search" + key_suffix + ";cand=" +
                        attack_config_spec(candidates[i].config)));
      bool filled = false;
      if (const std::optional<std::string> payload = cache->lookup(keys[i])) {
        try {
          PayloadReader reader(*payload);
          AttackOutcome outcome;
          outcome.name = candidates[i].name;
          outcome.final_state = reader.get_double();
          outcome.dist_to_y = reader.get_double();
          outcome.disagreement = reader.get_double();
          if (reader.exhausted()) {
            outcome.bias = std::abs(outcome.final_state - reference_state);
            result.outcomes[i] = std::move(outcome);
            filled = true;
          }
        } catch (const ContractViolation&) {
          filled = false;
        }
      }
      if (!filled) pending.push_back(i);
    }
  }

  // Lane-aligned tasks over the pending list (batch-1 tasks on the
  // reference engine under scalar_engine); task ranges index `pending`.
  const std::vector<MegabatchTask> tasks = plan_uniform_slices(
      pending.size(), scalar_engine ? 1 : batch_size, base.rounds,
      MegabatchKey{plan_engine, base.n, base.f, 1});
  parallel_for_each(num_threads, tasks.size(), [&](std::size_t task) {
    const std::size_t first = tasks[task].first;
    const std::size_t batch = tasks[task].count;
    std::vector<S> replicas;
    replicas.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      S attacked = base;
      attacked.attack = candidates[pending[first + i]].config;
      replicas.push_back(std::move(attacked));
    }
    const auto metrics = run_replicas(replicas, scalar_engine);
    for (std::size_t i = 0; i < batch; ++i) {
      const auto& m = metrics[i];
      AttackOutcome& outcome = result.outcomes[pending[first + i]];
      outcome.name = candidates[pending[first + i]].name;
      outcome.final_state = m.final_states.front();
      outcome.bias = std::abs(outcome.final_state - reference_state);
      outcome.dist_to_y = m.max_dist_to_y.back();
      outcome.disagreement = m.disagreement.back();
    }
  });

  if (cache != nullptr) {
    for (std::size_t i : pending) {
      const AttackOutcome& outcome = result.outcomes[i];
      PayloadWriter writer;
      writer.put_double(outcome.final_state);
      writer.put_double(outcome.dist_to_y);
      writer.put_double(outcome.disagreement);
      cache->insert(keys[i], writer.bytes());
    }
  }

  std::sort(result.outcomes.begin(), result.outcomes.end(),
            [](const AttackOutcome& a, const AttackOutcome& b) {
              return a.bias > b.bias;
            });
  return result;
}

}  // namespace

AttackSearchResult find_strongest_attack(
    const Scenario& base, const std::vector<AttackCandidate>& candidates,
    std::size_t num_threads, std::size_t batch_size, bool scalar_engine,
    ResultCache* cache) {
  return search_attacks(base, candidates, num_threads, batch_size,
                        scalar_engine, cache, "sync", MegabatchEngine::kSync);
}

AttackSearchResult find_strongest_attack_async(
    const AsyncScenario& base, const std::vector<AttackCandidate>& candidates,
    std::size_t num_threads, std::size_t batch_size, bool scalar_engine,
    ResultCache* cache) {
  return search_attacks(base, candidates, num_threads, batch_size,
                        scalar_engine, cache, "async",
                        MegabatchEngine::kAsync);
}

}  // namespace ftmao
