#include "sim/attack_search.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/table.hpp"
#include "func/spec.hpp"
#include "sim/replica_driver.hpp"
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

// The attack-free reference run's consensus state and Y. Its cache
// payload is the state, then Y's bounds, bit-exact, so bias against a
// restored reference equals bias against a recomputed one.
struct Reference {
  double state = 0.0;
  Interval optima{0.0};
};

// The search body of both engines. S (Scenario or AsyncScenario) picks
// the base rendering and the engines; `engine` tags the cache keys.
template <class S>
AttackSearchResult search_attacks(
    const S& base, const std::vector<AttackCandidate>& candidates,
    const EngineKnobs& knobs, ResultCache* cache, const std::string& engine) {
  FTMAO_EXPECTS(!candidates.empty());

  S clean = base;
  clean.attack = AttackConfig{};
  const std::string key_suffix =
      cache != nullptr ? ";engine=" + engine + ";base=" + base_spec(clean)
                       : std::string{};

  // The reference run, on the reference engine.
  std::vector<Reference> reference(1);
  cached_pass(
      cache, reference,
      [&](std::size_t) { return "attack-search-ref" + key_suffix; },
      [](PayloadReader& reader) {
        Reference r;
        r.state = reader.get_double();
        const double lo = reader.get_double();
        r.optima = Interval(lo, reader.get_double());
        return r;
      },
      [](PayloadWriter& writer, const Reference& r) {
        writer.put_double(r.state);
        writer.put_double(r.optima.lo());
        writer.put_double(r.optima.hi());
      },
      [&](const std::vector<std::size_t>& pending) {
        for (std::size_t i : pending) {
          const auto m = run_reference(clean);
          reference[i] = {m.final_states.front(), m.optima};
        }
      });

  // Index-addressed evaluation: outcome i always describes candidate i,
  // so the sort below sees the same array whatever the thread count,
  // batch size, engine, or cache state. Every candidate is a replica of
  // the base's shape with the candidate's attack.
  AttackSearchResult result;
  result.reference_state = reference[0].state;
  result.optima = reference[0].optima;
  result.outcomes.resize(candidates.size());
  cached_pass(
      cache, result.outcomes,
      [&](std::size_t i) {
        return "attack-search" + key_suffix +
               ";cand=" + attack_config_spec(candidates[i].config);
      },
      [](PayloadReader& reader) {
        AttackOutcome outcome;
        outcome.final_state = reader.get_double();
        outcome.dist_to_y = reader.get_double();
        outcome.disagreement = reader.get_double();
        return outcome;
      },
      [](PayloadWriter& writer, const AttackOutcome& outcome) {
        writer.put_double(outcome.final_state);
        writer.put_double(outcome.dist_to_y);
        writer.put_double(outcome.disagreement);
      },
      [&](const std::vector<std::size_t>& pending) {
        run_shape(
            base, pending.size(),
            [&](std::size_t k) {
              return Replica{candidates[pending[k]].config, base.seed};
            },
            knobs, RunOptions{},
            [&](std::size_t k, const auto& m) {
              AttackOutcome& outcome = result.outcomes[pending[k]];
              outcome.final_state = m.final_states.front();
              outcome.dist_to_y = m.max_dist_to_y.back();
              outcome.disagreement = m.disagreement.back();
            });
      });
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    AttackOutcome& outcome = result.outcomes[i];
    outcome.name = candidates[i].name;
    outcome.bias = std::abs(outcome.final_state - result.reference_state);
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
  return search_attacks(base, candidates,
                        {num_threads, batch_size, scalar_engine}, cache,
                        "sync");
}

AttackSearchResult find_strongest_attack_async(
    const AsyncScenario& base, const std::vector<AttackCandidate>& candidates,
    std::size_t num_threads, std::size_t batch_size, bool scalar_engine,
    ResultCache* cache) {
  return search_attacks(base, candidates,
                        {num_threads, batch_size, scalar_engine}, cache,
                        "async");
}

}  // namespace ftmao
