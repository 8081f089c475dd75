#pragma once

// Declarative description of one experiment run: population, fault set,
// cost functions, attack, step schedule, and horizon. Runners in
// runner.hpp execute a Scenario with SBG or a baseline and collect the
// metric series the benches print.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "adversary/strategies.hpp"
#include "common/interval.hpp"
#include "common/rng.hpp"
#include "core/payload.hpp"
#include "core/step_size.hpp"
#include "func/scalar_function.hpp"

namespace ftmao {

enum class AttackKind {
  None,        ///< faulty set empty or silent-equivalent
  Silent,
  FixedValue,
  SplitBrain,
  HullEdgeUp,
  HullEdgeDown,
  RandomNoise,
  SignFlip,
  PullToTarget,
  FlipFlop,       ///< alternates hull-edge direction every `period` rounds
  DelayedStrike,  ///< honest-looking until activation_round, then pulls
};

/// All attack knobs in one bag; each kind reads the fields it needs.
struct AttackConfig {
  AttackKind kind = AttackKind::None;
  double state_magnitude = 100.0;     ///< FixedValue/SplitBrain/RandomNoise
  /// FixedValue/SplitBrain/PullToTarget/RandomNoise
  double gradient_magnitude = 10.0;
  double target = 0.0;                ///< PullToTarget
  double amplification = 3.0;         ///< SignFlip
  std::size_t flip_period = 1;        ///< FlipFlop
  std::size_t activation_round = 1;   ///< DelayedStrike
  bool consistent = false;  ///< wrap in ConsistentWrapper (reliable broadcast)
};

enum class StepKind { Harmonic, Power, Constant };

struct StepConfig {
  StepKind kind = StepKind::Harmonic;
  double scale = 1.0;
  double exponent = 0.75;  ///< Power only

  friend bool operator==(const StepConfig&, const StepConfig&) = default;
};

struct Scenario {
  std::size_t n = 0;  ///< total agents
  std::size_t f = 0;  ///< fault bound given to the algorithm
  std::vector<std::size_t> faulty;  ///< faulty agent indices (<= f of them)
  std::vector<ScalarFunctionPtr> functions;  ///< size n; faulty entries unused
  std::vector<double> initial_states;        ///< size n
  AttackConfig attack;
  StepConfig step;
  std::size_t rounds = 1000;
  std::uint64_t seed = 1;
  std::optional<Interval> constraint;  ///< Section 6 projection set
  SbgPayload default_payload{};        ///< substituted for missing tuples

  /// Probability that any honest-to-honest message is lost in a given
  /// round (random link failures, cf. [9],[15]). Byzantine messages are
  /// never dropped (worst case). Deterministic per seed.
  double drop_probability = 0.0;

  /// Hybrid fault model: honest agents that crash (stop sending, full
  /// silence) from the given round on. Crash is a special case of
  /// Byzantine behaviour, so crashed agents count against the same f
  /// budget: |faulty| + |crashes| <= f. Metrics and the valid family are
  /// computed over the surviving honest agents.
  std::vector<std::pair<std::size_t, std::size_t>> crashes;  ///< (agent, round)

  bool is_crashed(std::size_t agent) const;

  /// Cost functions of the non-faulty agents, in agent order.
  /// Cost functions of the non-faulty, never-crashing agents, in order.
  std::vector<ScalarFunctionPtr> honest_functions() const;

  /// Indices of the non-faulty, never-crashing agents, in order.
  std::vector<std::size_t> honest_indices() const;

  bool is_faulty(std::size_t agent) const;

  void validate() const;
};

/// Builds the step schedule described by the config.
std::unique_ptr<StepSchedule> make_schedule(const StepConfig& config);

/// Builds one adversary instance for a faulty agent, inside a
/// ConsistentWrapper (baseline/consistent.hpp) when `config.consistent`
/// is set. `rng` seeds the randomized attacks (a distinct substream per
/// faulty agent).
std::unique_ptr<SbgAdversary> make_adversary(const AttackConfig& config,
                                             Rng rng);

/// Whether the adversaries of `kind` read their seed: true exactly for
/// the kinds make_adversary hands its `rng` (random noise only), so it
/// must change whenever make_adversary's switch does. The vector factory
/// (make_vector_adversary) and ConsistentWrapper read no seed beyond
/// this. A synchronous run without link drops or crashes whose attack
/// reads no seed is the same run for every seed.
bool attack_reads_seed(AttackKind kind);

/// Convenience scenario: n agents with evenly spread mixed cost functions
/// over [-spread/2, spread/2], the last `f` agents faulty, initial states
/// spread over the same range.
Scenario make_standard_scenario(std::size_t n, std::size_t f, double spread,
                                AttackKind attack, std::size_t rounds,
                                std::uint64_t seed = 1);

}  // namespace ftmao
