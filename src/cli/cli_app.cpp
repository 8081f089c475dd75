#include "cli/cli_app.hpp"

#include <algorithm>
#include <fstream>
#include <initializer_list>
#include <ostream>
#include <sstream>

#include "cli/args.hpp"
#include "cli/engine_flags.hpp"
#include "common/contracts.hpp"
#include "common/table.hpp"
#include "sim/async_runner.hpp"
#include "common/rng.hpp"
#include "sim/crash_runner.hpp"
#include "sim/runner.hpp"
#include "graph/graph_runner.hpp"
#include "graph/robustness.hpp"
#include "graph/topology.hpp"
#include "sim/scenario_io.hpp"

namespace ftmao::cli {

namespace {

std::vector<FlagSpec> flag_specs() {
  std::vector<FlagSpec> specs = {
      {"algorithm", "sbg | dgd | local | async | graph | crash", "sbg", false},
      {"n", "total number of agents", "7", false},
      {"f", "fault bound (n > 3f; async needs n > 5f)", "2", false},
      {"attack",
       "none | silent | fixed | split-brain | hull-edge-up | hull-edge-down | "
       "noise | sign-flip | pull | flip-flop | delayed-strike",
       "split-brain", false},
      {"rounds", "iterations to run", "5000", false},
      {"seed", "rng seed (determinism)", "1", false},
      {"spread", "width of the cost-optima layout", "8", false},
      {"step", "harmonic | power | constant", "harmonic", false},
      {"step-scale", "step size scale", "1", false},
      {"step-exp", "exponent for --step power", "0.75", false},
      {"constraint-lo", "projection interval lower bound (with -hi)", "",
       false},
      {"constraint-hi", "projection interval upper bound (with -lo)", "",
       false},
      {"target", "pull attack target", "-30", false},
      {"magnitude", "attack state magnitude", "100", false},
      {"gradient-magnitude", "attack gradient magnitude", "10", false},
      {"flip-period", "rounds per flip-flop phase", "1", false},
      {"activation-round", "delayed-strike activation round", "1", false},
      {"consistent", "wrap adversary in reliable-broadcast restriction",
       "false", true},
      {"drop", "honest link-loss probability per message", "0", false},
      {"topology",
       "graph algorithm: complete | ring:<k> | barbell:<bridges> | random:<d>",
       "ring:2", false},
      {"crash-at", "crash algorithm: comma list of agent@round", "", false},
      {"scenario", "load a scenario file in place of the scenario flags", "",
       false},
      {"save-scenario", "write the effective scenario to a file and exit", "",
       false},
      {"csv", "emit per-round CSV instead of the summary", "false", true},
      {"audit", "run per-iteration Lemma 2 witness audits", "false", true},
      {"help", "show usage", "false", true},
  };
  specs.push_back(isa_flag_spec("output"));
  return specs;
}

bool among(const std::string& flag, std::initializer_list<const char*> names) {
  return std::any_of(names.begin(), names.end(),
                     [&flag](const char* name) { return flag == name; });
}

// The flags scenario_from reads, in three groups: the agents' layout and
// schedule, the adversary and the run's seed, and what only the
// synchronous round engines model. A --scenario file replaces them all.
bool layout_flag(const std::string& flag) {
  return among(flag, {"n", "f", "spread", "rounds", "step", "step-scale",
                      "step-exp"});
}
bool adversary_flag(const std::string& flag) {
  return among(flag, {"attack", "seed", "target", "magnitude",
                      "gradient-magnitude", "flip-period",
                      "activation-round"});
}
bool sync_flag(const std::string& flag) {
  return among(flag, {"consistent", "drop", "constraint-lo", "constraint-hi"});
}

/// Whether --algorithm `algorithm` reads `flag`; run_cli refuses any
/// other flag given.
bool algorithm_reads(const std::string& algorithm, const std::string& flag) {
  if (among(flag, {"algorithm", "help", "isa", "scenario"}) ||
      layout_flag(flag))
    return true;
  const bool output = among(flag, {"save-scenario", "csv"});
  if (algorithm == "sbg")
    return adversary_flag(flag) || sync_flag(flag) || output ||
           flag == "audit";
  if (algorithm == "dgd")
    return adversary_flag(flag) || among(flag, {"consistent", "drop"}) ||
           output;
  if (algorithm == "local") return output;
  if (algorithm == "async") return adversary_flag(flag) || flag == "csv";
  if (algorithm == "graph") return adversary_flag(flag) || flag == "topology";
  return flag == "crash-at";
}

/// Why the given flags cannot run `algorithm`, or "" if they can.
std::string usage_error(const ArgParser& parser, const std::string& algorithm) {
  for (const FlagSpec& flag : flag_specs()) {
    if (!parser.has(flag.name)) continue;
    if (!algorithm_reads(algorithm, flag.name))
      return "--" + flag.name + " is not an --algorithm " + algorithm +
             " flag";
    if (parser.has("scenario") &&
        (layout_flag(flag.name) || adversary_flag(flag.name) ||
         sync_flag(flag.name)))
      return "--" + flag.name + " is replaced by the --scenario file";
  }
  return "";
}

Scenario scenario_from(const ArgParser& parser) {
  if (parser.has("scenario")) {
    std::ifstream file(parser.get("scenario"));
    if (!file) {
      throw ContractViolation("cannot open scenario file '" +
                              parser.get("scenario") + "'");
    }
    return load_scenario(file);
  }
  const auto n = parser.get_count("n");
  const auto f = parser.get_count("f");
  Scenario s = make_standard_scenario(
      n, f, parser.get_double("spread"),
      parse_attack_kind(parser.get("attack")), parser.get_count("rounds"),
      parser.get_count("seed"));
  s.step.kind = parse_step_kind(parser.get("step"));
  s.step.scale = parser.get_double("step-scale");
  s.step.exponent = parser.get_double("step-exp");
  s.attack.target = parser.get_double("target");
  s.attack.state_magnitude = parser.get_double("magnitude");
  s.attack.gradient_magnitude = parser.get_double("gradient-magnitude");
  s.attack.consistent = parser.get_bool("consistent");
  s.attack.flip_period = parser.get_count("flip-period");
  s.attack.activation_round = parser.get_count("activation-round");
  s.drop_probability = parser.get_double("drop");
  if (parser.has("constraint-lo") || parser.has("constraint-hi")) {
    if (!(parser.has("constraint-lo") && parser.has("constraint-hi")))
      throw ContractViolation(
          "--constraint-lo and --constraint-hi must be given together");
    s.constraint = Interval(parser.get_double("constraint-lo"),
                            parser.get_double("constraint-hi"));
  }
  return s;
}

void print_summary(const RunMetrics& m, std::ostream& out) {
  Table table({"metric", "value"});
  table.row().add("valid optima set Y").add(
      "[" + format_double(m.optima.lo(), 6) + ", " +
      format_double(m.optima.hi(), 6) + "]");
  table.row().add("final disagreement").add(m.final_disagreement(), 6);
  table.row().add("final max dist to Y").add(m.final_max_dist(), 6);
  table.row().add("final state (first agent)").add(m.final_states.front(), 6);
  if (m.state_witness.checks > 0) {
    table.row().add("witness audits").add(m.state_witness.checks +
                                          m.gradient_witness.checks);
    table.row().add("witness failures").add(m.state_witness.failures +
                                            m.gradient_witness.failures);
  }
  table.print(out);
}

void print_csv(const RunMetrics& m, std::ostream& out) {
  Table csv({"t", "disagreement", "max_dist_to_y", "max_projection_error"});
  for (std::size_t t = 0; t < m.disagreement.size(); ++t) {
    csv.row()
        .add(t)
        .add(m.disagreement[t], 8)
        .add(m.max_dist_to_y[t], 8)
        .add(m.max_projection_error[t], 8);
  }
  csv.print_csv(out);
}

int run_sync_algorithm(const ArgParser& parser, std::ostream& out) {
  const Scenario s = scenario_from(parser);
  if (parser.has("save-scenario")) {
    std::ofstream file(parser.get("save-scenario"));
    if (!file) {
      throw ContractViolation("cannot write scenario file '" +
                              parser.get("save-scenario") + "'");
    }
    save_scenario(s, file);
    out << "scenario written to " << parser.get("save-scenario") << "\n";
    return 0;
  }
  const std::string algorithm = parser.get("algorithm");
  RunOptions options;
  options.audit_witnesses = parser.get_bool("audit");

  RunMetrics metrics;
  if (algorithm == "sbg") {
    metrics = run_sbg(s, options);
  } else if (algorithm == "dgd") {
    metrics = run_dgd(s);
  } else {
    metrics = run_local_gd(s);
  }
  if (parser.get_bool("csv")) {
    print_csv(metrics, out);
  } else {
    print_summary(metrics, out);
  }
  return 0;
}

Topology topology_from(const std::string& spec, std::size_t n,
                       std::uint64_t seed) {
  if (spec == "complete") return make_complete(n);
  const auto colon = spec.find(':');
  if (colon != std::string::npos) {
    const std::string kind = spec.substr(0, colon);
    const auto param = static_cast<std::size_t>(
        std::stoul(spec.substr(colon + 1)));
    if (kind == "ring") return make_ring_lattice(n, param);
    if (kind == "barbell") return make_barbell(n / 2, param);
    if (kind == "random") {
      Rng rng(seed);
      return make_random_out_regular(n, param, rng);
    }
  }
  throw ContractViolation("unknown topology '" + spec + "'");
}

int run_graph_algorithm(const ArgParser& parser, std::ostream& out) {
  const Scenario base = scenario_from(parser);
  GraphScenario s;
  s.topology = topology_from(parser.get("topology"), base.n, base.seed);
  s.f = base.f;
  s.faulty = base.faulty;
  s.functions = base.functions;
  s.initial_states = base.initial_states;
  s.attack = base.attack;
  s.step = base.step;
  s.rounds = base.rounds;
  s.seed = base.seed;
  const GraphRunMetrics m = run_graph_sbg(s);

  Table table({"metric", "value"});
  table.row().add("topology").add(parser.get("topology"));
  table.row().add("min in-degree").add(s.topology.min_in_degree());
  table.row().add("robustness r").add(max_robustness(s.topology));
  table.row().add("needs (2f+1)-robust").add(required_robustness(s.f));
  table.row().add("final disagreement").add(m.disagreement.back(), 6);
  table.row()
      .add("final dist to complete-net Y")
      .add(m.max_dist_to_y.back(), 6);
  table.print(out);
  return 0;
}

int run_crash_algorithm(const ArgParser& parser, std::ostream& out) {
  const Scenario base = scenario_from(parser);
  CrashScenario s;
  s.n = base.n;
  s.functions = base.functions;
  s.initial_states = base.initial_states;
  s.step = base.step;
  s.rounds = base.rounds;
  std::istringstream is(parser.get("crash-at"));
  std::string token;
  while (std::getline(is, token, ',')) {
    const auto at = token.find('@');
    if (at == std::string::npos)
      throw ContractViolation("--crash-at expects agent@round entries");
    s.crashes.push_back({std::stoul(token.substr(0, at)),
                         std::stoul(token.substr(at + 1)), 0});
  }
  const CrashRunMetrics m = run_crash(s);
  Table table({"metric", "value"});
  table.row().add("survivors").add(m.final_states.size());
  table.row().add("final consensus").add(m.final_states.front(), 6);
  table.row().add("(17)-optimum interval").add(
      "[" + format_double(m.optima.lo(), 6) + ", " +
      format_double(m.optima.hi(), 6) + "]");
  table.row().add("final disagreement").add(m.disagreement.back(), 6);
  table.row().add("final dist to (17) set").add(m.max_dist_to_y.back(), 6);
  table.print(out);
  return 0;
}

int run_async_algorithm(const ArgParser& parser, std::ostream& out) {
  const Scenario base = scenario_from(parser);
  AsyncScenario s;
  s.n = base.n;
  s.f = base.f;
  s.faulty = base.faulty;
  s.functions = base.functions;
  s.initial_states = base.initial_states;
  s.attack = base.attack;
  s.step = base.step;
  s.rounds = base.rounds;
  s.seed = base.seed;
  const AsyncRunMetrics m = run_async_sbg(s);

  if (parser.get_bool("csv")) {
    Table csv({"t", "disagreement", "max_dist_to_y"});
    for (std::size_t t = 0; t < m.disagreement.size(); ++t)
      csv.row().add(t).add(m.disagreement[t], 8).add(m.max_dist_to_y[t], 8);
    csv.print_csv(out);
  } else {
    Table table({"metric", "value"});
    table.row().add("final disagreement").add(m.disagreement.back(), 6);
    table.row().add("final max dist to Y").add(m.max_dist_to_y.back(), 6);
    table.row().add("virtual time").add(m.virtual_time, 6);
    table.print(out);
  }
  return 0;
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  ArgParser parser(flag_specs());
  if (const auto error = parser.parse(args)) {
    err << "error: " << *error << "\n\nusage:\n" << parser.help_text();
    return 2;
  }
  if (parser.get_bool("help")) {
    out << "ftmao — fault-tolerant multi-agent optimization simulator\n\n"
        << parser.help_text();
    return 0;
  }
  try {
    const std::string algorithm = parser.get("algorithm");
    if (!among(algorithm, {"sbg", "dgd", "local", "async", "graph", "crash"}))
      throw ContractViolation("unknown algorithm '" + algorithm + "'");
    if (const std::string error = usage_error(parser, algorithm);
        !error.empty()) {
      err << "error: " << error << "\n\nusage:\n" << parser.help_text();
      return 2;
    }
    if (!apply_isa_flag(parser, err)) return 2;
    if (algorithm == "async") return run_async_algorithm(parser, out);
    if (algorithm == "graph") return run_graph_algorithm(parser, out);
    if (algorithm == "crash") return run_crash_algorithm(parser, out);
    return run_sync_algorithm(parser, out);
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace ftmao::cli
