// Tests for the flag parser and the CLI driver end-to-end (string in,
// string out — no process spawning needed).

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "cli/args.hpp"
#include "cli/certify_app.hpp"
#include "cli/cli_app.hpp"
#include "cli/engine_flags.hpp"
#include "common/contracts.hpp"
#include "common/file_io.hpp"

namespace ftmao::cli {
namespace {

// ---------------------------------------------------------------- parser

ArgParser test_parser() {
  return ArgParser({
      {"count", "a number", "3", false},
      {"name", "a string", "default", false},
      {"verbose", "a boolean", "false", true},
  });
}

TEST(ArgParser, DefaultsApplyWhenAbsent) {
  ArgParser p = test_parser();
  EXPECT_FALSE(p.parse({}).has_value());
  EXPECT_EQ(p.get_int("count"), 3);
  EXPECT_EQ(p.get("name"), "default");
  EXPECT_FALSE(p.get_bool("verbose"));
}

TEST(ArgParser, SpaceAndEqualsSyntax) {
  ArgParser p = test_parser();
  EXPECT_FALSE(p.parse({"--count", "7", "--name=zed"}).has_value());
  EXPECT_EQ(p.get_int("count"), 7);
  EXPECT_EQ(p.get("name"), "zed");
}

TEST(ArgParser, BooleanPresenceMeansTrue) {
  ArgParser p = test_parser();
  EXPECT_FALSE(p.parse({"--verbose"}).has_value());
  EXPECT_TRUE(p.get_bool("verbose"));
}

TEST(ArgParser, BooleanExplicitValue) {
  ArgParser p = test_parser();
  EXPECT_FALSE(p.parse({"--verbose", "false"}).has_value());
  EXPECT_FALSE(p.get_bool("verbose"));
}

TEST(ArgParser, UnknownFlagRejected) {
  ArgParser p = test_parser();
  const auto err = p.parse({"--nope", "1"});
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("--nope"), std::string::npos);
}

TEST(ArgParser, MissingValueRejected) {
  ArgParser p = test_parser();
  EXPECT_TRUE(p.parse({"--count"}).has_value());
}

TEST(ArgParser, DuplicateFlagRejected) {
  ArgParser p = test_parser();
  EXPECT_TRUE(p.parse({"--count", "1", "--count", "2"}).has_value());
}

TEST(ArgParser, PositionalRejected) {
  ArgParser p = test_parser();
  EXPECT_TRUE(p.parse({"stray"}).has_value());
}

TEST(ArgParser, BadNumberThrowsOnAccess) {
  ArgParser p = test_parser();
  EXPECT_FALSE(p.parse({"--count", "soon"}).has_value());
  EXPECT_THROW(p.get_int("count"), ContractViolation);
  EXPECT_THROW(p.get_double("count"), ContractViolation);
}

TEST(ArgParser, HasDistinguishesExplicit) {
  ArgParser p = test_parser();
  EXPECT_FALSE(p.parse({"--count", "3"}).has_value());
  EXPECT_TRUE(p.has("count"));
  EXPECT_FALSE(p.has("name"));
}

TEST(ArgParser, HelpTextListsFlags) {
  const std::string help = test_parser().help_text();
  EXPECT_NE(help.find("--count"), std::string::npos);
  EXPECT_NE(help.find("--verbose"), std::string::npos);
}

// ------------------------------------------------------------------- CLI

int run(const std::vector<std::string>& args, std::string* out_text = nullptr,
        std::string* err_text = nullptr) {
  std::ostringstream out, err;
  const int code = run_cli(args, out, err);
  if (out_text) *out_text = out.str();
  if (err_text) *err_text = err.str();
  return code;
}

TEST(Cli, HelpExitsZero) {
  std::string out;
  EXPECT_EQ(run({"--help"}, &out), 0);
  EXPECT_NE(out.find("--algorithm"), std::string::npos);
}

TEST(Cli, DefaultRunPrintsSummary) {
  std::string out;
  EXPECT_EQ(run({"--rounds", "200"}, &out), 0);
  EXPECT_NE(out.find("final disagreement"), std::string::npos);
  EXPECT_NE(out.find("valid optima set Y"), std::string::npos);
}

TEST(Cli, CsvModeEmitsHeaderAndRows) {
  std::string out;
  EXPECT_EQ(run({"--rounds", "50", "--csv"}, &out), 0);
  EXPECT_EQ(out.rfind("t,disagreement,max_dist_to_y,max_projection_error", 0),
            0u);
  // 50 rounds + initial row + header.
  EXPECT_EQ(static_cast<int>(std::count(out.begin(), out.end(), '\n')), 52);
}

TEST(Cli, UnknownFlagFailsWithUsage) {
  std::string err;
  EXPECT_EQ(run({"--bogus", "1"}, nullptr, &err), 2);
  EXPECT_NE(err.find("usage"), std::string::npos);
}

TEST(Cli, BadAlgorithmFails) {
  std::string err;
  EXPECT_EQ(run({"--algorithm", "magic"}, nullptr, &err), 1);
  EXPECT_NE(err.find("unknown algorithm"), std::string::npos);
}

TEST(Cli, BadResilienceFails) {
  std::string err;
  EXPECT_EQ(run({"--n", "6", "--f", "2"}, nullptr, &err), 1);
}

TEST(Cli, DgdAndLocalRun) {
  EXPECT_EQ(run({"--algorithm", "dgd", "--rounds", "100"}), 0);
  EXPECT_EQ(run({"--algorithm", "local", "--rounds", "100"}), 0);
}

TEST(Cli, AsyncRunsWithValidResilience) {
  std::string out;
  EXPECT_EQ(run({"--algorithm", "async", "--n", "6", "--f", "1", "--rounds",
                 "100"},
                &out),
            0);
  EXPECT_NE(out.find("virtual time"), std::string::npos);
}

TEST(Cli, ConstraintFlagsMustComeTogether) {
  std::string err;
  EXPECT_EQ(run({"--constraint-lo", "-1"}, nullptr, &err), 1);
  EXPECT_NE(err.find("together"), std::string::npos);
}

TEST(Cli, ConstrainedRunRespectsInterval) {
  std::string out;
  EXPECT_EQ(run({"--rounds", "500", "--constraint-lo", "-0.5",
                 "--constraint-hi", "0.5"},
                &out),
            0);
  EXPECT_EQ(run({"--rounds", "200", "--audit"}, &out), 0);
  EXPECT_NE(out.find("witness audits"), std::string::npos);
}

TEST(Cli, SaveAndLoadScenarioRoundTrip) {
  const std::string path = "/tmp/ftmao_cli_scenario_test.txt";
  std::string out;
  EXPECT_EQ(run({"--rounds", "150", "--attack", "pull", "--target", "-20",
                 "--save-scenario", path},
                &out),
            0);
  EXPECT_NE(out.find("scenario written"), std::string::npos);

  std::string direct, via_file;
  EXPECT_EQ(run({"--rounds", "150", "--attack", "pull", "--target", "-20"},
                &direct),
            0);
  EXPECT_EQ(run({"--scenario", path}, &via_file), 0);
  EXPECT_EQ(direct, via_file);
}

TEST(Cli, MissingScenarioFileFails) {
  std::string err;
  EXPECT_EQ(run({"--scenario", "/nonexistent/nope.txt"}, nullptr, &err), 1);
  EXPECT_NE(err.find("cannot open"), std::string::npos);
}

TEST(Cli, GraphAlgorithmReportsRobustness) {
  std::string out;
  EXPECT_EQ(run({"--algorithm", "graph", "--topology", "ring:2", "--n", "9",
                 "--f", "1", "--rounds", "500"},
                &out),
            0);
  EXPECT_NE(out.find("robustness r"), std::string::npos);
  EXPECT_NE(out.find("min in-degree"), std::string::npos);
}

TEST(Cli, GraphBadTopologyFails) {
  std::string err;
  EXPECT_EQ(run({"--algorithm", "graph", "--topology", "moebius"}, nullptr,
                &err),
            1);
  EXPECT_NE(err.find("unknown topology"), std::string::npos);
}

TEST(Cli, CrashAlgorithmRuns) {
  std::string out;
  EXPECT_EQ(run({"--algorithm", "crash", "--n", "5", "--crash-at", "4@100",
                 "--rounds", "1000"},
                &out),
            0);
  EXPECT_NE(out.find("survivors"), std::string::npos);
  EXPECT_NE(out.find("(17)-optimum interval"), std::string::npos);
}

TEST(Cli, CrashAlgorithmNeedsNoFaultBound) {
  // A crash run has no f, so --n 5 runs without one. The standard layout
  // does not depend on f: these are the bytes of the same run built with
  // f = 1.
  std::string out;
  EXPECT_EQ(
      run({"--algorithm", "crash", "--n", "5", "--crash-at", "4@100"}, &out),
      0);
  EXPECT_EQ(out,
            "metric                  value                  \n"
            "-----------------------------------------------\n"
            "survivors               4                      \n"
            "final consensus         -0.777118              \n"
            "(17)-optimum interval   [-1.27404, 0.0173891]  \n"
            "final disagreement      0                      \n"
            "final dist to (17) set  0                      \n");
}

TEST(Cli, EachAlgorithmRefusesFlagsItDoesNotRead) {
  // Every accepted flag is honoured or refused: a flag the algorithm never
  // reads exits 2 and names the flag instead of running as if absent.
  const std::vector<std::vector<std::string>> refused = {
      {"sbg", "--topology", "complete"},
      {"sbg", "--crash-at", "4@100"},
      {"dgd", "--constraint-lo", "-0.5", "--constraint-hi", "0.5"},
      {"dgd", "--audit"},
      {"local", "--attack", "pull"},
      {"local", "--seed", "9"},
      {"async", "--consistent"},
      {"async", "--drop", "0.3"},
      {"graph", "--consistent"},
      {"graph", "--drop", "0.3"},
      {"graph", "--csv"},
      {"crash", "--attack", "pull"},
      {"crash", "--seed", "9"},
      {"crash", "--drop", "0.4"},
      {"crash", "--f", "1"},
  };
  for (const std::vector<std::string>& flags : refused) {
    std::vector<std::string> args = {"--algorithm"};
    args.insert(args.end(), flags.begin(), flags.end());
    std::string out, err;
    EXPECT_EQ(run(args, &out, &err), 2) << flags[0] << " " << flags[1];
    EXPECT_NE(err.find(flags[1] + " is not an --algorithm " + flags[0]),
              std::string::npos)
        << err;
    EXPECT_TRUE(out.empty()) << out;
  }
}

TEST(Cli, AsyncRefusesSaveScenarioAndWritesNoFile) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "ftmao_cli_async_save.txt";
  std::filesystem::remove(path);
  std::string err;
  EXPECT_EQ(run({"--algorithm", "async", "--n", "6", "--f", "1",
                 "--save-scenario", path.string()},
                nullptr, &err),
            2);
  EXPECT_NE(err.find("--save-scenario is not"), std::string::npos) << err;
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(Cli, ScenarioFileRefusesTheFlagsItReplaces) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "ftmao_cli_replaced.txt";
  ASSERT_EQ(run({"--rounds", "50", "--save-scenario", path.string()}), 0);
  std::string err;
  EXPECT_EQ(run({"--scenario", path.string(), "--rounds", "60"}, nullptr,
                &err),
            2);
  EXPECT_NE(err.find("--rounds is replaced by the --scenario file"),
            std::string::npos)
      << err;
  std::string csv;
  EXPECT_EQ(run({"--scenario", path.string(), "--csv"}, &csv), 0);
  EXPECT_NE(csv.find("disagreement"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Cli, CrashBadSpecFails) {
  std::string err;
  EXPECT_EQ(run({"--algorithm", "crash", "--crash-at", "4:100"}, nullptr, &err),
            1);
}

TEST(Cli, DeterministicOutputPerSeed) {
  std::string a, b, c;
  run({"--rounds", "200", "--attack", "noise", "--seed", "9"}, &a);
  run({"--rounds", "200", "--attack", "noise", "--seed", "9"}, &b);
  run({"--rounds", "200", "--attack", "noise", "--seed", "10"}, &c);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

// ------------------------------------------------------------- grid flags

/// The grid the shared grid flags in `args` describe.
GridSpec grid_of(const std::vector<std::string>& args) {
  ArgParser parser(grid_flag_specs());
  const auto error = parser.parse(args);
  if (error) throw UsageError(*error);
  return grid_from_flags(parser);
}

TEST(GridFlags, AxisFlagsDescribeTheGrid) {
  const GridSpec grid =
      grid_of({"--sizes", "6:1,11:2", "--seeds", "2", "--rounds", "50",
               "--engine", "async", "--delay", "fixed", "--delay-lo", "0.75"});
  EXPECT_EQ(grid.sizes,
            (std::vector<std::pair<std::size_t, std::size_t>>{{6, 1},
                                                               {11, 2}}));
  EXPECT_EQ(grid.seeds, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(grid.rounds, 50u);
  EXPECT_TRUE(grid.async_engine);
  EXPECT_EQ(grid.delay_kind, DelayKind::Fixed);
  EXPECT_EQ(grid.delay_lo, 0.75);
}

TEST(GridFlags, SpecFileCarriesAnExplicitSeedListAndExcludesAxisFlags) {
  GridSpec grid = grid_of({"--sizes", "7:2", "--rounds", "40"});
  grid.seeds = {3, 5};
  const std::string path =
      (std::filesystem::temp_directory_path() / "ftmao_cli_grid_spec.json")
          .string();
  write_file(path, "{\"grid\": " + grid_spec_to_json(grid) + "}\n");
  EXPECT_EQ(grid_of({"--spec", path}), grid);
  EXPECT_THROW(grid_of({"--spec", path, "--sizes", "7:2"}), UsageError);
  EXPECT_THROW(grid_of({"--spec", path, "--engine", "sync"}), UsageError);
  std::filesystem::remove(path);
  EXPECT_THROW(grid_of({"--spec", path}), ContractViolation);
}

TEST(GridFlags, MalformedGridsFailNamingTheFlag) {
  // Each is refused before anything runs; the message names the field.
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases =
      {
          {{"--seeds", "-1"}, "--seeds"},
          {{"--seeds", "0"}, "--seeds"},
          {{"--seeds", "2.5"}, "--seeds"},
          {{"--rounds", "-1"}, "--rounds"},
          {{"--sizes", "7:2x"}, "sizes"},
          {{"--sizes", "7:2,"}, "sizes"},
          {{"--sizes", "6:2"}, "sizes"},
          {{"--dim", "1,,2"}, "dims"},
          {{"--attacks", "pull,,sign-flip"}, "attack"},
          {{"--engine", "warp"}, "engine"},
          {{"--engine", "async"}, "sizes"},  // 7:2 violates n > 5f
          {{"--spread", "inf"}, "spread"},
          {{"--spread", "0"}, "spread"},
          {{"--spread", "-1"}, "spread"},
          {{"--step-scale", "0"}, "step"},
          {{"--step", "geometric"}, "step"},
          {{"--delay-lo", "nan"}, "delay"},
          {{"--delay", "fixed"}, "delay"},  // the sync engine has no delays
          {{"--delay-lo", "3"}, "delay"},
          {{"--delay-hi", "2"}, "delay"},
      };
  for (const auto& [args, field] : cases) {
    try {
      grid_of(args);
      ADD_FAILURE() << args.front() << " " << args.back() << ": accepted";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << args.front() << " " << args.back() << ": " << e.what();
    }
  }
}

// ------------------------------------------------------------ count flags

TEST(CountFlags, NegativeIsRefusedNamingTheFlagAndZeroIsAccepted) {
  // Every flag read as an unsigned count: -1 must be refused with the
  // flag named, not cast to 2^64 - 1 (--threads -1 would start one OS
  // thread per task), and 0 reads as 0.
  std::vector<FlagSpec> specs = engine_flag_specs("output", "seed");
  append_flags(specs, cache_flag_specs());
  for (const char* name :
       {"n", "f", "rounds", "seed", "async-n", "async-f", "async-rounds",
        "vector-dim", "vector-rounds", "flip-period", "activation-round",
        "seeds", "lease-ttl-ms", "transcendental-rounds"})
    specs.push_back({name, "a count", "1", false});
  for (const FlagSpec& spec : specs) {
    if (spec.boolean || spec.name == "isa" || spec.name == "cache-dir")
      continue;
    const std::string flag = "--" + spec.name;
    ArgParser negative(specs);
    ASSERT_FALSE(negative.parse({flag, "-1"}).has_value()) << flag;
    try {
      negative.get_count(spec.name);
      ADD_FAILURE() << flag << " -1: accepted";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find(flag + " "), std::string::npos)
          << e.what();
    }
    ArgParser zero(specs);
    ASSERT_FALSE(zero.parse({flag, "0"}).has_value()) << flag;
    EXPECT_EQ(zero.get_count(spec.name), 0u) << flag;
  }

  // The readers that use it refuse -1 before any work, naming the flag.
  for (const char* flag : {"--n", "--f", "--rounds", "--seed",
                           "--flip-period", "--activation-round"}) {
    std::string err;
    EXPECT_EQ(run({flag, "-1"}, nullptr, &err), 1) << flag;
    EXPECT_NE(err.find(std::string(flag) + " "), std::string::npos) << err;
  }
  std::string err;
  EXPECT_EQ(run({"--algorithm", "async", "--n", "-1"}, nullptr, &err), 1);
  EXPECT_NE(err.find("--n "), std::string::npos) << err;
}

// --------------------------------------------------------------- certify

TEST(CertifyFlags, SkippedSectionRefusesItsFlags) {
  // --async-rounds 0 and --vector-rounds 0 skip a section, which then
  // reads none of its flags: each is refused (exit 2) with the flag
  // named, before any section runs.
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases =
      {
          {{"--async-rounds", "0", "--async-n", "4", "--async-f", "3",
            "--vector-rounds", "0", "--vector-dim", "0"},
           "--async-n"},
          {{"--async-f", "3", "--async-rounds", "0"}, "--async-f"},
          {{"--async-rounds", "0", "--async-consensus-eps", "1"},
           "--async-consensus-eps"},
          {{"--async-rounds", "0", "--async-optimality-eps", "1"},
           "--async-optimality-eps"},
          {{"--vector-rounds", "0", "--vector-dim", "0"}, "--vector-dim"},
          {{"--vector-rounds", "0", "--vector-consensus-eps", "1"},
           "--vector-consensus-eps"},
          {{"--vector-optimality-eps", "1", "--vector-rounds", "0"},
           "--vector-optimality-eps"},
      };
  for (const auto& [args, flag] : cases) {
    std::ostringstream out, err;
    EXPECT_EQ(run_certify(args, out, err), 2) << flag;
    EXPECT_EQ(out.str(), "") << flag;
    EXPECT_NE(err.str().find("error: " + flag + " "), std::string::npos)
        << err.str();
  }

  // Both sections skipped, and none of their flags given: the sync
  // section alone runs and reports.
  std::ostringstream out, err;
  const int code = run_certify({"--n", "4", "--f", "1", "--rounds", "30",
                                "--async-rounds", "0", "--vector-rounds",
                                "0"},
                               out, err);
  EXPECT_TRUE(code == 0 || code == 1) << err.str();
  EXPECT_EQ(out.str().find("async-"), std::string::npos) << out.str();
  EXPECT_EQ(out.str().find("vector-"), std::string::npos) << out.str();
  EXPECT_TRUE(out.str().ends_with("\nCERTIFIED\n") ||
              out.str().ends_with("\nFAILED\n"))
      << out.str();
}

}  // namespace
}  // namespace ftmao::cli
