// ftmao_certify — one-command verification barrage for a system size:
// Theorem 2 across ten attacks, Lemma 2 LP witness audits, execution
// invariants, theory-bound domination, and an attack-liveness contrast.
//
//   ftmao_certify --n 7 --f 2           # exit code 0 iff everything holds

#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/result_cache.hpp"
#include "cli/args.hpp"
#include "cli/engine_flags.hpp"
#include "common/table.hpp"
#include "sim/certify.hpp"
#include "simd/simd.hpp"

int main(int argc, char** argv) {
  using namespace ftmao;
  std::vector<cli::FlagSpec> specs = {
      {"n", "total number of agents", "7", false},
      {"f", "fault bound (n > 3f)", "2", false},
      {"rounds", "iterations per run", "4000", false},
      {"seed", "rng seed", "1", false},
      {"spread", "cost-optima layout width", "8", false},
      {"consensus-eps", "final-disagreement acceptance", "0.05", false},
      {"optimality-eps", "final Dist-to-Y acceptance", "0.1", false},
      {"async-n", "agents for the asynchronous section (n > 5f)", "11",
       false},
      {"async-f", "fault bound for the asynchronous section", "2", false},
      {"async-rounds", "async iterations per run (0 = skip the section)",
       "800", false},
      {"async-consensus-eps", "async final-disagreement acceptance", "0.1",
       false},
      {"async-optimality-eps", "async final Dist-to-Y acceptance", "0.3",
       false},
      {"vector-dim", "state dimension for the coordinate-wise vector "
                     "section", "8", false},
      {"vector-rounds", "vector iterations per run (0 = skip the section)",
       "800", false},
      {"vector-consensus-eps", "vector final-disagreement acceptance", "0.1",
       false},
      {"vector-optimality-eps", "vector bounded-drift acceptance (loose on "
                                "purpose: consensus is guaranteed, optimality "
                                "is not)", "10.0", false},
      {"help", "show usage", "false", true},
  };
  cli::append_flags(specs, cli::engine_flag_specs("report", "attack"));
  cli::append_flags(specs, cli::cache_flag_specs());
  cli::ArgParser parser(std::move(specs));
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (const auto error = parser.parse(args)) {
    std::cerr << "error: " << *error << "\n\nusage:\n" << parser.help_text();
    return 2;
  }
  if (parser.get_bool("help")) {
    std::cout << "ftmao_certify — run the full verification barrage\n\n"
              << parser.help_text();
    return 0;
  }

  try {
    if (!cli::apply_isa_flag(parser, std::cerr)) return 2;
    CertifyOptions options;
    options.n = parser.get_count("n");
    options.f = parser.get_count("f");
    options.rounds = parser.get_count("rounds");
    options.seed = parser.get_count("seed");
    options.spread = parser.get_double("spread");
    options.consensus_eps = parser.get_double("consensus-eps");
    options.optimality_eps = parser.get_double("optimality-eps");
    options.num_threads = parser.get_count("threads");
    options.batch_size = parser.get_count("batch");
    options.scalar_engine = parser.get_bool("scalar");
    options.async_n = parser.get_count("async-n");
    options.async_f = parser.get_count("async-f");
    options.async_rounds = parser.get_count("async-rounds");
    options.async_consensus_eps = parser.get_double("async-consensus-eps");
    options.async_optimality_eps = parser.get_double("async-optimality-eps");
    options.vector_dim = parser.get_count("vector-dim");
    options.vector_rounds = parser.get_count("vector-rounds");
    options.vector_consensus_eps = parser.get_double("vector-consensus-eps");
    options.vector_optimality_eps = parser.get_double("vector-optimality-eps");
    const std::unique_ptr<ResultCache> cache = cli::cache_from(parser);
    options.cache = cache.get();

    std::cout << "certifying SBG at n=" << options.n << ", f=" << options.f
              << " over 10 attacks, " << options.rounds << " rounds...\n\n";
    const CertificationReport report = certify_sbg(options);
    if (cache != nullptr)
      std::cerr << "ftmao_certify: " << cache_stats_line(cache->stats())
                << "\n";

    Table table({"check", "result", "detail"});
    for (const auto& check : report.checks) {
      table.row()
          .add(check.name)
          .add(check.passed ? "PASS" : "FAIL")
          .add(check.detail);
    }
    table.print(std::cout);
    std::cout << "\n" << (report.passed ? "CERTIFIED" : "FAILED") << "\n";
    return report.passed ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
