// ftmao_certify — one-command verification barrage for a system size:
// Theorem 2 across ten attacks, Lemma 2 LP witness audits, execution
// invariants, theory-bound domination, and an attack-liveness contrast.
//
//   ftmao_certify --n 7 --f 2           # exit code 0 iff everything holds
//
// A thin entry point; all logic lives in src/cli/certify_app so it can be
// unit tested.

#include <iostream>
#include <string>
#include <vector>

#include "cli/certify_app.hpp"

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  return ftmao::cli::run_certify(args, std::cout, std::cerr);
}
