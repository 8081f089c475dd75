// E13 — vector arguments (open problem, Section 7).
//
// Two demonstrations:
//   1. The geometric obstruction: for coupled (radial) costs the vector
//      valid-optima set is NOT convex — we print a certified
//      counterexample (two valid optima with an invalid midpoint).
//   2. The coordinate-wise SBG heuristic: consensus still holds per
//      coordinate, and for separable costs it lands in the per-coordinate
//      valid boxes; for coupled costs no such guarantee exists — the
//      final distance to the average optimum is reported for both.

#include <iostream>
#include <memory>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/step_size.hpp"
#include "vector/vector_attacks.hpp"
#include "vector/vector_sbg.hpp"
#include "vector/vector_valid.hpp"

int main() {
  using namespace ftmao;
  bench::print_header(
      "E13: vector arguments (open problem)",
      "non-convex valid set certificate + coordinate-wise SBG heuristic");

  // ---- Part 1: non-convexity certificate.
  const std::vector<VectorFunctionPtr> radial{
      std::make_shared<RadialHuber>(Vec{0.0, 0.0}, 3.0, 1.0),
      std::make_shared<RadialHuber>(Vec{8.0, 0.0}, 3.0, 1.0),
      std::make_shared<RadialHuber>(Vec{4.0, 7.0}, 3.0, 1.0),
      std::make_shared<RadialHuber>(Vec{0.5, 0.5}, 3.0, 1.0),
      std::make_shared<RadialHuber>(Vec{7.5, 0.5}, 3.0, 1.0),
  };
  Rng rng(11);
  std::cout << "Searching for a convexity violation of the vector valid set\n"
               "(5 radial-Huber costs, f = 1)...\n";
  const auto ce = find_nonconvexity(radial, 1, rng, 150);
  if (ce) {
    Table table({"point", "x", "y", "valid optimum?"});
    auto add = [&](const std::string& name, const Vec& p, bool valid) {
      table.row().add(name).add(p[0], 4).add(p[1], 4).add(valid ? "yes" : "NO");
    };
    add("A", ce->a, true);
    add("B", ce->b, true);
    add("midpoint(A,B)", ce->midpoint, false);
    table.print(std::cout);
    std::cout << "\nY_k is non-convex for k >= 2 — the scalar convergence\n"
                 "proof's key lemma (Lemma 1) fails, which is why the vector\n"
                 "case is open (Section 7).\n";
  } else {
    std::cout << "no counterexample found in the sample budget\n";
  }

  // ---- Part 2: coordinate-wise SBG heuristic.
  std::cout << "\nCoordinate-wise SBG under split-brain attack (n=7, f=2):\n";
  const HarmonicStep schedule;

  Table run_table({"cost family", "final consensus diam",
                   "dist to honest avg optimum"});
  {
    const std::vector<VectorFunctionPtr> separable{
        std::make_shared<SeparableHuber>(Vec{-3.0, 1.0}, 2.0, 1.0),
        std::make_shared<SeparableHuber>(Vec{-1.0, -2.0}, 2.0, 1.0),
        std::make_shared<SeparableHuber>(Vec{0.0, 0.0}, 2.0, 1.0),
        std::make_shared<SeparableHuber>(Vec{2.0, 2.0}, 2.0, 1.0),
        std::make_shared<SeparableHuber>(Vec{4.0, -1.0}, 2.0, 1.0),
    };
    VectorSbgConfig config;
    config.n = 7;
    config.f = 2;
    config.dim = 2;
    CoordinatewiseAdversary attack(
        std::make_unique<SplitBrainAdversary>(50.0, 5.0),
        /*negate_odd=*/true);
    std::vector<Vec> init;
    for (int i = 0; i < 5; ++i)
      init.push_back(Vec{-4.0 + 2.0 * i, 4.0 - 2.0 * i});
    const auto r = run_vector_sbg(config, separable, init, 2, &attack,
                                  schedule, 10000);
    run_table.row()
        .add("separable (per-coord guarantees)")
        .add(r.disagreement.back(), 5)
        .add(r.dist_to_average_optimum.back(), 4);
  }
  {
    VectorSbgConfig config;
    config.n = 7;
    config.f = 2;
    config.dim = 2;
    CoordinatewiseAdversary attack(
        std::make_unique<SplitBrainAdversary>(50.0, 5.0),
        /*negate_odd=*/true);
    std::vector<Vec> init;
    for (int i = 0; i < 5; ++i)
      init.push_back(Vec{-4.0 + 2.0 * i, 4.0 - 2.0 * i});
    const auto r =
        run_vector_sbg(config, radial, init, 2, &attack, schedule, 10000);
    run_table.row()
        .add("radial/coupled (no guarantee)")
        .add(r.disagreement.back(), 5)
        .add(r.dist_to_average_optimum.back(), 4);
  }
  run_table.print(std::cout);
  std::cout << "\nConsensus holds in both cases (the scalar contraction works\n"
               "per coordinate); only the separable family inherits a formal\n"
               "optimality story.\n";
  return 0;
}
