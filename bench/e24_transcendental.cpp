// E24 — deterministic transcendental kernel performance.
//
// Microbenchmarks of the three transcendental gradient kernels
// (gradient_tanh / gradient_smooth_abs / gradient_softplus_diff,
// simd/det_math_impl.hpp) against the per-value virtual derivative()
// path they replace, and of the whole batched round loop over an
// all-transcendental cost family (LogCosh / SmoothAbs / SoftplusBasin,
// func/library.hpp: make_transcendental_family). Every batched benchmark
// is registered once per compiled-and-supported backend, like e21. No
// paper counterpart; harness hot path.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "func/library.hpp"
#include "sim/batch_runner.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "simd/simd.hpp"

namespace {

using namespace ftmao;

std::vector<double> random_values(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(count);
  for (auto& v : x) v = rng.uniform(-10.0, 10.0);
  return x;
}

// Virtual baseline: one derivative() call per value, cycling the three
// transcendental families like a mixed lane row would.
void BM_TranscendentalGradient_Virtual(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  const auto family = make_transcendental_family(3, 8.0);
  const auto x = random_values(count, 13);
  std::vector<double> g(count);
  for (auto _ : state) {
    for (std::size_t k = 0; k < count; ++k)
      g[k] = family[k % 3]->derivative(x[k]);
    benchmark::DoNotOptimize(g.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_TranscendentalGradient_Virtual)->Arg(16)->Arg(256);

// One uniform-kind lane row through each transcendental kernel.
void BM_Gradient_Tanh(benchmark::State& state, SimdIsa isa) {
  simd_select(isa);
  const SimdKernels& kernels = simd_kernels_for(isa);
  const auto count = static_cast<std::size_t>(state.range(0));
  const auto x = random_values(count, 13);
  const std::vector<double> c(count, 1.0), w(count, 1.5), scale(count, 0.75);
  std::vector<double> g(count);
  for (auto _ : state) {
    kernels.gradient_tanh(x.data(), c.data(), w.data(), scale.data(),
                          g.data(), count);
    benchmark::DoNotOptimize(g.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}

void BM_Gradient_SmoothAbs(benchmark::State& state, SimdIsa isa) {
  simd_select(isa);
  const SimdKernels& kernels = simd_kernels_for(isa);
  const auto count = static_cast<std::size_t>(state.range(0));
  const auto x = random_values(count, 13);
  const std::vector<double> c(count, 1.0), eps(count, 0.5), scale(count, 1.0);
  std::vector<double> g(count);
  for (auto _ : state) {
    kernels.gradient_smooth_abs(x.data(), c.data(), eps.data(), scale.data(),
                                g.data(), count);
    benchmark::DoNotOptimize(g.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}

void BM_Gradient_SoftplusDiff(benchmark::State& state, SimdIsa isa) {
  simd_select(isa);
  const SimdKernels& kernels = simd_kernels_for(isa);
  const auto count = static_cast<std::size_t>(state.range(0));
  const auto x = random_values(count, 13);
  const std::vector<double> a(count, -0.5), b(count, 0.5), w(count, 0.75),
      scale(count, 1.0);
  std::vector<double> g(count);
  for (auto _ : state) {
    kernels.gradient_softplus_diff(x.data(), a.data(), b.data(), w.data(),
                                   scale.data(), g.data(), count);
    benchmark::DoNotOptimize(g.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}

std::vector<Scenario> transcendental_replicas(std::size_t n, std::size_t f,
                                              AttackKind attack,
                                              std::size_t rounds,
                                              std::size_t batch) {
  const auto family = make_transcendental_family(n, 8.0);
  std::vector<Scenario> replicas;
  replicas.reserve(batch);
  for (std::size_t r = 0; r < batch; ++r) {
    Scenario s = make_standard_scenario(n, f, 8.0, attack, rounds, 1 + r);
    s.functions = family;
    replicas.push_back(std::move(s));
  }
  return replicas;
}

// Whole batched round loop over the all-transcendental family: every
// gradient row goes through its SIMD polynomial kernel.
void BM_RoundLoop_Transcendental(benchmark::State& state, SimdIsa isa) {
  simd_select(isa);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  const auto kind = static_cast<AttackKind>(state.range(2));
  const std::size_t rounds = 200;
  const auto replicas =
      transcendental_replicas(n, (n - 1) / 3, kind, rounds, batch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_sbg_batch(replicas).front().final_disagreement());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch * rounds));
}

constexpr auto kSplitBrain = static_cast<int>(AttackKind::SplitBrain);

void register_per_backend() {
  for (const SimdIsa isa : simd_compiled()) {
    if (!simd_supported(isa)) continue;
    const std::string tag = std::string("/") + simd_isa_name(isa);
    benchmark::RegisterBenchmark(("BM_Gradient_Tanh" + tag).c_str(),
                                 BM_Gradient_Tanh, isa)
        ->Arg(16)->Arg(256);
    benchmark::RegisterBenchmark(("BM_Gradient_SmoothAbs" + tag).c_str(),
                                 BM_Gradient_SmoothAbs, isa)
        ->Arg(16)->Arg(256);
    benchmark::RegisterBenchmark(("BM_Gradient_SoftplusDiff" + tag).c_str(),
                                 BM_Gradient_SoftplusDiff, isa)
        ->Arg(16)->Arg(256);
    benchmark::RegisterBenchmark(("BM_RoundLoop_Transcendental" + tag).c_str(),
                                 BM_RoundLoop_Transcendental, isa)
        ->Args({7, 16, kSplitBrain})
        ->Args({13, 16, kSplitBrain});
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_per_backend();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
