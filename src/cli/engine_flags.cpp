#include "cli/engine_flags.hpp"

#include <ostream>
#include <string>
#include <utility>

#include "cache/result_cache.hpp"
#include "common/contracts.hpp"
#include "common/file_io.hpp"
#include "sim/megabatch.hpp"
#include "sim/scenario_io.hpp"
#include "simd/simd.hpp"

namespace ftmao::cli {

void append_flags(std::vector<FlagSpec>& specs, std::vector<FlagSpec> extra) {
  for (FlagSpec& spec : extra) specs.push_back(std::move(spec));
}

FlagSpec isa_flag_spec(const std::string& subject) {
  return {"isa",
          "SIMD lane backend: auto | scalar | sse2 | avx2 | avx512; " +
              subject + " is identical for every value",
          "auto", false};
}

std::vector<FlagSpec> engine_flag_specs(const std::string& subject,
                                        const std::string& unit) {
  return {
      {"threads",
       "worker threads (0 = all cores); " + subject +
           " is identical for every value",
       "1", false},
      {"batch",
       unit + " runs per batched-engine call (0 = register-aligned packs "
           "of about " + std::to_string(kMegabatchAutoLaneTarget) +
           " lanes); " + subject + " is identical for every value",
       "0", false},
      {"scalar",
       "force the scalar reference engine (one run per " + unit + ")", "false",
       true},
      isa_flag_spec(subject),
  };
}

std::vector<FlagSpec> cache_flag_specs() {
  return {
      {"cache-dir",
       "persistent result-cache directory (created on demand; empty = "
       "caching off); corrupt or stale records degrade to recomputation",
       "", false},
  };
}

std::vector<FlagSpec> grid_flag_specs() {
  return {
      {"spec", "JSON file whose \"grid\" object is the whole grid (as in a "
               "fabric's grid.json); excludes the other grid flags", "",
       false},
      {"sizes", "comma list of n:f pairs", "7:2,10:3,13:4", false},
      {"dim", "comma list of state dimensions (1 = scalar SBG; d >= 2 runs "
              "the coordinate-wise vector engine)", "1", false},
      {"attacks", "comma list of attack names", "split-brain,sign-flip,pull",
       false},
      {"seeds", "number of seeds per cell (the seeds 1..k)", "3", false},
      {"rounds", "iterations per run", "4000", false},
      {"spread", "cost-optima layout width", "8", false},
      {"step", "harmonic | power | constant", "harmonic", false},
      {"step-scale", "step size scale", "1", false},
      {"step-exp", "exponent for --step power", "0.75", false},
      {"engine", "sync | async (event-driven rounds, requires n > 5f)",
       "sync", false},
      {"delay", "async delay model: fixed | uniform | targeted-slow",
       "uniform", false},
      {"delay-lo", "async delay lower bound (fixed delay value)", "0.5",
       false},
      {"delay-hi", "async delay upper bound (uniform model)", "1.5", false},
  };
}

GridSpec grid_from_flags(const ArgParser& parser) {
  GridSpec grid;
  if (parser.has("spec")) {
    for (const FlagSpec& flag : grid_flag_specs())
      if (flag.name != "spec" && parser.has(flag.name))
        throw UsageError("--" + flag.name +
                         " cannot be combined with --spec, whose file holds "
                         "the whole grid");
    const std::string path = parser.get("spec");
    try {
      grid = grid_spec_from_json(read_file(path));
    } catch (const ContractViolation& e) {
      throw ContractViolation("--spec '" + path + "': " + e.what());
    }
  } else {
    grid.sizes = parse_sizes(parser.get("sizes"));
    grid.dims = parse_dims(parser.get("dim"));
    grid.attacks = parse_attacks(parser.get("attacks"));
    const long seeds = parser.get_int("seeds");
    const long rounds = parser.get_int("rounds");
    if (seeds < 1) throw ContractViolation("--seeds must be >= 1");
    if (rounds < 1) throw ContractViolation("--rounds must be >= 1");
    for (long s = 1; s <= seeds; ++s)
      grid.seeds.push_back(static_cast<std::uint64_t>(s));
    grid.rounds = static_cast<std::size_t>(rounds);
    grid.spread = parser.get_double("spread");
    grid.step.kind = parse_step_kind(parser.get("step"));
    grid.step.scale = parser.get_double("step-scale");
    grid.step.exponent = parser.get_double("step-exp");
    grid.async_engine = parse_engine(parser.get("engine"));
    grid.delay_kind = parse_delay_kind(parser.get("delay"));
    grid.delay_lo = parser.get_double("delay-lo");
    grid.delay_hi = parser.get_double("delay-hi");
  }
  grid.validate();
  return grid;
}

bool apply_isa_flag(const ArgParser& parser, std::ostream& err) {
  if (parser.get("isa") == "auto") return true;
  const SimdIsa isa = parse_simd_isa(parser.get("isa"));
  if (!simd_select(isa)) {
    err << "error: ISA '" << simd_isa_name(isa)
        << "' is not supported on this machine/build\n";
    return false;
  }
  return true;
}

std::unique_ptr<ResultCache> cache_from(const ArgParser& parser) {
  const std::string dir = parser.get("cache-dir");
  if (dir.empty()) return nullptr;
  return std::make_unique<ResultCache>(CacheConfig{dir});
}

}  // namespace ftmao::cli
