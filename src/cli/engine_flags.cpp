#include "cli/engine_flags.hpp"

#include <ostream>
#include <utility>

#include "cache/result_cache.hpp"
#include "sim/megabatch.hpp"
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
      {"cache-mem-mb", "in-memory result-cache LRU budget, MiB", "256",
       false},
  };
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
  CacheConfig config;
  config.dir = dir;
  config.max_memory_bytes =
      static_cast<std::size_t>(parser.get_int("cache-mem-mb")) << 20;
  return std::make_unique<ResultCache>(std::move(config));
}

}  // namespace ftmao::cli
