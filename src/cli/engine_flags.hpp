#pragma once

// Shared CLI flag sets. Every tool that drives the simulation engines
// (ftmao_sweep, ftmao_certify, ftmao_fabric, ftmao, the benches) accepts
// the same --threads / --batch / --scalar / --isa quartet with the same
// semantics and the same identity promise; the sweep-family tools add
// --cache-dir and the grid flags. Declaring them here keeps the help
// texts, defaults, and wiring from drifting apart per binary.

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "cli/args.hpp"
#include "sim/grid_spec.hpp"

namespace ftmao {
class ResultCache;  // cache/result_cache.hpp
}

namespace ftmao::cli {

/// Appends `extra` to `specs` (parser-construction helper).
void append_flags(std::vector<FlagSpec>& specs, std::vector<FlagSpec> extra);

/// The --isa flag alone (tools that run a single scenario want backend
/// control without the batching knobs). `subject` names the artifact the
/// identity promise covers ("output", "report").
FlagSpec isa_flag_spec(const std::string& subject);

/// The execution-strategy quartet: --threads, --batch, --scalar, --isa.
/// `subject` as above; `unit` names one replica run, in the singular
/// ("seed", "attack"): what a batched-engine call groups and what the
/// scalar engine runs one at a time.
std::vector<FlagSpec> engine_flag_specs(const std::string& subject,
                                        const std::string& unit);

/// The result-cache flag: --cache-dir (the record directory; empty =
/// caching off).
std::vector<FlagSpec> cache_flag_specs();

/// The grid flags: --spec FILE (a document with a "grid" object, such as
/// a fabric's grid.json; sim/grid_spec.hpp), or the axis flags.
std::vector<FlagSpec> grid_flag_specs();

/// The validated grid of --spec's file, or of the axis flags (--seeds k
/// is the seeds 1..k). Throws UsageError for an axis flag next to --spec,
/// ContractViolation naming the field for a bad value or grid.
GridSpec grid_from_flags(const ArgParser& parser);

/// Applies --isa: "auto" keeps width-aware auto-dispatch live (the
/// engines pick the widest backend whose register the lane count can
/// mostly fill); any explicit name forces that backend everywhere.
/// Returns false (after printing to `err`) when the forced backend is
/// unsupported on this machine/build.
bool apply_isa_flag(const ArgParser& parser, std::ostream& err);

/// The ResultCache on --cache-dir, or nullptr when it is empty: a cache
/// is a directory.
std::unique_ptr<ResultCache> cache_from(const ArgParser& parser);

}  // namespace ftmao::cli
