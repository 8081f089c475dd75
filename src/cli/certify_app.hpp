#pragma once

// The ftmao_certify verification barrage as a library, so its flag
// handling is unit-testable; apps/ftmao_certify.cpp is a thin main().

#include <iosfwd>
#include <string>
#include <vector>

namespace ftmao::cli {

/// Runs the whole tool. Returns the process exit code: 0 = CERTIFIED,
/// 1 = FAILED or a bad value, 2 = a usage error (an unknown flag, or a
/// section's flag beside --async-rounds 0 or --vector-rounds 0, which
/// skip the section and read none of its flags).
int run_certify(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err);

}  // namespace ftmao::cli
