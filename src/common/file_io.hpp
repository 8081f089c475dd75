#pragma once

// Whole-file text I/O for the repo's small documents and artifacts (grid
// specs, shard CSVs and manifests, fabric records).

#include <fstream>
#include <sstream>
#include <string>

#include "common/contracts.hpp"

namespace ftmao {

/// The file's bytes; throws ContractViolation if it cannot be read.
inline std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw ContractViolation("cannot read '" + path + "'");
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// Replaces the file's contents; throws ContractViolation on failure.
inline void write_file(const std::string& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw ContractViolation("cannot open '" + path + "' for writing");
  os << text;
  if (!os.flush()) throw ContractViolation("write to '" + path + "' failed");
}

}  // namespace ftmao
