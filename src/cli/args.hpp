#pragma once

// Minimal command-line flag parser for the ftmao tool. Flags are
// "--name value" or "--name=value"; boolean flags may omit the value.
// Unknown flags are an error (typos should not be silently ignored in an
// experiment driver).

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace ftmao::cli {

/// A flag combination the tool cannot act on (exit 2), unlike a bad value.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Declaration of one accepted flag.
struct FlagSpec {
  std::string name;         ///< without the leading "--"
  std::string help;
  std::string default_value;  ///< shown in help; "" = required-if-used
  bool boolean = false;       ///< value optional, presence = "true"
};

class ArgParser {
 public:
  explicit ArgParser(std::vector<FlagSpec> specs);

  /// Parses argv (excluding argv[0]). Returns an error message on
  /// failure, empty optional on success.
  std::optional<std::string> parse(const std::vector<std::string>& args);

  bool has(const std::string& name) const;
  std::string get(const std::string& name) const;  ///< value or default
  double get_double(const std::string& name) const;
  long get_int(const std::string& name) const;
  /// An unsigned count (threads, rounds, a seed, ...). Throws
  /// ContractViolation naming the flag for a negative value, which a cast
  /// would wrap to 2^64 - 1.
  std::uint64_t get_count(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  std::string help_text() const;

 private:
  const FlagSpec* find_spec(const std::string& name) const;

  std::vector<FlagSpec> specs_;
  std::map<std::string, std::string> values_;
};

}  // namespace ftmao::cli
