#include "cli/args.hpp"

#include <sstream>
#include <stdexcept>

#include "common/contracts.hpp"

namespace ftmao::cli {

ArgParser::ArgParser(std::vector<FlagSpec> specs) : specs_(std::move(specs)) {
  for (const auto& spec : specs_) FTMAO_EXPECTS(!spec.name.empty());
}

const FlagSpec* ArgParser::find_spec(const std::string& name) const {
  for (const auto& spec : specs_) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::optional<std::string> ArgParser::parse(
    const std::vector<std::string>& args) {
  values_.clear();
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      return "positional arguments are not accepted: '" + arg + "'";
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    const FlagSpec* spec = find_spec(name);
    if (spec == nullptr) return "unknown flag '--" + name + "'";
    if (!has_value) {
      const bool next_is_value =
          i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0;
      if (spec->boolean && !next_is_value) {
        value = "true";
      } else if (next_is_value) {
        value = args[++i];
      } else {
        return "flag '--" + name + "' requires a value";
      }
    }
    if (values_.count(name) != 0) return "duplicate flag '--" + name + "'";
    values_[name] = value;
  }
  return std::nullopt;
}

bool ArgParser::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string ArgParser::get(const std::string& name) const {
  if (const auto it = values_.find(name); it != values_.end())
    return it->second;
  const FlagSpec* spec = find_spec(name);
  FTMAO_EXPECTS(spec != nullptr);
  return spec->default_value;
}

double ArgParser::get_double(const std::string& name) const {
  const std::string v = get(name);
  try {
    std::size_t consumed = 0;
    const double out = std::stod(v, &consumed);
    if (consumed != v.size()) throw std::invalid_argument(v);
    return out;
  } catch (const std::exception&) {
    throw ContractViolation("flag --" + name + " expects a number, got '" +
                            v + "'");
  }
}

long ArgParser::get_int(const std::string& name) const {
  const std::string v = get(name);
  try {
    std::size_t consumed = 0;
    const long out = std::stol(v, &consumed);
    if (consumed != v.size()) throw std::invalid_argument(v);
    return out;
  } catch (const std::exception&) {
    throw ContractViolation("flag --" + name + " expects an integer, got '" +
                            v + "'");
  }
}

std::uint64_t ArgParser::get_count(const std::string& name) const {
  const long value = get_int(name);
  if (value < 0)
    throw ContractViolation("flag --" + name + " expects a count >= 0, got '" +
                            get(name) + "'");
  return static_cast<std::uint64_t>(value);
}

bool ArgParser::get_bool(const std::string& name) const {
  const std::string v = get(name);
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no" || v.empty()) return false;
  throw ContractViolation("flag --" + name + " expects a boolean, got '" + v +
                          "'");
}

std::string ArgParser::help_text() const {
  std::ostringstream os;
  for (const auto& spec : specs_) {
    os << "  --" << spec.name;
    if (!spec.default_value.empty())
      os << " (default: " << spec.default_value << ")";
    os << "\n      " << spec.help << "\n";
  }
  return os.str();
}

}  // namespace ftmao::cli
