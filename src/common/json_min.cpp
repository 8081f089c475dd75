#include "common/json_min.hpp"

#include <cctype>
#include <charconv>
#include <sstream>

#include "common/contracts.hpp"

namespace ftmao::jsonmin {

namespace {

std::size_t skip_space(const std::string& json, std::size_t pos) {
  while (pos < json.size() &&
         std::isspace(static_cast<unsigned char>(json[pos])))
    ++pos;
  return pos;
}

std::size_t find_key(const std::string& json, const std::string& key) {
  const std::string quoted = '"' + key + '"';
  const std::size_t at = json.find(quoted);
  if (at == std::string::npos)
    throw ContractViolation("JSON: missing key \"" + key + "\"");
  std::size_t pos = skip_space(json, at + quoted.size());
  if (pos >= json.size() || json[pos] != ':')
    throw ContractViolation("JSON: expected ':' after \"" + key + "\"");
  pos = skip_space(json, pos + 1);
  if (pos >= json.size())
    throw ContractViolation("JSON: missing value for \"" + key + "\"");
  return pos;
}

/// Reads the unsigned integer at `pos` and moves `pos` past it.
std::uint64_t read_uint(const std::string& json, std::size_t& pos,
                        const std::string& key, std::uint64_t max) {
  std::uint64_t value = 0;
  const char* first = json.data() + pos;
  const auto [end, ec] =
      std::from_chars(first, json.data() + json.size(), value);
  pos += static_cast<std::size_t>(end - first);
  const char next = pos < json.size() ? json[pos] : '\0';
  if (end == first || ec != std::errc() || value > max || next == '.' ||
      next == 'e' || next == 'E')
    throw ContractViolation("JSON: \"" + key + "\" is not an integer in [0, " +
                            std::to_string(max) + "]");
  return value;
}

}  // namespace

std::string string_field(const std::string& json, const std::string& key) {
  std::size_t pos = find_key(json, key);
  if (json[pos] != '"')
    throw ContractViolation("JSON: \"" + key + "\" is not a string");
  const std::size_t end = json.find('"', pos + 1);
  if (end == std::string::npos)
    throw ContractViolation("JSON: unterminated string for \"" + key + "\"");
  const std::string value = json.substr(pos + 1, end - pos - 1);
  if (value.find('\\') != std::string::npos)
    throw ContractViolation("JSON: escapes unsupported in \"" + key + "\"");
  return value;
}

double number_field(const std::string& json, const std::string& key) {
  const std::size_t pos = find_key(json, key);
  std::size_t end = pos;
  while (end < json.size() &&
         (std::isdigit(static_cast<unsigned char>(json[end])) ||
          json[end] == '-' || json[end] == '+' || json[end] == '.' ||
          json[end] == 'e' || json[end] == 'E'))
    ++end;
  if (end == pos)
    throw ContractViolation("JSON: \"" + key + "\" is not a number");
  return std::stod(json.substr(pos, end - pos));
}

std::uint64_t uint_field(const std::string& json, const std::string& key,
                         std::uint64_t max) {
  std::size_t pos = find_key(json, key);
  return read_uint(json, pos, key, max);
}

std::vector<std::uint64_t> uint_array_field(const std::string& json,
                                            const std::string& key) {
  std::size_t pos = find_key(json, key);
  if (json[pos] != '[')
    throw ContractViolation("JSON: \"" + key + "\" is not an array");
  std::vector<std::uint64_t> out;
  do {
    pos = skip_space(json, pos + 1);
    out.push_back(read_uint(json, pos, key, UINT64_MAX));
    pos = skip_space(json, pos);
  } while (pos < json.size() && json[pos] == ',');
  if (pos >= json.size() || json[pos] != ']')
    throw ContractViolation("JSON: malformed array \"" + key + "\"");
  return out;
}

std::string object_field(const std::string& json, const std::string& key) {
  const std::size_t pos = find_key(json, key);
  if (json[pos] != '{')
    throw ContractViolation("JSON: \"" + key + "\" is not an object");
  const std::size_t end = json.find('}', pos);
  if (end == std::string::npos)
    throw ContractViolation("JSON: unterminated object \"" + key + "\"");
  return json.substr(pos, end - pos + 1);
}

std::string exact_number(double v) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  return os.str();
}

std::vector<std::string> string_array_field(const std::string& json,
                                            const std::string& key) {
  std::size_t pos = find_key(json, key);
  if (json[pos] != '[')
    throw ContractViolation("JSON: \"" + key + "\" is not an array");
  const std::size_t end = json.find(']', pos);
  if (end == std::string::npos)
    throw ContractViolation("JSON: unterminated array for \"" + key + "\"");
  std::vector<std::string> out;
  while (true) {
    const std::size_t open = json.find('"', pos);
    if (open == std::string::npos || open > end) break;
    const std::size_t close = json.find('"', open + 1);
    if (close == std::string::npos || close > end)
      throw ContractViolation("JSON: unterminated element in \"" + key +
                              "\"");
    out.push_back(json.substr(open + 1, close - open - 1));
    pos = close + 1;
  }
  return out;
}

}  // namespace ftmao::jsonmin
