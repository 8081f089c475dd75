#include "sim/grid_spec.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>

#include "common/contracts.hpp"
#include "common/json_min.hpp"
#include "sim/scenario_io.hpp"

namespace ftmao {

namespace {

[[noreturn]] void fail(const std::string& field, const std::string& why) {
  throw ContractViolation(field + ": " + why);
}

/// Splits on `sep`, keeping empty entries ("7:2," has two, the second
/// empty) so the parsers can refuse them.
std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  for (std::size_t start = 0;;) {
    const std::size_t end = text.find(sep, start);
    out.push_back(text.substr(start, end - start));
    if (end == std::string::npos) return out;
    start = end + 1;
  }
}

/// The whole of `text` as a T (a count or a double), or a throw.
template <typename T>
T parse_number(const std::string& text, const std::string& field) {
  T value{};
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (text.empty() || ec != std::errc() || end != last)
    fail(field, "'" + text + "' is not a valid number here");
  return value;
}

template <typename T>
bool has_repeats(std::vector<T> values) {
  std::sort(values.begin(), values.end());
  return std::adjacent_find(values.begin(), values.end()) != values.end();
}

template <typename T, typename Format>
std::string join(const std::vector<T>& values, Format format) {
  std::string out;
  for (const T& value : values)
    out += (out.empty() ? "" : ",") + format(value);
  return out;
}

std::string count_text(std::uint64_t n) { return std::to_string(n); }

}  // namespace

void GridSpec::validate() const {
  const std::size_t k = async_engine ? 5 : 3;
  if (sizes.empty() || has_repeats(sizes)) fail("sizes", "empty or repeated");
  for (const auto& [n, f] : sizes)
    if (n == 0 || f > (n - 1) / k)
      fail("sizes", format_sizes({{n, f}}) + " violates n > " +
                        std::to_string(k) + "f");
  if (dims.empty() || has_repeats(dims)) fail("dims", "empty or repeated");
  for (std::size_t d : dims)
    if (d == 0 || (async_engine && d != 1))
      fail("dims", std::to_string(d) + " is not a dimension of this engine");
  if (attacks.empty() || has_repeats(attacks))
    fail("attacks", "empty or repeated");
  if (seeds.empty() || has_repeats(seeds)) fail("seeds", "empty or repeated");
  if (rounds < 1) fail("rounds", "must be >= 1");
  if (!std::isfinite(spread) || spread <= 0)
    fail("spread", "must be finite and > 0");
  if (!std::isfinite(step.scale) || step.scale <= 0 ||
      !std::isfinite(step.exponent) ||
      (step.kind == StepKind::Power && step.exponent <= 0))
    fail("step", "needs a finite scale > 0 and exponent (> 0 for power)");
  if (!std::isfinite(delay_lo) || !std::isfinite(delay_hi))
    fail("delay", "bounds must be finite");
  const GridSpec defaults;
  if (!async_engine && (delay_kind != defaults.delay_kind ||
                        delay_lo != defaults.delay_lo ||
                        delay_hi != defaults.delay_hi))
    fail("delay", "the sync engine has no delays; give them an async grid");
  if (async_engine &&
      (delay_lo <= 0 ||
       (delay_kind == DelayKind::Uniform && delay_hi < delay_lo) ||
       (delay_kind == DelayKind::TargetedSlow &&
        delay_lo > AsyncScenario{}.slow_delay)))
    fail("delay", "needs 0 < delay_lo, <= delay_hi for the uniform model");
}

std::string format_sizes(
    const std::vector<std::pair<std::size_t, std::size_t>>& sizes) {
  return join(sizes, [](const std::pair<std::size_t, std::size_t>& s) {
    return count_text(s.first) + ":" + count_text(s.second);
  });
}

std::vector<std::pair<std::size_t, std::size_t>> parse_sizes(
    const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> sizes;
  for (const std::string& pair : split(text, ',')) {
    const std::vector<std::string> nf = split(pair, ':');
    if (nf.size() != 2)
      fail("sizes", "expected n:f pairs, got '" + pair + "'");
    sizes.emplace_back(parse_number<std::size_t>(nf[0], "sizes"),
                       parse_number<std::size_t>(nf[1], "sizes"));
  }
  return sizes;
}

std::string format_dims(const std::vector<std::size_t>& dims) {
  return join(dims, count_text);
}

std::vector<std::size_t> parse_dims(const std::string& text) {
  std::vector<std::size_t> dims;
  for (const std::string& token : split(text, ','))
    dims.push_back(parse_number<std::size_t>(token, "dims"));
  return dims;
}

std::string format_attacks(const std::vector<AttackKind>& attacks) {
  return join(attacks, attack_kind_name);
}

std::vector<AttackKind> parse_attacks(const std::string& text) {
  std::vector<AttackKind> attacks;
  for (const std::string& name : split(text, ','))
    attacks.push_back(parse_attack_kind(name));  // "unknown attack '...'"
  return attacks;
}

std::string format_seeds(const std::vector<std::uint64_t>& seeds) {
  return join(seeds, count_text);
}

std::string format_step(const StepConfig& step) {
  return step_kind_name(step.kind) + ':' + jsonmin::exact_number(step.scale) +
         ':' + jsonmin::exact_number(step.exponent);
}

StepConfig parse_step(const std::string& text) {
  const std::vector<std::string> parts = split(text, ':');
  if (parts.size() != 3)
    fail("step", "expected kind:scale:exponent, got '" + text + "'");
  return {parse_step_kind(parts[0]),  // "unknown step schedule '...'"
          parse_number<double>(parts[1], "step"),
          parse_number<double>(parts[2], "step")};
}

bool parse_engine(const std::string& name) {
  if (name != "sync" && name != "async")
    fail("engine", "expected sync|async, got '" + name + "'");
  return name == "async";
}

std::string grid_spec_to_json(const GridSpec& g) {
  std::ostringstream os;
  os << "{\n    \"sizes\": \"" << format_sizes(g.sizes) << "\",\n"
     << "    \"dims\": \"" << format_dims(g.dims) << "\",\n"
     << "    \"attacks\": \"" << format_attacks(g.attacks) << "\",\n"
     << "    \"seeds\": [" << format_seeds(g.seeds) << "],\n"
     << "    \"rounds\": " << g.rounds << ",\n"
     << "    \"spread\": " << jsonmin::exact_number(g.spread) << ",\n"
     << "    \"step\": \"" << format_step(g.step) << "\",\n"
     << "    \"engine\": \"" << (g.async_engine ? "async" : "sync") << "\",\n"
     << "    \"delay\": \"" << delay_kind_name(g.delay_kind) << "\",\n"
     << "    \"delay_lo\": " << jsonmin::exact_number(g.delay_lo) << ",\n"
     << "    \"delay_hi\": " << jsonmin::exact_number(g.delay_hi) << "\n  }";
  return os.str();
}

GridSpec grid_spec_from_json(const std::string& document) {
  using namespace jsonmin;
  const std::string json = object_field(document, "grid");
  GridSpec g;
  g.sizes = parse_sizes(string_field(json, "sizes"));
  g.dims = parse_dims(string_field(json, "dims"));
  g.attacks = parse_attacks(string_field(json, "attacks"));
  g.seeds = uint_array_field(json, "seeds");
  g.rounds = uint_field(json, "rounds");
  g.spread = number_field(json, "spread");
  g.step = parse_step(string_field(json, "step"));
  g.async_engine = parse_engine(string_field(json, "engine"));
  g.delay_kind = parse_delay_kind(string_field(json, "delay"));
  g.delay_lo = number_field(json, "delay_lo");
  g.delay_hi = number_field(json, "delay_hi");
  return g;
}

}  // namespace ftmao
