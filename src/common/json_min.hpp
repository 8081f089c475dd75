#pragma once

// Minimal scan-based field extraction for the repo's *own* flat JSON
// documents — shard manifests (sim/shard.hpp), the fabric lease /
// completion / grid records (fabric/lease.hpp) and the flat "grid"
// object both embed (sim/grid_spec.hpp). Those codecs only ever read
// documents their matching writer produced (string values drawn from
// [A-Za-z0-9_:.,+-]), so a scanner is sufficient; it still validates
// everything it touches and throws ContractViolation on anything
// unexpected. Not a general JSON parser — escapes and nested
// same-named keys are out of scope by construction.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace ftmao::jsonmin {

/// The string value of `key` (no escape support — throws if one appears).
std::string string_field(const std::string& json, const std::string& key);

/// The numeric value of `key`.
double number_field(const std::string& json, const std::string& key);

/// The unsigned integer value of `key`, read exactly (not through a
/// double); a sign, fraction, exponent or value above `max` throws.
std::uint64_t uint_field(
    const std::string& json, const std::string& key,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// The elements of `key`'s array of unsigned integers, read likewise.
std::vector<std::uint64_t> uint_array_field(const std::string& json,
                                            const std::string& key);

/// The text of `key`'s flat object value, braces included.
std::string object_field(const std::string& json, const std::string& key);

/// `v` with max_digits10 digits, which number_field reads back bitwise.
std::string exact_number(double v);

/// The elements of `key`'s array of strings.
std::vector<std::string> string_array_field(const std::string& json,
                                            const std::string& key);

}  // namespace ftmao::jsonmin
