#include "sim/shard.hpp"

#include <limits>
#include <sstream>

#include "common/contracts.hpp"
#include "common/json_min.hpp"
#include "sim/scenario_io.hpp"

#ifndef FTMAO_GIT_REV
#define FTMAO_GIT_REV "unknown"
#endif

namespace ftmao {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_mix_u64(std::uint64_t& h, std::uint64_t v) {
  // Little-endian byte order by construction (not by host endianness), so
  // the assignment is identical across machines.
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
}

void fnv_mix_str(std::uint64_t& h, const std::string& s) {
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
}

}  // namespace

std::size_t shard_of_cell(const CellSpec& cell, std::size_t shard_count) {
  FTMAO_EXPECTS(shard_count >= 1);
  std::uint64_t h = kFnvOffset;
  fnv_mix_u64(h, static_cast<std::uint64_t>(cell.n));
  fnv_mix_u64(h, static_cast<std::uint64_t>(cell.f));
  // Scalar cells (dim 1, the historical grid) keep their pre-dim-axis
  // assignment: only vector cells mix the dimension in.
  if (cell.dim != 1) fnv_mix_u64(h, static_cast<std::uint64_t>(cell.dim));
  fnv_mix_str(h, attack_kind_name(cell.attack));
  // FNV-1a avalanches poorly on short inputs (adjacent cells land in the
  // same residue class for small moduli), so finalize with the splitmix64
  // mixer before reducing — grids of a few cells then spread across
  // shards instead of clumping.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return static_cast<std::size_t>(h % shard_count);
}

std::vector<CellSpec> shard_cell_specs(const GridSpec& grid,
                                       std::size_t shard_index,
                                       std::size_t shard_count) {
  FTMAO_EXPECTS(shard_index < shard_count);
  std::vector<CellSpec> mine;
  for (const CellSpec& cell : sweep_cell_specs(grid))
    if (shard_of_cell(cell, shard_count) == shard_index) mine.push_back(cell);
  return mine;
}

std::vector<SweepCell> run_sweep_shard(const SweepConfig& config,
                                       std::size_t shard_index,
                                       std::size_t shard_count) {
  return run_sweep_cells(config,
                         shard_cell_specs(config, shard_index, shard_count));
}

std::string cell_key(const CellSpec& cell) {
  std::ostringstream os;
  os << cell.n << ':' << cell.f << ':' << cell.dim << ':'
     << attack_kind_name(cell.attack);
  return os.str();
}

std::vector<std::string> shard_cell_keys(const GridSpec& grid,
                                         std::size_t shard_index,
                                         std::size_t shard_count) {
  std::vector<std::string> keys;
  for (const CellSpec& cell : shard_cell_specs(grid, shard_index, shard_count))
    keys.push_back(cell_key(cell));
  return keys;
}

std::string manifest_to_json(const ShardManifest& m) {
  std::ostringstream os;
  os << "{\n"
     << "  \"schema\": " << m.schema << ",\n"
     << "  \"shard_index\": " << m.shard_index << ",\n"
     << "  \"shard_count\": " << m.shard_count << ",\n"
     << "  \"grid\": " << grid_spec_to_json(m.grid) << ",\n"
     << "  \"cells\": [";
  for (std::size_t i = 0; i < m.cells.size(); ++i) {
    if (i) os << ", ";
    os << '"' << m.cells[i] << '"';
  }
  os << "],\n"
     << "  \"git_rev\": \"" << m.git_rev << "\",\n"
     << "  \"isa\": \"" << m.isa << "\",\n"
     << "  \"wall_ms\": " << jsonmin::exact_number(m.wall_ms) << ",\n"
     << "  \"exit_status\": " << m.exit_status << "\n"
     << "}\n";
  return os.str();
}

ShardManifest manifest_from_json(const std::string& json) {
  using namespace jsonmin;
  constexpr std::uint64_t kIntMax = std::numeric_limits<int>::max();
  ShardManifest m;
  m.schema = static_cast<int>(uint_field(json, "schema", kIntMax));
  if (m.schema != 2)
    throw ContractViolation("manifest JSON: unsupported schema " +
                            std::to_string(m.schema));
  m.shard_index = uint_field(json, "shard_index");
  m.shard_count = uint_field(json, "shard_count");
  m.grid = grid_spec_from_json(json);
  m.cells = string_array_field(json, "cells");
  m.git_rev = string_field(json, "git_rev");
  m.isa = string_field(json, "isa");
  m.wall_ms = number_field(json, "wall_ms");
  m.exit_status = static_cast<int>(uint_field(json, "exit_status", kIntMax));
  if (m.shard_index >= m.shard_count)
    throw ContractViolation("manifest JSON: shard_index >= shard_count");
  return m;
}

std::string build_git_revision() { return FTMAO_GIT_REV; }

}  // namespace ftmao
