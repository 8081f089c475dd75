#include "sim/shard_merge.hpp"

#include <map>
#include <set>
#include <sstream>

namespace ftmao {

namespace {

std::vector<std::string> csv_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

/// "7,2,1,split-brain,..." -> "7:2:1:split-brain" (empty on malformed
/// rows) — the first four CSV fields, matching cell_key().
std::string row_key(const std::string& line) {
  std::size_t pos = 0;
  for (int field = 0; field < 4; ++field) {
    pos = line.find(',', pos);
    if (pos == std::string::npos) return {};
    ++pos;
  }
  std::string key = line.substr(0, pos - 1);
  for (char& c : key)
    if (c == ',') c = ':';
  return key;
}

std::string shard_tag(const ShardManifest& m) {
  return "shard " + std::to_string(m.shard_index) + "/" +
         std::to_string(m.shard_count);
}

}  // namespace

MergeReport merge_shards(const std::vector<ShardArtifact>& shards) {
  MergeReport report;
  if (shards.empty()) {
    report.errors.push_back("no shard artifacts to merge");
    return report;
  }

  const ShardManifest& ref = shards.front().manifest;
  const GridSpec& grid = ref.grid;
  try {
    grid.validate();
  } catch (const std::exception& e) {
    report.errors.push_back("reference manifest does not describe a valid "
                            "grid: " +
                            std::string(e.what()));
    return report;
  }

  const std::vector<CellSpec> expected = sweep_cell_specs(grid);
  report.expected_cells = expected.size();

  std::map<std::string, std::string> rows;        // cell key -> CSV line
  std::map<std::string, std::string> row_source;  // cell key -> shard tag

  for (const ShardArtifact& artifact : shards) {
    const ShardManifest& m = artifact.manifest;
    const std::string tag = shard_tag(m);

    if (m.schema != ref.schema || m.shard_count != ref.shard_count ||
        m.grid != ref.grid) {
      report.errors.push_back(tag + ": manifest disagrees with the reference "
                                    "grid (mixing artifacts from different "
                                    "sweeps?)");
      continue;
    }
    if (m.git_rev != ref.git_rev) {
      report.errors.push_back(tag + ": built from git rev '" + m.git_rev +
                              "' but reference is '" + ref.git_rev +
                              "' (mixing binaries)");
      continue;
    }
    if (m.exit_status != 0) {
      report.errors.push_back(tag + ": artifact reports exit status " +
                              std::to_string(m.exit_status));
      continue;
    }

    // The manifest's claimed coverage must be exactly what the partition
    // assigns — a worker that ran the wrong cells is not mergeable.
    const std::vector<std::string> assigned =
        shard_cell_keys(grid, m.shard_index, m.shard_count);
    if (m.cells != assigned) {
      report.errors.push_back(tag + ": manifest cell list does not match the "
                                    "partition's assignment");
      continue;
    }
    const std::set<std::string> assigned_set(assigned.begin(), assigned.end());

    const std::vector<std::string> lines = csv_lines(artifact.csv);
    if (lines.empty() || lines.front() != sweep_csv_header()) {
      report.errors.push_back(tag + ": CSV missing or wrong header");
      continue;
    }
    std::set<std::string> seen;
    for (std::size_t i = 1; i < lines.size(); ++i) {
      const std::string key = row_key(lines[i]);
      if (key.empty()) {
        report.errors.push_back(tag + ": malformed CSV row '" + lines[i] +
                                "'");
        continue;
      }
      if (!assigned_set.count(key)) {
        report.errors.push_back(tag + ": row for cell " + key +
                                " which the partition does not assign to it");
        continue;
      }
      if (!seen.insert(key).second) {
        report.errors.push_back(tag + ": duplicate row for cell " + key);
        continue;
      }
      const auto [it, inserted] = rows.emplace(key, lines[i]);
      if (inserted) {
        row_source[key] = tag;
      } else if (it->second != lines[i]) {
        // Two workers covered the same cell and disagree: the determinism
        // contract (same cell + same seed => same bits on every machine,
        // backend, and thread count) is broken somewhere.
        report.errors.push_back("cell " + key + ": " + row_source[key] +
                                " and " + tag +
                                " produced different bits for the same cell");
      }
    }
    for (const std::string& key : assigned)
      if (!seen.count(key))
        report.errors.push_back(tag + ": CSV lacks a row for assigned cell " +
                                key);
  }

  std::ostringstream os;
  os << sweep_csv_header() << '\n';
  for (const CellSpec& cell : expected) {
    const std::string key = cell_key(cell);
    const auto it = rows.find(key);
    if (it == rows.end()) {
      report.missing_cells.push_back(key);
    } else {
      os << it->second << '\n';
      ++report.merged_cells;
    }
  }
  report.csv = os.str();
  return report;
}

}  // namespace ftmao
