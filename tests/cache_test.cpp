// Content-addressed result cache: golden key stability, payload codec,
// LRU eviction, the persistent disk tier (including corrupt / truncated /
// mismatched records degrading to misses), and the end-to-end guarantee
// that cached sweep / certify / attack-search results are byte-identical
// cold vs warm vs mixed.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cache/cell_key.hpp"
#include "cache/result_cache.hpp"
#include "common/contracts.hpp"
#include "sim/attack_search.hpp"
#include "sim/certify.hpp"
#include "sim/sweep.hpp"

namespace ftmao {
namespace {

// --- helpers ----------------------------------------------------------

std::filesystem::path fresh_dir(const std::string& name) {
  const auto dir =
      std::filesystem::temp_directory_path() / ("ftmao_cache_test_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << bytes;
}

SweepConfig small_grid() {
  SweepConfig config;
  config.sizes = {{7, 2}, {10, 3}};
  config.dims = {1, 3};
  config.attacks = {AttackKind::SplitBrain, AttackKind::SignFlip};
  config.seeds = {1, 2, 3};
  config.rounds = 200;
  return config;
}

SweepConfig small_async_grid() {
  SweepConfig config;
  config.sizes = {{6, 1}, {11, 2}};
  config.attacks = {AttackKind::SplitBrain, AttackKind::PullToTarget};
  config.seeds = {1, 2};
  config.rounds = 200;
  config.async_engine = true;
  return config;
}

std::string sweep_csv(const SweepConfig& config) {
  return sweep_to_csv(run_sweep(config));
}

// A small certification: every section on, each a few rounds.
CertifyOptions small_certify() {
  CertifyOptions options;
  options.n = 4;
  options.f = 1;
  options.rounds = 30;
  options.async_n = 6;
  options.async_f = 1;
  options.async_rounds = 20;
  options.vector_dim = 2;
  options.vector_rounds = 20;
  return options;
}

std::string report_text(const CertificationReport& report) {
  std::string text = report.passed ? "CERTIFIED\n" : "FAILED\n";
  for (const CertifyCheck& check : report.checks)
    text += check.name + (check.passed ? " PASS " : " FAIL ") +
            check.detail + "\n";
  return text;
}

// The base of the small attack searches: its own attack is ignored.
Scenario small_search_base() {
  return make_standard_scenario(4, 1, 8.0, AttackKind::SplitBrain, 50, 1);
}

// small_search_base's scenario file with the attack reset, as the
// search's cache keys embed it.
const char* const kSmallSearchBaseFile =
    "# ftmao scenario\nn = 4\nf = 1\nfaulty = 3\nrounds = 50\nseed = 1\n"
    "attack = none\nattack.state_magnitude = 100\n"
    "attack.gradient_magnitude = 10\nattack.target = 0\n"
    "attack.amplification = 3\nattack.flip_period = 1\n"
    "attack.activation_round = 1\nattack.consistent = false\n"
    "step = harmonic\nstep.scale = 1\nstep.exponent = 0.75\n"
    "default.state = 0\ndefault.gradient = 0\ndrop_probability = 0\n"
    "function = huber(-4, 2, 1)\n"
    "function = logcosh(-1.3333333333333335, 1, 1.5)\n"
    "function = smoothabs(1.333333333333333, 0.5, 1)\n"
    "function = flathuber(3.5, 4.5, 2, 1)\n"
    "initial = -4, -1.3333333333333335, 1.333333333333333, 4\n";

std::string search_text(const AttackSearchResult& result) {
  std::ostringstream os;
  os << std::hexfloat << result.reference_state << ' ' << result.optima.lo()
     << ' ' << result.optima.hi() << '\n';
  for (const AttackOutcome& o : result.outcomes)
    os << o.name << ' ' << o.final_state << ' ' << o.bias << ' '
       << o.dist_to_y << ' ' << o.disagreement << '\n';
  return os.str();
}

// The record file names of a disk cache directory.
std::set<std::string> record_names(const std::filesystem::path& dir) {
  std::set<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    names.insert(entry.path().filename().string());
  return names;
}

// --- key golden values ------------------------------------------------
//
// These hashes pin the canonical spec grammar AND kEngineSchemaRev. If
// either changes deliberately, bump kEngineSchemaRev and re-pin; if this
// test fails without such a bump, stale cache entries would be served
// across a numeric change.

TEST(CellKey, GoldenHashesArePinned) {
  // Default-rev pin (currently rev 3: the exact vector optimum and the
  // grids' sleeping delayed strike) plus an explicit future-rev pin so
  // the grammar itself stays covered independently of the default.
  static_assert(kEngineSchemaRev == 3);
  EXPECT_EQ(make_cell_key("golden-spec-a").hex(),
            "98d6c23e5acf9884c0db568c834d1e7e");
  EXPECT_EQ(make_cell_key("golden-spec-a", 4).hex(),
            "2793b2cb7af26da76ff71af16f24c389");
}

TEST(CellKey, HexIs32LowercaseChars) {
  const std::string hex = make_cell_key("anything").hex();
  ASSERT_EQ(hex.size(), 32u);
  for (const char c : hex) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
  }
}

TEST(CellKey, SchemaRevisionSeparatesKeys) {
  const CellKey v1 = make_cell_key("spec", 1);
  const CellKey v2 = make_cell_key("spec", 2);
  EXPECT_FALSE(v1 == v2);
  EXPECT_NE(v1.spec, v2.spec);  // the rev is part of the identity, not
                                // just the hash
  EXPECT_NE(v1.hex(), v2.hex());
}

TEST(CellKey, SweepSpecGrammarIsPinned) {
  SweepConfig config;
  config.sizes = {{7, 2}};
  config.attacks = {AttackKind::SplitBrain};
  config.seeds = {1, 2, 3};
  config.rounds = 4000;
  const CellSpec cell{7, 2, 1, AttackKind::SplitBrain};
  const std::string spec = sweep_cell_cache_spec(config, cell);
  EXPECT_EQ(spec,
            "sweep;family=std-mixed;n=7;f=2;dim=1;attack=split-brain;"
            "spread=8;rounds=4000;step=harmonic:1:0.75;seeds=1,2,3;"
            "constraint=none;engine=sync");
  EXPECT_EQ(make_cell_key(spec).hex(), "54dde516299cab86386fac55a5f1c065");

  SweepConfig async_config = config;
  async_config.sizes = {{11, 2}};
  async_config.async_engine = true;
  const CellSpec async_cell{11, 2, 1, AttackKind::SplitBrain};
  const std::string async_spec =
      sweep_cell_cache_spec(async_config, async_cell);
  EXPECT_EQ(async_spec,
            "sweep;family=std-mixed;n=11;f=2;dim=1;attack=split-brain;"
            "spread=8;rounds=4000;step=harmonic:1:0.75;seeds=1,2,3;"
            "constraint=none;engine=async;delay=uniform:0.5:1.5");
  EXPECT_EQ(make_cell_key(async_spec).hex(),
            "194fa64065b406796779478049d81c88");
}

TEST(CellKey, CertifyAndAttackSearchSpecsArePinned) {
  // Cold runs against a disk cache write exactly the records these spec
  // strings name: a drift in either driver's key rendering would orphan
  // every cache written before it.
  const std::vector<std::string> attacks = {
      "none",         "silent",         "fixed", "split-brain",
      "hull-edge-up", "hull-edge-down", "noise", "sign-flip",
      "pull",         "flip-flop"};
  const auto certify_dir = fresh_dir("pinned_certify");
  ResultCache certify_cache{CacheConfig{certify_dir.string()}};
  CertifyOptions options = small_certify();
  options.cache = &certify_cache;
  certify_sbg(options);
  std::set<std::string> want;
  const auto expect_record = [&want](const std::string& spec) {
    want.insert(make_cell_key(spec).hex() + ".ftc");
  };
  for (const std::string& attack : attacks) {
    expect_record("certify-sync;family=std-mixed;n=4;f=1;dim=1;attack=" +
                  attack + ";spread=8;rounds=30;seed=1;constraint=none");
    expect_record("certify-async;family=std-mixed;n=6;f=1;dim=1;attack=" +
                  attack + ";spread=8;rounds=20;seed=1;constraint=none");
    expect_record("certify-vector;family=std-mixed;n=4;f=1;dim=2;attack=" +
                  attack + ";spread=8;rounds=20;seed=1;constraint=none");
  }
  expect_record(
      "certify-dgd;family=std-mixed;n=4;f=1;dim=1;attack=pull;spread=8;"
      "rounds=30;seed=1;constraint=none");
  EXPECT_EQ(record_names(certify_dir), want);

  const auto search_dir = fresh_dir("pinned_search");
  ResultCache search_cache{CacheConfig{search_dir.string()}};
  const std::vector<AttackCandidate> candidates = standard_attack_grid();
  find_strongest_attack(small_search_base(), candidates, 1, 0, false,
                        &search_cache);
  const std::set<std::string> records = record_names(search_dir);
  EXPECT_EQ(records.size(), candidates.size() + 1);
  const std::string base =
      std::string(";engine=sync;base=") + kSmallSearchBaseFile;
  EXPECT_TRUE(records.count(
      make_cell_key("attack-search-ref" + base).hex() + ".ftc"));
  EXPECT_TRUE(records.count(
      make_cell_key("attack-search" + base +
                    ";cand=kind=pull,smag=100,gmag=10,target=-10,amp=3,"
                    "flip=1,act=1,consistent=0")
          .hex() +
      ".ftc"));
}

TEST(CellKey, CanonDoubleRoundTripsShortest) {
  EXPECT_EQ(cache_canon_double(8.0), "8");
  EXPECT_EQ(cache_canon_double(0.75), "0.75");
  EXPECT_EQ(cache_canon_double(0.1), "0.1");
  // A value with no short decimal form keeps full round-trip precision.
  EXPECT_EQ(std::stod(cache_canon_double(1.0 / 3.0)), 1.0 / 3.0);
}

// --- payload codec ----------------------------------------------------

TEST(PayloadCodec, RoundTripsAllFieldTypes) {
  PayloadWriter writer;
  writer.put_u64(0);
  writer.put_u64(~0ull);
  writer.put_double(1.0 / 3.0);
  writer.put_double(-0.0);
  writer.put_bool(true);
  writer.put_bool(false);
  const std::string with_nul("hello\0world", 11);
  writer.put_string(with_nul);
  writer.put_string("");

  PayloadReader reader(writer.bytes());
  EXPECT_EQ(reader.get_u64(), 0u);
  EXPECT_EQ(reader.get_u64(), ~0ull);
  EXPECT_EQ(reader.get_double(), 1.0 / 3.0);
  const double neg_zero = reader.get_double();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));  // bit-exact, not value-equal
  EXPECT_TRUE(reader.get_bool());
  EXPECT_FALSE(reader.get_bool());
  EXPECT_EQ(reader.get_string(), with_nul);
  EXPECT_EQ(reader.get_string(), "");
  EXPECT_TRUE(reader.exhausted());
}

TEST(PayloadCodec, TruncationThrowsContractViolation) {
  PayloadWriter writer;
  writer.put_double(42.0);
  const std::string bytes = writer.bytes().substr(0, 4);
  PayloadReader reader(bytes);
  EXPECT_THROW(reader.get_double(), ContractViolation);

  const std::string nothing;
  PayloadReader empty(nothing);
  EXPECT_THROW(empty.get_u64(), ContractViolation);
}

TEST(PayloadCodec, ExhaustedDetectsTrailingGarbage) {
  PayloadWriter writer;
  writer.put_u64(7);
  writer.put_u64(8);
  PayloadReader reader(writer.bytes());
  reader.get_u64();
  EXPECT_FALSE(reader.exhausted());
  reader.get_u64();
  EXPECT_TRUE(reader.exhausted());
}

// --- in-memory tier ---------------------------------------------------

TEST(ResultCache, MemoryHitAndMissCounters) {
  ResultCache cache{CacheConfig{}};
  const CellKey key = make_cell_key("mem-spec");
  EXPECT_FALSE(cache.lookup(key).has_value());
  cache.insert(key, "payload");
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "payload");

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.disk_hits, 0u);
  EXPECT_EQ(stats.disk_errors, 0u);
  EXPECT_GT(stats.memory_bytes, 0u);
}

TEST(ResultCache, InsertIsIdempotent) {
  ResultCache cache{CacheConfig{}};
  const CellKey key = make_cell_key("idempotent");
  cache.insert(key, "v");
  cache.insert(key, "v");
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ResultCache, LruEvictionRespectsByteBudget) {
  CacheConfig config;
  config.max_memory_bytes = 4096;  // 256 bytes per shard
  ResultCache cache{std::move(config)};
  const std::string payload(100, 'x');
  for (int i = 0; i < 500; ++i) {
    cache.insert(make_cell_key("evict-spec-" + std::to_string(i)), payload);
  }
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.inserts, 500u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LT(stats.entries, 500u);
  EXPECT_EQ(stats.entries + stats.evictions, stats.inserts);
  // Each entry exceeds half a shard budget, yet the budget holds: the
  // just-inserted entry is never evicted, but everything older goes.
  EXPECT_LE(stats.memory_bytes, 16u * 256u);
}

// --- disk tier --------------------------------------------------------

TEST(ResultCache, DiskRoundTripAcrossInstances) {
  const auto dir = fresh_dir("roundtrip");
  const CellKey key = make_cell_key("disk-spec");

  {
    ResultCache writer{CacheConfig{dir.string(), 256 << 20}};
    writer.insert(key, "disk-payload");
  }

  ResultCache reader{CacheConfig{dir.string(), 256 << 20}};
  const auto hit = reader.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "disk-payload");
  const CacheStats stats = reader.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.disk_hits, 1u);
  EXPECT_EQ(stats.disk_errors, 0u);

  // Faulted in: a second lookup is served from memory.
  ASSERT_TRUE(reader.lookup(key).has_value());
  EXPECT_EQ(reader.stats().disk_hits, 1u);
}

TEST(ResultCache, RecordFileIsNamedByKeyHex) {
  const auto dir = fresh_dir("naming");
  const CellKey key = make_cell_key("named-spec");
  ResultCache cache{CacheConfig{dir.string(), 256 << 20}};
  cache.insert(key, "p");
  EXPECT_TRUE(std::filesystem::exists(dir / (key.hex() + ".ftc")));
}

TEST(ResultCache, AbsentRecordIsAPlainMiss) {
  const auto dir = fresh_dir("absent");
  ResultCache cache{CacheConfig{dir.string(), 256 << 20}};
  EXPECT_FALSE(cache.lookup(make_cell_key("never-stored")).has_value());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.disk_errors, 0u);  // missing != corrupt
}

TEST(ResultCache, CrossRevisionRecordIsAMiss) {
  const auto dir = fresh_dir("crossrev");
  {
    ResultCache cache{CacheConfig{dir.string(), 256 << 20}};
    cache.insert(make_cell_key("rev-spec", 1), "old-revision");
  }
  // A schema bump changes the spec ("rev=2;...") and therefore the key;
  // the old record is simply never addressed.
  ResultCache cache{CacheConfig{dir.string(), 256 << 20}};
  EXPECT_FALSE(cache.lookup(make_cell_key("rev-spec", 2)).has_value());
  EXPECT_EQ(cache.stats().disk_errors, 0u);
}

TEST(ResultCache, PreBumpDiskRecordIsAMissUnderCurrentDefault) {
  // The rev-1 → rev-2 bump (deterministic transcendental derivatives)
  // specifically: a disk tier populated before the bump serves nothing
  // to a post-bump binary, without a single disk error — stale results
  // age out silently rather than poisoning the new numerics.
  const auto dir = fresh_dir("prebump");
  const CellKey old_key = make_cell_key("prebump-spec", kEngineSchemaRev - 1);
  {
    ResultCache cache{CacheConfig{dir.string(), 256 << 20}};
    cache.insert(old_key, "pre-bump-bits");
  }
  ResultCache cache{CacheConfig{dir.string(), 256 << 20}};
  EXPECT_FALSE(cache.lookup(make_cell_key("prebump-spec")).has_value());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.disk_errors, 0u);
  // The old record itself is intact and still addressable by its own key.
  ASSERT_TRUE(cache.lookup(old_key).has_value());
}

TEST(ResultCache, TruncatedRecordIsAMissNotAnError) {
  const auto dir = fresh_dir("truncated");
  const CellKey key = make_cell_key("trunc-spec");
  {
    ResultCache cache{CacheConfig{dir.string(), 256 << 20}};
    cache.insert(key, "truncate-me");
  }
  const auto path = dir / (key.hex() + ".ftc");
  write_file(path, read_file(path).substr(0, 10));

  ResultCache cache{CacheConfig{dir.string(), 256 << 20}};
  EXPECT_FALSE(cache.lookup(key).has_value());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.disk_errors, 1u);
}

TEST(ResultCache, CorruptPayloadFailsChecksumAndMisses) {
  const auto dir = fresh_dir("corrupt");
  const CellKey key = make_cell_key("corrupt-spec");
  {
    ResultCache cache{CacheConfig{dir.string(), 256 << 20}};
    cache.insert(key, "corrupt-me-corrupt-me");
  }
  const auto path = dir / (key.hex() + ".ftc");
  std::string bytes = read_file(path);
  bytes[bytes.size() - 12] ^= 0x5a;  // flip a payload byte
  write_file(path, bytes);

  ResultCache cache{CacheConfig{dir.string(), 256 << 20}};
  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.stats().disk_errors, 1u);
}

TEST(ResultCache, WrongMagicIsAMiss) {
  const auto dir = fresh_dir("magic");
  const CellKey key = make_cell_key("magic-spec");
  {
    ResultCache cache{CacheConfig{dir.string(), 256 << 20}};
    cache.insert(key, "payload");
  }
  const auto path = dir / (key.hex() + ".ftc");
  std::string bytes = read_file(path);
  bytes[0] = 'X';
  write_file(path, bytes);

  ResultCache cache{CacheConfig{dir.string(), 256 << 20}};
  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.stats().disk_errors, 1u);
}

TEST(ResultCache, MismatchedKeyEchoIsAMiss) {
  // Simulate a hash collision / misplaced file: the record for key A
  // sits under key B's filename. The key echo inside the record must
  // reject it.
  const auto dir = fresh_dir("mismatch");
  const CellKey key_a = make_cell_key("mismatch-spec-a");
  const CellKey key_b = make_cell_key("mismatch-spec-b");
  {
    ResultCache cache{CacheConfig{dir.string(), 256 << 20}};
    cache.insert(key_a, "payload-a");
  }
  std::filesystem::copy_file(dir / (key_a.hex() + ".ftc"),
                             dir / (key_b.hex() + ".ftc"));

  ResultCache cache{CacheConfig{dir.string(), 256 << 20}};
  EXPECT_FALSE(cache.lookup(key_b).has_value());
  EXPECT_EQ(cache.stats().disk_errors, 1u);
}

TEST(ResultCache, StatsLineMentionsEveryCounter) {
  const std::string line = cache_stats_line(CacheStats{});
  for (const char* field : {"hits=", "misses=", "inserts=", "evictions=",
                            "mem_bytes=", "entries=", "disk_hits=",
                            "disk_errors="}) {
    EXPECT_NE(line.find(field), std::string::npos) << field;
  }
}

// --- cached sweep: byte-identical cold vs warm vs mixed ---------------

TEST(CachedSweep, ColdWarmMixedAreByteIdentical) {
  SweepConfig config = small_grid();
  const std::string reference = sweep_csv(config);  // no cache

  ResultCache cache{CacheConfig{}};
  config.cache = &cache;
  const std::string cold = sweep_csv(config);
  const CacheStats after_cold = cache.stats();
  EXPECT_EQ(after_cold.hits, 0u);
  EXPECT_GT(after_cold.inserts, 0u);

  const std::string warm = sweep_csv(config);
  const CacheStats after_warm = cache.stats();
  EXPECT_EQ(after_warm.hits, after_cold.inserts);  // every cell served
  EXPECT_EQ(after_warm.inserts, after_cold.inserts);

  // Mixed: a fresh cache pre-warmed with only a subset of the grid.
  ResultCache mixed_cache{CacheConfig{}};
  SweepConfig mixed_config = config;
  mixed_config.cache = &mixed_cache;
  const std::vector<CellSpec> all = sweep_cell_specs(mixed_config);
  const std::vector<CellSpec> subset(all.begin(),
                                     all.begin() + all.size() / 2);
  run_sweep_cells(mixed_config, subset);
  const std::string mixed = sweep_csv(mixed_config);
  EXPECT_GT(mixed_cache.stats().hits, 0u);

  EXPECT_EQ(cold, reference);
  EXPECT_EQ(warm, reference);
  EXPECT_EQ(mixed, reference);
}

TEST(CachedSweep, WarmHitsAreIdenticalAcrossThreadAndBatchKnobs) {
  SweepConfig config = small_grid();
  ResultCache cache{CacheConfig{}};
  config.cache = &cache;
  const std::string cold = sweep_csv(config);

  SweepConfig threaded = config;
  threaded.num_threads = 4;
  threaded.batch_size = 2;
  EXPECT_EQ(sweep_csv(threaded), cold);

  SweepConfig scalar = config;
  scalar.scalar_engine = true;
  EXPECT_EQ(sweep_csv(scalar), cold);
}

TEST(CachedSweep, AsyncEngineColdWarmAreByteIdentical) {
  SweepConfig config = small_async_grid();
  const std::string reference = sweep_csv(config);

  ResultCache cache{CacheConfig{}};
  config.cache = &cache;
  EXPECT_EQ(sweep_csv(config), reference);
  EXPECT_EQ(sweep_csv(config), reference);
  EXPECT_GT(cache.stats().hits, 0u);
}

TEST(CachedSweep, PoisonedDiskCacheStillByteIdentical) {
  const auto dir = fresh_dir("poisoned_sweep");
  SweepConfig config = small_grid();
  config.dims = {1};  // 2 sizes x 2 attacks = 4 cells; 2 get poisoned

  ResultCache cold_cache{CacheConfig{dir.string(), 256 << 20}};
  config.cache = &cold_cache;
  const std::string reference = sweep_csv(config);

  // Poison the directory: truncate one record, corrupt another, add junk.
  std::vector<std::filesystem::path> records;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    records.push_back(entry.path());
  }
  ASSERT_EQ(records.size(), 4u);
  write_file(records[0], read_file(records[0]).substr(0, 10));
  std::string bytes = read_file(records[1]);
  bytes[bytes.size() / 2] ^= 0xff;
  write_file(records[1], bytes);
  write_file(dir / "not-a-record.ftc", "garbage");

  ResultCache warm_cache{CacheConfig{dir.string(), 256 << 20}};
  config.cache = &warm_cache;
  EXPECT_EQ(sweep_csv(config), reference);
  const CacheStats stats = warm_cache.stats();
  EXPECT_EQ(stats.disk_errors, 2u);  // the junk file's key is never looked up
  EXPECT_EQ(stats.hits, 2u);    // the intact records still serve
  EXPECT_EQ(stats.misses, 2u);  // both poisoned cells recomputed
}

// --- cached certify ---------------------------------------------------

TEST(CachedCertify, ColdAndWarmReportsMatchUncached) {
  CertifyOptions options;
  options.rounds = 150;
  options.async_rounds = 100;
  options.vector_rounds = 100;
  options.vector_dim = 2;
  const CertificationReport reference = certify_sbg(options);

  ResultCache cache{CacheConfig{}};
  options.cache = &cache;
  const CertificationReport cold = certify_sbg(options);
  const CacheStats after_cold = cache.stats();
  EXPECT_GT(after_cold.inserts, 0u);

  const CertificationReport warm = certify_sbg(options);
  EXPECT_GT(cache.stats().hits, after_cold.hits);

  for (const CertificationReport* report : {&cold, &warm}) {
    EXPECT_EQ(report->passed, reference.passed);
    ASSERT_EQ(report->checks.size(), reference.checks.size());
    for (std::size_t i = 0; i < reference.checks.size(); ++i) {
      EXPECT_EQ(report->checks[i].name, reference.checks[i].name);
      EXPECT_EQ(report->checks[i].passed, reference.checks[i].passed);
      EXPECT_EQ(report->checks[i].detail, reference.checks[i].detail) << i;
    }
  }
}

// --- cached attack search ---------------------------------------------

TEST(CachedAttackSearch, ColdAndWarmMatchUncached) {
  const Scenario base = make_standard_scenario(7, 2, 8.0, AttackKind::None,
                                               300, 1);
  const std::vector<AttackCandidate> candidates = standard_attack_grid();
  const AttackSearchResult reference =
      find_strongest_attack(base, candidates);

  ResultCache cache{CacheConfig{}};
  const AttackSearchResult cold =
      find_strongest_attack(base, candidates, 1, 0, false, &cache);
  const CacheStats after_cold = cache.stats();
  EXPECT_EQ(after_cold.inserts, candidates.size() + 1);  // + reference run

  const AttackSearchResult warm =
      find_strongest_attack(base, candidates, 1, 0, false, &cache);
  EXPECT_EQ(cache.stats().hits, candidates.size() + 1);

  for (const AttackSearchResult* result : {&cold, &warm}) {
    EXPECT_EQ(result->reference_state, reference.reference_state);
    EXPECT_EQ(result->optima.lo(), reference.optima.lo());
    EXPECT_EQ(result->optima.hi(), reference.optima.hi());
    ASSERT_EQ(result->outcomes.size(), reference.outcomes.size());
    for (std::size_t i = 0; i < reference.outcomes.size(); ++i) {
      EXPECT_EQ(result->outcomes[i].name, reference.outcomes[i].name);
      EXPECT_EQ(result->outcomes[i].final_state,
                reference.outcomes[i].final_state);
      EXPECT_EQ(result->outcomes[i].bias, reference.outcomes[i].bias);
      EXPECT_EQ(result->outcomes[i].dist_to_y,
                reference.outcomes[i].dist_to_y);
      EXPECT_EQ(result->outcomes[i].disagreement,
                reference.outcomes[i].disagreement);
    }
  }
}

TEST(CachedAttackSearch, AsyncColdAndWarmMatchUncached) {
  const AsyncScenario base =
      make_standard_async_scenario(11, 2, 8.0, AttackKind::None, 200, 1);
  const std::vector<AttackCandidate> candidates = standard_attack_grid();
  const AttackSearchResult reference =
      find_strongest_attack_async(base, candidates);

  ResultCache cache{CacheConfig{}};
  const AttackSearchResult cold =
      find_strongest_attack_async(base, candidates, 1, 0, false, &cache);
  const AttackSearchResult warm =
      find_strongest_attack_async(base, candidates, 1, 0, false, &cache);
  EXPECT_GT(cache.stats().hits, 0u);

  for (const AttackSearchResult* result : {&cold, &warm}) {
    EXPECT_EQ(result->reference_state, reference.reference_state);
    ASSERT_EQ(result->outcomes.size(), reference.outcomes.size());
    for (std::size_t i = 0; i < reference.outcomes.size(); ++i) {
      EXPECT_EQ(result->outcomes[i].name, reference.outcomes[i].name);
      EXPECT_EQ(result->outcomes[i].final_state,
                reference.outcomes[i].final_state);
      EXPECT_EQ(result->outcomes[i].bias, reference.outcomes[i].bias);
    }
  }
}

// --- undecodable payloads ---------------------------------------------

// A payload that passes the record checksum but not the driver's decode
// is recomputed, and must not stay: run(cache) renders a driver's output
// against a disk cache whose record under `key` is spoil(good), where
// good is what a cold run stores there. The output equals the uncached
// one, the run counts the spoiled record as a miss, not a hit, and
// afterwards `key` holds good, in memory and on disk.
void expect_undecodable_payload_replaced(
    const std::string& name, const CellKey& key,
    const std::function<std::string(const std::string&)>& spoil,
    const std::function<std::string(ResultCache*)>& run) {
  SCOPED_TRACE(name);
  const std::string uncached = run(nullptr);
  ResultCache cold{CacheConfig{fresh_dir(name + "_cold").string()}};
  ASSERT_EQ(run(&cold), uncached);
  const std::uint64_t cold_misses = cold.stats().misses;
  const std::optional<std::string> good = cold.lookup(key);
  ASSERT_TRUE(good.has_value()) << "no record under " << key.spec;

  const auto dir = fresh_dir(name + "_spoiled");
  ResultCache{CacheConfig{dir.string()}}.insert(key, spoil(*good));
  ResultCache cache{CacheConfig{dir.string()}};
  EXPECT_EQ(run(&cache), uncached);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, cold_misses);
  EXPECT_EQ(cache.lookup(key), good) << "in memory";
  EXPECT_EQ(ResultCache{CacheConfig{dir.string()}}.lookup(key), good)
      << "on disk";
}

TEST(CachedDrivers, UndecodablePayloadIsReplaced) {
  SweepConfig sweep = small_grid();
  sweep.dims = {1};
  const std::size_t num_seeds = sweep.seeds.size();
  expect_undecodable_payload_replaced(
      "sweep",
      make_cell_key(sweep_cell_cache_spec(sweep, sweep_cell_specs(sweep)[0])),
      [num_seeds](const std::string&) {
        // Well formed, but for one seed fewer than the grid has.
        PayloadWriter writer;
        writer.put_u64(num_seeds - 1);
        for (std::size_t i = 0; i < 2 * (num_seeds - 1); ++i)
          writer.put_double(0.5);
        return writer.bytes();
      },
      [sweep](ResultCache* cache) {
        SweepConfig config = sweep;
        config.cache = cache;
        return sweep_csv(config);
      });

  expect_undecodable_payload_replaced(
      "certify",
      make_cell_key("certify-async;family=std-mixed;n=6;f=1;dim=1;"
                    "attack=split-brain;spread=8;rounds=20;seed=1;"
                    "constraint=none"),
      [](const std::string& good) { return good + '\0'; },
      [](ResultCache* cache) {
        CertifyOptions options = small_certify();
        options.cache = cache;
        return report_text(certify_sbg(options));
      });

  expect_undecodable_payload_replaced(
      "search",
      make_cell_key(std::string("attack-search-ref;engine=sync;base=") +
                    kSmallSearchBaseFile),
      [](const std::string& good) {
        return good.substr(0, good.size() - 1);
      },
      [](ResultCache* cache) {
        return search_text(find_strongest_attack(
            small_search_base(), standard_attack_grid(), 1, 0, false,
            cache));
      });
}

}  // namespace
}  // namespace ftmao
