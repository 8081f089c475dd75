// Tests for the certification barrage.

#include <gtest/gtest.h>

#include <string>

#include "cache/result_cache.hpp"
#include "common/contracts.hpp"
#include "sim/certify.hpp"

namespace ftmao {
namespace {

TEST(Certify, StandardSystemPasses) {
  CertifyOptions options;
  options.rounds = 1500;
  const CertificationReport report = certify_sbg(options);
  EXPECT_TRUE(report.passed);
  ASSERT_EQ(report.checks.size(), 10u);
  for (const auto& check : report.checks)
    EXPECT_TRUE(check.passed) << check.name << ": " << check.detail;
  EXPECT_EQ(report.checks[5].name, "async-consensus");
  EXPECT_EQ(report.checks[6].name, "async-optimality");
  EXPECT_EQ(report.checks[7].name, "vector-consensus");
  EXPECT_EQ(report.checks[8].name, "vector-optimality");
}

TEST(Certify, AsyncAndVectorSectionsCanBeDisabled) {
  CertifyOptions options;
  options.rounds = 300;
  options.async_rounds = 0;
  options.vector_rounds = 0;
  const CertificationReport report = certify_sbg(options);
  ASSERT_EQ(report.checks.size(), 6u);
  for (const auto& check : report.checks) {
    EXPECT_TRUE(check.name.find("async") == std::string::npos) << check.name;
    EXPECT_TRUE(check.name.find("vector") == std::string::npos) << check.name;
  }
}

TEST(Certify, TightResilienceBoundPasses) {
  CertifyOptions options;
  options.n = 4;
  options.f = 1;
  options.rounds = 2000;
  options.async_rounds = 0;   // the sync resilience edge is the subject here
  options.vector_rounds = 0;  // (vector/async sections have their own tests)
  const CertificationReport report = certify_sbg(options);
  EXPECT_TRUE(report.passed);
}

TEST(Certify, UnreasonableEpsilonFails) {
  CertifyOptions options;
  options.rounds = 50;            // far too short...
  options.consensus_eps = 1e-12;  // ...for an absurd acceptance threshold
  options.async_rounds = 0;
  options.vector_rounds = 0;
  const CertificationReport report = certify_sbg(options);
  EXPECT_FALSE(report.passed);
  // Specifically the consensus check must be the failure.
  EXPECT_FALSE(report.checks.front().passed);
}

TEST(Certify, RejectsBadResilience) {
  CertifyOptions options;
  options.n = 6;
  options.f = 2;
  EXPECT_THROW(certify_sbg(options), ContractViolation);
}

TEST(Certify, RefusesNonPositiveSpreadBeforeAnySection) {
  // The message names the field, and no section has asked the cache
  // for a run when it comes.
  for (double spread : {0.0, -1.0}) {
    ResultCache cache(CacheConfig{});
    CertifyOptions options;
    options.spread = spread;
    options.cache = &cache;
    try {
      certify_sbg(options);
      ADD_FAILURE() << "spread " << spread << ": accepted";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("spread"), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(cache.stats().hits + cache.stats().misses, 0u);
  }
}

TEST(Certify, Deterministic) {
  CertifyOptions options;
  options.rounds = 500;
  options.async_rounds = 200;
  options.vector_rounds = 200;
  const auto a = certify_sbg(options);
  const auto b = certify_sbg(options);
  ASSERT_EQ(a.checks.size(), b.checks.size());
  for (std::size_t i = 0; i < a.checks.size(); ++i)
    EXPECT_EQ(a.checks[i].detail, b.checks[i].detail);
}

}  // namespace
}  // namespace ftmao
