// Degenerate-input saturation: a homopolymer with a wide gap window makes
// the number of matching offset sequences overflow 64 bits within a dozen
// levels. All four miners must clamp the count (FrequentPattern::saturated),
// keep support_ratio finite, and still terminate normally.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "core/miner.h"
#include "seq/sequence.h"
#include "util/saturating.h"

namespace pgm {
namespace {

Sequence Homopolymer(std::size_t length) {
  return *Sequence::FromString(std::string(length, 'A'), Alphabet::Dna());
}

MinerConfig SaturatingConfig() {
  MinerConfig config;
  // W = 81: support of A^l grows like L * 81^(l-1) and passes 2^64 around
  // l = 10, well inside the level budget below.
  config.min_gap = 0;
  config.max_gap = 80;
  config.min_support_ratio = 1e-12;
  config.start_length = 1;
  config.max_length = 12;
  return config;
}

void ExpectSaturatesCleanly(const MiningResult& result, const char* miner) {
  EXPECT_TRUE(result.complete()) << miner;
  ASSERT_FALSE(result.patterns.empty()) << miner;
  bool any_saturated = false;
  for (const FrequentPattern& fp : result.patterns) {
    // Only A^l can match a homopolymer.
    for (char c : fp.pattern.ToShorthand()) EXPECT_EQ(c, 'A') << miner;
    EXPECT_TRUE(std::isfinite(fp.support_ratio)) << miner;
    EXPECT_GE(fp.support_ratio, 0.0) << miner;
    EXPECT_LE(fp.support_ratio, 1.0) << miner;
    if (fp.saturated) {
      any_saturated = true;
      EXPECT_EQ(fp.support, kSaturatedCount) << miner;
    } else {
      EXPECT_LT(fp.support, kSaturatedCount) << miner;
    }
  }
  EXPECT_TRUE(any_saturated)
      << miner << ": expected at least one clamped support";
  EXPECT_EQ(result.longest_frequent_length, 12) << miner;
}

TEST(MinerSaturationTest, MppClampsSupport) {
  MiningResult result = *MineMpp(Homopolymer(300), SaturatingConfig());
  ExpectSaturatesCleanly(result, "mpp");
}

TEST(MinerSaturationTest, MppmClampsSupport) {
  MiningResult result = *MineMppm(Homopolymer(300), SaturatingConfig());
  ExpectSaturatesCleanly(result, "mppm");
}

TEST(MinerSaturationTest, EnumerationClampsSupport) {
  MiningResult result = *MineEnumeration(Homopolymer(300), SaturatingConfig());
  ExpectSaturatesCleanly(result, "enum");
}

TEST(MinerSaturationTest, AdaptiveClampsSupport) {
  MinerConfig config = SaturatingConfig();
  config.initial_n = 2;
  MiningResult result = *MineAdaptive(Homopolymer(300), config);
  ExpectSaturatesCleanly(result, "adaptive");
}

// |Σ|^l, the candidate count of a level that generates every pattern of its
// length: exact up to the clamp, kSaturatedCount from the first power past
// it on, never wrapped.
TEST(MinerSaturationTest, AnalyticCandidateCountSaturatesAtTheClamp) {
  using internal::AnalyticCandidateCount;
  EXPECT_EQ(AnalyticCandidateCount(4, 0), 1u);
  EXPECT_EQ(AnalyticCandidateCount(4, 1), 4u);
  EXPECT_EQ(AnalyticCandidateCount(4, 31), std::uint64_t{1} << 62);
  // 4^32 = 2^64 is one past the clamp.
  EXPECT_EQ(AnalyticCandidateCount(4, 32), kSaturatedCount);
  EXPECT_EQ(AnalyticCandidateCount(4, 200), kSaturatedCount);
  EXPECT_EQ(AnalyticCandidateCount(2, 63), std::uint64_t{1} << 63);
  EXPECT_EQ(AnalyticCandidateCount(2, 64), kSaturatedCount);
  // 20^14 < 2^64 < 20^15 (the protein alphabet).
  EXPECT_EQ(AnalyticCandidateCount(20, 14), 1638400000000000000ull);
  EXPECT_EQ(AnalyticCandidateCount(20, 15), kSaturatedCount);
  EXPECT_EQ(AnalyticCandidateCount(1, 1000), 1u);
}

// A run that opens at length 32 over DNA reports 4^32 = 2^64 first-level
// candidates as kSaturatedCount in every engine, on a completed run and on
// one whose first level trips the memory budget (MPPm's seed trip and
// enumeration's first build record the level themselves).
TEST(MinerSaturationTest, FirstLevelCandidateCountSaturatesInEveryEngine) {
  MinerConfig config;
  config.min_gap = 0;
  config.max_gap = 0;
  config.min_support_ratio = 0.5;
  config.start_length = 32;
  config.max_length = 33;
  config.initial_n = 2;
  const Sequence s = Homopolymer(40);
  for (const char* algorithm : {"mpp", "mppm", "enum", "adaptive"}) {
    SCOPED_TRACE(algorithm);
    MinerConfig completed = config;
    MiningResult result = *Mine(algorithm, s, completed);
    EXPECT_TRUE(result.complete());
    ASSERT_FALSE(result.level_stats.empty());
    EXPECT_EQ(result.level_stats.front().length, 32);
    EXPECT_EQ(result.level_stats.front().num_candidates, kSaturatedCount);

    MinerConfig tripped = config;
    tripped.limits.pil_memory_budget_bytes = 1;
    result = *Mine(algorithm, s, tripped);
    EXPECT_EQ(result.termination, TerminationReason::kMemoryBudget);
    ASSERT_FALSE(result.level_stats.empty());
    EXPECT_EQ(result.level_stats.front().length, 32);
    EXPECT_EQ(result.level_stats.front().num_candidates, kSaturatedCount);
  }
}

TEST(MinerSaturationTest, SaturatedFlagRoundsTripThroughLowerLevels) {
  // Shorter prefixes of the same run must not be flagged: the clamp applies
  // only where the count actually overflowed.
  MiningResult result = *MineMpp(Homopolymer(300), SaturatingConfig());
  for (const FrequentPattern& fp : result.patterns) {
    if (fp.pattern.length() <= 4) {
      EXPECT_FALSE(fp.saturated) << fp.pattern.ToShorthand();
    }
  }
}

}  // namespace
}  // namespace pgm
