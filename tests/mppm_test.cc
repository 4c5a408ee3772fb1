#include <gtest/gtest.h>

#include <set>

#include "core/em.h"
#include "core/miner.h"
#include "datagen/generators.h"
#include "datagen/planting.h"
#include "datagen/presets.h"
#include "util/random.h"

namespace pgm {
namespace {

Sequence RandomSeq(std::size_t length, std::uint64_t seed) {
  Rng rng(seed);
  return *UniformRandomSequence(length, Alphabet::Dna(), rng);
}

MinerConfig BaseConfig() {
  MinerConfig config;
  config.min_gap = 1;
  config.max_gap = 3;
  config.min_support_ratio = 0.01;
  config.start_length = 1;
  config.em_order = 3;
  return config;
}

TEST(MppmTest, FindsSameFrequentPatternsAsWorstCaseMpp) {
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    Sequence s = RandomSeq(100, seed);
    MinerConfig config = BaseConfig();
    MiningResult mppm = *MineMppm(s, config);
    MinerConfig worst = config;
    worst.user_n = -1;
    MiningResult mpp = *MineMpp(s, worst);
    ASSERT_EQ(mppm.patterns.size(), mpp.patterns.size()) << "seed " << seed;
    for (std::size_t i = 0; i < mppm.patterns.size(); ++i) {
      EXPECT_TRUE(mppm.patterns[i].pattern == mpp.patterns[i].pattern);
      EXPECT_EQ(mppm.patterns[i].support, mpp.patterns[i].support);
    }
  }
}

TEST(MppmTest, RecordsEmAndEstimate) {
  Sequence s = RandomSeq(100, 31);
  MinerConfig config = BaseConfig();
  MiningResult result = *MineMppm(s, config);
  GapRequirement gap = *GapRequirement::Create(1, 3);
  EmResult em = *ComputeEm(s, gap, config.em_order);
  EXPECT_EQ(result.em, em.em);
  EXPECT_GE(result.estimated_n, config.start_length);
  EXPECT_LE(result.estimated_n, gap.MaxGuaranteedLength(100));
  EXPECT_EQ(result.n_used, result.estimated_n);
  EXPECT_GE(result.em_seconds, 0.0);
  EXPECT_GE(result.total_seconds, result.em_seconds);
}

TEST(MppmTest, EmMatchesFullProfileOnSurrogateSegment) {
  // MineMppm takes the max-only e_m path; the per-position profile is the
  // oracle for its value at the Section 6 gap and order.
  Sequence segment = MakeAx829174Surrogate()->Subsequence(0, 2000);
  MinerConfig config;
  config.min_gap = 9;
  config.max_gap = 12;
  config.min_support_ratio = 0.005;
  config.start_length = 3;
  config.em_order = 10;
  MiningResult result = *MineMppm(segment, config);
  GapRequirement gap = *GapRequirement::Create(9, 12);
  EXPECT_EQ(result.em, ComputeEm(segment, gap, config.em_order)->em);
  EXPECT_GT(result.em, 0u);
}

TEST(MppmTest, EstimateCoversLongestFrequentPattern) {
  // The estimate n is an upper bound on the longest frequent pattern
  // length — otherwise MPPm could miss patterns (Theorem 2 soundness).
  for (std::uint64_t seed : {41u, 42u, 43u, 44u}) {
    Sequence s = RandomSeq(150, seed);
    MiningResult result = *MineMppm(s, BaseConfig());
    EXPECT_GE(result.estimated_n, result.longest_frequent_length)
        << "seed " << seed;
  }
}

TEST(MppmTest, EstimateCoversPlantedPattern) {
  // Plant a dense run so long patterns are genuinely frequent, then check
  // the estimate still covers them.
  Sequence s = RandomSeq(200, 51);
  Rng rng(52);
  s = *PlantNoisyTandemRun(s, "A", 50, 60, 1.0, rng);
  MinerConfig config = BaseConfig();
  config.min_support_ratio = 0.0005;
  MiningResult result = *MineMppm(s, config);
  EXPECT_GT(result.longest_frequent_length, 4);
  EXPECT_GE(result.estimated_n, result.longest_frequent_length);
}

TEST(MppmTest, EmBoundTightensTheEstimate) {
  Sequence s = RandomSeq(150, 61);
  MinerConfig with_em = BaseConfig();
  with_em.use_em_bound = true;
  MinerConfig without_em = BaseConfig();
  without_em.use_em_bound = false;
  MiningResult tight = *MineMppm(s, with_em);
  MiningResult loose = *MineMppm(s, without_em);
  // Theorem 2's factor is >= Theorem 1's, so the estimate can only shrink.
  EXPECT_LE(tight.estimated_n, loose.estimated_n);
  // Both must still find the same frequent patterns.
  EXPECT_EQ(tight.patterns.size(), loose.patterns.size());
}

TEST(MppmTest, LooseBoundDegeneratesTowardL1OnRandomData) {
  Sequence s = RandomSeq(150, 71);
  MinerConfig config = BaseConfig();
  config.use_em_bound = false;
  MiningResult result = *MineMppm(s, config);
  GapRequirement gap = *GapRequirement::Create(1, 3);
  // Without the e_m tightening, λ alone decays so slowly that the scan
  // accepts a very large k on random data.
  EXPECT_GT(result.estimated_n, gap.MaxGuaranteedLength(150) / 2);
}

TEST(MppmTest, ShortSequenceWithZeroEm) {
  // Sequence too short for any complete (m+1)-window: e_m = 0, and mining
  // still returns a sound (possibly empty) result.
  Sequence s = *Sequence::FromString("ACGTA", Alphabet::Dna());
  MinerConfig config = BaseConfig();
  config.em_order = 10;
  config.min_support_ratio = 0.5;
  StatusOr<MiningResult> result = MineMppm(s, config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->em, 0u);
}

TEST(MppmTest, CandidateCountsNeverExceedWorstCase) {
  Sequence s = RandomSeq(200, 81);
  MinerConfig config = BaseConfig();
  config.min_support_ratio = 0.003;
  MiningResult mppm = *MineMppm(s, config);
  MinerConfig worst = config;
  worst.user_n = -1;
  MiningResult mpp = *MineMpp(s, worst);
  EXPECT_LE(mppm.total_candidates, mpp.total_candidates);
}

}  // namespace
}  // namespace pgm
