#include "core/em.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <tuple>

#include "datagen/generators.h"
#include "datagen/presets.h"
#include "util/random.h"

namespace pgm {
namespace {

TEST(EmTest, PaperTable2Exact) {
  Sequence s = *Sequence::FromString("ACGTCCGT", Alphabet::Dna());
  GapRequirement gap = *GapRequirement::Create(1, 2);
  EmResult result = *ComputeEm(s, gap, 2);
  EXPECT_EQ(result.k_values,
            (std::vector<std::uint64_t>{2, 1, 2, 1, 0, 0, 0, 0}));
  EXPECT_EQ(result.em, 2u);
  EXPECT_EQ(result.m, 2);
}

TEST(EmTest, RejectsNonPositiveM) {
  Sequence s = *Sequence::FromString("ACGT", Alphabet::Dna());
  GapRequirement gap = *GapRequirement::Create(1, 2);
  EXPECT_FALSE(ComputeEm(s, gap, 0).ok());
  EXPECT_FALSE(ComputeEm(s, gap, -3).ok());
}

TEST(EmTest, EmptySequence) {
  Sequence s = *Sequence::FromString("", Alphabet::Dna());
  GapRequirement gap = *GapRequirement::Create(1, 2);
  EmResult result = *ComputeEm(s, gap, 2);
  EXPECT_EQ(result.em, 0u);
  EXPECT_TRUE(result.k_values.empty());
}

TEST(EmTest, TooShortSequenceGivesZero) {
  // No complete length-(m+1) offset sequence fits: every K_r is 0.
  Sequence s = *Sequence::FromString("ACG", Alphabet::Dna());
  GapRequirement gap = *GapRequirement::Create(2, 3);
  EmResult result = *ComputeEm(s, gap, 2);
  EXPECT_EQ(result.em, 0u);
  for (std::uint64_t k : result.k_values) EXPECT_EQ(k, 0u);
}

TEST(EmTest, HomopolymerReachesWToTheM) {
  // In a long poly-A sequence every offset sequence spells the same string,
  // so K_r = W^m for positions with full room.
  Sequence s = *Sequence::FromString(std::string(60, 'A'), Alphabet::Dna());
  GapRequirement gap = *GapRequirement::Create(1, 3);  // W = 3
  EmResult result = *ComputeEm(s, gap, 3);
  EXPECT_EQ(result.em, 27u);  // 3^3
  EXPECT_EQ(result.k_values[0], 27u);
}

TEST(EmTest, KrDropsNearTheSequenceEnd) {
  Sequence s = *Sequence::FromString(std::string(20, 'A'), Alphabet::Dna());
  GapRequirement gap = *GapRequirement::Create(1, 3);
  EmResult result = *ComputeEm(s, gap, 2);
  // From position 19 nothing fits; from early positions all 9 fit.
  EXPECT_EQ(result.k_values[0], 9u);
  EXPECT_EQ(result.k_values[19], 0u);
  // Monotone decrease towards the end for homopolymers.
  for (std::size_t r = 1; r < s.size(); ++r) {
    EXPECT_LE(result.k_values[r], result.k_values[r - 1]);
  }
}

TEST(EmTest, AlternatingSequence) {
  // In (AT)^n with gap [1,1] (W = 1) there is exactly one offset sequence
  // per start, so K_r = 1 wherever one fits.
  Sequence s = *Sequence::FromString("ATATATATATAT", Alphabet::Dna());
  GapRequirement gap = *GapRequirement::Create(1, 1);
  EmResult result = *ComputeEm(s, gap, 3);
  EXPECT_EQ(result.em, 1u);
}

// Cross-validation against brute-force enumeration over random sequences.
class EmSweep : public testing::TestWithParam<
                    std::tuple<std::int64_t, std::int64_t, std::int64_t,
                               std::uint64_t>> {};

TEST_P(EmSweep, MatchesBruteForce) {
  const auto [N, M, m, seed] = GetParam();
  Rng rng(seed);
  GapRequirement gap = *GapRequirement::Create(N, M);
  Sequence s = *UniformRandomSequence(40, Alphabet::Dna(), rng);
  EmResult result = *ComputeEm(s, gap, m);
  std::uint64_t expected_em = 0;
  for (std::size_t r = 0; r < s.size(); ++r) {
    const std::uint64_t brute = BruteForceKr(s, gap, m, r);
    EXPECT_EQ(result.k_values[r], brute)
        << "r=" << r << " seq=" << s.ToString();
    expected_em = std::max(expected_em, brute);
  }
  EXPECT_EQ(result.em, expected_em);
  EXPECT_EQ(ComputeEmValue(s, gap, m)->em, expected_em);
}

INSTANTIATE_TEST_SUITE_P(
    RandomSequences, EmSweep,
    testing::Values(
        std::tuple<std::int64_t, std::int64_t, std::int64_t, std::uint64_t>{
            0, 1, 2, 11},
        std::tuple<std::int64_t, std::int64_t, std::int64_t, std::uint64_t>{
            1, 2, 3, 22},
        std::tuple<std::int64_t, std::int64_t, std::int64_t, std::uint64_t>{
            1, 3, 4, 33},
        std::tuple<std::int64_t, std::int64_t, std::int64_t, std::uint64_t>{
            2, 4, 3, 44},
        std::tuple<std::int64_t, std::int64_t, std::int64_t, std::uint64_t>{
            0, 3, 5, 55},
        std::tuple<std::int64_t, std::int64_t, std::int64_t, std::uint64_t>{
            3, 3, 4, 66},
        std::tuple<std::int64_t, std::int64_t, std::int64_t, std::uint64_t>{
            0, 4, 3, 77},
        std::tuple<std::int64_t, std::int64_t, std::int64_t, std::uint64_t>{
            2, 2, 6, 88}));

TEST(EmTest, RepetitiveSequenceCrossCheck) {
  // Noisy AT-repeat: exercises the branch-and-bound against multiplicity
  // merging (the case the naive "single path" prune got wrong).
  Sequence s = *Sequence::FromString("ATATATATCTATATATATGATATATATA",
                                     Alphabet::Dna());
  GapRequirement gap = *GapRequirement::Create(1, 3);
  const std::int64_t m = 4;
  EmResult result = *ComputeEm(s, gap, m);
  for (std::size_t r = 0; r < s.size(); ++r) {
    EXPECT_EQ(result.k_values[r], BruteForceKr(s, gap, m, r)) << "r=" << r;
  }
}

TEST(EmTest, ProteinAlphabet) {
  Sequence s = *Sequence::FromString("LWLWLWLWLWLW", Alphabet::Protein());
  GapRequirement gap = *GapRequirement::Create(1, 3);
  EmResult result = *ComputeEm(s, gap, 2);
  for (std::size_t r = 0; r < s.size(); ++r) {
    EXPECT_EQ(result.k_values[r], BruteForceKr(s, gap, 2, r)) << "r=" << r;
  }
}

// --- The max-only path (ComputeEmValue), checked against the profile. ---

TEST(EmValueTest, PaperTable2) {
  Sequence s = *Sequence::FromString("ACGTCCGT", Alphabet::Dna());
  GapRequirement gap = *GapRequirement::Create(1, 2);
  EmValue value = *ComputeEmValue(s, gap, 2);
  EXPECT_EQ(value.em, 2u);
  EXPECT_GE(value.starts_searched, 1u);
  EXPECT_LE(value.starts_searched, s.size());
}

TEST(EmValueTest, RejectsNonPositiveM) {
  Sequence s = *Sequence::FromString("ACGT", Alphabet::Dna());
  GapRequirement gap = *GapRequirement::Create(1, 2);
  for (std::int64_t m : {0, -1, -3}) {
    StatusOr<EmValue> value = ComputeEmValue(s, gap, m);
    ASSERT_FALSE(value.ok()) << "m=" << m;
    EXPECT_EQ(value.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(EmValueTest, EmptyAndTooShortInputsGiveZero) {
  GapRequirement gap = *GapRequirement::Create(2, 3);
  EmValue empty = *ComputeEmValue(
      *Sequence::FromString("", Alphabet::Dna()), gap, 2);
  EXPECT_EQ(empty.em, 0u);
  EXPECT_EQ(empty.starts_searched, 0u);
  // No complete length-(m+1) offset sequence fits, so every bound is 0 and
  // no start is searched.
  EmValue too_short = *ComputeEmValue(
      *Sequence::FromString("ACG", Alphabet::Dna()), gap, 2);
  EXPECT_EQ(too_short.em, 0u);
  EXPECT_EQ(too_short.starts_searched, 0u);
}

TEST(EmValueTest, SingleOffsetWindow) {
  // W = 1: one offset sequence per start, so e_m = 1 and the first start
  // with a full window settles it.
  Sequence s = *Sequence::FromString("ATGCATGCATGC", Alphabet::Dna());
  GapRequirement gap = *GapRequirement::Create(1, 1);
  EmValue value = *ComputeEmValue(s, gap, 3);
  EXPECT_EQ(value.em, 1u);
  EXPECT_EQ(value.em, ComputeEm(s, gap, 3)->em);
  EXPECT_EQ(value.starts_searched, 1u);
}

TEST(EmValueTest, SaturatingHomopolymerClampsAtMax) {
  // W = 64, m = 11: the start at 0 spells one string 64^11 = 2^66 ways, so
  // K_0 clamps at 2^64 - 1 and no other start can beat it.
  Sequence s = *Sequence::FromString(std::string(705, 'A'), Alphabet::Dna());
  GapRequirement gap = *GapRequirement::Create(0, 63);
  EmValue value = *ComputeEmValue(s, gap, 11);
  EXPECT_EQ(value.em, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(value.starts_searched, 1u);
}

TEST(EmValueTest, PrunesMostStartsOnASurrogateSegment) {
  Sequence genome = *MakeAx829174Surrogate();
  Sequence segment = genome.Subsequence(0, 2000);
  GapRequirement gap = *GapRequirement::Create(9, 12);
  EmValue value = *ComputeEmValue(segment, gap, 8);
  EXPECT_EQ(value.em, ComputeEm(segment, gap, 8)->em);
  EXPECT_LT(value.starts_searched, segment.size() / 10);
}

// Seeded sweep over random DNA and protein inputs: lengths 0-400, N 0-6,
// W 1-9, m 1-8. The full K_r profile is the oracle.
TEST(EmValueTest, MatchesProfileOnRandomSweep) {
  Rng rng(20260);
  constexpr int kConfigs = 240;
  for (int i = 0; i < kConfigs; ++i) {
    const bool protein = i % 2 == 1;
    const std::size_t length = rng.UniformInt(401);
    const std::int64_t N = static_cast<std::int64_t>(rng.UniformInt(7));
    const std::int64_t W = 1 + static_cast<std::int64_t>(rng.UniformInt(9));
    const std::int64_t m = 1 + static_cast<std::int64_t>(rng.UniformInt(8));
    GapRequirement gap = *GapRequirement::Create(N, N + W - 1);
    Sequence s = *UniformRandomSequence(
        length, protein ? Alphabet::Protein() : Alphabet::Dna(), rng);
    EmResult profile = *ComputeEm(s, gap, m);
    EmValue value = *ComputeEmValue(s, gap, m);
    SCOPED_TRACE(testing::Message()
                 << "config " << i << ": L=" << length << " N=" << N
                 << " W=" << W << " m=" << m << " protein=" << protein);
    EXPECT_EQ(value.em, profile.em);
    EXPECT_LE(value.starts_searched, s.size());
    // Every start whose K_r equals e_m has bound >= e_m, so at least one
    // search runs whenever e_m > 0.
    EXPECT_EQ(value.starts_searched == 0, profile.em == 0);
  }
}

}  // namespace
}  // namespace pgm
