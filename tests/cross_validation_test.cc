// The central correctness property: on any input, MPP (worst case), MPPm,
// and the adaptive miner
//   (a) are COMPLETE up to the guarantee horizon l1 — they report exactly
//       the frequent patterns the pruning-free enumeration baseline
//       defines for lengths <= l1 (the paper: "MPP can only guarantee that
//       all frequent patterns of lengths <= n are discovered", and the
//       worst case clamps n to l1), and
//   (b) are SOUND at every length — everything they report is genuinely
//       frequent with an exact support.
// Beyond l1 the miners are best-effort, so enumeration may legitimately
// know more.

#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "core/miner.h"
#include "core/verifier.h"
#include "datagen/generators.h"
#include "datagen/planting.h"
#include "util/random.h"

namespace pgm {
namespace {

// (alphabet symbols, L, N, M, rho, seed)
using SweepParam =
    std::tuple<const char*, std::size_t, std::int64_t, std::int64_t, double,
               std::uint64_t>;

class CrossValidationSweep : public testing::TestWithParam<SweepParam> {};

std::map<std::string, std::uint64_t> ToMap(const MiningResult& result,
                                           std::size_t max_length = 0) {
  std::map<std::string, std::uint64_t> map;
  for (const FrequentPattern& fp : result.patterns) {
    if (max_length != 0 && fp.pattern.length() > max_length) continue;
    map[fp.pattern.ToShorthand()] = fp.support;
  }
  return map;
}

// Completeness up to `horizon` (against the enumeration reference, which
// must itself have been run at least that deep) + soundness at every
// length (against the independent DP verifier, so no enumeration of deep
// levels is ever needed).
void ExpectAgreement(const MiningResult& miner_result,
                     const MiningResult& enumeration_result,
                     std::size_t horizon, const Sequence& s,
                     const GapRequirement& gap, double rho,
                     const char* label) {
  EXPECT_EQ(ToMap(miner_result, horizon), ToMap(enumeration_result, horizon))
      << label << " disagrees with enumeration below the guarantee horizon";
  OffsetCounter counter(static_cast<std::int64_t>(s.size()), gap);
  for (const FrequentPattern& fp : miner_result.patterns) {
    const std::uint64_t direct = CountSupport(s, fp.pattern, gap)->count;
    EXPECT_EQ(direct, fp.support)
        << label << " support mismatch for " << fp.pattern.ToShorthand();
    const long double n_l =
        counter.Count(static_cast<std::int64_t>(fp.pattern.length()));
    EXPECT_GE(static_cast<long double>(direct),
              static_cast<long double>(rho) * n_l)
        << label << " reported a non-frequent pattern "
        << fp.pattern.ToShorthand();
  }
}

TEST_P(CrossValidationSweep, MinersCompleteToL1AndSoundEverywhere) {
  const auto [symbols, length, min_gap, max_gap, rho, seed] = GetParam();
  Alphabet alphabet = *Alphabet::Create(symbols);
  Rng rng(seed);
  Sequence s = *UniformRandomSequence(length, alphabet, rng);
  GapRequirement gap = *GapRequirement::Create(min_gap, max_gap);
  // Completeness is checked up to min(l1, 8): enumeration past |Σ|^8
  // patterns per level is intractable by design (that is the paper's whole
  // point), and the pruning behavior under test is fully exercised well
  // below it.
  const std::size_t horizon = std::min<std::size_t>(
      8, static_cast<std::size_t>(gap.MaxGuaranteedLength(length)));

  MinerConfig config;
  config.min_gap = min_gap;
  config.max_gap = max_gap;
  config.min_support_ratio = rho;
  config.start_length = 1;
  config.em_order = 2;

  MinerConfig enum_config = config;
  enum_config.max_length = static_cast<std::int64_t>(horizon);
  MiningResult reference = *MineEnumeration(s, enum_config);

  MinerConfig worst = config;
  worst.user_n = -1;
  ExpectAgreement(*MineMpp(s, worst), reference, horizon, s, gap, rho,
                  "MPP worst case");
  ExpectAgreement(*MineMppm(s, config), reference, horizon, s, gap, rho,
                  "MPPm");
  // The adaptive loop stops when the longest pattern found is covered by
  // its current n; frequent patterns longer than that final n can be
  // missed without triggering a refinement (the heuristic's documented
  // blind spot), so its horizon is n_used, not l1.
  MinerConfig adaptive = config;
  adaptive.initial_n = 2;
  MiningResult adaptive_result = *MineAdaptive(s, adaptive);
  ExpectAgreement(adaptive_result, reference,
                  std::min(horizon,
                           static_cast<std::size_t>(adaptive_result.n_used)),
                  s, gap, rho, "Adaptive");

  // The enumeration supports themselves are verified against the direct DP
  // counter.
  for (const FrequentPattern& fp : reference.patterns) {
    EXPECT_EQ(fp.support, CountSupport(s, fp.pattern, gap)->count)
        << fp.pattern.ToShorthand();
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomInputs, CrossValidationSweep,
    testing::Values(
        SweepParam{"ACGT", 40, 1, 2, 0.02, 1001},
        SweepParam{"ACGT", 60, 0, 1, 0.05, 1002},
        SweepParam{"ACGT", 60, 2, 4, 0.01, 1003},
        SweepParam{"ACGT", 80, 1, 3, 0.005, 1004},
        SweepParam{"AB", 50, 1, 2, 0.05, 1005},
        SweepParam{"AB", 70, 0, 2, 0.1, 1006},
        SweepParam{"ABC", 55, 2, 3, 0.02, 1007},
        SweepParam{"ACGT", 45, 3, 3, 0.01, 1008},   // rigid gap, W = 1
        SweepParam{"ACGT", 64, 0, 0, 0.02, 1009},   // adjacent characters
        SweepParam{"ACGT", 33, 5, 8, 0.02, 1010},   // wide gap, short seq
        SweepParam{"ACGT", 100, 2, 3, 0.008, 1011},
        SweepParam{"AB", 36, 4, 6, 0.03, 1012},
        SweepParam{"ABCDE", 48, 1, 2, 0.01, 1013},  // 5-letter alphabet
        SweepParam{"ACGT", 25, 0, 6, 0.05, 1014},   // gap wider than N
        SweepParam{"ACGT", 90, 1, 1, 0.015, 1015},  // rigid non-zero gap
        // W = 70 > 64: no bit-parallel window, so kAuto joins every pair
        // with the scalar kernel end to end.
        SweepParam{"AB", 300, 2, 71, 0.05, 1016}));

TEST(CrossValidationTest, PlantedRunInput) {
  // Dense planted structure (the hard case for pruning soundness: high
  // supports concentrated on few patterns).
  Rng rng(2001);
  Sequence s = *UniformRandomSequence(90, Alphabet::Dna(), rng);
  s = *PlantNoisyTandemRun(s, "AT", 10, 30, 0.95, rng);
  GapRequirement gap = *GapRequirement::Create(1, 3);
  const std::size_t horizon = std::min<std::size_t>(
      8, static_cast<std::size_t>(gap.MaxGuaranteedLength(90)));
  MinerConfig config;
  config.min_gap = 1;
  config.max_gap = 3;
  config.min_support_ratio = 0.002;
  config.start_length = 1;
  config.em_order = 3;
  MinerConfig enum_config = config;
  enum_config.max_length = static_cast<std::int64_t>(horizon);
  MiningResult reference = *MineEnumeration(s, enum_config);
  ExpectAgreement(*MineMppm(s, config), reference, horizon, s, gap,
                  config.min_support_ratio, "MPPm");
  MinerConfig worst = config;
  worst.user_n = -1;
  ExpectAgreement(*MineMpp(s, worst), reference, horizon, s, gap,
                  config.min_support_ratio, "MPP worst case");
}

TEST(CrossValidationTest, StartLengthThreeSubsetsAgree) {
  // With the paper's start_length = 3, the result must equal the
  // enumeration result restricted to lengths in [3, horizon].
  Rng rng(2002);
  Sequence s = *UniformRandomSequence(70, Alphabet::Dna(), rng);
  GapRequirement gap = *GapRequirement::Create(1, 2);
  const std::size_t horizon = std::min<std::size_t>(
      8, static_cast<std::size_t>(gap.MaxGuaranteedLength(70)));
  MinerConfig config;
  config.min_gap = 1;
  config.max_gap = 2;
  config.min_support_ratio = 0.01;
  config.start_length = 1;
  config.em_order = 2;
  config.max_length = static_cast<std::int64_t>(horizon);
  auto full = ToMap(*MineEnumeration(s, config), horizon);
  std::map<std::string, std::uint64_t> expected;
  for (const auto& [shorthand, support] : full) {
    if (shorthand.size() >= 3) expected[shorthand] = support;
  }
  MinerConfig from3 = config;
  from3.start_length = 3;
  from3.max_length = -1;
  EXPECT_EQ(ToMap(*MineMppm(s, from3), horizon), expected);
}

TEST(CrossValidationTest, ProteinAlphabetAgrees) {
  Rng rng(2003);
  Sequence s = *UniformRandomSequence(60, Alphabet::Protein(), rng);
  MinerConfig config;
  config.min_gap = 0;
  config.max_gap = 2;
  config.min_support_ratio = 0.002;
  config.start_length = 1;
  config.em_order = 2;
  config.max_length = 3;  // keep the 20^l enumeration tractable
  // Lengths 1..3 are far below l1 = 20 for L=60, so exact agreement holds.
  EXPECT_EQ(ToMap(*MineMppm(s, config)), ToMap(*MineEnumeration(s, config)));
}

}  // namespace
}  // namespace pgm
