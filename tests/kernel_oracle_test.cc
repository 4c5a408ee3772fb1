// Randomized kernel-oracle campaign: 200 seeded (gap, prefix PIL, suffix
// group) configurations run through CombinePair, suffix by suffix, under both
// implementations and cross-checked row-for-row against
// PartialIndexList::Combine + TotalSupport — the heap-backed reference the
// whole PIL layer is defined by. The window-width schedule pins the bitset
// kernel's boundary cases (W = 1, 63, 64, and a 65 that must fall back to
// scalar) and the PIL shapes force every internal path: dense spans (bitmap
// fast path), sparse spans (density-guard fallback), saturated and
// near-clamp counts (exactness fallback), and empty lists. A small-window
// sweep with counts a step below the clamp, an exhaustive small-case
// sweep, the exactness boundary at the support clamp and the ResolveKernel
// dispatch rules round out the suite. Runs under both
// sanitizer presets via the robustness/concurrency labels.

#include "core/kernel.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/gap.h"
#include "core/pil.h"
#include "util/random.h"
#include "util/saturating.h"

namespace pgm {
namespace {

// Every implementation the host can run: scalar always (the dispatch path
// to the oracle itself), avx2 when compiled in and supported.
std::vector<KernelImpl> TiersUnderTest() {
  std::vector<KernelImpl> tiers = {KernelImpl::kScalar};
  if (Avx2Available()) tiers.push_back(KernelImpl::kAvx2);
  return tiers;
}

const char* TierName(KernelImpl impl) { return KernelImplToString(impl); }

// PIL shape classes; the draw weights skew toward the bitmap fast path
// while keeping every fallback lane in the campaign.
enum class PilShape { kDense, kMedium, kSparse, kHugeCounts, kSaturated };

std::vector<PilEntry> RandomPil(Rng& rng, PilShape shape) {
  const std::size_t len = static_cast<std::size_t>(rng.UniformRange(0, 120));
  std::vector<PilEntry> rows;
  rows.reserve(len);
  std::uint32_t pos = static_cast<std::uint32_t>(rng.UniformInt(1 << 16));
  for (std::size_t i = 0; i < len; ++i) {
    std::uint32_t step = 0;
    switch (shape) {
      case PilShape::kDense:
        step = static_cast<std::uint32_t>(rng.UniformRange(1, 3));
        break;
      case PilShape::kMedium:
        step = static_cast<std::uint32_t>(rng.UniformRange(1, 40));
        break;
      case PilShape::kSparse:
        // Spans of ~millions of positions over ~100 rows overflow the
        // density guard (words > 4 * (|prefix| + |suffix|) + 64), sending
        // the pair to the scalar kernel.
        step = static_cast<std::uint32_t>(rng.UniformRange(1, 60000));
        break;
      case PilShape::kHugeCounts:
      case PilShape::kSaturated:
        step = static_cast<std::uint32_t>(rng.UniformRange(1, 10));
        break;
    }
    pos += step;
    std::uint64_t count = 0;
    switch (shape) {
      case PilShape::kHugeCounts:
        // A handful of these sum past kSaturatedCount, so the bitset
        // kernel refuses the pair (its uint64 prefix sums would clamp
        // differently than the oracle's 128-bit window).
        count = std::uint64_t{1} << (40 + rng.UniformInt(23));
        break;
      case PilShape::kSaturated:
        count = rng.Bernoulli(0.2) ? kSaturatedCount
                                   : 1 + rng.UniformInt(100);
        break;
      default:
        count = 1 + static_cast<std::uint64_t>(rng.UniformInt(1000));
        break;
    }
    rows.push_back(PilEntry{pos, count});
  }
  return rows;
}

PilShape DrawShape(Rng& rng) {
  const std::int64_t roll = rng.UniformInt(10);
  if (roll < 4) return PilShape::kDense;
  if (roll < 7) return PilShape::kMedium;
  if (roll < 8) return PilShape::kSparse;
  if (roll < 9) return PilShape::kHugeCounts;
  return PilShape::kSaturated;
}

// Runs one prefix against every suffix of a group through CombinePair
// under `impl`, one pair at a time as the level join does (one scratch
// across the group), and checks every candidate's rows and support
// byte-for-byte against the heap oracle.
void CheckGroupAgainstOracle(const std::vector<PilEntry>& prefix,
                             const std::vector<std::vector<PilEntry>>& group,
                             const GapRequirement& gap, KernelImpl impl,
                             KernelScratch& scratch) {
  SCOPED_TRACE(std::string("tier=") + TierName(impl));
  const PartialIndexList prefix_pil =
      PartialIndexList::FromEntries(prefix);
  for (std::size_t i = 0; i < group.size(); ++i) {
    SCOPED_TRACE("suffix " + std::to_string(i));
    // Combine emits at most one row per prefix row; the slice is exactly
    // that long, so a kernel overrunning it writes past the vector (ASan
    // patrols the redzone).
    std::vector<PilEntry> out(prefix.size());
    const PairResult result =
        CombinePair(impl, prefix, group[i], gap, out.data(), scratch);
    const PartialIndexList expected = PartialIndexList::Combine(
        prefix_pil, PartialIndexList::FromEntries(group[i]), gap);
    const SupportInfo expected_support = expected.TotalSupport();
    ASSERT_EQ(result.len, expected.size());
    for (std::size_t r = 0; r < expected.size(); ++r) {
      ASSERT_EQ(out[r], expected.entries()[r])
          << "row " << r << " diverged from the oracle";
    }
    EXPECT_EQ(result.support.count, expected_support.count);
    EXPECT_EQ(result.support.saturated, expected_support.saturated);
  }
}

TEST(KernelOracleSweep, RandomizedConfigsMatchOracleAcrossTiers) {
  constexpr std::size_t kNumConfigs = 200;
  const std::vector<KernelImpl> tiers = TiersUnderTest();
  Rng rng(0xC0FFEE0DDBA11ull);
  KernelScratch scratch;
  for (std::size_t c = 0; c < kNumConfigs; ++c) {
    // Boundary schedule first — W = 64 is the widest mask a word holds,
    // W = 65 the narrowest window the bitset kernel must refuse (and fall
    // back to scalar on) — then uniform over the bitset kernel's whole
    // domain.
    std::int64_t width = 0;
    switch (c) {
      case 0: width = 1; break;
      case 1: width = 63; break;
      case 2: width = 64; break;
      case 3: width = 65; break;
      default: width = rng.UniformRange(1, 64); break;
    }
    const std::int64_t min_gap = rng.UniformRange(0, 12);
    const GapRequirement gap =
        *GapRequirement::Create(min_gap, min_gap + width - 1);
    SCOPED_TRACE("config " + std::to_string(c) + " gap=[" +
                 std::to_string(min_gap) + "," +
                 std::to_string(min_gap + width - 1) + "]");

    const std::vector<PilEntry> prefix = RandomPil(rng, DrawShape(rng));
    const std::size_t group_size =
        static_cast<std::size_t>(rng.UniformRange(1, 6));
    std::vector<std::vector<PilEntry>> group;
    group.reserve(group_size);
    for (std::size_t i = 0; i < group_size; ++i) {
      group.push_back(RandomPil(rng, DrawShape(rng)));
    }

    for (KernelImpl impl : tiers) {
      CheckGroupAgainstOracle(prefix, group, gap, impl, scratch);
    }
  }
}

// Small windows (W = 1..4, min gap 0..3) over short, tightly packed PILs
// whose counts, every third round, sit within two of the clamp a fifth of
// the time. Two such rows in one window sum past 2^64 - 1 without either
// being saturated, the case WindowSum's exact 128-bit sum exists for; the
// bitset kernel must refuse those pairs and the scalar loop reproduce the
// oracle's clamped rows.
TEST(KernelOracleSweep, SmallWindowsNearClampCountsMatchOracleAcrossTiers) {
  const std::vector<KernelImpl> tiers = TiersUnderTest();
  Rng rng(0xa11ce5);
  KernelScratch scratch;
  auto random_entries = [&rng](bool near_clamp) {
    const std::size_t len = rng.UniformInt(49);
    std::vector<PilEntry> entries;
    entries.reserve(len);
    std::uint32_t pos = static_cast<std::uint32_t>(rng.UniformInt(4));
    for (std::size_t i = 0; i < len; ++i) {
      const std::uint64_t count = near_clamp && rng.Bernoulli(0.2)
                                      ? kSaturatedCount - rng.UniformInt(3)
                                      : 1 + rng.UniformInt(1000);
      entries.push_back(PilEntry{pos, count});
      pos += static_cast<std::uint32_t>(1 + rng.UniformInt(4));
    }
    return entries;
  };
  for (int round = 0; round < 100; ++round) {
    const std::int64_t min_gap = rng.UniformRange(0, 3);
    const std::int64_t max_gap = min_gap + rng.UniformRange(0, 3);
    const GapRequirement gap = *GapRequirement::Create(min_gap, max_gap);
    SCOPED_TRACE("round " + std::to_string(round));
    const bool near_clamp = (round % 3) == 0;
    const std::vector<PilEntry> prefix = random_entries(near_clamp);
    std::vector<std::vector<PilEntry>> group(1 + rng.UniformInt(5));
    for (std::vector<PilEntry>& suffix : group) {
      suffix = random_entries(near_clamp);
    }
    for (KernelImpl impl : tiers) {
      CheckGroupAgainstOracle(prefix, group, gap, impl, scratch);
    }
  }
}

// Exhaustive sweep over tiny inputs: every subset of positions {0..6} as
// prefix, the full 128-subset powerset as one suffix group, at several
// small windows. Small cases are where off-by-ones live (empty windows,
// window clipping at either end, bit 0 / bit 63 extraction).
TEST(KernelOracleSweep, ExhaustiveSmallCasesMatchOracleAcrossTiers) {
  const std::vector<KernelImpl> tiers = TiersUnderTest();
  KernelScratch scratch;
  constexpr std::uint32_t kPositions = 7;
  constexpr std::uint32_t kMasks = 1u << kPositions;

  auto from_mask = [](std::uint32_t mask) {
    std::vector<PilEntry> rows;
    for (std::uint32_t p = 0; p < kPositions; ++p) {
      if (mask & (1u << p)) rows.push_back(PilEntry{p, 1});
    }
    return rows;
  };

  std::vector<std::vector<PilEntry>> group;
  group.reserve(kMasks);
  for (std::uint32_t mask = 0; mask < kMasks; ++mask) {
    group.push_back(from_mask(mask));
  }

  for (std::int64_t min_gap : {0, 1, 2}) {
    for (std::int64_t width : {1, 2, 3}) {
      const GapRequirement gap =
          *GapRequirement::Create(min_gap, min_gap + width - 1);
      SCOPED_TRACE("gap=[" + std::to_string(min_gap) + "," +
                   std::to_string(min_gap + width - 1) + "]");
      for (std::uint32_t pmask = 0; pmask < kMasks; ++pmask) {
        const std::vector<PilEntry> prefix = from_mask(pmask);
        for (KernelImpl impl : tiers) {
          CheckGroupAgainstOracle(prefix, group, gap, impl, scratch);
          if (testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

// The exactness boundary the bitset kernel decides in its suffix pass: a
// suffix whose counts sum to 2^64 - 2 is exact and takes the bitset path;
// 2^64 - 1 (the clamp), a sum that overflows only at its last row, and a
// kSaturatedCount row first, last or alone are refused (kPairNotExact) and
// reproduced by CombinePair's scalar loop. Every case matches the oracle
// under both tiers.
TEST(KernelOracleBoundary, SuffixMassAtTheClampMatchesOracle) {
  constexpr std::uint64_t kQuarter = std::uint64_t{1} << 62;
  struct Case {
    const char* name;
    std::vector<std::uint64_t> counts;
    bool exact;
  };
  const std::vector<Case> cases = {
      {"sum 2^64-2", {kQuarter, kQuarter, kQuarter, kQuarter - 2}, true},
      {"sum 2^64-1", {kQuarter, kQuarter, kQuarter, kQuarter - 1}, false},
      {"overflow at the last row", {kQuarter, kQuarter, kQuarter, kQuarter},
       false},
      {"saturated first", {kSaturatedCount, 1, 2, 3}, false},
      {"saturated last", {1, 2, 3, kSaturatedCount}, false},
      {"saturated alone", {kSaturatedCount}, false},
  };
  // W = 4: prefix row x's window is [x + 1, x + 4], so the windows of
  // prefix rows 0..3 slide over the suffix rows at 1..4 (row 0 sees all of
  // them), and rows 4..7 see fewer.
  const GapRequirement gap = *GapRequirement::Create(0, 3);
  std::vector<PilEntry> prefix;
  for (std::uint32_t pos = 0; pos < 8; ++pos) prefix.push_back({pos, 1});
  KernelScratch scratch;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<PilEntry> suffix;
    for (std::size_t i = 0; i < c.counts.size(); ++i) {
      suffix.push_back({static_cast<std::uint32_t>(i + 1), c.counts[i]});
    }
    for (KernelTier tier : {KernelTier::kAuto, KernelTier::kScalar}) {
      CheckGroupAgainstOracle(prefix, {suffix}, gap, ResolveKernel(tier, gap),
                              scratch);
    }
    if (!Avx2Available()) continue;
    // The bitset kernel itself: refuses exactly the inexact sums, and
    // writes no output row when it does.
    const std::uint64_t shift = 1;
    const std::uint64_t wbits = 4;
    const std::uint64_t base = 0;
    const std::uint64_t words =
        ((prefix.back().pos + shift + wbits - 1) >> 6) + 1;
    std::vector<std::uint64_t> bitmap(words + 1);
    std::vector<std::uint64_t> rank(words + 1);
    std::vector<std::uint64_t> cum(suffix.size() + 1);
    std::vector<PilEntry> out(prefix.size(), PilEntry{0, 0});
    unsigned __int128 support_sum = 0;
    const std::size_t len = internal::Avx2PairKernel()(
        prefix.data(), prefix.size(), suffix.data(), suffix.size(), shift,
        wbits, base, words, bitmap.data(), rank.data(), cum.data(),
        out.data(), &support_sum);
    EXPECT_EQ(len != internal::kPairNotExact, c.exact);
    if (!c.exact) {
      EXPECT_EQ(out, std::vector<PilEntry>(prefix.size(), PilEntry{0, 0}));
    }
  }
}

// An empty side joins to nothing under either tier: CombinePair reports no
// rows and a zero, unsaturated support, and leaves the output slice as it
// found it.
TEST(KernelOracleBoundary, EmptySideWritesNoRowsAcrossTiers) {
  const GapRequirement gap = *GapRequirement::Create(1, 3);
  const std::vector<PilEntry> rows = {{0, 1}, {2, 5}, {3, 1}, {5, 7}};
  const std::vector<PilEntry> none;
  const PilEntry sentinel{77, 99};
  KernelScratch scratch;
  for (KernelImpl impl : TiersUnderTest()) {
    SCOPED_TRACE(std::string("tier=") + TierName(impl));
    for (bool empty_prefix : {true, false}) {
      SCOPED_TRACE(empty_prefix ? "empty prefix" : "empty suffix");
      const std::vector<PilEntry>& prefix = empty_prefix ? none : rows;
      const std::vector<PilEntry>& suffix = empty_prefix ? rows : none;
      std::vector<PilEntry> out(rows.size(), sentinel);
      const PairResult result =
          CombinePair(impl, prefix, suffix, gap, out.data(), scratch);
      EXPECT_EQ(result.len, 0u);
      EXPECT_EQ(result.support.count, 0u);
      EXPECT_FALSE(result.support.saturated);
      EXPECT_EQ(out, std::vector<PilEntry>(rows.size(), sentinel));
    }
  }
}

TEST(KernelDispatch, ResolveKernelFollowsTierAndWindowRules) {
  const GapRequirement narrow = *GapRequirement::Create(9, 12);    // W = 4
  const GapRequirement w64 = *GapRequirement::Create(0, 63);      // W = 64
  const GapRequirement w65 = *GapRequirement::Create(0, 64);      // W = 65

  // Scalar is always scalar.
  for (const GapRequirement* gap : {&narrow, &w64, &w65}) {
    EXPECT_EQ(ResolveKernel(KernelTier::kScalar, *gap), KernelImpl::kScalar);
  }
  // Auto takes the AVX2 bitset kernel exactly when the window fits one
  // 64-bit mask and the CPU has AVX2; W > 64 has no bit-parallel
  // representation and runs scalar rather than failing.
  const KernelImpl fits =
      Avx2Available() ? KernelImpl::kAvx2 : KernelImpl::kScalar;
  EXPECT_EQ(ResolveKernel(KernelTier::kAuto, narrow), fits);
  EXPECT_EQ(ResolveKernel(KernelTier::kAuto, w64), fits);
  EXPECT_EQ(ResolveKernel(KernelTier::kAuto, w65), KernelImpl::kScalar);
}

TEST(KernelDispatch, TierStringsRoundTrip) {
  for (KernelTier tier : {KernelTier::kAuto, KernelTier::kScalar}) {
    KernelTier parsed = KernelTier::kAuto;
    ASSERT_TRUE(KernelTierFromString(KernelTierToString(tier), &parsed));
    EXPECT_EQ(parsed, tier);
  }
  KernelTier parsed = KernelTier::kAuto;
  EXPECT_FALSE(KernelTierFromString("sse9", &parsed));
  EXPECT_FALSE(KernelTierFromString("", &parsed));
  EXPECT_FALSE(KernelTierFromString("bits", &parsed));
  EXPECT_STREQ(KernelImplToString(KernelImpl::kScalar), "scalar");
  EXPECT_STREQ(KernelImplToString(KernelImpl::kAvx2), "avx2");
}

}  // namespace
}  // namespace pgm
