// Model-level invariants checked on randomized inputs — properties that
// must hold for ANY correct implementation of the paper's model, derived
// from the definitions rather than from our code.

#include <gtest/gtest.h>

#include <iterator>
#include <string_view>
#include <vector>

#include "core/miner.h"
#include "core/offset_counter.h"
#include "core/verifier.h"
#include "datagen/generators.h"
#include "util/random.h"

namespace pgm {
namespace {

Pattern RandomPattern(Rng& rng, std::size_t length, const Alphabet& alphabet) {
  std::vector<Symbol> symbols;
  for (std::size_t i = 0; i < length; ++i) {
    symbols.push_back(static_cast<Symbol>(rng.UniformInt(alphabet.size())));
  }
  return *Pattern::FromSymbols(std::move(symbols), alphabet);
}

// sup(P) <= N_l: every matching offset sequence is an offset sequence.
TEST(ModelPropertyTest, SupportNeverExceedsOffsetSequenceCount) {
  Rng rng(9001);
  GapRequirement gap = *GapRequirement::Create(1, 3);
  for (int trial = 0; trial < 25; ++trial) {
    Sequence s = *UniformRandomSequence(50, Alphabet::Dna(), rng);
    OffsetCounter counter(50, gap);
    const std::size_t length = 1 + rng.UniformInt(6);
    Pattern p = RandomPattern(rng, length, Alphabet::Dna());
    const std::uint64_t support = CountSupport(s, p, gap)->count;
    EXPECT_LE(static_cast<long double>(support),
              counter.Count(static_cast<std::int64_t>(length)) + 0.5L)
        << p.ToShorthand();
  }
}

// Summing sup(P) over all length-l patterns gives exactly N_l: every
// offset sequence spells exactly one pattern.
TEST(ModelPropertyTest, SupportsPartitionOffsetSequences) {
  Rng rng(9002);
  GapRequirement gap = *GapRequirement::Create(2, 4);
  Sequence s = *UniformRandomSequence(40, Alphabet::Dna(), rng);
  OffsetCounter counter(40, gap);
  for (std::size_t l = 1; l <= 3; ++l) {
    unsigned __int128 total = 0;
    // Base-4 odometer in a fixed-size buffer: a heap vector here makes
    // GCC's -Wstringop-overflow invent an out-of-bounds write on a path
    // it cannot prove dead.
    Symbol digits[3] = {0, 0, 0};
    ASSERT_LE(l, std::size(digits));
    while (true) {
      std::vector<Symbol> symbols(digits, digits + l);
      Pattern p = *Pattern::FromSymbols(std::move(symbols), Alphabet::Dna());
      total += CountSupport(s, p, gap)->count;
      std::size_t pos = 0;
      for (; pos < l; ++pos) {
        if (++digits[pos] != 4) break;
        digits[pos] = 0;
      }
      if (pos == l) break;
    }
    EXPECT_EQ(static_cast<std::uint64_t>(total),
              static_cast<std::uint64_t>(
                  counter.Count(static_cast<std::int64_t>(l)) + 0.5L))
        << "l=" << l;
  }
}

// Reversal symmetry: sup(P in S) == sup(reverse(P) in reverse(S)). Offset
// sequences map bijectively under position reversal.
TEST(ModelPropertyTest, ReversalSymmetry) {
  Rng rng(9003);
  GapRequirement gap = *GapRequirement::Create(1, 4);
  for (int trial = 0; trial < 25; ++trial) {
    Sequence s = *UniformRandomSequence(45, Alphabet::Dna(), rng);
    const std::size_t length = 1 + rng.UniformInt(5);
    Pattern p = RandomPattern(rng, length, Alphabet::Dna());
    std::vector<Symbol> reversed_symbols(p.symbols().rbegin(),
                                         p.symbols().rend());
    Pattern reversed = *Pattern::FromSymbols(reversed_symbols, Alphabet::Dna());
    EXPECT_EQ(CountSupport(s, p, gap)->count,
              CountSupport(s.Reversed(), reversed, gap)->count)
        << p.ToShorthand();
  }
}

// Extending the subject sequence can only add matches.
TEST(ModelPropertyTest, SupportMonotoneUnderSequenceExtension) {
  Rng rng(9004);
  GapRequirement gap = *GapRequirement::Create(1, 3);
  Sequence full = *UniformRandomSequence(80, Alphabet::Dna(), rng);
  for (int trial = 0; trial < 15; ++trial) {
    const std::size_t length = 2 + rng.UniformInt(4);
    Pattern p = RandomPattern(rng, length, Alphabet::Dna());
    std::uint64_t previous = 0;
    for (std::size_t prefix_len : {20u, 40u, 60u, 80u}) {
      const std::uint64_t support =
          CountSupport(full.Subsequence(0, prefix_len), p, gap)->count;
      EXPECT_GE(support, previous) << p.ToShorthand() << " L=" << prefix_len;
      previous = support;
    }
  }
}

// Raising ρs can only shrink the result, and the two results agree on
// the shared patterns.
TEST(ModelPropertyTest, ResultMonotoneInThreshold) {
  Rng rng(9005);
  Sequence s = *UniformRandomSequence(100, Alphabet::Dna(), rng);
  MinerConfig low;
  low.min_gap = 1;
  low.max_gap = 3;
  low.min_support_ratio = 0.005;
  low.start_length = 1;
  MinerConfig high = low;
  high.min_support_ratio = 0.02;
  MiningResult low_result = *MineMpp(s, low);
  MiningResult high_result = *MineMpp(s, high);
  EXPECT_GE(low_result.patterns.size(), high_result.patterns.size());
  std::map<std::string, std::uint64_t> low_map;
  for (const FrequentPattern& fp : low_result.patterns) {
    low_map[fp.pattern.ToShorthand()] = fp.support;
  }
  for (const FrequentPattern& fp : high_result.patterns) {
    auto it = low_map.find(fp.pattern.ToShorthand());
    ASSERT_TRUE(it != low_map.end()) << fp.pattern.ToShorthand();
    EXPECT_EQ(it->second, fp.support);
  }
}

// Full determinism: identical inputs give bit-identical results.
TEST(ModelPropertyTest, MinersAreDeterministic) {
  Rng rng(9006);
  Sequence s = *UniformRandomSequence(90, Alphabet::Dna(), rng);
  MinerConfig config;
  config.min_gap = 1;
  config.max_gap = 3;
  config.min_support_ratio = 0.01;
  config.start_length = 2;
  config.em_order = 3;
  MiningResult a = *MineMppm(s, config);
  MiningResult b = *MineMppm(s, config);
  ASSERT_EQ(a.patterns.size(), b.patterns.size());
  for (std::size_t i = 0; i < a.patterns.size(); ++i) {
    EXPECT_TRUE(a.patterns[i].pattern == b.patterns[i].pattern);
    EXPECT_EQ(a.patterns[i].support, b.patterns[i].support);
  }
  EXPECT_EQ(a.estimated_n, b.estimated_n);
  EXPECT_EQ(a.em, b.em);
  EXPECT_EQ(a.total_candidates, b.total_candidates);
}

// The result order: length first, then symbols in alphabet order; strict,
// so a pattern is never ordered before itself.
TEST(ModelPropertyTest, PatternOrderLessOrdersByLengthThenSymbols) {
  auto frequent = [](std::string_view shorthand) {
    FrequentPattern fp;
    fp.pattern = *Pattern::Parse(shorthand, Alphabet::Dna());
    return fp;
  };
  const std::vector<FrequentPattern> ordered = {
      frequent("T"), frequent("AA"), frequent("AC"), frequent("CA"),
      frequent("TT"), frequent("AAA")};
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    for (std::size_t j = 0; j < ordered.size(); ++j) {
      EXPECT_EQ(PatternOrderLess(ordered[i], ordered[j]), i < j)
          << ordered[i].pattern.ToShorthand() << " vs "
          << ordered[j].pattern.ToShorthand();
    }
  }
}

// Every engine returns its patterns strictly increasing under
// PatternOrderLess: sorted, with no pattern reported twice.
TEST(ModelPropertyTest, EveryEngineReturnsPatternsInPatternOrder) {
  Rng rng(9007);
  Sequence s = *UniformRandomSequence(120, Alphabet::Dna(), rng);
  MinerConfig config;
  config.min_gap = 1;
  config.max_gap = 3;
  config.min_support_ratio = 0.01;
  config.start_length = 1;
  config.max_length = 6;
  config.em_order = 2;
  config.initial_n = 2;
  for (const char* algorithm : {"mpp", "mppm", "enum", "adaptive"}) {
    SCOPED_TRACE(algorithm);
    MiningResult result = *Mine(algorithm, s, config);
    ASSERT_GT(result.patterns.size(), 1u);
    EXPECT_LT(result.patterns.front().pattern.length(),
              result.patterns.back().pattern.length())
        << "the run must report more than one length";
    for (std::size_t i = 1; i < result.patterns.size(); ++i) {
      EXPECT_TRUE(
          PatternOrderLess(result.patterns[i - 1], result.patterns[i]))
          << result.patterns[i - 1].pattern.ToShorthand() << " before "
          << result.patterns[i].pattern.ToShorthand();
    }
  }
}

// The gap-vector extension degenerates to the uniform model when every
// gap carries the same requirement.
TEST(GapVectorTest, UniformVectorMatchesUniformModel) {
  Rng rng(9007);
  GapRequirement gap = *GapRequirement::Create(2, 4);
  for (int trial = 0; trial < 20; ++trial) {
    Sequence s = *UniformRandomSequence(60, Alphabet::Dna(), rng);
    const std::size_t length = 2 + rng.UniformInt(4);
    Pattern p = RandomPattern(rng, length, Alphabet::Dna());
    std::vector<GapRequirement> gaps(length - 1, gap);
    EXPECT_EQ(CountSupportWithGapVector(s, p, gaps)->count,
              CountSupport(s, p, gap)->count)
        << p.ToShorthand();
  }
}

TEST(GapVectorTest, HeterogeneousGapsCountByHand) {
  // S = ACAGT (0-based). P = A?C..T with gaps [0,0] then [1,2]? Work a
  // tiny case: P = AAG, gap1 = [1,1] (exactly one wildcard), gap2 = [0,0]
  // (adjacent): matches need A at x, A at x+2, G at x+3: x=0: A,A,G ✓.
  Sequence s = *Sequence::FromString("ACAGT", Alphabet::Dna());
  Pattern p = *Pattern::Parse("AAG", Alphabet::Dna());
  std::vector<GapRequirement> gaps = {*GapRequirement::Create(1, 1),
                                      *GapRequirement::Create(0, 0)};
  EXPECT_EQ(CountSupportWithGapVector(s, p, gaps)->count, 1u);
  // Swapping the gaps breaks the only match.
  std::vector<GapRequirement> swapped = {*GapRequirement::Create(0, 0),
                                         *GapRequirement::Create(1, 1)};
  EXPECT_EQ(CountSupportWithGapVector(s, p, swapped)->count, 0u);
}

TEST(GapVectorTest, ValidatesArity) {
  Sequence s = *Sequence::FromString("ACGT", Alphabet::Dna());
  Pattern p = *Pattern::Parse("AC", Alphabet::Dna());
  EXPECT_FALSE(CountSupportWithGapVector(s, p, {}).ok());
  std::vector<GapRequirement> too_many(2, *GapRequirement::Create(0, 1));
  EXPECT_FALSE(CountSupportWithGapVector(s, p, too_many).ok());
}

}  // namespace
}  // namespace pgm
