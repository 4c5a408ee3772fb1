// Digest and cache-key canonicalization. The hex goldens here are the
// contract: a change that silently re-keys the result cache shows up as a
// failing golden, not as a fleet of cold caches in production.

#include "util/digest.h"

#include <gtest/gtest.h>

#include "core/kernel.h"
#include "core/miner_options.h"
#include "serve/canonical.h"
#include "seq/alphabet.h"
#include "seq/sequence.h"

namespace pgm {
namespace {

// --- FNV-1a 64 reference vectors ---

TEST(DigestTest, Fnv1a64ReferenceVectors) {
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(DigestTest, StreamingMatchesOneShot) {
  Digest64 digest;
  digest.Update("foo").Update("bar");
  EXPECT_EQ(digest.value(), Fnv1a64("foobar"));
}

TEST(DigestTest, HexIsFixedWidthLowercase) {
  EXPECT_EQ(DigestToHex(0), "0000000000000000");
  EXPECT_EQ(DigestToHex(0xcbf29ce484222325ull), "cbf29ce484222325");
}

TEST(DigestTest, UpdateU64IsLittleEndian) {
  Digest64 digest;
  digest.UpdateU64(0x0102030405060708ull);
  const unsigned char bytes[] = {8, 7, 6, 5, 4, 3, 2, 1};
  Digest64 expected;
  expected.Update(bytes, sizeof(bytes));
  EXPECT_EQ(digest.value(), expected.value());
}

// --- Canonical config string ---

Sequence Acgt() {
  StatusOr<Sequence> sequence = Sequence::FromString("ACGT", Alphabet::Dna());
  EXPECT_TRUE(sequence.ok());
  return *sequence;
}

TEST(CanonicalTest, DefaultConfigStringGolden) {
  // This literal IS the cache-key schema for a default config. Changing it
  // invalidates every persisted key — do that deliberately, not by accident.
  EXPECT_EQ(
      CanonicalConfigString("mpp", MinerConfig{}),
      "algorithm=mpp;em_order=10;initial_n=10;max_gap=0;max_iterations=16;"
      "max_length=-1;min_gap=0;min_support_ratio=0x0p+0;start_length=3;"
      "use_em_bound=1;user_n=-1;");
}

TEST(CanonicalTest, DigestGoldens) {
  EXPECT_EQ(Fnv1a64(CanonicalConfigString("mpp", MinerConfig{})),
            0x6756c649f370712dull);
  EXPECT_EQ(SequenceDigest(Acgt()), 0x5c6d81563d4325afull);
  EXPECT_EQ(CacheKey(Acgt(), "mpp", MinerConfig{}),
            "5c6d81563d4325af:6756c649f370712d");
}

TEST(CanonicalTest, VolatileFieldsDoNotChangeTheKey) {
  const std::string base = CacheKey(Acgt(), "mpp", MinerConfig{});

  MinerConfig config;
  config.threads = 8;
  config.limits.deadline_ms = 1234;
  config.limits.pil_memory_budget_bytes = 1 << 20;
  config.limits.max_level_candidates = 99;
  config.limits.max_total_candidates = 999;
  CancelToken cancel;
  config.cancel = &cancel;
  MiningObserver observer;
  config.observer = &observer;
  // A completed run under any of these knobs is byte-identical to the
  // ungoverned serial run (the guard only observes; the parallel merge is
  // candidate-ordered), so they must share the cache entry.
  EXPECT_EQ(CacheKey(Acgt(), "mpp", config), base);
}

TEST(CanonicalTest, SemanticFieldsChangeTheKey) {
  const std::string base = CacheKey(Acgt(), "mpp", MinerConfig{});

  MinerConfig gap;
  gap.max_gap = 5;
  EXPECT_NE(CacheKey(Acgt(), "mpp", gap), base);

  MinerConfig ratio;
  ratio.min_support_ratio = 0.25;
  EXPECT_NE(CacheKey(Acgt(), "mpp", ratio), base);

  EXPECT_NE(CacheKey(Acgt(), "mppm", MinerConfig{}), base);
}

TEST(CanonicalTest, EachOptionChangesTheKeyIffItIsCacheRelevant) {
  // Differs from MinerConfig{} in every field an option row covers.
  MinerConfig other;
  other.min_gap = 1;
  other.max_gap = 5;
  other.min_support_ratio = 0.25;
  other.start_length = 2;
  other.max_length = 7;
  other.user_n = 4;
  other.em_order = 3;
  other.use_em_bound = false;
  other.initial_n = 5;
  other.max_iterations = 3;
  other.threads = 8;
  other.kernel_tier = KernelTier::kScalar;
  other.limits.deadline_ms = 1234;
  other.limits.pil_memory_budget_bytes = 1 << 20;
  other.limits.max_level_candidates = 99;
  other.limits.max_total_candidates = 999;

  const MinerConfig defaults;
  const std::string base = CacheKey(Acgt(), "mpp", defaults);
  for (const MinerOption& option : MinerOptions()) {
    // Set the field from its user text: that text must round-trip exactly.
    std::string text, before, expected, after;
    option.render(other, OptionText::kUser, &text);
    MinerConfig config;
    ASSERT_TRUE(option.set(text, &config).ok()) << option.field;
    option.render(defaults, OptionText::kExact, &before);
    option.render(other, OptionText::kExact, &expected);
    option.render(config, OptionText::kExact, &after);
    ASSERT_NE(expected, before) << option.field << " kept its default";
    ASSERT_EQ(after, expected) << option.field << " did not round-trip";
    EXPECT_EQ(CacheKey(Acgt(), "mpp", config) != base, option.cache_key)
        << option.field;
  }
}

TEST(CanonicalTest, SequenceChangesTheKey) {
  StatusOr<Sequence> other = Sequence::FromString("ACGG", Alphabet::Dna());
  ASSERT_TRUE(other.ok());
  EXPECT_NE(CacheKey(*other, "mpp", MinerConfig{}),
            CacheKey(Acgt(), "mpp", MinerConfig{}));
}

TEST(CanonicalTest, AlphabetIsPartOfTheSequenceDigest) {
  // The same residue characters over different alphabets encode to
  // different symbol streams semantically; the digest must not conflate
  // them even when the raw bytes happen to match.
  StatusOr<Sequence> protein =
      Sequence::FromString("ACGT", Alphabet::Protein());
  ASSERT_TRUE(protein.ok());
  EXPECT_NE(SequenceDigest(*protein), SequenceDigest(Acgt()));
}

}  // namespace
}  // namespace pgm
