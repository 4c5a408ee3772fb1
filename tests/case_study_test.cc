#include "analysis/case_study.h"

#include <gtest/gtest.h>

#include "corpus/executor.h"
#include "datagen/presets.h"

namespace pgm {
namespace {

// Scaled-down Section 7 run: 8 kb fragments instead of 100 kb, with a
// proportionally higher threshold, so the end-to-end pipeline stays fast.
CaseStudyConfig SmallConfig() {
  CaseStudyConfig config;
  config.miner.min_gap = 10;
  config.miner.max_gap = 12;
  config.miner.min_support_ratio = 0.0005;
  config.miner.start_length = 3;
  config.miner.em_order = 4;
  config.fragment_length = 8'000;
  config.report_length = 6;
  return config;
}

TEST(CaseStudyTest, RunsEndToEndOnBacteriaPreset) {
  Sequence genome = *MakeBacteriaLikeGenome(24'000, 77);
  CaseStudyReport report = *RunCaseStudy(genome, SmallConfig());
  ASSERT_EQ(report.fragments.size(), 3u);
  for (const FragmentReport& fragment : report.fragments) {
    EXPECT_EQ(fragment.buckets.length, 6);
    EXPECT_GE(fragment.longest, 0);
    EXPECT_GE(fragment.num_frequent, fragment.buckets.total());
  }
  // Averages are consistent with the per-fragment counts.
  double at = 0;
  for (const FragmentReport& f : report.fragments) {
    at += static_cast<double>(f.buckets.at_only);
  }
  EXPECT_NEAR(report.avg_at_only, at / 3.0, 1e-9);
}

TEST(CaseStudyTest, AtDominanceOnBacteriaPreset) {
  Sequence genome = *MakeBacteriaLikeGenome(16'000, 78);
  CaseStudyReport report = *RunCaseStudy(genome, SmallConfig());
  // The paper's core qualitative finding at reduced scale: A/T-only
  // patterns dominate C/G-heavy ones.
  EXPECT_GT(report.avg_at_only, report.avg_multi_cg);
}

TEST(CaseStudyTest, MaxFragmentsCap) {
  Sequence genome = *MakeBacteriaLikeGenome(40'000, 79);
  CaseStudyConfig config = SmallConfig();
  config.max_fragments = 2;
  CaseStudyReport report = *RunCaseStudy(genome, config);
  EXPECT_EQ(report.fragments.size(), 2u);
}

TEST(CaseStudyTest, TailShorterThanFragmentIsSkipped) {
  Sequence genome = *MakeBacteriaLikeGenome(19'999, 80);
  CaseStudyReport report = *RunCaseStudy(genome, SmallConfig());
  EXPECT_EQ(report.fragments.size(), 2u);
}

TEST(CaseStudyTest, GenomeShorterThanFragmentIsError) {
  Sequence genome = *MakeBacteriaLikeGenome(4'000, 81);
  EXPECT_FALSE(RunCaseStudy(genome, SmallConfig()).ok());
}

TEST(CaseStudyTest, RejectsBadReportLength) {
  Sequence genome = *MakeBacteriaLikeGenome(16'000, 82);
  CaseStudyConfig config = SmallConfig();
  config.report_length = 0;
  EXPECT_FALSE(RunCaseStudy(genome, config).ok());
}

// The case study reads the corpus executor's Section 7 union in place:
// the same patterns with the same best per-fragment supports, in the same
// (length, symbols) order.
TEST(CaseStudyTest, FrequentUnionIsTheCorpusUnion) {
  Sequence genome = *MakeBacteriaLikeGenome(24'000, 84);
  const CaseStudyConfig config = SmallConfig();
  const CaseStudyReport report = *RunCaseStudy(genome, config);

  CorpusPlanOptions plan_options;
  plan_options.fragment.fragment_length = config.fragment_length;
  const CorpusPlan plan =
      *CorpusPlan::FromSequence(genome, "genome", plan_options);
  CorpusOptions options;
  options.algorithm = "mppm";
  options.miner = config.miner;
  const CorpusResult corpus = *MineCorpus(plan, options);
  ASSERT_FALSE(corpus.patterns.empty());
  ASSERT_EQ(report.frequent_union.size(), corpus.patterns.size());
  for (std::size_t i = 0; i < corpus.patterns.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(report.frequent_union[i].pattern, corpus.patterns[i].pattern);
    EXPECT_EQ(report.frequent_union[i].support, corpus.patterns[i].support);
  }
}

TEST(CaseStudyTest, AggregatesTrackFragmentMaxima) {
  Sequence genome = *MakeBacteriaLikeGenome(24'000, 83);
  CaseStudyReport report = *RunCaseStudy(genome, SmallConfig());
  std::int64_t longest = 0;
  std::int64_t longest_poly_g = 0;
  for (const FragmentReport& f : report.fragments) {
    longest = std::max(longest, f.longest);
    longest_poly_g = std::max(longest_poly_g, f.longest_poly_g);
  }
  EXPECT_EQ(report.longest_overall, longest);
  EXPECT_EQ(report.longest_poly_g_overall, longest_poly_g);
}

}  // namespace
}  // namespace pgm
