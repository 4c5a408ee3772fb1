#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "core/miner.h"
#include "core/trace.h"
#include "util/thread_pool.h"

namespace pgm {
namespace {

Sequence SmallSeq() {
  return *Sequence::FromString("ACGTACGTACGT", Alphabet::Dna());
}

MinerConfig ValidConfig() {
  MinerConfig config;
  config.min_gap = 1;
  config.max_gap = 2;
  config.min_support_ratio = 0.05;
  config.start_length = 2;
  return config;
}

using MinerFn = StatusOr<MiningResult> (*)(const Sequence&, const MinerConfig&);

class MinerValidationTest : public testing::TestWithParam<MinerFn> {};

TEST_P(MinerValidationTest, AcceptsValidConfig) {
  EXPECT_TRUE(GetParam()(SmallSeq(), ValidConfig()).ok());
}

TEST_P(MinerValidationTest, RejectsEmptySequence) {
  Sequence empty = *Sequence::FromString("", Alphabet::Dna());
  EXPECT_FALSE(GetParam()(empty, ValidConfig()).ok());
}

TEST_P(MinerValidationTest, RejectsNegativeMinGap) {
  MinerConfig config = ValidConfig();
  config.min_gap = -1;
  EXPECT_FALSE(GetParam()(SmallSeq(), config).ok());
}

TEST_P(MinerValidationTest, RejectsInvertedGap) {
  MinerConfig config = ValidConfig();
  config.min_gap = 3;
  config.max_gap = 2;
  EXPECT_FALSE(GetParam()(SmallSeq(), config).ok());
}

TEST_P(MinerValidationTest, RejectsZeroSupportRatio) {
  MinerConfig config = ValidConfig();
  config.min_support_ratio = 0.0;
  EXPECT_FALSE(GetParam()(SmallSeq(), config).ok());
}

TEST_P(MinerValidationTest, RejectsSupportRatioAboveOne) {
  MinerConfig config = ValidConfig();
  config.min_support_ratio = 1.5;
  EXPECT_FALSE(GetParam()(SmallSeq(), config).ok());
}

TEST_P(MinerValidationTest, RejectsNonPositiveStartLength) {
  MinerConfig config = ValidConfig();
  config.start_length = 0;
  EXPECT_FALSE(GetParam()(SmallSeq(), config).ok());
}

TEST_P(MinerValidationTest, RejectsMaxLengthBelowStart) {
  MinerConfig config = ValidConfig();
  config.start_length = 3;
  config.max_length = 2;
  EXPECT_FALSE(GetParam()(SmallSeq(), config).ok());
}

TEST_P(MinerValidationTest, RejectsThreadsAboveTheCeiling) {
  MinerConfig config = ValidConfig();
  config.threads = ThreadPool::kMaxThreads + 1;
  StatusOr<MiningResult> result = GetParam()(SmallSeq(), config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find(std::to_string(config.threads)),
            std::string::npos)
      << result.status().message();
}

TEST_P(MinerValidationTest, AcceptsThreadsAtTheCeiling) {
  MinerConfig config = ValidConfig();
  config.threads = ThreadPool::kMaxThreads;
  EXPECT_TRUE(GetParam()(SmallSeq(), config).ok());
}

TEST_P(MinerValidationTest, SupportRatioOfExactlyOneIsValid) {
  MinerConfig config = ValidConfig();
  config.min_support_ratio = 1.0;
  EXPECT_TRUE(GetParam()(SmallSeq(), config).ok());
}

// m and the adaptive loop's knobs are checked for every algorithm, like
// every other field, whether or not the algorithm reads them.
TEST_P(MinerValidationTest, RejectsOrderAndIterationKnobsBelowOne) {
  MinerConfig config = ValidConfig();
  config.em_order = 0;
  EXPECT_EQ(GetParam()(SmallSeq(), config).status().code(),
            StatusCode::kInvalidArgument);
  config = ValidConfig();
  config.initial_n = 0;
  EXPECT_EQ(GetParam()(SmallSeq(), config).status().code(),
            StatusCode::kInvalidArgument);
  config = ValidConfig();
  config.max_iterations = 0;
  EXPECT_EQ(GetParam()(SmallSeq(), config).status().code(),
            StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(AllMiners, MinerValidationTest,
                         testing::Values(&MineMpp, &MineMppm, &MineEnumeration,
                                         &MineAdaptive));

TEST(MinerValidationTest, AdaptiveRejectsBadIterationKnobs) {
  MinerConfig config = ValidConfig();
  config.initial_n = 0;
  EXPECT_FALSE(MineAdaptive(SmallSeq(), config).ok());
  config = ValidConfig();
  config.max_iterations = 0;
  EXPECT_FALSE(MineAdaptive(SmallSeq(), config).ok());
}

TEST(MinerValidationTest, MppmRejectsBadEmOrder) {
  MinerConfig config = ValidConfig();
  config.em_order = 0;
  EXPECT_FALSE(MineMppm(SmallSeq(), config).ok());
}

// MPPm's order m is checked with every other field, before the run opens
// its trace: a budget spent on arrival no longer lets m = 0 through, and a
// rejected run leaves no run_start behind.
TEST(MinerValidationTest, MppmRejectsBadEmOrderBeforeTheRunStarts) {
  MinerConfig config = ValidConfig();
  config.em_order = 0;
  config.limits.deadline_ms = 0;
  MiningTrace trace;
  MiningObserver observer;
  observer.trace = &trace;
  config.observer = &observer;
  const Status status = MineMppm(SmallSeq(), config).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("e_m order m must be >= 1"),
            std::string::npos)
      << status.message();
  EXPECT_TRUE(trace.events().empty());
}

TEST(MinerValidationTest, StartLengthBeyondL2YieldsEmptyResult) {
  MinerConfig config = ValidConfig();
  config.start_length = 100;  // far beyond l2 for a 12-char sequence
  StatusOr<MiningResult> result = MineMpp(SmallSeq(), config);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->patterns.empty());
  EXPECT_TRUE(result->level_stats.empty());
}

// Mine is the one name-to-miner dispatcher behind `pgm mine`, the corpus
// executor and the serving layer.
TEST(MinerDispatchTest, MineRunsTheNamedMiner) {
  EXPECT_EQ(AlgorithmNames(), "mpp | mppm | enum | adaptive");
  const std::pair<const char*, MinerFn> miners[] = {
      {"mpp", &MineMpp},
      {"mppm", &MineMppm},
      {"enum", &MineEnumeration},
      {"adaptive", &MineAdaptive}};
  for (const auto& [name, miner] : miners) {
    SCOPED_TRACE(name);
    EXPECT_TRUE(CheckAlgorithm(name).ok());
    StatusOr<MiningResult> named = Mine(name, SmallSeq(), ValidConfig());
    StatusOr<MiningResult> direct = miner(SmallSeq(), ValidConfig());
    ASSERT_TRUE(named.ok()) << named.status();
    ASSERT_TRUE(direct.ok()) << direct.status();
    EXPECT_EQ(named->patterns.size(), direct->patterns.size());
    EXPECT_EQ(named->total_candidates, direct->total_candidates);
    EXPECT_EQ(named->n_used, direct->n_used);
  }
}

TEST(MinerDispatchTest, UnknownAlgorithmIsInvalidArgumentListingTheNames) {
  for (const char* name : {"bogus", "", "MPP"}) {
    const Status status = Mine(name, SmallSeq(), ValidConfig()).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << name;
    EXPECT_NE(status.message().find("(mpp | mppm | enum | adaptive)"),
              std::string::npos)
        << status.message();
    EXPECT_EQ(CheckAlgorithm(name).code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace pgm
