// Differential harness: seeded-random configurations cross-check the three
// engines against each other (pattern-set equality up to the guarantee
// horizon) and the observability layer against the engines (trace/metrics
// invariants that must hold for every run, plus byte-identical exports
// across thread counts). Runs under both the ASan ("robustness") and TSan
// ("concurrency") sanitizer configurations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/miner.h"
#include "core/trace.h"
#include "datagen/generators.h"
#include "util/metrics.h"
#include "util/random.h"

#include "tools/differential_params.h"

namespace pgm {
namespace {

// Reference pattern sets captured from the pre-arena engine (threads=1);
// see tools/gen_differential_goldens.
#include "differential_goldens_pr4.inc"

// (alphabet symbols, L, N, M, rho, seed)
using DiffParam = std::tuple<const char*, std::size_t, std::int64_t,
                             std::int64_t, double, std::uint64_t>;

class DifferentialSweep : public testing::TestWithParam<DiffParam> {};

std::map<std::string, std::uint64_t> ToMap(const MiningResult& result,
                                           std::size_t max_length) {
  std::map<std::string, std::uint64_t> map;
  for (const FrequentPattern& fp : result.patterns) {
    if (fp.pattern.length() > max_length) continue;
    map[fp.pattern.ToShorthand()] = fp.support;
  }
  return map;
}

struct ObservedRun {
  MiningResult result;
  std::string metrics_json;
  std::string trace_json;
  std::vector<TraceEvent> events;
  std::uint64_t generated = 0;
  std::uint64_t evaluated = 0;
  std::uint64_t retained = 0;
  std::uint64_t pruned = 0;
  std::uint64_t support_histogram_count = 0;
};

template <typename MineFn>
ObservedRun RunObserved(const Sequence& s, MinerConfig config, MineFn mine) {
  MetricsRegistry metrics;
  MiningTrace trace;
  MiningObserver observer;
  observer.metrics = &metrics;
  observer.trace = &trace;
  config.observer = &observer;
  ObservedRun run;
  run.result = *mine(s, config);
  run.metrics_json = metrics.ToJson();
  run.trace_json = trace.ToJson();  // volatile fields excluded: byte-stable
  run.events = trace.events();
  run.generated = metrics.CounterValue("mine.candidates.generated");
  run.evaluated = metrics.CounterValue("mine.candidates.evaluated");
  run.retained = metrics.CounterValue("mine.candidates.retained");
  run.pruned = metrics.CounterValue("mine.candidates.pruned");
  const Histogram* support = metrics.FindHistogram("mine.candidate.support");
  run.support_histogram_count = support == nullptr ? 0 : support->count();
  return run;
}

// The invariants every observed run must satisfy, regardless of engine,
// configuration, or thread count.
void CheckTraceInvariants(const ObservedRun& run, const char* label) {
  SCOPED_TRACE(label);
  std::uint64_t trace_generated = 0;
  std::uint64_t level_stats_total = 0;
  for (const TraceEvent& event : run.events) {
    if (event.kind != TraceEventKind::kLevelEnd) continue;
    trace_generated += event.candidates;
    EXPECT_LE(event.evaluated, event.candidates)
        << "evaluated more candidates than were generated at level "
        << event.level;
    EXPECT_LE(event.frequent, event.retained)
        << "a frequent pattern failed the relaxed threshold at level "
        << event.level;
    EXPECT_EQ(event.pruned + event.retained, event.candidates)
        << "pruned + kept != generated at level " << event.level;
  }
  for (const LevelStats& stats : run.result.level_stats) {
    level_stats_total += stats.num_candidates;
    EXPECT_GE(stats.num_candidates, stats.num_retained);
    EXPECT_GE(stats.num_retained, stats.num_frequent);
  }
  // Registry, trace, and result all agree on the candidate totals because
  // they are all views of the same per-run registry.
  EXPECT_EQ(run.generated, trace_generated);
  EXPECT_EQ(run.generated, level_stats_total);
  EXPECT_EQ(run.generated, run.result.total_candidates);
  EXPECT_EQ(run.pruned + run.retained, run.generated);
  EXPECT_LE(run.evaluated, run.generated);
  // Every evaluated candidate landed exactly one support observation.
  EXPECT_EQ(run.support_histogram_count, run.evaluated);
}

TEST_P(DifferentialSweep, EnginesAgreeAndInvariantsHold) {
  const auto [symbols, length, min_gap, max_gap, rho, seed] = GetParam();
  Alphabet alphabet = *Alphabet::Create(symbols);
  Rng rng(seed);
  Sequence s = *UniformRandomSequence(length, alphabet, rng);
  GapRequirement gap = *GapRequirement::Create(min_gap, max_gap);
  const std::size_t horizon = std::min<std::size_t>(
      6, static_cast<std::size_t>(gap.MaxGuaranteedLength(length)));

  MinerConfig base;
  base.min_gap = min_gap;
  base.max_gap = max_gap;
  base.min_support_ratio = rho;
  base.start_length = 1;
  base.em_order = 2;

  // Odd counts (3, 5) catch piece/block splits that only divide evenly by
  // powers of two; 16 oversubscribes every CI machine, so the executor runs
  // with more workers than cores.
  for (std::int64_t threads : {std::int64_t{1}, std::int64_t{2},
                               std::int64_t{3}, std::int64_t{5},
                               std::int64_t{8}, std::int64_t{16}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    MinerConfig config = base;
    config.threads = threads;

    MinerConfig enum_config = config;
    enum_config.max_length = static_cast<std::int64_t>(horizon);
    ObservedRun enumeration =
        RunObserved(s, enum_config, [](const Sequence& seq,
                                       const MinerConfig& c) {
          return MineEnumeration(seq, c);
        });
    MinerConfig worst = config;
    worst.user_n = -1;
    ObservedRun mpp = RunObserved(
        s, worst,
        [](const Sequence& seq, const MinerConfig& c) {
          return MineMpp(seq, c);
        });
    ObservedRun mppm = RunObserved(
        s, config,
        [](const Sequence& seq, const MinerConfig& c) {
          return MineMppm(seq, c);
        });

    // Differential check: all three engines report the same frequent
    // pattern set (with identical supports) below the guarantee horizon.
    const auto reference = ToMap(enumeration.result, horizon);
    EXPECT_EQ(ToMap(mpp.result, horizon), reference)
        << "MPP disagrees with enumeration";
    EXPECT_EQ(ToMap(mppm.result, horizon), reference)
        << "MPPm disagrees with enumeration";

    CheckTraceInvariants(enumeration, "enumeration");
    CheckTraceInvariants(mpp, "mpp");
    CheckTraceInvariants(mppm, "mppm");
  }
}

// The observability exports are byte-identical across thread counts: the
// whole recording path runs in the engines' serial sections.
TEST_P(DifferentialSweep, ExportsAreByteIdenticalAcrossThreadCounts) {
  const auto [symbols, length, min_gap, max_gap, rho, seed] = GetParam();
  Alphabet alphabet = *Alphabet::Create(symbols);
  Rng rng(seed);
  Sequence s = *UniformRandomSequence(length, alphabet, rng);

  MinerConfig base;
  base.min_gap = min_gap;
  base.max_gap = max_gap;
  base.min_support_ratio = rho;
  base.start_length = 1;
  base.em_order = 2;

  MinerConfig serial = base;
  serial.threads = 1;
  ObservedRun reference = RunObserved(
      s, serial,
      [](const Sequence& seq, const MinerConfig& c) {
        return MineMppm(seq, c);
      });
  for (std::int64_t threads : {std::int64_t{2}, std::int64_t{3},
                               std::int64_t{5}, std::int64_t{8},
                               std::int64_t{16}}) {
    MinerConfig config = base;
    config.threads = threads;
    ObservedRun run = RunObserved(
        s, config,
        [](const Sequence& seq, const MinerConfig& c) {
          return MineMppm(seq, c);
        });
    EXPECT_EQ(run.metrics_json, reference.metrics_json)
        << "metrics JSON depends on thread count (threads=" << threads << ")";
    EXPECT_EQ(run.trace_json, reference.trace_json)
        << "trace JSON depends on thread count (threads=" << threads << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeededConfigs, DifferentialSweep,
    testing::Values(
        DiffParam{"ACGT", 40, 1, 2, 0.02, 3001},
        DiffParam{"ACGT", 60, 0, 1, 0.05, 3002},
        DiffParam{"ACGT", 60, 2, 4, 0.01, 3003},
        DiffParam{"ACGT", 80, 1, 3, 0.005, 3004},
        DiffParam{"AB", 50, 1, 2, 0.05, 3005},
        DiffParam{"AB", 70, 0, 2, 0.1, 3006},
        DiffParam{"ABC", 55, 2, 3, 0.02, 3007},
        DiffParam{"ACGT", 45, 3, 3, 0.01, 3008},    // rigid gap, W = 1
        DiffParam{"ACGT", 64, 0, 0, 0.02, 3009},    // adjacent characters
        DiffParam{"ACGT", 33, 5, 8, 0.02, 3010},    // wide gap, short seq
        DiffParam{"ACGT", 100, 2, 3, 0.008, 3011},
        DiffParam{"AB", 36, 4, 6, 0.03, 3012},
        DiffParam{"ABCDE", 48, 1, 2, 0.01, 3013},   // 5-letter alphabet
        DiffParam{"ACGT", 25, 0, 6, 0.05, 3014},    // gap wider than N
        DiffParam{"ACGT", 90, 1, 1, 0.015, 3015},   // rigid non-zero gap
        DiffParam{"ACGT", 48, 1, 2, 0.04, 3016},
        DiffParam{"ACGT", 72, 0, 3, 0.01, 3017},
        DiffParam{"AB", 64, 2, 2, 0.08, 3018},
        DiffParam{"ABC", 80, 0, 1, 0.03, 3019},
        DiffParam{"ACGT", 56, 2, 5, 0.015, 3020},
        DiffParam{"ACGT", 30, 1, 4, 0.06, 3021},
        DiffParam{"AB", 90, 1, 3, 0.04, 3022},
        DiffParam{"ABCDE", 60, 0, 2, 0.008, 3023},
        DiffParam{"ACGT", 84, 3, 4, 0.006, 3024},
        DiffParam{"ACGT", 50, 0, 5, 0.03, 3025},
        DiffParam{"ABC", 44, 1, 1, 0.05, 3026},
        DiffParam{"ACGT", 66, 4, 5, 0.01, 3027}));

// The randomized-oracle sweep (satellite of the arena refactor): 50 seeded
// configurations drawn in tools/differential_params.h, each mined by all
// three engines at several thread counts and compared both against the
// brute-force enumeration oracle and against pattern sets captured from the
// *pre-arena* engine (tests/differential_goldens_pr4.inc). The fixture
// comparison is what makes this a refactor gate: agreement among today's
// engines is necessary but would not notice all of them drifting together.
TEST(RandomizedOracleSweep, EnginesMatchOracleAndPreArenaGoldens) {
  const std::vector<difftest::OracleConfig> configs =
      difftest::OracleConfigs();
  ASSERT_EQ(configs.size(), difftest::kNumOracleConfigs);
  ASSERT_EQ(std::size(kDifferentialGoldensPr4), difftest::kNumOracleConfigs);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const difftest::OracleConfig& oracle_config = configs[i];
    SCOPED_TRACE("config " + std::to_string(i) + ": " +
                 difftest::DescribeConfig(oracle_config));
    Alphabet alphabet = *Alphabet::Create(oracle_config.alphabet);
    Rng rng(oracle_config.data_seed);
    Sequence s =
        *UniformRandomSequence(oracle_config.length, alphabet, rng);
    const std::size_t horizon = difftest::OracleHorizon(oracle_config);
    const std::string golden = kDifferentialGoldensPr4[i];
    for (std::int64_t threads : {std::int64_t{1}, std::int64_t{2},
                                 std::int64_t{3}, std::int64_t{5},
                                 std::int64_t{8}, std::int64_t{16}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      MinerConfig config = difftest::ToMinerConfig(oracle_config);
      config.threads = threads;

      StatusOr<MiningResult> mpp = MineMpp(s, config);
      ASSERT_TRUE(mpp.ok()) << mpp.status().message();
      EXPECT_EQ(difftest::CanonicalPatterns(*mpp, horizon), golden)
          << "MPP drifted from the pre-arena fixture";

      StatusOr<MiningResult> mppm = MineMppm(s, config);
      ASSERT_TRUE(mppm.ok()) << mppm.status().message();
      EXPECT_EQ(difftest::CanonicalPatterns(*mppm, horizon), golden)
          << "MPPm drifted from the pre-arena fixture";

      MinerConfig enum_config = config;
      enum_config.max_length = static_cast<std::int64_t>(horizon);
      StatusOr<MiningResult> enumeration = MineEnumeration(s, enum_config);
      ASSERT_TRUE(enumeration.ok()) << enumeration.status().message();
      EXPECT_EQ(difftest::CanonicalPatterns(*enumeration, horizon), golden)
          << "enumeration oracle disagrees with the fixture";
    }
  }
}

}  // namespace
}  // namespace pgm
