// Golden-file tests for the observability exports: the metrics and trace
// JSON for a small fixed run are pinned byte-for-byte, so any schema drift
// (key renames, ordering changes, format changes) fails loudly here before
// it breaks downstream consumers. The same run is repeated at several
// thread counts to pin the determinism contract: the exports must be
// byte-identical because every recording call happens in the engines'
// serial sections. Four more runs are cut short on purpose, one per way a
// budget or cap ends a level, and their exports are pinned the same way.

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "core/miner.h"
#include "core/trace.h"
#include "seq/sequence.h"
#include "util/metrics.h"

namespace pgm {
namespace {

Sequence GoldenSequence() {
  std::string text;
  for (int i = 0; i < 4; ++i) text += "AACCGGTTACGTAGCT";
  return *Sequence::FromString(text, Alphabet::Dna());
}

MinerConfig GoldenConfig() {
  MinerConfig config;
  config.min_gap = 0;
  config.max_gap = 2;
  config.min_support_ratio = 0.05;
  config.start_length = 1;
  config.max_length = 4;
  config.em_order = 2;
  return config;
}

struct Export {
  std::string metrics_json;
  std::string trace_json;
};

Export RunGolden(std::string_view algorithm, MinerConfig config,
                 std::int64_t threads) {
  MetricsRegistry metrics;
  MiningTrace trace;
  MiningObserver observer;
  observer.metrics = &metrics;
  observer.trace = &trace;
  config.threads = threads;
  config.observer = &observer;
  StatusOr<MiningResult> result = Mine(algorithm, GoldenSequence(), config);
  EXPECT_TRUE(result.ok());
  return {metrics.ToJson() + "\n", trace.ToJson() + "\n"};
}

Export RunGolden(std::int64_t threads) {
  return RunGolden("mppm", GoldenConfig(), threads);
}

// A cut-short run must export the same bytes at every thread count: the
// trip points below (a first reservation, a level's scratch window, a
// level's candidate charge) depend only on the plan.
void ExpectGoldenAtEveryThreadCount(std::string_view algorithm,
                                    const MinerConfig& config,
                                    const char* metrics, const char* trace) {
  for (std::int64_t threads :
       {std::int64_t{1}, std::int64_t{2}, std::int64_t{8}}) {
    const Export run = RunGolden(algorithm, config, threads);
    EXPECT_EQ(run.metrics_json, metrics) << "threads=" << threads;
    EXPECT_EQ(run.trace_json, trace) << "threads=" << threads;
  }
}

// Pinned exports for the run above (regenerate by printing the actual
// values when the schema changes deliberately — the test failure output
// shows them in full).
extern const char kGoldenMetrics[];
extern const char kGoldenTrace[];
extern const char kMppmSeedTripMetrics[];
extern const char kMppmSeedTripTrace[];
extern const char kMppBudgetTripMetrics[];
extern const char kMppBudgetTripTrace[];
extern const char kEnumExtensionTripMetrics[];
extern const char kEnumExtensionTripTrace[];
extern const char kEnumCandidateCapMetrics[];
extern const char kEnumCandidateCapTrace[];

TEST(ObservabilityGoldenTest, MetricsJsonMatchesGolden) {
  EXPECT_EQ(RunGolden(1).metrics_json, kGoldenMetrics);
}

TEST(ObservabilityGoldenTest, TraceJsonMatchesGolden) {
  EXPECT_EQ(RunGolden(1).trace_json, kGoldenTrace);
}

TEST(ObservabilityGoldenTest, ExportsAreByteIdenticalAcrossThreadCounts) {
  const Export reference = RunGolden(1);
  for (std::int64_t threads : {std::int64_t{2}, std::int64_t{8}}) {
    const Export run = RunGolden(threads);
    EXPECT_EQ(run.metrics_json, reference.metrics_json)
        << "threads=" << threads;
    EXPECT_EQ(run.trace_json, reference.trace_json) << "threads=" << threads;
  }
}

TEST(ObservabilityGoldenTest, MetricsKeysAreSorted) {
  const std::string json = RunGolden(1).metrics_json;
  // Spot-check lexicographic ordering of the counter section; the zero
  // padding in per-level keys makes lexicographic order the numeric order.
  EXPECT_LT(json.find("\"mine.candidates.evaluated\""),
            json.find("\"mine.candidates.frequent\""));
  EXPECT_LT(json.find("\"mine.candidates.generated\""),
            json.find("\"mine.candidates.pruned\""));
  EXPECT_LT(json.find("\"mine.level.00001.candidates\""),
            json.find("\"mine.level.00002.candidates\""));
  EXPECT_LT(json.find("\"mine.levels.started\""), json.find("\"mine.runs\""));
}

// MPPm whose seed build trips at its first reservation: the start level opens
// with its analytic count and closes cut short, and no estimate is made.
TEST(ObservabilityGoldenTest, MppmSeedBuildTripMatchesGolden) {
  MinerConfig config = GoldenConfig();
  config.start_length = 3;
  config.limits.pil_memory_budget_bytes = 1;
  ExpectGoldenAtEveryThreadCount("mppm", config, kMppmSeedTripMetrics,
                                 kMppmSeedTripTrace);
}

// MPP whose PIL budget holds the first level (64 rows) but not the second
// level's scratch window: level 2 closes with nothing evaluated.
TEST(ObservabilityGoldenTest, MppBudgetTripAfterFirstLevelMatchesGolden) {
  MinerConfig config = GoldenConfig();
  config.limits.pil_memory_budget_bytes = 1000;
  ExpectGoldenAtEveryThreadCount("mpp", config, kMppBudgetTripMetrics,
                                 kMppBudgetTripTrace);
}

// Enumeration whose PIL budget holds the singles and the first level but
// trips while extending it: level 2 opens and closes cut short.
TEST(ObservabilityGoldenTest, EnumExtensionTripMatchesGolden) {
  MinerConfig config = GoldenConfig();
  config.limits.pil_memory_budget_bytes = 2000;
  ExpectGoldenAtEveryThreadCount("enum", config, kEnumExtensionTripMetrics,
                                 kEnumExtensionTripTrace);
}

// Enumeration cut at level 3's candidate charge (64 > 16): the level judged
// nothing, so it retains nothing and prunes all 64 candidates.
TEST(ObservabilityGoldenTest, EnumCandidateCapAtChargeMatchesGolden) {
  MinerConfig config = GoldenConfig();
  config.limits.max_level_candidates = 16;
  ExpectGoldenAtEveryThreadCount("enum", config, kEnumCandidateCapMetrics,
                                 kEnumCandidateCapTrace);
}

const char kGoldenMetrics[] =
    "{\n"
    "  \"counters\": {\n"
    "    \"mine.candidates.evaluated\": 42,\n"
    "    \"mine.candidates.frequent\": 15,\n"
    "    \"mine.candidates.generated\": 42,\n"
    "    \"mine.candidates.pruned\": 26,\n"
    "    \"mine.candidates.retained\": 16,\n"
    "    \"mine.level.00001.candidates\": 4,\n"
    "    \"mine.level.00001.evaluated\": 4,\n"
    "    \"mine.level.00001.frequent\": 4,\n"
    "    \"mine.level.00001.retained\": 4,\n"
    "    \"mine.level.00002.candidates\": 16,\n"
    "    \"mine.level.00002.evaluated\": 16,\n"
    "    \"mine.level.00002.frequent\": 9,\n"
    "    \"mine.level.00002.retained\": 9,\n"
    "    \"mine.level.00003.candidates\": 20,\n"
    "    \"mine.level.00003.evaluated\": 20,\n"
    "    \"mine.level.00003.frequent\": 2,\n"
    "    \"mine.level.00003.retained\": 3,\n"
    "    \"mine.level.00004.candidates\": 2,\n"
    "    \"mine.level.00004.evaluated\": 2,\n"
    "    \"mine.levels.completed\": 4,\n"
    "    \"mine.levels.started\": 4,\n"
    "    \"mine.patterns.emitted\": 15,\n"
    "    \"mine.runs\": 1\n"
    "  },\n"
    "  \"gauges\": {\n"
    "    \"mine.last.em\": 4,\n"
    // The e_m search visited one start: its K_r already met every other
    // start's upper bound.
    "    \"mine.last.em_starts_searched\": 1,\n"
    "    \"mine.last.estimated_n\": 6,\n"
    "    \"mine.last.guaranteed_complete_up_to\": 6,\n"
    "    \"mine.last.longest_frequent_length\": 3,\n"
    "    \"mine.last.n_used\": 6\n"
    "  },\n"
    "  \"histograms\": {\n"
    // pil_bytes reports the exact rows of each candidate's arena span
    // (span.len * sizeof(PilEntry)), not the old per-vector capacity.
    "    \"mine.candidate.pil_bytes\": {\"bounds\": [64, 256, 1024, 4096, "
    "16384, 65536, 262144, 1048576, 4194304, 16777216, 67108864], "
    "\"buckets\": [4, 38, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], \"count\": 42, "
    "\"sum\": 5652},\n"
    "    \"mine.candidate.support\": {\"bounds\": [1, 2, 4, 8, 16, 32, 64, "
    "128, 256, 512, 1024, 4096, 16384, 65536, 262144, 1048576], "
    "\"buckets\": [0, 0, 4, 6, 21, 7, 3, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0], "
    "\"count\": 42, \"sum\": 685}\n"
    "  }\n"
    "}\n";

const char kGoldenTrace[] =
    "{\n"
    "  \"events\": [\n"
    "    {\"kind\": \"run_start\", \"algorithm\": \"mppm\", "
    "\"kernel_tier\": \"auto\"},\n"
    "    {\"kind\": \"estimate\", \"em\": 4, \"estimated_n\": 6},\n"
    "    {\"kind\": \"level_start\", \"level\": 1, \"candidates\": 4, "
    "\"lambda\": 0.84375, \"full_threshold\": 3.2000000000000002, "
    "\"relaxed_threshold\": 2.7000000000000002},\n"
    "    {\"kind\": \"level_end\", \"level\": 1, \"candidates\": 4, "
    "\"evaluated\": 4, \"frequent\": 4, \"retained\": 4, \"pruned\": 0, "
    "\"completed\": true},\n"
    "    {\"kind\": \"level_start\", \"level\": 2, \"candidates\": 16, "
    "\"lambda\": 0.87096774193548387, \"full_threshold\": "
    "9.3000000000000007, \"relaxed_threshold\": 8.0999999999999996},\n"
    "    {\"kind\": \"level_end\", \"level\": 2, \"candidates\": 16, "
    "\"evaluated\": 16, \"frequent\": 9, \"retained\": 9, \"pruned\": 7, "
    "\"completed\": true},\n"
    "    {\"kind\": \"level_start\", \"level\": 3, \"candidates\": 20, "
    "\"lambda\": 0.90000000000000002, \"full_threshold\": 27, "
    "\"relaxed_threshold\": 24.300000000000001},\n"
    "    {\"kind\": \"level_end\", \"level\": 3, \"candidates\": 20, "
    "\"evaluated\": 20, \"frequent\": 2, \"retained\": 3, \"pruned\": 17, "
    "\"completed\": true},\n"
    "    {\"kind\": \"level_start\", \"level\": 4, \"candidates\": 2, "
    "\"lambda\": 0.93103448275862066, \"full_threshold\": "
    "78.300000000000011, \"relaxed_threshold\": 72.900000000000006},\n"
    "    {\"kind\": \"level_end\", \"level\": 4, \"candidates\": 2, "
    "\"evaluated\": 2, \"frequent\": 0, \"retained\": 0, \"pruned\": 2, "
    "\"completed\": true},\n"
    "    {\"kind\": \"run_end\", \"reason\": \"completed\", \"patterns\": "
    "15, \"levels\": 4}\n"
    "  ]\n"
    "}\n";


const char kMppmSeedTripMetrics[] =
    "{\n"
    "  \"counters\": {\n"
    "    \"mine.candidates.generated\": 64,\n"
    "    \"mine.candidates.pruned\": 64,\n"
    "    \"mine.guard.trips\": 1,\n"
    "    \"mine.guard.trips.memory-budget\": 1,\n"
    "    \"mine.level.00003.candidates\": 64,\n"
    "    \"mine.levels.started\": 1,\n"
    "    \"mine.runs\": 1\n"
    "  },\n"
    "  \"gauges\": {\n"
    "    \"mine.last.guaranteed_complete_up_to\": 0,\n"
    "    \"mine.last.longest_frequent_length\": 0,\n"
    "    \"mine.last.n_used\": 0\n"
    "  },\n"
    "  \"histograms\": {\n"
    "    \"mine.candidate.pil_bytes\": {\"bounds\": [64, 256, 1024, 4096, "
    "16384, 65536, 262144, 1048576, 4194304, 16777216, 67108864], \"buckets\": "
    "[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], \"count\": 0, \"sum\": 0},\n"
    "    \"mine.candidate.support\": {\"bounds\": [1, 2, 4, 8, 16, 32, 64, "
    "128, 256, 512, 1024, 4096, 16384, 65536, 262144, 1048576], \"buckets\": "
    "[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], \"count\": 0, "
    "\"sum\": 0}\n"
    "  }\n"
    "}\n";
const char kMppmSeedTripTrace[] =
    "{\n"
    "  \"events\": [\n"
    "    {\"kind\": \"run_start\", \"algorithm\": \"mppm\", \"kernel_tier\": "
    "\"auto\"},\n"
    "    {\"kind\": \"level_start\", \"level\": 3, \"candidates\": 64, "
    "\"lambda\": 1, \"full_threshold\": 27, \"relaxed_threshold\": 27},\n"
    "    {\"kind\": \"guard_trip\", \"level\": 3, \"reason\": "
    "\"memory-budget\"},\n"
    "    {\"kind\": \"level_end\", \"level\": 3, \"candidates\": 64, "
    "\"evaluated\": 0, \"frequent\": 0, \"retained\": 0, \"pruned\": 64, "
    "\"completed\": false},\n"
    "    {\"kind\": \"run_end\", \"reason\": \"memory-budget\", \"patterns\": "
    "0, \"levels\": 1}\n"
    "  ]\n"
    "}\n";
const char kMppBudgetTripMetrics[] =
    "{\n"
    "  \"counters\": {\n"
    "    \"mine.candidates.evaluated\": 4,\n"
    "    \"mine.candidates.frequent\": 4,\n"
    "    \"mine.candidates.generated\": 20,\n"
    "    \"mine.candidates.pruned\": 16,\n"
    "    \"mine.candidates.retained\": 4,\n"
    "    \"mine.guard.trips\": 1,\n"
    "    \"mine.guard.trips.memory-budget\": 1,\n"
    "    \"mine.level.00001.candidates\": 4,\n"
    "    \"mine.level.00001.evaluated\": 4,\n"
    "    \"mine.level.00001.frequent\": 4,\n"
    "    \"mine.level.00001.retained\": 4,\n"
    "    \"mine.level.00002.candidates\": 16,\n"
    "    \"mine.levels.completed\": 1,\n"
    "    \"mine.levels.started\": 2,\n"
    "    \"mine.patterns.emitted\": 4,\n"
    "    \"mine.runs\": 1\n"
    "  },\n"
    "  \"gauges\": {\n"
    "    \"mine.last.guaranteed_complete_up_to\": 1,\n"
    "    \"mine.last.longest_frequent_length\": 1,\n"
    "    \"mine.last.n_used\": 22\n"
    "  },\n"
    "  \"histograms\": {\n"
    "    \"mine.candidate.pil_bytes\": {\"bounds\": [64, 256, 1024, 4096, "
    "16384, 65536, 262144, 1048576, 4194304, 16777216, 67108864], \"buckets\": "
    "[0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], \"count\": 4, \"sum\": 768},\n"
    "    \"mine.candidate.support\": {\"bounds\": [1, 2, 4, 8, 16, 32, 64, "
    "128, 256, 512, 1024, 4096, 16384, 65536, 262144, 1048576], \"buckets\": "
    "[0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], \"count\": 4, "
    "\"sum\": 64}\n"
    "  }\n"
    "}\n";
const char kMppBudgetTripTrace[] =
    "{\n"
    "  \"events\": [\n"
    "    {\"kind\": \"run_start\", \"algorithm\": \"mpp\", \"kernel_tier\": "
    "\"auto\"},\n"
    "    {\"kind\": \"level_start\", \"level\": 1, \"candidates\": 4, "
    "\"lambda\": 0.34375, \"full_threshold\": 3.2000000000000002, "
    "\"relaxed_threshold\": 1.1000000000000001},\n"
    "    {\"kind\": \"level_end\", \"level\": 1, \"candidates\": 4, "
    "\"evaluated\": 4, \"frequent\": 4, \"retained\": 4, \"pruned\": 0, "
    "\"completed\": true},\n"
    "    {\"kind\": \"level_start\", \"level\": 2, \"candidates\": 16, "
    "\"lambda\": 0.35483870967741937, \"full_threshold\": 9.3000000000000007, "
    "\"relaxed_threshold\": 3.3000000000000003},\n"
    "    {\"kind\": \"guard_trip\", \"level\": 2, \"reason\": "
    "\"memory-budget\"},\n"
    "    {\"kind\": \"level_end\", \"level\": 2, \"candidates\": 16, "
    "\"evaluated\": 0, \"frequent\": 0, \"retained\": 0, \"pruned\": 16, "
    "\"completed\": false},\n"
    "    {\"kind\": \"run_end\", \"reason\": \"memory-budget\", \"patterns\": "
    "4, \"levels\": 2}\n"
    "  ]\n"
    "}\n";
const char kEnumExtensionTripMetrics[] =
    "{\n"
    "  \"counters\": {\n"
    "    \"mine.candidates.evaluated\": 4,\n"
    "    \"mine.candidates.frequent\": 4,\n"
    "    \"mine.candidates.generated\": 20,\n"
    "    \"mine.candidates.pruned\": 16,\n"
    "    \"mine.candidates.retained\": 4,\n"
    "    \"mine.guard.trips\": 1,\n"
    "    \"mine.guard.trips.memory-budget\": 1,\n"
    "    \"mine.level.00001.candidates\": 4,\n"
    "    \"mine.level.00001.evaluated\": 4,\n"
    "    \"mine.level.00001.frequent\": 4,\n"
    "    \"mine.level.00001.retained\": 4,\n"
    "    \"mine.level.00002.candidates\": 16,\n"
    "    \"mine.levels.completed\": 1,\n"
    "    \"mine.levels.started\": 2,\n"
    "    \"mine.patterns.emitted\": 4,\n"
    "    \"mine.runs\": 1\n"
    "  },\n"
    "  \"gauges\": {\n"
    "    \"mine.last.guaranteed_complete_up_to\": 1,\n"
    "    \"mine.last.longest_frequent_length\": 1,\n"
    "    \"mine.last.n_used\": 4\n"
    "  },\n"
    "  \"histograms\": {\n"
    "    \"mine.candidate.pil_bytes\": {\"bounds\": [64, 256, 1024, 4096, "
    "16384, 65536, 262144, 1048576, 4194304, 16777216, 67108864], \"buckets\": "
    "[0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], \"count\": 4, \"sum\": 768},\n"
    "    \"mine.candidate.support\": {\"bounds\": [1, 2, 4, 8, 16, 32, 64, "
    "128, 256, 512, 1024, 4096, 16384, 65536, 262144, 1048576], \"buckets\": "
    "[0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], \"count\": 4, "
    "\"sum\": 64}\n"
    "  }\n"
    "}\n";
const char kEnumExtensionTripTrace[] =
    "{\n"
    "  \"events\": [\n"
    "    {\"kind\": \"run_start\", \"algorithm\": \"enum\", \"kernel_tier\": "
    "\"auto\"},\n"
    "    {\"kind\": \"level_start\", \"level\": 1, \"candidates\": 4, "
    "\"lambda\": 1, \"full_threshold\": 3.2000000000000002, "
    "\"relaxed_threshold\": 3.2000000000000002},\n"
    "    {\"kind\": \"level_end\", \"level\": 1, \"candidates\": 4, "
    "\"evaluated\": 4, \"frequent\": 4, \"retained\": 4, \"pruned\": 0, "
    "\"completed\": true},\n"
    "    {\"kind\": \"level_start\", \"level\": 2, \"candidates\": 16, "
    "\"lambda\": 1, \"full_threshold\": 9.3000000000000007, "
    "\"relaxed_threshold\": 9.3000000000000007},\n"
    "    {\"kind\": \"guard_trip\", \"level\": 2, \"reason\": "
    "\"memory-budget\"},\n"
    "    {\"kind\": \"level_end\", \"level\": 2, \"candidates\": 16, "
    "\"evaluated\": 0, \"frequent\": 0, \"retained\": 0, \"pruned\": 16, "
    "\"completed\": false},\n"
    "    {\"kind\": \"run_end\", \"reason\": \"memory-budget\", \"patterns\": "
    "4, \"levels\": 2}\n"
    "  ]\n"
    "}\n";

const char kEnumCandidateCapMetrics[] =
    "{\n"
    "  \"counters\": {\n"
    "    \"mine.candidates.evaluated\": 20,\n"
    "    \"mine.candidates.frequent\": 13,\n"
    "    \"mine.candidates.generated\": 84,\n"
    "    \"mine.candidates.pruned\": 64,\n"
    "    \"mine.candidates.retained\": 20,\n"
    "    \"mine.guard.trips\": 1,\n"
    "    \"mine.guard.trips.candidate-cap\": 1,\n"
    "    \"mine.level.00001.candidates\": 4,\n"
    "    \"mine.level.00001.evaluated\": 4,\n"
    "    \"mine.level.00001.frequent\": 4,\n"
    "    \"mine.level.00001.retained\": 4,\n"
    "    \"mine.level.00002.candidates\": 16,\n"
    "    \"mine.level.00002.evaluated\": 16,\n"
    "    \"mine.level.00002.frequent\": 9,\n"
    "    \"mine.level.00002.retained\": 16,\n"
    "    \"mine.level.00003.candidates\": 64,\n"
    "    \"mine.levels.completed\": 2,\n"
    "    \"mine.levels.started\": 3,\n"
    "    \"mine.patterns.emitted\": 13,\n"
    "    \"mine.runs\": 1\n"
    "  },\n"
    "  \"gauges\": {\n"
    "    \"mine.last.guaranteed_complete_up_to\": 2,\n"
    "    \"mine.last.longest_frequent_length\": 2,\n"
    "    \"mine.last.n_used\": 4\n"
    "  },\n"
    "  \"histograms\": {\n"
    "    \"mine.candidate.pil_bytes\": {\"bounds\": [64, 256, 1024, 4096, "
    "16384, 65536, 262144, 1048576, 4194304, 16777216, 67108864], \"buckets\": "
    "[4, 16, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], \"count\": 20, \"sum\": 2640},\n"
    "    \"mine.candidate.support\": {\"bounds\": [1, 2, 4, 8, 16, 32, 64, "
    "128, 256, 512, 1024, 4096, 16384, 65536, 262144, 1048576], \"buckets\": "
    "[0, 0, 4, 3, 9, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], \"count\": 20, "
    "\"sum\": 250}\n"
    "  }\n"
    "}\n";
const char kEnumCandidateCapTrace[] =
    "{\n"
    "  \"events\": [\n"
    "    {\"kind\": \"run_start\", \"algorithm\": \"enum\", \"kernel_tier\": "
    "\"auto\"},\n"
    "    {\"kind\": \"level_start\", \"level\": 1, \"candidates\": 4, "
    "\"lambda\": 1, \"full_threshold\": 3.2000000000000002, "
    "\"relaxed_threshold\": 3.2000000000000002},\n"
    "    {\"kind\": \"level_end\", \"level\": 1, \"candidates\": 4, "
    "\"evaluated\": 4, \"frequent\": 4, \"retained\": 4, \"pruned\": 0, "
    "\"completed\": true},\n"
    "    {\"kind\": \"level_start\", \"level\": 2, \"candidates\": 16, "
    "\"lambda\": 1, \"full_threshold\": 9.3000000000000007, "
    "\"relaxed_threshold\": 9.3000000000000007},\n"
    "    {\"kind\": \"level_end\", \"level\": 2, \"candidates\": 16, "
    "\"evaluated\": 16, \"frequent\": 9, \"retained\": 16, \"pruned\": 0, "
    "\"completed\": true},\n"
    "    {\"kind\": \"level_start\", \"level\": 3, \"candidates\": 64, "
    "\"lambda\": 1, \"full_threshold\": 27, \"relaxed_threshold\": 27},\n"
    "    {\"kind\": \"guard_trip\", \"level\": 3, \"reason\": "
    "\"candidate-cap\"},\n"
    "    {\"kind\": \"level_end\", \"level\": 3, \"candidates\": 64, "
    "\"evaluated\": 0, \"frequent\": 0, \"retained\": 0, \"pruned\": 64, "
    "\"completed\": false},\n"
    "    {\"kind\": \"run_end\", \"reason\": \"candidate-cap\", \"patterns\": "
    "13, \"levels\": 3}\n"
    "  ]\n"
    "}\n";

}  // namespace
}  // namespace pgm
