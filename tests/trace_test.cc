// Unit tests for the mining trace: event log semantics, the per-kind JSON
// schemas, volatile-field gating, and the event stream an observed mining
// run actually produces.

#include "core/trace.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/miner.h"
#include "datagen/generators.h"
#include "util/random.h"

namespace pgm {
namespace {

TEST(TraceTest, AppendSizeEventsClear) {
  MiningTrace trace;
  EXPECT_EQ(trace.size(), 0u);
  TraceEvent event;
  event.kind = TraceEventKind::kLevelStart;
  event.level = 3;
  trace.Append(event);
  event.kind = TraceEventKind::kLevelEnd;
  trace.Append(event);
  EXPECT_EQ(trace.size(), 2u);
  std::vector<TraceEvent> events = trace.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, TraceEventKind::kLevelStart);
  EXPECT_EQ(events[1].kind, TraceEventKind::kLevelEnd);
  trace.Clear();
  EXPECT_EQ(trace.size(), 0u);
}

TEST(TraceTest, KindNames) {
  EXPECT_STREQ(TraceEventKindToString(TraceEventKind::kRunStart), "run_start");
  EXPECT_STREQ(TraceEventKindToString(TraceEventKind::kLevelStart),
               "level_start");
  EXPECT_STREQ(TraceEventKindToString(TraceEventKind::kLevelEnd), "level_end");
  EXPECT_STREQ(TraceEventKindToString(TraceEventKind::kGuardTrip),
               "guard_trip");
  EXPECT_STREQ(TraceEventKindToString(TraceEventKind::kEstimate), "estimate");
  EXPECT_STREQ(TraceEventKindToString(TraceEventKind::kShardTiming),
               "shard_timing");
  EXPECT_STREQ(TraceEventKindToString(TraceEventKind::kRunEnd), "run_end");
}

TEST(TraceTest, EmptyTraceJson) {
  MiningTrace trace;
  EXPECT_EQ(trace.ToJson(), "{\n  \"events\": []\n}");
}

TEST(TraceTest, PerKindJsonSchemas) {
  MiningTrace trace;
  TraceEvent start;
  start.kind = TraceEventKind::kRunStart;
  start.detail = "mppm";
  start.kernel_tier = "auto";
  trace.Append(start);
  TraceEvent level;
  level.kind = TraceEventKind::kLevelStart;
  level.level = 4;
  level.candidates = 256;
  level.lambda = 0.5;
  level.full_threshold = 10.25;
  level.relaxed_threshold = 5.125;
  trace.Append(level);
  TraceEvent end;
  end.kind = TraceEventKind::kLevelEnd;
  end.level = 4;
  end.candidates = 256;
  end.evaluated = 200;
  end.frequent = 12;
  end.retained = 30;
  end.pruned = 226;
  end.completed = true;
  trace.Append(end);

  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("{\"kind\": \"run_start\", \"algorithm\": \"mppm\", "
                      "\"kernel_tier\": \"auto\"}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"kind\": \"level_start\", \"level\": 4, "
                      "\"candidates\": 256, \"lambda\": 0.5, "
                      "\"full_threshold\": 10.25, "
                      "\"relaxed_threshold\": 5.125}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"kind\": \"level_end\", \"level\": 4, "
                      "\"candidates\": 256, \"evaluated\": 200, "
                      "\"frequent\": 12, \"retained\": 30, \"pruned\": 226, "
                      "\"completed\": true}"),
            std::string::npos);
}

// Record ids and job algorithms come from the user, so every string field is
// escaped: a quote or backslash in one must not end the JSON string early.
TEST(TraceTest, StringFieldsAreEscaped) {
  MiningTrace trace;
  TraceEvent fragment;
  fragment.kind = TraceEventKind::kFragmentStart;
  fragment.detail = "rec\"1\\x";
  trace.Append(fragment);
  TraceEvent job;
  job.kind = TraceEventKind::kJobStart;
  job.detail = "a\"b";
  trace.Append(job);
  TraceEvent start;
  start.kind = TraceEventKind::kRunStart;
  start.detail = "tab\there";
  start.kernel_tier = "\\";
  trace.Append(start);

  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"record\": \"rec\\\"1\\\\x\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"algorithm\": \"a\\\"b\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"algorithm\": \"tab\\there\", \"kernel_tier\": "
                      "\"\\\\\""),
            std::string::npos)
      << json;
}

TEST(TraceTest, VolatileEventsGatedByOption) {
  MiningTrace trace;
  TraceEvent timing;
  timing.kind = TraceEventKind::kShardTiming;
  timing.level = 5;
  timing.candidates = 100;
  timing.workers = 4;
  timing.kernel_tier = "scalar";
  timing.seconds = 0.25;
  timing.fill_seconds = 0.125;
  timing.merge_seconds = 0.0625;
  timing.stall_seconds = 0.03125;
  trace.Append(timing);
  TraceEvent end;
  end.kind = TraceEventKind::kRunEnd;
  end.detail = "completed";
  end.patterns = 7;
  end.levels = 3;
  end.memory_bytes = 4096;
  trace.Append(end);

  // Default export: no shard timings, no memory field — byte-stable across
  // thread counts.
  const std::string stable = trace.ToJson();
  EXPECT_EQ(stable.find("shard_timing"), std::string::npos);
  EXPECT_EQ(stable.find("memory_peak_bytes"), std::string::npos);
  EXPECT_NE(stable.find("{\"kind\": \"run_end\", \"reason\": \"completed\", "
                        "\"patterns\": 7, \"levels\": 3}"),
            std::string::npos);

  TraceJsonOptions options;
  options.include_volatile = true;
  const std::string full = trace.ToJson(options);
  EXPECT_NE(full.find("{\"kind\": \"shard_timing\", \"level\": 5, "
                      "\"candidates\": 100, \"workers\": 4, "
                      "\"kernel_tier\": \"scalar\", "
                      "\"seconds\": 0.25, \"fill_seconds\": 0.125, "
                      "\"merge_seconds\": 0.0625, "
                      "\"stall_seconds\": 0.03125}"),
            std::string::npos);
  EXPECT_NE(full.find("\"memory_peak_bytes\": 4096"), std::string::npos);
}

// kernel_tier is deterministic given the config (ResolveKernel never
// consults timing or thread state), so it is not a volatile field: the
// run_start carrier prints in the default export, and within a shard_timing
// event the field is unconditional — only the event as a whole stays behind
// the include_volatile gate.
TEST(TraceTest, KernelTierIsNotVolatileGated) {
  MiningTrace trace;
  TraceEvent start;
  start.kind = TraceEventKind::kRunStart;
  start.detail = "mpp";
  start.kernel_tier = "scalar";
  trace.Append(start);
  TraceEvent timing;
  timing.kind = TraceEventKind::kShardTiming;
  timing.level = 2;
  timing.candidates = 8;
  timing.workers = 1;
  timing.kernel_tier = "avx2";
  trace.Append(timing);

  const std::string stable = trace.ToJson();
  EXPECT_NE(stable.find("\"kernel_tier\": \"scalar\""), std::string::npos)
      << "run_start's kernel_tier must survive the byte-stable export";
  EXPECT_EQ(stable.find("shard_timing"), std::string::npos);

  TraceJsonOptions options;
  options.include_volatile = true;
  const std::string full = trace.ToJson(options);
  EXPECT_NE(full.find("\"kernel_tier\": \"avx2\""), std::string::npos)
      << "shard_timing must name the resolved kernel implementation";
}

// An actual observed mining run produces a well-formed stream: run_start
// first, run_end last, every level_start paired with a level_end, and the
// level_end aggregates consistent with each other.
TEST(TraceTest, ObservedMiningRunIsWellFormed) {
  Rng rng(7);
  Sequence s = *UniformRandomSequence(80, Alphabet::Dna(), rng);
  MetricsRegistry metrics;
  MiningTrace trace;
  MiningObserver observer;
  observer.metrics = &metrics;
  observer.trace = &trace;
  MinerConfig config;
  config.min_gap = 1;
  config.max_gap = 3;
  config.min_support_ratio = 0.01;
  config.start_length = 1;
  config.em_order = 2;
  config.observer = &observer;
  MiningResult result = *MineMppm(s, config);

  std::vector<TraceEvent> events = trace.events();
  ASSERT_GE(events.size(), 2u);
  EXPECT_EQ(events.front().kind, TraceEventKind::kRunStart);
  EXPECT_EQ(events.front().detail, "mppm");
  EXPECT_EQ(events.back().kind, TraceEventKind::kRunEnd);
  EXPECT_EQ(events.back().detail, "completed");
  EXPECT_EQ(events.back().patterns, result.patterns.size());

  std::int64_t open_level = -1;
  std::size_t starts = 0;
  std::size_t ends = 0;
  bool saw_estimate = false;
  for (const TraceEvent& event : events) {
    switch (event.kind) {
      case TraceEventKind::kLevelStart:
        EXPECT_EQ(open_level, -1) << "nested level_start";
        open_level = event.level;
        ++starts;
        break;
      case TraceEventKind::kLevelEnd:
        EXPECT_EQ(open_level, event.level) << "unpaired level_end";
        open_level = -1;
        ++ends;
        EXPECT_LE(event.evaluated, event.candidates);
        EXPECT_LE(event.frequent, event.retained);
        EXPECT_EQ(event.pruned + event.retained, event.candidates);
        break;
      case TraceEventKind::kEstimate:
        saw_estimate = true;
        EXPECT_EQ(event.estimated_n, result.estimated_n);
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(open_level, -1) << "trace ended inside a level";
  EXPECT_EQ(starts, ends);
  EXPECT_EQ(starts, result.level_stats.size());
  EXPECT_TRUE(saw_estimate) << "MPPm must record its Theorem 2 estimate";
}

// Every shard_timing event names the length of the candidates its join
// builds: first the seed build's joins (lengths 2 .. start length; MPPm runs
// them before any level opens, MPP inside its first level), then one join
// per later level with candidates. Enumeration extends a level after
// closing it, so each of its joins precedes the level_start of the length
// it builds.
TEST(TraceTest, ShardTimingNamesTheLengthItsJoinBuilds) {
  Rng rng(11);
  Sequence s = *UniformRandomSequence(200, Alphabet::Dna(), rng);
  struct Run {
    const char* algorithm;
    std::int64_t start_length;
    std::int64_t max_length;
  };
  for (const Run& run :
       {Run{"mpp", 3, -1}, Run{"mppm", 3, -1}, Run{"enum", 2, 5}}) {
    SCOPED_TRACE(run.algorithm);
    MiningTrace trace;
    MiningObserver observer;
    observer.trace = &trace;
    MinerConfig config;
    config.min_gap = 1;
    config.max_gap = 3;
    config.min_support_ratio = 0.005;
    config.start_length = run.start_length;
    config.max_length = run.max_length;
    config.em_order = 2;
    config.observer = &observer;
    ASSERT_TRUE(Mine(run.algorithm, s, config).ok());

    std::vector<std::int64_t> expected;
    for (std::int64_t length = 2; length <= run.start_length; ++length) {
      expected.push_back(length);
    }
    std::vector<std::int64_t> joined;
    for (const TraceEvent& event : trace.events()) {
      if (event.kind == TraceEventKind::kShardTiming) {
        joined.push_back(event.level);
      } else if (event.kind == TraceEventKind::kLevelStart &&
                 event.level > run.start_length && event.candidates > 0) {
        expected.push_back(event.level);
      }
    }
    ASSERT_GE(expected.size(), static_cast<std::size_t>(run.start_length))
        << "the run must join past its first level";
    EXPECT_EQ(joined, expected);
  }
}

// The null observer records nothing and costs nothing observable.
TEST(TraceTest, NullObserverProducesIdenticalResults) {
  Rng rng(9);
  Sequence s = *UniformRandomSequence(60, Alphabet::Dna(), rng);
  MinerConfig config;
  config.min_gap = 0;
  config.max_gap = 2;
  config.min_support_ratio = 0.02;
  config.start_length = 1;
  config.em_order = 2;
  MiningResult plain = *MineMppm(s, config);

  MetricsRegistry metrics;
  MiningTrace trace;
  MiningObserver observer;
  observer.metrics = &metrics;
  observer.trace = &trace;
  MinerConfig observed_config = config;
  observed_config.observer = &observer;
  MiningResult observed = *MineMppm(s, observed_config);

  ASSERT_EQ(plain.patterns.size(), observed.patterns.size());
  for (std::size_t i = 0; i < plain.patterns.size(); ++i) {
    EXPECT_EQ(plain.patterns[i].pattern.ToShorthand(),
              observed.patterns[i].pattern.ToShorthand());
    EXPECT_EQ(plain.patterns[i].support, observed.patterns[i].support);
  }
  EXPECT_EQ(plain.total_candidates, observed.total_candidates);
  ASSERT_EQ(plain.level_stats.size(), observed.level_stats.size());
  for (std::size_t i = 0; i < plain.level_stats.size(); ++i) {
    EXPECT_EQ(plain.level_stats[i].length, observed.level_stats[i].length);
    EXPECT_EQ(plain.level_stats[i].num_candidates,
              observed.level_stats[i].num_candidates);
    EXPECT_EQ(plain.level_stats[i].num_frequent,
              observed.level_stats[i].num_frequent);
    EXPECT_EQ(plain.level_stats[i].num_retained,
              observed.level_stats[i].num_retained);
  }
}

}  // namespace
}  // namespace pgm
