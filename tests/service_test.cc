// The fault campaign for the mining service: admission shedding under
// queue saturation, transient-fault recovery vs. loud permanent failures,
// budget clamping, every TerminationReason, cache behavior, graceful drain,
// and the serve.* metrics/trace contract. Every scenario is deterministic —
// fault injection and latches, never timing.

#include "serve/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "core/trace.h"
#include "seq/alphabet.h"
#include "seq/sequence.h"
#include "serve/job.h"
#include "util/backoff.h"
#include "util/fault_injection.h"
#include "util/io.h"
#include "util/metrics.h"

namespace pgm {
namespace {

constexpr char kDna[] = "ACGTACGTACGGTTACACGTACGTAACCGGTT";

// A loader that treats the input spec as literal DNA residues.
ServiceConfig InlineLoaderConfig() {
  ServiceConfig config;
  config.loader = [](const std::string& input) -> StatusOr<Sequence> {
    return Sequence::FromString(input, Alphabet::Dna());
  };
  return config;
}

MiningJob DnaJob(const std::string& residues = kDna) {
  MiningJob job;
  job.input = residues;
  job.config.min_support_ratio = 0.5;
  return job;
}

std::string WriteTempFile(const std::string& name,
                          const std::string& contents) {
  const std::string path = testing::TempDir() + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  std::fwrite(contents.data(), 1, contents.size(), f);
  std::fclose(f);
  return path;
}

// A loader that reads the input spec as a path of raw residues — the route
// ScopedFileFault can intercept.
ServiceConfig FileLoaderConfig() {
  ServiceConfig config;
  config.loader = [](const std::string& input) -> StatusOr<Sequence> {
    PGM_ASSIGN_OR_RETURN(std::string text, ReadFileToString(input));
    return Sequence::FromString(text, Alphabet::Dna());
  };
  return config;
}

// --- Admission control ---

TEST(ServiceTest, BatchOfJobsCompletes) {
  MiningService service(InlineLoaderConfig());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service.Submit(DnaJob()).ok());
  }
  service.Start();
  std::vector<JobResponse> responses = service.Join();
  ASSERT_EQ(responses.size(), 3u);
  for (const JobResponse& response : responses) {
    EXPECT_TRUE(response.status.ok());
    EXPECT_EQ(response.result.termination, TerminationReason::kCompleted);
    EXPECT_GT(response.result.patterns.size(), 0u);
  }
  EXPECT_EQ(service.metrics().CounterValue("serve.jobs.completed"), 3u);
  EXPECT_EQ(service.metrics().CounterValue("serve.jobs.shed"), 0u);
}

TEST(ServiceTest, QueueSaturationShedsDeterministically) {
  ServiceConfig config = InlineLoaderConfig();
  config.queue_capacity = 2;
  config.retry_after_ms = 75;
  MiningService service(config);

  // All submissions land before the drain starts, so exactly the first two
  // are admitted and the rest shed — no race with the workers.
  std::vector<bool> admitted;
  for (int i = 0; i < 5; ++i) {
    admitted.push_back(service.Submit(DnaJob()).ok());
  }
  EXPECT_EQ(admitted, (std::vector<bool>{true, true, false, false, false}));

  service.Start();
  std::vector<JobResponse> responses = service.Join();
  ASSERT_EQ(responses.size(), 5u) << "shed jobs must still be accounted for";
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].id, static_cast<std::int64_t>(i + 1));
    if (i < 2) {
      EXPECT_TRUE(responses[i].status.ok());
    } else {
      EXPECT_EQ(responses[i].status.code(), StatusCode::kUnavailable);
      EXPECT_EQ(responses[i].retry_after_ms, 75);
      EXPECT_NE(responses[i].status.message().find("queue full"),
                std::string::npos);
    }
  }
  EXPECT_EQ(service.metrics().CounterValue("serve.jobs.shed"), 3u);
  EXPECT_EQ(service.metrics().CounterValue("serve.jobs.admitted"), 2u);
}

TEST(ServiceTest, SubmitAfterShutdownIsShedAsDraining) {
  MiningService service(InlineLoaderConfig());
  service.Start();
  service.BeginShutdown();
  StatusOr<std::int64_t> id = service.Submit(DnaJob());
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(id.status().message().find("service draining"), std::string::npos);
  std::vector<JobResponse> responses = service.Join();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status.code(), StatusCode::kUnavailable);
}

// --- Input faults ---

TEST(ServiceTest, TransientLoadFaultRecoversViaRetry) {
  const std::string path = WriteTempFile("serve_transient.txt", kDna);
  ServiceConfig config = FileLoaderConfig();
  config.io_retry.max_attempts = 3;
  config.io_retry.base_delay_ms = 5;
  MiningService service(config);

  FileFault fault;
  fault.kind = FileFault::Kind::kOpenError;
  fault.max_hits = 1;  // first attempt fails, the retry succeeds
  ScopedFileFault scope(fault);
  ScopedBackoffRecorder backoff;

  MiningJob job = DnaJob();
  job.input = path;
  ASSERT_TRUE(service.Submit(std::move(job)).ok());
  service.Start();
  std::vector<JobResponse> responses = service.Join();

  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].status.ok());
  EXPECT_EQ(responses[0].load_attempts, 2);
  EXPECT_EQ(responses[0].result.termination, TerminationReason::kCompleted);
  EXPECT_EQ(scope.hits(), 1);
  EXPECT_EQ(service.metrics().CounterValue("serve.retries.attempted"), 1u);
  EXPECT_EQ(service.metrics().CounterValue("serve.retries.recovered"), 1u);
  std::remove(path.c_str());
}

TEST(ServiceTest, PermanentLoadFaultFailsLoudlyAfterRetries) {
  const std::string path = WriteTempFile("serve_permanent.txt", kDna);
  ServiceConfig config = FileLoaderConfig();
  config.io_retry.max_attempts = 3;
  config.io_retry.base_delay_ms = 5;
  MiningService service(config);

  FileFault fault;
  fault.kind = FileFault::Kind::kOpenError;  // max_hits 0 = permanent
  ScopedFileFault scope(fault);
  ScopedBackoffRecorder backoff;

  MiningJob job = DnaJob();
  job.input = path;
  ASSERT_TRUE(service.Submit(std::move(job)).ok());
  service.Start();
  std::vector<JobResponse> responses = service.Join();

  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status.code(), StatusCode::kIoError);
  EXPECT_EQ(responses[0].load_attempts, 3);
  EXPECT_EQ(scope.hits(), 3);
  EXPECT_EQ(service.metrics().CounterValue("serve.jobs.failed"), 1u);
  EXPECT_EQ(service.metrics().CounterValue("serve.retries.attempted"), 2u);
  EXPECT_EQ(service.metrics().CounterValue("serve.retries.recovered"), 0u);
  std::remove(path.c_str());
}

TEST(ServiceTest, CorruptInputIsNeverRetried) {
  ServiceConfig config;
  std::atomic<int> calls{0};
  config.io_retry.max_attempts = 5;
  config.loader = [&calls](const std::string&) -> StatusOr<Sequence> {
    calls.fetch_add(1);
    return Status::Corruption("bad residues");
  };
  MiningService service(config);
  ASSERT_TRUE(service.Submit(DnaJob()).ok());
  service.Start();
  std::vector<JobResponse> responses = service.Join();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status.code(), StatusCode::kCorruption);
  EXPECT_EQ(responses[0].load_attempts, 1);
  EXPECT_EQ(calls.load(), 1) << "retry must not mask corrupt bytes";
}

TEST(ServiceTest, UnknownAlgorithmIsInvalidArgument) {
  MiningService service(InlineLoaderConfig());
  MiningJob job = DnaJob();
  job.algorithm = "bogus";
  ASSERT_TRUE(service.Submit(std::move(job)).ok());
  service.Start();
  std::vector<JobResponse> responses = service.Join();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status.code(), StatusCode::kInvalidArgument);
}

TEST(ServiceTest, UncappedEnumFailsAloneBeforeLoading) {
  ServiceConfig config = InlineLoaderConfig();
  std::atomic<int> calls{0};
  config.loader = [&calls](const std::string& input) -> StatusOr<Sequence> {
    calls.fetch_add(1);
    return Sequence::FromString(input, Alphabet::Dna());
  };
  MiningService service(config);
  MiningJob uncapped = DnaJob();
  uncapped.algorithm = "enum";
  MiningJob capped = uncapped;
  capped.config.max_length = 3;
  ASSERT_TRUE(service.Submit(std::move(uncapped)).ok());
  ASSERT_TRUE(service.Submit(std::move(capped)).ok());
  service.Start();
  std::vector<JobResponse> responses = service.Join();
  ASSERT_EQ(responses.size(), 2u);
  int refused = 0;
  for (const JobResponse& response : responses) {
    if (response.status.ok()) continue;
    ++refused;
    EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(response.status.message().find("max-length"),
              std::string::npos)
        << response.status.message();
    EXPECT_EQ(response.load_attempts, 0);
  }
  EXPECT_EQ(refused, 1);
  EXPECT_EQ(calls.load(), 1) << "the refused job must not load its input";
}

// --- Budget clamping and graceful degradation ---

TEST(ServiceTest, ClampTable) {
  ServiceConfig config = InlineLoaderConfig();
  config.default_limits.deadline_ms = 100;
  config.default_limits.pil_memory_budget_bytes = 1000;
  config.default_limits.max_level_candidates = 50;
  config.default_limits.max_total_candidates = 500;
  MiningService service(config);

  // "Unlimited" requests land exactly on the ceilings.
  ResourceLimits unlimited;
  ResourceLimits effective = service.ClampLimits(unlimited);
  EXPECT_EQ(effective.deadline_ms, 100);
  EXPECT_EQ(effective.pil_memory_budget_bytes, 1000u);
  EXPECT_EQ(effective.max_level_candidates, 50u);
  EXPECT_EQ(effective.max_total_candidates, 500u);

  // Requests under the ceilings pass through untouched.
  ResourceLimits modest;
  modest.deadline_ms = 50;
  modest.pil_memory_budget_bytes = 500;
  modest.max_level_candidates = 10;
  modest.max_total_candidates = 100;
  effective = service.ClampLimits(modest);
  EXPECT_EQ(effective.deadline_ms, 50);
  EXPECT_EQ(effective.pil_memory_budget_bytes, 500u);
  EXPECT_EQ(effective.max_level_candidates, 10u);
  EXPECT_EQ(effective.max_total_candidates, 100u);

  // Greedy requests are clamped down, never up.
  ResourceLimits greedy;
  greedy.deadline_ms = 9999;
  greedy.pil_memory_budget_bytes = 1u << 30;
  greedy.max_level_candidates = 5000;
  greedy.max_total_candidates = 50000;
  effective = service.ClampLimits(greedy);
  EXPECT_EQ(effective.deadline_ms, 100);
  EXPECT_EQ(effective.pil_memory_budget_bytes, 1000u);
  EXPECT_EQ(effective.max_level_candidates, 50u);
  EXPECT_EQ(effective.max_total_candidates, 500u);
}

TEST(ServiceTest, NoCeilingsMeansRequestsPassThrough) {
  MiningService service(InlineLoaderConfig());
  ResourceLimits requested;
  requested.deadline_ms = 1234;
  requested.max_total_candidates = 42;
  ResourceLimits effective = service.ClampLimits(requested);
  EXPECT_EQ(effective.deadline_ms, 1234);
  EXPECT_EQ(effective.max_total_candidates, 42u);
  EXPECT_EQ(effective.pil_memory_budget_bytes, 0u);
}

TEST(ServiceTest, BudgetTripsDegradeToPartialResults) {
  // Each poisoned budget must surface as an OK response whose termination
  // names the tripped budget — graceful degradation, not failure.
  struct Case {
    const char* name;
    ResourceLimits limits;
    TerminationReason want;
  };
  std::vector<Case> cases;
  Case deadline;
  deadline.name = "deadline";
  deadline.limits.deadline_ms = 0;  // trips at the first guard check
  deadline.want = TerminationReason::kDeadline;
  cases.push_back(deadline);
  Case memory;
  memory.name = "memory";
  memory.limits.pil_memory_budget_bytes = 1;
  memory.want = TerminationReason::kMemoryBudget;
  cases.push_back(memory);
  Case cap;
  cap.name = "cap";
  cap.limits.max_total_candidates = 1;
  cap.want = TerminationReason::kCandidateCap;
  cases.push_back(cap);

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    MiningService service(InlineLoaderConfig());
    MiningJob job = DnaJob();
    job.config.limits = c.limits;
    ASSERT_TRUE(service.Submit(std::move(job)).ok());
    service.Start();
    std::vector<JobResponse> responses = service.Join();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_TRUE(responses[0].status.ok())
        << "budget exhaustion is not an error";
    EXPECT_EQ(responses[0].result.termination, c.want);
    EXPECT_EQ(service.metrics().CounterValue(
                  std::string("serve.termination.") +
                  TerminationReasonToString(c.want)),
              1u);
  }
}

TEST(ServiceTest, ServerCeilingClampsAndCounts) {
  ServiceConfig config = InlineLoaderConfig();
  // Pathological ceiling: everything trips.
  config.default_limits.deadline_ms = 0;
  MiningService service(config);
  ASSERT_TRUE(service.Submit(DnaJob()).ok());
  service.Start();
  std::vector<JobResponse> responses = service.Join();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].status.ok());
  EXPECT_EQ(responses[0].result.termination, TerminationReason::kDeadline);
  EXPECT_EQ(service.metrics().CounterValue("serve.deadline.clamped"), 1u);
}

// deadline_ms = -1 is "no deadline ceiling" on its own: the other ceilings
// still clamp, while every requested deadline, unlimited included, passes
// through and nothing counts as clamped.
TEST(ServiceTest, NegativeDeadlineCeilingLeavesDeadlinesAlone) {
  ServiceConfig config = InlineLoaderConfig();
  config.default_limits.deadline_ms = -1;
  config.default_limits.max_total_candidates = 500;
  MiningService service(config);

  ResourceLimits effective = service.ClampLimits(ResourceLimits{});
  EXPECT_EQ(effective.deadline_ms, -1);
  EXPECT_EQ(effective.max_total_candidates, 500u);

  ResourceLimits greedy;
  greedy.deadline_ms = 60000;
  greedy.max_total_candidates = 50000;
  effective = service.ClampLimits(greedy);
  EXPECT_EQ(effective.deadline_ms, 60000);
  EXPECT_EQ(effective.max_total_candidates, 500u);

  MiningJob job = DnaJob();
  job.config.limits.deadline_ms = 60000;
  ASSERT_TRUE(service.Submit(std::move(job)).ok());
  service.Start();
  std::vector<JobResponse> responses = service.Join();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].status.ok());
  EXPECT_EQ(responses[0].result.termination, TerminationReason::kCompleted);
  EXPECT_EQ(service.metrics().CounterValue("serve.deadline.clamped"), 0u);
}

// --- Result cache ---

TEST(ServiceTest, RepeatJobHitsCacheAndMatchesMinedResult) {
  ServiceConfig config = InlineLoaderConfig();
  config.cache_capacity_bytes = 1 << 20;
  config.workers = 1;  // serial drain: the repeat is guaranteed to follow
  MiningService service(config);
  ASSERT_TRUE(service.Submit(DnaJob()).ok());
  ASSERT_TRUE(service.Submit(DnaJob()).ok());  // same sequence + config
  MiningJob other = DnaJob("TTTTGGGGTTTTGGGG");
  ASSERT_TRUE(service.Submit(std::move(other)).ok());
  service.Start();
  std::vector<JobResponse> responses = service.Join();

  ASSERT_EQ(responses.size(), 3u);
  EXPECT_FALSE(responses[0].cache_hit);
  EXPECT_TRUE(responses[1].cache_hit);
  EXPECT_FALSE(responses[2].cache_hit);
  ASSERT_EQ(responses[0].result.patterns.size(),
            responses[1].result.patterns.size());
  for (std::size_t i = 0; i < responses[0].result.patterns.size(); ++i) {
    EXPECT_EQ(responses[0].result.patterns[i].pattern,
              responses[1].result.patterns[i].pattern);
    EXPECT_EQ(responses[0].result.patterns[i].support,
              responses[1].result.patterns[i].support);
  }
  EXPECT_EQ(service.metrics().CounterValue("serve.cache.hits"), 1u);
  EXPECT_EQ(service.metrics().CounterValue("serve.cache.insertions"), 2u);
}

TEST(ServiceTest, PartialResultsAreNeverCached) {
  ServiceConfig config = InlineLoaderConfig();
  config.cache_capacity_bytes = 1 << 20;
  config.workers = 1;
  MiningService service(config);
  MiningJob tripped = DnaJob();
  tripped.config.limits.deadline_ms = 0;
  ASSERT_TRUE(service.Submit(std::move(tripped)).ok());
  MiningJob again = DnaJob();
  again.config.limits.deadline_ms = 0;
  ASSERT_TRUE(service.Submit(std::move(again)).ok());
  service.Start();
  std::vector<JobResponse> responses = service.Join();
  ASSERT_EQ(responses.size(), 2u);
  // The second identical partial job must re-mine, not inherit the trip.
  EXPECT_FALSE(responses[0].cache_hit);
  EXPECT_FALSE(responses[1].cache_hit);
  EXPECT_EQ(service.cache().entry_count(), 0u);
}

// --- Graceful drain ---

TEST(ServiceTest, ShutdownCancelsInFlightAndQueuedJobs) {
  std::promise<void> first_started;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  std::atomic<bool> first{true};

  ServiceConfig config;
  config.workers = 1;
  config.loader =
      [&](const std::string& input) -> StatusOr<Sequence> {
    if (first.exchange(false)) {
      first_started.set_value();
      release_future.wait();  // hold job 1 until the drain has begun
    }
    return Sequence::FromString(input, Alphabet::Dna());
  };
  MiningService service(config);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service.Submit(DnaJob()).ok());
  }
  service.Start();
  first_started.get_future().wait();
  service.BeginShutdown();  // in-flight job 1, queued jobs 2 and 3
  release.set_value();
  std::vector<JobResponse> responses = service.Join();

  ASSERT_EQ(responses.size(), 3u) << "drain must flush every admitted job";
  for (const JobResponse& response : responses) {
    EXPECT_TRUE(response.status.ok());
    EXPECT_EQ(response.result.termination, TerminationReason::kCancelled)
        << "cancelled partials keep their termination reason";
  }
  EXPECT_EQ(service.metrics().CounterValue("serve.shutdown.begun"), 1u);
  EXPECT_EQ(
      service.metrics().CounterValue("serve.termination.cancelled"), 3u);
}

TEST(ServiceTest, BeginShutdownIsIdempotent) {
  MiningService service(InlineLoaderConfig());
  service.BeginShutdown();
  service.BeginShutdown();
  EXPECT_TRUE(service.draining());
  EXPECT_TRUE(service.cancel_token().cancelled());
  EXPECT_EQ(service.metrics().CounterValue("serve.shutdown.begun"), 1u);
  // No jobs were submitted; the drain is only joined, not inspected.
  (void)service.Join();
}

// --- Observability ---

TEST(ServiceTest, TraceRecordsJobLifecycleAndShedding) {
  MetricsRegistry metrics;
  MiningTrace trace;
  MiningObserver observer;
  observer.metrics = &metrics;
  observer.trace = &trace;
  ServiceConfig config = InlineLoaderConfig();
  config.queue_capacity = 1;
  config.retry_after_ms = 33;
  config.observer = &observer;
  MiningService service(config);
  ASSERT_TRUE(service.Submit(DnaJob()).ok());
  ASSERT_FALSE(service.Submit(DnaJob()).ok());  // shed
  service.Start();
  // The assertions below read the trace, not the responses.
  (void)service.Join();

  int admitted = 0, shed = 0, started = 0, ended = 0;
  for (const TraceEvent& event : trace.events()) {
    switch (event.kind) {
      case TraceEventKind::kJobAdmitted:
        ++admitted;
        break;
      case TraceEventKind::kJobShed:
        ++shed;
        EXPECT_EQ(event.retry_after_ms, 33);
        break;
      case TraceEventKind::kJobStart:
        ++started;
        break;
      case TraceEventKind::kJobEnd:
        ++ended;
        EXPECT_EQ(event.detail, "completed");
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(admitted, 1);
  EXPECT_EQ(shed, 1);
  EXPECT_EQ(started, 1);
  EXPECT_EQ(ended, 1);
  // serve.* metrics landed in the observer's registry, not a private one.
  EXPECT_EQ(&service.metrics(), &metrics);
  EXPECT_EQ(metrics.CounterValue("serve.jobs.shed"), 1u);
}

// --- Determinism across worker counts ---

TEST(ServiceTest, CompletedResultsAreIdenticalAcrossWorkerCounts) {
  auto run = [](std::size_t workers) {
    ServiceConfig config = InlineLoaderConfig();
    config.workers = workers;
    MiningService service(config);
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(service.Submit(DnaJob()).ok());
    }
    service.Start();
    return service.Join();
  };
  std::vector<JobResponse> serial = run(1);
  std::vector<JobResponse> parallel = run(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].result.patterns.size(),
              parallel[i].result.patterns.size());
    for (std::size_t p = 0; p < serial[i].result.patterns.size(); ++p) {
      EXPECT_EQ(serial[i].result.patterns[p].pattern,
                parallel[i].result.patterns[p].pattern);
      EXPECT_EQ(serial[i].result.patterns[p].support,
                parallel[i].result.patterns[p].support);
    }
  }
}

}  // namespace
}  // namespace pgm
