#ifndef PGM_SERVE_SERVICE_H_
#define PGM_SERVE_SERVICE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/guard.h"
#include "core/miner.h"
#include "core/trace.h"
#include "corpus/executor.h"
#include "corpus/plan.h"
#include "serve/cache.h"
#include "serve/job.h"
#include "serve/queue.h"
#include "seq/sequence.h"
#include "util/backoff.h"
#include "util/limits.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace pgm {

/// Tuning and plumbing for a MiningService instance.
struct ServiceConfig {
  /// Admission-queue capacity; jobs past this are shed, never queued.
  std::size_t queue_capacity = 64;
  /// Worker threads draining the queue (each runs whole jobs; mining-internal
  /// parallelism is the job's own config.threads).
  std::size_t workers = 1;
  /// Server-side ceilings on every job's budgets (`pgm serve
  /// --max-deadline-ms` sets deadline_ms). A job asking for "unlimited"
  /// gets the ceiling; a job asking for more than the ceiling is clamped to
  /// it, never up. deadline_ms = -1 means no deadline ceiling; a 0 budget
  /// field means no ceiling on that budget.
  ResourceLimits default_limits;
  /// Result-cache budget in bytes; 0 disables caching.
  std::uint64_t cache_capacity_bytes = 0;
  /// Retry schedule for transient input-load faults (kIoError only).
  RetryPolicy io_retry;
  /// Backoff hint returned with kUnavailable when admission sheds a job.
  std::int64_t retry_after_ms = 50;
  /// Optional metrics/trace sinks; must outlive the service. The service
  /// emits serve.* metrics and kJob* trace events here and attaches the same
  /// observer to every mining run.
  const MiningObserver* observer = nullptr;
  /// Resolves a job's input spec to a sequence. Required. Runs on worker
  /// threads, so it must be thread-safe; kIoError returns are treated as
  /// transient and retried per io_retry.
  std::function<StatusOr<Sequence>(const std::string&)> loader;
  /// Resolves a corpus job's input spec (corpus_fragment_length > 0) to a
  /// fragment plan. Optional — corpus jobs fail with FailedPrecondition
  /// when unset. Same threading and retry contract as `loader`.
  std::function<StatusOr<CorpusPlan>(const std::string&,
                                     const CorpusPlanOptions&)>
      corpus_loader;
};

/// A long-lived, fault-tolerant mining service: bounded admission, clamped
/// per-request budgets, result caching, retry of transient input faults, and
/// graceful drain.
///
/// Lifecycle: construct → Submit(...) any number of times → Start() →
/// Submit(...) more → Join(). Submissions are accepted both before Start
/// (they queue up; useful for deterministic batch runs) and while running.
/// BeginShutdown() — safe from any thread, including a signal-watcher —
/// stops admissions and latches the service-wide CancelToken; running jobs
/// stop at their next guard poll and return partial-but-sound results with
/// termination = cancelled, and queued jobs drain the same way. Join()
/// always returns one JobResponse per submitted job (shed ones included),
/// sorted by job id.
class MiningService {
 public:
  explicit MiningService(ServiceConfig config);
  /// Joins the drain if the caller forgot to; prefer calling Join().
  ~MiningService();

  MiningService(const MiningService&) = delete;
  MiningService& operator=(const MiningService&) = delete;

  /// Admission control. Returns the job id, or kUnavailable when the queue
  /// is full or the service is draining — in which case a shed JobResponse
  /// (status kUnavailable, retry_after_ms set) is also recorded so Join()
  /// accounts for the job.
  StatusOr<std::int64_t> Submit(MiningJob job);

  /// Starts the drain: a host thread runs the queue loop on a ThreadPool of
  /// config.workers threads. Idempotent.
  void Start();

  /// Graceful drain: stop admitting, cancel in-flight work. Does not wait —
  /// call Join() to collect. Idempotent, thread-safe, async-signal-watcher
  /// safe (it only flips atomics, closes the queue, and bumps metrics).
  void BeginShutdown();

  /// Closes admissions, waits for every queued job to finish, and returns
  /// all responses sorted by id. After Join() the service is inert: further
  /// Submits are shed with kUnavailable.
  std::vector<JobResponse> Join();

  /// True once BeginShutdown (or Join) has run.
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// The service-wide cancellation token (latched by BeginShutdown).
  const CancelToken& cancel_token() const { return cancel_; }

  /// The registry serve.* metrics land in: the observer's, or an internal
  /// one when no observer metrics were supplied.
  const MetricsRegistry& metrics() const { return *metrics_; }

  const ResultCache& cache() const { return cache_; }

  /// The budgets a job asking for `requested` would actually run under.
  /// Exposed for tests pinning the clamp table.
  ResourceLimits ClampLimits(const ResourceLimits& requested) const;

 private:
  void WorkerDrainLoop();
  /// Executes one job start to finish and records its response.
  void Process(MiningJob job);
  /// The single-sequence job body: load, cache, clamp, mine. Fills
  /// response->result or ->status.
  void ExecuteSingle(const MiningJob& job, JobResponse* response);
  /// The corpus job body: plan (with retry), fan out fragments, aggregate.
  /// Corpus results bypass the ResultCache — the cache key is built from
  /// one sequence's bytes and a corpus never materializes as one sequence.
  void ExecuteCorpus(const MiningJob& job, JobResponse* response);
  /// `requested` with budgets clamped (a clamped deadline is counted) and
  /// the drain token and service observer attached.
  MinerConfig RunConfig(const MinerConfig& requested);
  /// Loads the job's input with transient-fault retry. Sets *attempts.
  StatusOr<Sequence> LoadWithRetry(const std::string& input, int* attempts);
  void RecordResponse(JobResponse response);

  ServiceConfig config_;
  MetricsRegistry own_metrics_;
  MetricsRegistry* metrics_;  // observer's registry or &own_metrics_
  MiningTrace* trace_;        // observer's trace or null

  JobQueue queue_;
  ResultCache cache_;
  CancelToken cancel_;
  ThreadPool pool_;

  std::atomic<bool> draining_{false};
  std::atomic<std::int64_t> next_id_{1};

  Mutex mutex_{kLockRankService};
  std::vector<JobResponse> responses_ PGM_GUARDED_BY(mutex_);
  bool started_ PGM_GUARDED_BY(mutex_) = false;
  bool joined_ PGM_GUARDED_BY(mutex_) = false;
  std::thread host_;  // runs the ThreadPool drain; joined in Join()
};

}  // namespace pgm

#endif  // PGM_SERVE_SERVICE_H_
