#include "serve/service.h"

#include <algorithm>
#include <utility>

#include "serve/canonical.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace pgm {

namespace {

// Microsecond buckets: cache hits answer in tens of microseconds, so a
// millisecond-resolution histogram collapsed every hit (and most small
// mining jobs) into bucket 0. The top bucket still covers a 30 s job.
std::vector<std::uint64_t> LatencyBoundsUs() {
  return {50,      100,     250,     500,      1000,    2500,
          5000,    10000,   25000,   50000,    100000,  250000,
          500000,  1000000, 2500000, 5000000,  10000000, 30000000};
}

/// min over "-1 means absent" deadline ceilings.
std::int64_t MinDeadlineCeiling(std::int64_t a, std::int64_t b) {
  if (a < 0) return b;
  if (b < 0) return a;
  return std::min(a, b);
}

/// min over "0 means absent" budget ceilings: the client never gets more
/// than the server ceiling, and "unlimited" requests get exactly it.
std::uint64_t ClampBudget(std::uint64_t requested, std::uint64_t ceiling) {
  if (ceiling == 0) return requested;
  if (requested == 0) return ceiling;
  return std::min(requested, ceiling);
}

/// RetryTransient (util/backoff.h) that also counts the load's retries:
/// every attempt after the first was a retry, and a load that then
/// succeeded recovered.
template <typename LoadFn>
auto RetryCounted(const RetryPolicy& policy, MetricsRegistry* metrics,
                  int* attempts, LoadFn&& load) -> decltype(load()) {
  auto loaded = RetryTransient(policy, load, attempts);
  if (*attempts > 1) {
    metrics->GetCounter("serve.retries.attempted")
        ->Add(static_cast<std::uint64_t>(*attempts - 1));
    if (loaded.ok()) {
      metrics->GetCounter("serve.retries.recovered")->Increment();
    }
  }
  return loaded;
}

}  // namespace

MiningService::MiningService(ServiceConfig config)
    : config_(std::move(config)),
      metrics_(config_.observer != nullptr &&
                       config_.observer->metrics != nullptr
                   ? config_.observer->metrics
                   : &own_metrics_),
      trace_(config_.observer != nullptr ? config_.observer->trace : nullptr),
      queue_(config_.queue_capacity),
      cache_(config_.cache_capacity_bytes, metrics_),
      pool_(ThreadPool::ResolveThreadCount(
          static_cast<std::int64_t>(config_.workers))) {
  if (!config_.loader) {
    config_.loader = [](const std::string& input) -> StatusOr<Sequence> {
      return Status::FailedPrecondition("no loader configured for input: " +
                                        input);
    };
  }
}

// The responses were either collected by an earlier Join() or abandoned
// with the service; the discard only drops copies.
MiningService::~MiningService() { (void)Join(); }

StatusOr<std::int64_t> MiningService::Submit(MiningJob job) {
  const std::int64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  job.id = id;
  metrics_->GetCounter("serve.jobs.submitted")->Increment();

  JobResponse shed;
  shed.id = id;
  shed.input = job.input;
  shed.algorithm = job.algorithm;

  JobQueue::PushResult push = draining() ? JobQueue::PushResult::kClosed
                                         : queue_.TryPush(std::move(job));
  if (push == JobQueue::PushResult::kAccepted) {
    metrics_->GetCounter("serve.jobs.admitted")->Increment();
    const std::int64_t depth = static_cast<std::int64_t>(queue_.size());
    metrics_->GetGauge("serve.queue.depth")->Set(depth);
    metrics_->GetGauge("serve.queue.depth_peak")->SetMax(depth);
    if (trace_ != nullptr) {
      TraceEvent event;
      event.kind = TraceEventKind::kJobAdmitted;
      event.job = id;
      trace_->Append(std::move(event));
    }
    return id;
  }

  // Load shedding: answer immediately with a machine-readable reason and a
  // backoff hint — the queue never grows past its capacity.
  metrics_->GetCounter("serve.jobs.shed")->Increment();
  shed.retry_after_ms = config_.retry_after_ms;
  shed.status = Status::Unavailable(StrFormat(
      "%s; retry after %lld ms",
      push == JobQueue::PushResult::kFull ? "queue full" : "service draining",
      static_cast<long long>(config_.retry_after_ms)));
  if (trace_ != nullptr) {
    TraceEvent event;
    event.kind = TraceEventKind::kJobShed;
    event.job = id;
    event.retry_after_ms = config_.retry_after_ms;
    trace_->Append(std::move(event));
  }
  Status status = shed.status;
  RecordResponse(std::move(shed));
  return status;
}

void MiningService::Start() {
  MutexLock lock(mutex_);
  if (started_) return;
  started_ = true;
  // A host thread owns the fork-join: ThreadPool::Execute blocks its caller
  // until the drain finishes, and Join() must stay free to close the queue.
  host_ = std::thread(
      [this] { pool_.Execute([this](std::size_t) { WorkerDrainLoop(); }); });
}

void MiningService::BeginShutdown() {
  if (draining_.exchange(true, std::memory_order_acq_rel)) return;
  metrics_->GetCounter("serve.shutdown.begun")->Increment();
  // Order matters for the drain contract: close first so no new job can
  // slip in after the cancel latch, then cancel so in-flight and queued
  // jobs all observe it and flush partial results.
  queue_.Close();
  cancel_.RequestCancel();
}

std::vector<JobResponse> MiningService::Join() {
  Start();
  queue_.Close();
  bool join_host = false;
  {
    MutexLock lock(mutex_);
    if (!joined_) {
      joined_ = true;
      join_host = true;
    }
  }
  // Joined outside the lock: workers still draining record responses under
  // mutex_, so holding it here would deadlock.
  if (join_host && host_.joinable()) host_.join();

  std::vector<JobResponse> out;
  {
    MutexLock lock(mutex_);
    out = responses_;
  }
  std::sort(out.begin(), out.end(),
            [](const JobResponse& a, const JobResponse& b) {
              return a.id < b.id;
            });
  return out;
}

ResourceLimits MiningService::ClampLimits(const ResourceLimits& requested) const {
  ResourceLimits effective = requested;
  const std::int64_t ceiling = MinDeadlineCeiling(
      config_.max_deadline_ms, config_.default_limits.deadline_ms);
  if (ceiling >= 0) {
    effective.deadline_ms = requested.deadline_ms < 0
                                ? ceiling
                                : std::min(requested.deadline_ms, ceiling);
  }
  effective.pil_memory_budget_bytes =
      ClampBudget(requested.pil_memory_budget_bytes,
                  config_.default_limits.pil_memory_budget_bytes);
  effective.max_level_candidates = ClampBudget(
      requested.max_level_candidates, config_.default_limits.max_level_candidates);
  effective.max_total_candidates = ClampBudget(
      requested.max_total_candidates, config_.default_limits.max_total_candidates);
  return effective;
}

MinerConfig MiningService::RunConfig(const MinerConfig& requested) {
  MinerConfig config = requested;
  config.limits = ClampLimits(requested.limits);
  if (config.limits.deadline_ms != requested.limits.deadline_ms) {
    metrics_->GetCounter("serve.deadline.clamped")->Increment();
  }
  config.cancel = &cancel_;
  config.observer = config_.observer;
  return config;
}

void MiningService::WorkerDrainLoop() {
  MiningJob job;
  while (queue_.Pop(&job)) {
    metrics_->GetGauge("serve.queue.depth")
        ->Set(static_cast<std::int64_t>(queue_.size()));
    Process(std::move(job));
  }
}

StatusOr<Sequence> MiningService::LoadWithRetry(const std::string& input,
                                                int* attempts) {
  return RetryCounted(config_.io_retry, metrics_, attempts,
                      [&] { return config_.loader(input); });
}

void MiningService::Process(MiningJob job) {
  Stopwatch watch;
  JobResponse response;
  response.id = job.id;
  response.input = job.input;
  response.algorithm = job.algorithm;

  metrics_->GetCounter("serve.jobs.started")->Increment();
  if (trace_ != nullptr) {
    TraceEvent event;
    event.kind = TraceEventKind::kJobStart;
    event.job = job.id;
    event.detail = job.algorithm;
    trace_->Append(std::move(event));
  }

  if (job.corpus_fragment_length > 0) {
    ExecuteCorpus(job, &response);
  } else {
    ExecuteSingle(job, &response);
  }

  // Account and respond.
  const double elapsed_seconds = watch.ElapsedSeconds();
  response.latency_ms = elapsed_seconds * 1000.0;
  metrics_
      ->GetHistogram("serve.latency_us", LatencyBoundsUs())
      ->Observe(static_cast<std::uint64_t>(elapsed_seconds * 1e6));
  std::string reason;
  if (response.status.ok()) {
    reason = TerminationReasonToString(response.result.termination);
    metrics_->GetCounter("serve.jobs.completed")->Increment();
    metrics_->GetCounter(std::string("serve.termination.") + reason)
        ->Increment();
  } else {
    reason = StatusCodeToString(response.status.code());
    metrics_->GetCounter("serve.jobs.failed")->Increment();
  }
  if (trace_ != nullptr) {
    TraceEvent event;
    event.kind = TraceEventKind::kJobEnd;
    event.job = response.id;
    event.detail = reason;
    event.cache_hit = response.cache_hit;
    event.patterns = response.result.patterns.size();
    trace_->Append(std::move(event));
  }
  RecordResponse(std::move(response));
}

void MiningService::ExecuteSingle(const MiningJob& job,
                                  JobResponse* response) {
  // Phase 1: load (with transient-fault retry).
  int attempts = 0;
  StatusOr<Sequence> sequence = LoadWithRetry(job.input, &attempts);
  response->load_attempts = attempts;
  if (!sequence.ok()) {
    response->status = sequence.status();
    return;
  }

  // Phase 2: cache.
  const std::string key = CacheKey(*sequence, job.algorithm, job.config);
  MiningResult cached;
  if (cache_.Lookup(key, &cached)) {
    response->result = std::move(cached);
    response->cache_hit = true;
    return;
  }

  // Phase 3: clamp budgets and execute under the drain token.
  const MinerConfig run_config = RunConfig(job.config);

  StatusOr<MiningResult> mined = Mine(job.algorithm, *sequence, run_config);
  if (!mined.ok()) {
    response->status = mined.status();
    return;
  }
  response->result = std::move(mined).value();
  // Phase 4: only completed results are cacheable — a partial result
  // depends on the budgets and the trip point, a completed one only
  // on (sequence, semantic config).
  if (response->result.complete() && cache_.capacity_bytes() > 0) {
    (void)cache_.Insert(key, response->result);  // full/oversized is fine
  }
}

void MiningService::ExecuteCorpus(const MiningJob& job,
                                  JobResponse* response) {
  metrics_->GetCounter("serve.jobs.corpus")->Increment();
  if (!config_.corpus_loader) {
    response->status = Status::FailedPrecondition(
        "no corpus loader configured for input: " + job.input);
    return;
  }

  CorpusPlanOptions plan_options;
  plan_options.fragment.fragment_length = job.corpus_fragment_length;
  plan_options.fragment.keep_tail = job.corpus_keep_tail;

  int attempts = 0;
  StatusOr<CorpusPlan> plan = RetryCounted(
      config_.io_retry, metrics_, &attempts,
      [&] { return config_.corpus_loader(job.input, plan_options); });
  response->load_attempts = attempts;
  if (!plan.ok()) {
    response->status = plan.status();
    return;
  }
  if (plan->fragments().empty()) {
    // The loud-diagnostic contract: an input that fragments to nothing is
    // a client error, never a silent zero-pattern success.
    response->status =
        Status::InvalidArgument(plan->EmptyPlanDiagnostic(plan_options));
    return;
  }

  // Fragment fan-out stays serial inside the service: the service already
  // parallelizes across jobs, and serial fragments keep one corpus job from
  // starving the other workers' CPUs.
  StatusOr<CorpusResult> corpus = MineCorpus(
      *plan, CorpusOptionsFor(job.algorithm, RunConfig(job.config),
                              /*corpus_threads=*/1));
  if (!corpus.ok()) {
    response->status = corpus.status();
    return;
  }
  response->corpus_fragments = corpus->fragments_planned;
  response->result = corpus->ToMiningResult();
  // No cache interaction (see the header): the ResultCache key hashes one
  // sequence's bytes, and a corpus never materializes as one sequence.
}

void MiningService::RecordResponse(JobResponse response) {
  MutexLock lock(mutex_);
  responses_.push_back(std::move(response));
}

}  // namespace pgm
