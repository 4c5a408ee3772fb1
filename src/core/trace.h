#ifndef PGM_CORE_TRACE_H_
#define PGM_CORE_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/limits.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace pgm {

struct MiningResult;

/// Structured trace events emitted by the mining engines. Each kind has a
/// fixed JSON key schema (see MiningTrace::ToJson), so consumers can parse
/// the stream without guessing which fields are meaningful.
enum class TraceEventKind {
  /// A mining run began; `detail` names the algorithm.
  kRunStart,
  /// A level's candidate set was generated (or, for the first level, its
  /// analytic |Σ|^l count fixed): level, candidates, and the λ/λ′-derived
  /// thresholds the level will apply.
  kLevelStart,
  /// A level finished (completed == true) or was cut short by the guard:
  /// candidates generated, candidates actually evaluated (PIL join +
  /// support count), how many met the full threshold (frequent), how many
  /// met the relaxed threshold and seed the next join (retained), and how
  /// many were pruned (generated - retained).
  kLevelEnd,
  /// The MiningGuard latched a termination reason; `detail` carries it.
  kGuardTrip,
  /// MPPm's Theorem 2 phase: the e_m statistic and the estimated n.
  kEstimate,
  /// One ParallelLevelExecutor::ExecuteJoin call: the length of the
  /// candidates the join builds (`level`), candidates delivered to the
  /// sink, worker count, wall-clock seconds, and the calling thread's
  /// fill/merge/stall split. Volatile (thread/timing dependent) — exported
  /// only with TraceJsonOptions::include_volatile.
  kShardTiming,
  /// The run finished; `detail` carries the termination reason.
  kRunEnd,

  // --- Serving-layer events (src/serve) ---
  /// A job passed admission control and entered the queue.
  kJobAdmitted,
  /// Admission control rejected a job (queue full or service draining);
  /// `retry_after_ms` carries the hint returned to the client.
  kJobShed,
  /// A worker dequeued the job and began executing it; `detail` names the
  /// algorithm.
  kJobStart,
  /// The job finished (successfully, partially, or with an error); `detail`
  /// carries the termination reason or status code name, `cache_hit` whether
  /// the result came from the ResultCache.
  kJobEnd,

  // --- Corpus-executor events (src/corpus) ---
  /// The corpus aggregator opened one fragment's event stream: `fragment`
  /// is the plan ordinal, `detail` the record id, `offset`/`candidates` the
  /// fragment's window start and length within its record. The fragment's
  /// own run events (run_start..run_end) follow, then kFragmentEnd — the
  /// aggregator emits fragments in ordinal order regardless of which worker
  /// mined them first, so the stream is byte-stable across thread counts.
  kFragmentStart,
  /// The fragment's stream closed: `detail` carries the per-fragment
  /// termination reason ("skipped" when a corpus-level budget trip or an
  /// error prevented mining it), `patterns` its frequent-pattern count.
  kFragmentEnd,
};

const char* TraceEventKindToString(TraceEventKind kind);

/// One trace event. Only the fields its kind documents are meaningful; the
/// rest stay at their defaults.
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kRunStart;
  std::int64_t level = 0;
  std::uint64_t candidates = 0;
  std::uint64_t evaluated = 0;
  std::uint64_t frequent = 0;
  std::uint64_t retained = 0;
  std::uint64_t pruned = 0;
  bool completed = false;
  double lambda = 0.0;
  double full_threshold = 0.0;
  double relaxed_threshold = 0.0;
  std::uint64_t em = 0;
  std::int64_t estimated_n = -1;
  std::uint64_t patterns = 0;
  std::uint64_t levels = 0;
  /// Algorithm name (kRunStart, kJobStart) or termination reason / status
  /// code name (kGuardTrip, kRunEnd, kJobEnd).
  std::string detail;
  /// Join kernel (core/kernel.h). kRunStart carries the *configured* tier
  /// (MinerConfig::kernel_tier — "auto"/"scalar"); kShardTiming carries the
  /// *resolved* implementation the level actually ran ("scalar"/"avx2").
  /// Deterministic given the config — results are byte-identical under
  /// both kernels — so it is NOT volatile-gated; but the resolved value can
  /// differ across machines (CPUID), which is fine because shard_timing
  /// events as a whole are volatile.
  std::string kernel_tier;

  // Serving-layer fields (kJob* events only).
  std::int64_t job = 0;
  std::int64_t retry_after_ms = 0;
  bool cache_hit = false;

  // Corpus-executor fields (kFragment* events only): the fragment's plan
  // ordinal and its window offset within its source record (the window
  // length rides in `candidates`).
  std::int64_t fragment = 0;
  std::uint64_t offset = 0;

  // Volatile fields: wall-clock and thread-count dependent, so they are not
  // byte-stable across runs. Exported only with include_volatile.
  std::int64_t workers = 0;
  double seconds = 0.0;
  std::uint64_t memory_bytes = 0;
  // Split of the calling thread's time inside one ExecuteJoin (kShardTiming
  // only): the kernel fills it ran itself, the in-order sink merge, and its
  // wait for the other workers at the end of each window's fill.
  double fill_seconds = 0.0;
  double merge_seconds = 0.0;
  double stall_seconds = 0.0;
};

struct TraceJsonOptions {
  /// Include kShardTiming events and the workers/seconds/memory fields.
  /// Off by default so the export is byte-identical across thread counts
  /// and repeated runs of the same seed.
  bool include_volatile = false;
};

/// An append-only event log. Appends take a mutex (events are emitted at
/// level granularity, never per candidate, so this is far off the hot
/// path); reads snapshot under the same mutex.
class MiningTrace {
 public:
  MiningTrace() = default;
  MiningTrace(const MiningTrace&) = delete;
  MiningTrace& operator=(const MiningTrace&) = delete;

  void Append(TraceEvent event);
  std::size_t size() const;
  std::vector<TraceEvent> events() const;
  void Clear();

  /// Deterministic JSON export: {"events": [...]} with one object per line,
  /// fixed per-kind key order. See TraceJsonOptions for the determinism
  /// contract.
  std::string ToJson(const TraceJsonOptions& options = {}) const;

 private:
  mutable Mutex mutex_{kLockRankTrace};
  std::vector<TraceEvent> events_ PGM_GUARDED_BY(mutex_);
};

/// The observer handle mining callers attach to MinerConfig::observer.
/// Either pointer may be null; both sinks must outlive the mining call.
/// Metrics enable per-candidate histograms (support, PIL bytes); the trace
/// records the level-by-level event stream.
struct MiningObserver {
  MetricsRegistry* metrics = nullptr;
  MiningTrace* trace = nullptr;
};

namespace internal {

/// Per-run recording context the engines thread through their level loops.
///
/// The context keeps the run's one level table: LevelStart opens a level,
/// ObserveCandidate counts each judged candidate into it, LevelEnd closes it,
/// and Finish derives MiningResult::level_stats and total_candidates from the
/// table. Counters and gauges go straight into the attached registry; a
/// counter that would end the run at 0 is not created. All methods run in
/// the engines' serial sections, so the recorded values are independent of
/// the thread count; the per-candidate histograms are skipped entirely
/// unless a metrics registry is attached, keeping the null-observer hot path
/// to the table update and one branch.
class ObserverContext {
 public:
  /// `observer` may be null (the null-observer fast path); `algorithm` names
  /// the run in the kRunStart event and `kernel_tier` records the run's
  /// configured join-kernel tier there (KernelTierToString — the configured
  /// tier, not the resolved implementation, so exports stay byte-identical
  /// across machines). Registers the candidate histograms in an attached
  /// registry. The engines build the context only after ValidateConfig, and
  /// no run fails after that, so every run that records anything seals.
  ObserverContext(const MiningObserver* observer, const char* algorithm,
                  const char* kernel_tier = "auto");

  ObserverContext(const ObserverContext&) = delete;
  ObserverContext& operator=(const ObserverContext&) = delete;

  /// Opens level `length` with `candidates` generated and records the
  /// thresholds it will apply.
  void LevelStart(std::int64_t length, std::uint64_t candidates,
                  double lambda, double full_threshold,
                  double relaxed_threshold);

  /// Counts one judged candidate into the open level: `frequent` when it met
  /// the full threshold, `retained` when it seeds the next level. Hot path:
  /// the histograms cost one branch unless a metrics registry is attached.
  void ObserveCandidate(std::uint64_t support, std::uint64_t pil_bytes,
                        bool frequent, bool retained) {
    Level& level = levels_.back();
    ++level.evaluated;
    level.frequent += frequent ? 1 : 0;
    level.retained += retained ? 1 : 0;
    if (support_histogram_ == nullptr) return;
    support_histogram_->Observe(support);
    pil_bytes_histogram_->Observe(pil_bytes);
  }

  /// Closes the open level with the guard's `reason`: kCompleted closes it
  /// as completed; any other reason records a guard trip at that level and
  /// closes it cut short.
  void LevelEnd(TerminationReason reason);

  /// The guard latched `reason` while no level was open: on arrival
  /// (`level` 0) or between levels (`level` is the last one closed).
  void GuardTrip(TerminationReason reason, std::int64_t level);

  /// MPPm's n-estimation outcome. `em_starts_searched` (how many start
  /// positions the e_m search visited) is a metrics gauge only; the trace
  /// event carries em and estimated_n.
  void Estimate(std::uint64_t em, std::uint64_t em_starts_searched,
                std::int64_t estimated_n);

  /// One executor join pass (trace-only; volatile). `level` is the length
  /// of the candidates the pass builds — not the last level opened, since
  /// MPPm's seed build joins before any level starts and enumeration
  /// extends a level after closing it. `candidates` counts sink deliveries
  /// — not the plan size — so interrupted levels report the work that
  /// actually happened; `kernel` names the resolved join-kernel
  /// implementation the pass ran (KernelImplToString); the stage fields
  /// split the calling thread's time (see TraceEvent).
  void ShardTiming(std::int64_t level, std::uint64_t candidates,
                   std::int64_t workers, const char* kernel, double seconds,
                   double fill_seconds, double merge_seconds,
                   double stall_seconds);

  /// Length of the last level closed as completed (0 = none): on a run cut
  /// short, the completeness horizon.
  std::int64_t last_completed_level() const;

  /// Seals the run: derives result->level_stats and total_candidates from
  /// the level table, records the level and run counters, the run gauges and
  /// the kRunEnd event. Idempotent.
  void Finish(MiningResult* result);

 private:
  /// One row of the level table: Table 3's |C_l|, |L_l| and |L̂_l| plus the
  /// candidates judged and whether the level ran to its end.
  struct Level {
    std::int64_t length = 0;
    std::uint64_t candidates = 0;
    std::uint64_t evaluated = 0;
    std::uint64_t frequent = 0;
    std::uint64_t retained = 0;
    bool completed = false;
  };

  /// Adds `value` to the attached registry's named counter, creating it
  /// only when non-zero.
  void Count(const std::string& name, std::uint64_t value);

  MetricsRegistry* metrics_ = nullptr;
  MiningTrace* trace_ = nullptr;
  Histogram* support_histogram_ = nullptr;   // null = histograms disabled
  Histogram* pil_bytes_histogram_ = nullptr;
  std::vector<Level> levels_;  // in LevelStart order; the back one is open
  bool finished_ = false;
};

}  // namespace internal
}  // namespace pgm

#endif  // PGM_CORE_TRACE_H_
