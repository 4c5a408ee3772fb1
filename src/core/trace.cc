#include "core/trace.h"

#include <utility>

#include "core/miner.h"
#include "util/saturating.h"
#include "util/string_util.h"

namespace pgm {

const char* TraceEventKindToString(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kRunStart:
      return "run_start";
    case TraceEventKind::kLevelStart:
      return "level_start";
    case TraceEventKind::kLevelEnd:
      return "level_end";
    case TraceEventKind::kGuardTrip:
      return "guard_trip";
    case TraceEventKind::kEstimate:
      return "estimate";
    case TraceEventKind::kShardTiming:
      return "shard_timing";
    case TraceEventKind::kRunEnd:
      return "run_end";
    case TraceEventKind::kJobAdmitted:
      return "job_admitted";
    case TraceEventKind::kJobShed:
      return "job_shed";
    case TraceEventKind::kJobStart:
      return "job_start";
    case TraceEventKind::kJobEnd:
      return "job_end";
    case TraceEventKind::kFragmentStart:
      return "fragment_start";
    case TraceEventKind::kFragmentEnd:
      return "fragment_end";
  }
  return "unknown";
}

void MiningTrace::Append(TraceEvent event) {
  MutexLock lock(mutex_);
  events_.push_back(std::move(event));
}

std::size_t MiningTrace::size() const {
  MutexLock lock(mutex_);
  return events_.size();
}

std::vector<TraceEvent> MiningTrace::events() const {
  MutexLock lock(mutex_);
  return events_;
}

void MiningTrace::Clear() {
  MutexLock lock(mutex_);
  events_.clear();
}

namespace {

/// Shortest-round-trip double formatting; %.17g prints the same bytes for
/// the same bit pattern, which is all the determinism contract needs.
std::string JsonDouble(double value) { return StrFormat("%.17g", value); }

/// A quoted JSON string: record ids, job algorithms and the like come from
/// the user, so every string field is escaped.
std::string JsonString(const std::string& value) {
  std::string quoted = "\"";
  quoted += EscapeJson(value);
  quoted += '"';
  return quoted;
}

void AppendEventJson(const TraceEvent& event, bool include_volatile,
                     std::string* out) {
  out->append("{\"kind\": \"");
  out->append(TraceEventKindToString(event.kind));
  out->append("\"");
  switch (event.kind) {
    case TraceEventKind::kRunStart:
      out->append(", \"algorithm\": " + JsonString(event.detail));
      out->append(", \"kernel_tier\": " + JsonString(event.kernel_tier));
      break;
    case TraceEventKind::kLevelStart:
      out->append(", \"level\": " + std::to_string(event.level));
      out->append(", \"candidates\": " + std::to_string(event.candidates));
      out->append(", \"lambda\": " + JsonDouble(event.lambda));
      out->append(", \"full_threshold\": " +
                  JsonDouble(event.full_threshold));
      out->append(", \"relaxed_threshold\": " +
                  JsonDouble(event.relaxed_threshold));
      break;
    case TraceEventKind::kLevelEnd:
      out->append(", \"level\": " + std::to_string(event.level));
      out->append(", \"candidates\": " + std::to_string(event.candidates));
      out->append(", \"evaluated\": " + std::to_string(event.evaluated));
      out->append(", \"frequent\": " + std::to_string(event.frequent));
      out->append(", \"retained\": " + std::to_string(event.retained));
      out->append(", \"pruned\": " + std::to_string(event.pruned));
      out->append(event.completed ? ", \"completed\": true"
                                  : ", \"completed\": false");
      break;
    case TraceEventKind::kGuardTrip:
      out->append(", \"level\": " + std::to_string(event.level));
      out->append(", \"reason\": " + JsonString(event.detail));
      break;
    case TraceEventKind::kEstimate:
      out->append(", \"em\": " + std::to_string(event.em));
      out->append(", \"estimated_n\": " + std::to_string(event.estimated_n));
      break;
    case TraceEventKind::kShardTiming:
      out->append(", \"level\": " + std::to_string(event.level));
      out->append(", \"candidates\": " + std::to_string(event.candidates));
      out->append(", \"workers\": " + std::to_string(event.workers));
      // The resolved kernel implementation is deterministic given the
      // config, so unlike the timing fields it is not include_volatile
      // business — it prints whenever the event itself does.
      out->append(", \"kernel_tier\": " + JsonString(event.kernel_tier));
      out->append(", \"seconds\": " + JsonDouble(event.seconds));
      out->append(", \"fill_seconds\": " + JsonDouble(event.fill_seconds));
      out->append(", \"merge_seconds\": " + JsonDouble(event.merge_seconds));
      out->append(", \"stall_seconds\": " + JsonDouble(event.stall_seconds));
      break;
    case TraceEventKind::kRunEnd:
      out->append(", \"reason\": " + JsonString(event.detail));
      out->append(", \"patterns\": " + std::to_string(event.patterns));
      out->append(", \"levels\": " + std::to_string(event.levels));
      if (include_volatile) {
        out->append(", \"memory_peak_bytes\": " +
                    std::to_string(event.memory_bytes));
      }
      break;
    case TraceEventKind::kJobAdmitted:
      out->append(", \"job\": " + std::to_string(event.job));
      break;
    case TraceEventKind::kJobShed:
      out->append(", \"job\": " + std::to_string(event.job));
      out->append(", \"retry_after_ms\": " +
                  std::to_string(event.retry_after_ms));
      break;
    case TraceEventKind::kJobStart:
      out->append(", \"job\": " + std::to_string(event.job));
      out->append(", \"algorithm\": " + JsonString(event.detail));
      break;
    case TraceEventKind::kJobEnd:
      out->append(", \"job\": " + std::to_string(event.job));
      out->append(", \"reason\": " + JsonString(event.detail));
      out->append(event.cache_hit ? ", \"cache_hit\": true"
                                  : ", \"cache_hit\": false");
      out->append(", \"patterns\": " + std::to_string(event.patterns));
      break;
    case TraceEventKind::kFragmentStart:
      out->append(", \"fragment\": " + std::to_string(event.fragment));
      out->append(", \"record\": " + JsonString(event.detail));
      out->append(", \"offset\": " + std::to_string(event.offset));
      out->append(", \"length\": " + std::to_string(event.candidates));
      break;
    case TraceEventKind::kFragmentEnd:
      out->append(", \"fragment\": " + std::to_string(event.fragment));
      out->append(", \"reason\": " + JsonString(event.detail));
      out->append(", \"patterns\": " + std::to_string(event.patterns));
      break;
  }
  out->append("}");
}

}  // namespace

std::string MiningTrace::ToJson(const TraceJsonOptions& options) const {
  std::vector<TraceEvent> snapshot = events();
  std::string out = "{\n  \"events\": [";
  bool first = true;
  for (const TraceEvent& event : snapshot) {
    if (event.kind == TraceEventKind::kShardTiming &&
        !options.include_volatile) {
      continue;
    }
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendEventJson(event, options.include_volatile, &out);
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}";
  return out;
}

namespace internal {

namespace {

/// Per-level counter key: zero-padded so the registry's lexicographic order
/// equals the numeric level order.
std::string LevelKey(std::int64_t length, const char* field) {
  return StrFormat("mine.level.%05lld.%s", static_cast<long long>(length),
                   field);
}

std::vector<std::uint64_t> SupportBounds() {
  return {1,    2,    4,     8,     16,    32,     64,     128,
          256,  512,  1024,  4096,  16384, 65536,  262144, 1048576};
}

std::vector<std::uint64_t> PilBytesBounds() {
  return {64,      256,     1024,    4096,     16384,    65536,
          262144,  1048576, 4194304, 16777216, 67108864};
}

}  // namespace

ObserverContext::ObserverContext(const MiningObserver* observer,
                                 const char* algorithm,
                                 const char* kernel_tier)
    : metrics_(observer == nullptr ? nullptr : observer->metrics),
      trace_(observer == nullptr ? nullptr : observer->trace) {
  if (metrics_ != nullptr) {
    support_histogram_ =
        metrics_->GetHistogram("mine.candidate.support", SupportBounds());
    pil_bytes_histogram_ =
        metrics_->GetHistogram("mine.candidate.pil_bytes", PilBytesBounds());
  }
  if (trace_ != nullptr) {
    TraceEvent event;
    event.kind = TraceEventKind::kRunStart;
    event.detail = algorithm;
    event.kernel_tier = kernel_tier;
    trace_->Append(std::move(event));
  }
}

void ObserverContext::Count(const std::string& name, std::uint64_t value) {
  if (metrics_ != nullptr && value > 0) metrics_->GetCounter(name)->Add(value);
}

void ObserverContext::LevelStart(std::int64_t length, std::uint64_t candidates,
                                 double lambda, double full_threshold,
                                 double relaxed_threshold) {
  Level level;
  level.length = length;
  level.candidates = candidates;
  levels_.push_back(level);
  if (trace_ != nullptr) {
    TraceEvent event;
    event.kind = TraceEventKind::kLevelStart;
    event.level = length;
    event.candidates = candidates;
    event.lambda = lambda;
    event.full_threshold = full_threshold;
    event.relaxed_threshold = relaxed_threshold;
    trace_->Append(std::move(event));
  }
}

void ObserverContext::LevelEnd(TerminationReason reason) {
  Level& level = levels_.back();
  level.completed = reason == TerminationReason::kCompleted;
  if (!level.completed) GuardTrip(reason, level.length);
  if (trace_ != nullptr) {
    TraceEvent event;
    event.kind = TraceEventKind::kLevelEnd;
    event.level = level.length;
    event.candidates = level.candidates;
    event.evaluated = level.evaluated;
    event.frequent = level.frequent;
    event.retained = level.retained;
    event.pruned = level.candidates - level.retained;
    event.completed = level.completed;
    trace_->Append(std::move(event));
  }
}

void ObserverContext::GuardTrip(TerminationReason reason, std::int64_t level) {
  Count("mine.guard.trips", 1);
  Count(std::string("mine.guard.trips.") + TerminationReasonToString(reason),
        1);
  if (trace_ != nullptr) {
    TraceEvent event;
    event.kind = TraceEventKind::kGuardTrip;
    event.level = level;
    event.detail = TerminationReasonToString(reason);
    trace_->Append(std::move(event));
  }
}

void ObserverContext::Estimate(std::uint64_t em,
                               std::uint64_t em_starts_searched,
                               std::int64_t estimated_n) {
  if (metrics_ != nullptr) {
    metrics_->GetGauge("mine.last.em")->Set(static_cast<std::int64_t>(em));
    metrics_->GetGauge("mine.last.em_starts_searched")
        ->Set(static_cast<std::int64_t>(em_starts_searched));
    metrics_->GetGauge("mine.last.estimated_n")->Set(estimated_n);
  }
  if (trace_ != nullptr) {
    TraceEvent event;
    event.kind = TraceEventKind::kEstimate;
    event.em = em;
    event.estimated_n = estimated_n;
    trace_->Append(std::move(event));
  }
}

void ObserverContext::ShardTiming(std::int64_t level,
                                  std::uint64_t candidates,
                                  std::int64_t workers, const char* kernel,
                                  double seconds, double fill_seconds,
                                  double merge_seconds,
                                  double stall_seconds) {
  if (trace_ == nullptr) return;
  TraceEvent event;
  event.kind = TraceEventKind::kShardTiming;
  event.level = level;
  event.candidates = candidates;
  event.workers = workers;
  event.kernel_tier = kernel;
  event.seconds = seconds;
  event.fill_seconds = fill_seconds;
  event.merge_seconds = merge_seconds;
  event.stall_seconds = stall_seconds;
  trace_->Append(std::move(event));
}

std::int64_t ObserverContext::last_completed_level() const {
  for (auto it = levels_.rbegin(); it != levels_.rend(); ++it) {
    if (it->completed) return it->length;
  }
  return 0;
}

void ObserverContext::Finish(MiningResult* result) {
  if (finished_) return;
  finished_ = true;

  // A run the guard cut mid-level still reports the level it was working
  // on: the level entered the table at LevelStart, before any evaluation.
  result->level_stats.clear();
  result->level_stats.reserve(levels_.size());
  std::uint64_t total = 0;
  for (const Level& level : levels_) {
    result->level_stats.push_back(
        LevelStats{level.length, level.candidates, level.frequent,
                   level.retained});
    total = SatAdd(total, level.candidates);
    if (metrics_ == nullptr) continue;
    Count("mine.levels.started", 1);
    Count("mine.levels.completed", level.completed ? 1 : 0);
    Count("mine.candidates.generated", level.candidates);
    Count("mine.candidates.evaluated", level.evaluated);
    Count("mine.candidates.frequent", level.frequent);
    Count("mine.candidates.retained", level.retained);
    Count("mine.candidates.pruned", level.candidates - level.retained);
    Count(LevelKey(level.length, "candidates"), level.candidates);
    Count(LevelKey(level.length, "evaluated"), level.evaluated);
    Count(LevelKey(level.length, "frequent"), level.frequent);
    Count(LevelKey(level.length, "retained"), level.retained);
  }
  result->total_candidates = total;

  if (metrics_ != nullptr) {
    Count("mine.runs", 1);
    Count("mine.patterns.emitted", result->patterns.size());
    metrics_->GetGauge("mine.last.n_used")->Set(result->n_used);
    metrics_->GetGauge("mine.last.guaranteed_complete_up_to")
        ->Set(result->guaranteed_complete_up_to);
    metrics_->GetGauge("mine.last.longest_frequent_length")
        ->Set(result->longest_frequent_length);
  }
  if (trace_ != nullptr) {
    TraceEvent event;
    event.kind = TraceEventKind::kRunEnd;
    event.detail = TerminationReasonToString(result->termination);
    event.patterns = result->patterns.size();
    event.levels = levels_.size();
    event.memory_bytes = result->pil_memory_peak_bytes;
    trace_->Append(std::move(event));
  }
}

}  // namespace internal
}  // namespace pgm
