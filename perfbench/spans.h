#ifndef PGM_PERFBENCH_SPANS_H_
#define PGM_PERFBENCH_SPANS_H_

#include <string>
#include <vector>

#include "util/stopwatch.h"

namespace pgm::perfbench {

/// One recorded span. Bench-side spans have a start and an end measured on
/// the recorder's clock; program spans (source "program") carry only the
/// duration the library reported, e.g. a shard_timing event's seconds.
struct Span {
  int id = 0;
  /// Index of the parent span, -1 for a root.
  int parent = -1;
  /// The traced repetition the span belongs to.
  int run = 0;
  std::string name;
  /// Seconds since the recorder was created; both -1 for program spans.
  double start_s = -1.0;
  double end_s = -1.0;
  double seconds = 0.0;
  bool program = false;
};

/// In-memory span log of the traced repetitions. Not thread-safe: the
/// benchmark records spans only from its own driving thread.
class SpanRecorder {
 public:
  /// Opens a bench-side span and returns its id.
  int Begin(const std::string& name, int parent, int run);
  /// Closes span `id`.
  void End(int id);
  /// Adds a duration-only child reported by the program.
  int AddProgram(const std::string& name, int parent, int run, double seconds);

  /// {"spans": [...]} with one object per span. Its self time is the span's
  /// duration minus the part its children cover: the union of the bench-side
  /// children's intervals plus the program children's durations, capped at
  /// the span's own duration.
  std::string ToJson() const;

 private:
  Stopwatch clock_;
  std::vector<Span> spans_;
};

/// Records a span around a scope when `recorder` is non-null; a no-op
/// otherwise, so untraced repetitions run the same code path.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name, int parent,
             int run)
      : recorder_(recorder),
        id_(recorder == nullptr ? -1 : recorder->Begin(name, parent, run)) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace pgm::perfbench

#endif  // PGM_PERFBENCH_SPANS_H_
