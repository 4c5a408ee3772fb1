#ifndef PGM_CORPUS_EXECUTOR_H_
#define PGM_CORPUS_EXECUTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/guard.h"
#include "core/miner.h"
#include "core/trace.h"
#include "corpus/plan.h"
#include "util/limits.h"
#include "util/status.h"

namespace pgm {

/// Configuration for one corpus run.
struct CorpusOptions {
  /// Mining algorithm per fragment: a name Mine accepts (core/miner.h).
  std::string algorithm = "mppm";
  /// The per-fragment mining configuration. `miner.threads` is the
  /// *within-fragment* level parallelism and defaults to serial — the
  /// corpus executor parallelizes at whole-fragment granularity instead,
  /// which needs no per-window fork-join at all. `miner.cancel` and
  /// `miner.observer` are ignored (set `cancel` and `observer` below — the
  /// executor must interpose per-fragment sinks to keep exports
  /// deterministic).
  ///
  /// `miner.limits` is the corpus's one budget set. The PIL budget applies
  /// to each fragment (fragments are independent runs). The rest govern the
  /// whole corpus: deadline_ms covers the whole run — it is checked when
  /// each fragment is picked up (later fragments are skipped once it
  /// expires) and the remaining time becomes each fragment's own deadline;
  /// max_total_candidates caps the accumulated candidate count across
  /// fragments, and max_level_candidates caps any single fragment's total.
  MinerConfig miner;
  /// Worker threads mining whole fragments: 1 = serial, 0 = one per
  /// hardware thread, T > 1 = exactly T, up to ThreadPool::kMaxThreads
  /// (larger values are rejected). Fragment results are folded in
  /// plan-ordinal order whatever the thread count, so untripped runs are
  /// byte-identical at every setting.
  std::int64_t corpus_threads = 1;
  /// Optional cooperative cancellation for the whole corpus; must outlive
  /// the call. In-flight fragments stop at their next guard poll
  /// (partial-but-sound per fragment); unstarted fragments are skipped.
  const CancelToken* cancel = nullptr;
  /// Optional metrics/trace sinks. The executor gives every fragment
  /// private sinks and merges them into this observer in fragment-ordinal
  /// order after the fan-out joins — fragment_start/fragment_end events
  /// bracket each fragment's stream, and the merged export is
  /// byte-identical across corpus_threads settings.
  const MiningObserver* observer = nullptr;
};

/// One fragment's outcome inside a CorpusResult.
struct FragmentResult {
  // Identity (copied from the plan's CorpusFragment).
  std::size_t ordinal = 0;
  std::size_t record_index = 0;
  std::string record_id;
  std::size_t fragment_index = 0;
  std::size_t start = 0;
  std::size_t length = 0;

  /// True when the fragment was actually mined; false when a corpus-level
  /// budget trip or cancellation latched before a worker picked it up.
  bool mined = false;
  /// The miner's status for this fragment. MineCorpus checks the
  /// configuration before any fragment runs, so this is OK unless the run
  /// itself failed. Meaningless when !mined.
  Status status;
  /// The per-fragment mining result; valid when mined && status.ok().
  MiningResult result;
};

/// The deterministic aggregate of a corpus run.
struct CorpusResult {
  /// Per-fragment outcomes, in plan-ordinal order (index == ordinal).
  std::vector<FragmentResult> fragments;

  /// The corpus-level frequent-pattern union: each distinct pattern once,
  /// carrying its best *per-fragment* support (the §7 aggregation — a
  /// pattern's support is counted within fragments, never across fragment
  /// boundaries; ties keep the earliest fragment's entry), in (length,
  /// symbols) order like MiningResult::patterns.
  std::vector<FrequentPattern> patterns;
  /// Parallel to `patterns`: in how many fragments the pattern was
  /// frequent.
  std::vector<std::uint64_t> pattern_fragment_counts;

  std::size_t fragments_planned = 0;
  std::size_t fragments_mined = 0;
  /// Mined fragments whose own run completed (vs. tripped a per-fragment
  /// budget).
  std::size_t fragments_completed = 0;
  std::size_t fragments_failed = 0;
  std::size_t fragments_skipped = 0;

  /// kCompleted when every planned fragment was mined to completion;
  /// otherwise the first corpus-level trip reason, or the first
  /// per-fragment termination when only fragment budgets tripped. Either
  /// way the partial-but-sound contract holds: every reported pattern is
  /// genuinely frequent in the fragment(s) that reported it.
  TerminationReason termination = TerminationReason::kCompleted;

  /// Saturating sum of per-fragment candidate totals.
  std::uint64_t total_candidates = 0;
  /// Max over fragments of the per-fragment PIL peak.
  std::uint64_t pil_memory_peak_bytes = 0;
  /// The corpus ledger: the bytes of fragment state the executor holds
  /// until the fold, every mined window plus every result that came back
  /// OK (by ApproxResultBytes). The fold frees nothing before every
  /// fragment is mined, so this peak is their sum, the same at every
  /// corpus_threads setting for an untripped run.
  std::uint64_t ledger_peak_bytes = 0;
  /// Longest frequent pattern across the corpus (0 when none).
  std::int64_t longest_frequent_length = 0;
  /// Min over mined fragments of guaranteed_complete_up_to (0 when any
  /// fragment was skipped or failed — no corpus-wide guarantee then).
  std::int64_t guaranteed_complete_up_to = 0;

  bool complete() const {
    return termination == TerminationReason::kCompleted;
  }

  /// Flattens the aggregate into a MiningResult so single-sequence
  /// consumers (the serve layer's JobResponse, report printers) can carry a
  /// corpus answer unchanged. Level stats are not meaningful corpus-wide
  /// and stay empty.
  MiningResult ToMiningResult() const;
};

/// Mines every fragment of `plan` and aggregates deterministically. Before
/// any fragment runs it checks, in order: the plan is not empty (an empty
/// plan is InvalidArgument carrying CorpusPlan::EmptyPlanDiagnostic, never
/// a silent zero-pattern success), corpus_threads, the algorithm, and the
/// miner config (the check every fragment's run makes first; its verdict
/// is the same for every non-empty window). Callers pass this status on.
/// Budget trips and any failure of a fragment's own run are reported
/// inside the CorpusResult (partial-but-sound).
StatusOr<CorpusResult> MineCorpus(const CorpusPlan& plan,
                                  const CorpusOptions& options);

}  // namespace pgm

#endif  // PGM_CORPUS_EXECUTOR_H_
