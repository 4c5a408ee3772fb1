#ifndef PGM_CORPUS_EXECUTOR_H_
#define PGM_CORPUS_EXECUTOR_H_

#include <atomic>
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

/// The corpus ledger: live bytes of in-flight fragment state (each
/// fragment's window plus its mined result), charged when a worker picks
/// the fragment up and released when the aggregator folds it in. This is
/// the corpus-level roll-up of the per-fragment MiningGuard ledgers — each
/// fragment's guard already drains to zero inside the miner; the corpus
/// ledger accounts for what the executor itself keeps alive between mining
/// and aggregation, and must read zero after MineCorpus returns on every
/// termination path (the differential suite asserts exactly that).
class CorpusLedger {
 public:
  CorpusLedger() = default;
  CorpusLedger(const CorpusLedger&) = delete;
  CorpusLedger& operator=(const CorpusLedger&) = delete;

  void Charge(std::uint64_t bytes) {
    const std::uint64_t now =
        outstanding_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    std::uint64_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now,
                                        std::memory_order_relaxed)) {
    }
  }
  void Release(std::uint64_t bytes) {
    outstanding_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  std::uint64_t outstanding_bytes() const {
    return outstanding_.load(std::memory_order_relaxed);
  }
  std::uint64_t peak_bytes() const {
    return peak_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> outstanding_{0};
  std::atomic<std::uint64_t> peak_{0};
};

/// Configuration for one corpus run.
struct CorpusOptions {
  /// Mining algorithm per fragment: a name Mine accepts (core/miner.h).
  std::string algorithm = "mppm";
  /// The per-fragment mining configuration. `miner.threads` is the
  /// *within-fragment* level parallelism and defaults to serial — the
  /// corpus executor parallelizes at whole-fragment granularity instead,
  /// which sidesteps the per-level pipeline barrier entirely.
  /// `miner.limits` applies to each fragment independently;
  /// `miner.observer` is ignored (attach `observer` below — the executor
  /// must interpose per-fragment sinks to keep exports deterministic).
  MinerConfig miner;
  /// Worker threads mining whole fragments: 1 = serial, 0 = one per
  /// hardware thread, T > 1 = exactly T. Fragment results are folded in
  /// plan-ordinal order whatever the thread count, so untripped runs are
  /// byte-identical at every setting.
  std::int64_t corpus_threads = 1;
  /// Corpus-wide budgets. deadline_ms covers the whole run: it is checked
  /// when each fragment is picked up (later fragments are skipped once it
  /// expires) and the remaining time clamps each fragment's own deadline.
  /// max_total_candidates caps the accumulated candidate count across
  /// fragments; max_level_candidates caps any single fragment's total.
  /// pil_memory_budget_bytes is a *per-fragment* budget here (fragments are
  /// independent runs) — set it through `miner.limits` too if both corpus
  /// and fragment budgets are wanted.
  ResourceLimits limits;
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
  /// Optional external ledger to charge instead of an internal one (tests
  /// assert it drains to zero; hosts can poll it for live usage).
  CorpusLedger* ledger = nullptr;
};

/// Routes a single-run MinerConfig into corpus options: the deadline and
/// both candidate caps govern the whole corpus, the PIL budget applies to
/// each fragment, and the cancel token and observer move to the corpus
/// level. `config.threads` stays the within-fragment parallelism.
CorpusOptions CorpusOptionsFor(const std::string& algorithm,
                               const MinerConfig& config,
                               std::int64_t corpus_threads);

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
  /// The miner's status for this fragment (OK unless the configuration was
  /// rejected). Meaningless when !mined.
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
  /// boundaries), sorted by (length, symbols) like MiningResult::patterns.
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
  /// Peak of the corpus ledger (in-flight fragment state).
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

/// Mines every fragment of `plan` and aggregates deterministically. The
/// Status is only non-OK for invalid configuration (unknown algorithm,
/// invalid corpus_threads); per-fragment failures and budget trips are
/// reported inside the CorpusResult (partial-but-sound). An empty plan
/// yields InvalidArgument — never a silent zero-pattern success — and
/// callers should print CorpusPlan::EmptyPlanDiagnostic for the full
/// explanation.
StatusOr<CorpusResult> MineCorpus(const CorpusPlan& plan,
                                  const CorpusOptions& options);

}  // namespace pgm

#endif  // PGM_CORPUS_EXECUTOR_H_
