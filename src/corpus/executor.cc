#include "corpus/executor.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "util/metrics.h"
#include "util/saturating.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace pgm {

namespace {

/// The ledger's charge for one mined fragment's window.
std::uint64_t WindowBytes(const Sequence& sequence) {
  return sizeof(Sequence) +
         static_cast<std::uint64_t>(sequence.size()) * sizeof(Symbol);
}

/// One fragment's in-flight state. Workers write disjoint slots (claimed
/// off an atomic cursor), so no lock is needed; the aggregation pass reads
/// them serially after the fork-join barrier.
struct Slot {
  FragmentResult out;
  // Per-fragment observer sinks (allocated only when the caller attached an
  // observer): interposing them is what makes the merged export
  // deterministic — each fragment records privately, and the aggregator
  // replays the streams in ordinal order.
  std::unique_ptr<MetricsRegistry> metrics;
  std::unique_ptr<MiningTrace> trace;
  MiningObserver observer;
};

const char* FragmentReason(const FragmentResult& fragment) {
  if (!fragment.mined) return "skipped";
  if (!fragment.status.ok()) return "error";
  return TerminationReasonToString(fragment.result.termination);
}

}  // namespace

MiningResult CorpusResult::ToMiningResult() const {
  MiningResult result;
  result.patterns = patterns;
  result.termination = termination;
  result.total_candidates = total_candidates;
  result.pil_memory_peak_bytes = pil_memory_peak_bytes;
  result.longest_frequent_length = longest_frequent_length;
  result.guaranteed_complete_up_to = guaranteed_complete_up_to;
  return result;
}

StatusOr<CorpusResult> MineCorpus(const CorpusPlan& plan,
                                  const CorpusOptions& options) {
  const std::vector<CorpusFragment>& fragments = plan.fragments();
  if (fragments.empty()) {
    return Status::InvalidArgument(plan.EmptyPlanDiagnostic());
  }
  if (options.corpus_threads < 0 ||
      options.corpus_threads > ThreadPool::kMaxThreads) {
    return Status::InvalidArgument(
        StrFormat("corpus_threads must lie in [0, %lld], got %lld",
                  static_cast<long long>(ThreadPool::kMaxThreads),
                  static_cast<long long>(options.corpus_threads)));
  }
  PGM_RETURN_IF_ERROR(CheckAlgorithm(options.algorithm));
  // Every fragment's run checks its config first, and every fragment is a
  // non-empty window, so the first fragment's verdict holds for them all.
  PGM_RETURN_IF_ERROR(
      internal::ValidateConfig(fragments.front().sequence, options.miner)
          .status());

  const bool observing =
      options.observer != nullptr && (options.observer->metrics != nullptr ||
                                      options.observer->trace != nullptr);

  // The corpus guard: deadline/cancellation polled at every fragment
  // pickup, per-fragment candidate totals charged against the corpus-level
  // caps as fragments finish (max_level_candidates caps one fragment,
  // max_total_candidates the accumulated corpus). Each fragment runs with
  // only the PIL budget and the remaining corpus deadline.
  const ResourceLimits& limits = options.miner.limits;
  ResourceLimits corpus_limits = limits;
  corpus_limits.pil_memory_budget_bytes = 0;
  MiningGuard corpus_guard(corpus_limits, options.cancel);
  ResourceLimits fragment_limits;
  fragment_limits.pil_memory_budget_bytes = limits.pil_memory_budget_bytes;

  std::vector<Slot> slots(fragments.size());
  for (std::size_t i = 0; i < fragments.size(); ++i) {
    const CorpusFragment& fragment = fragments[i];
    FragmentResult& out = slots[i].out;
    out.ordinal = fragment.ordinal;
    out.record_index = fragment.record_index;
    out.record_id = fragment.record_id;
    out.fragment_index = fragment.fragment_index;
    out.start = fragment.start;
    out.length = fragment.sequence.size();
    if (observing) {
      Slot& slot = slots[i];
      if (options.observer->metrics != nullptr) {
        slot.metrics = std::make_unique<MetricsRegistry>();
        slot.observer.metrics = slot.metrics.get();
      }
      if (options.observer->trace != nullptr) {
        slot.trace = std::make_unique<MiningTrace>();
        slot.observer.trace = slot.trace.get();
      }
    }
  }

  // Fan out at whole-fragment granularity: workers claim ordinals off a
  // shared cursor and mine one fragment per claim (the level executor's
  // shape, one ThreadPool::Execute over an atomic cursor, at fragment
  // grain). Fragments are independent runs, so this is the coarse-grain
  // parallelism the level executor cannot reach on small inputs.
  std::atomic<std::size_t> cursor{0};
  ThreadPool pool(ThreadPool::ResolveThreadCount(options.corpus_threads));
  pool.Execute([&](std::size_t) {
    while (true) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= fragments.size()) break;
      Slot& slot = slots[i];
      // A latched corpus budget/cancel skips everything not yet started;
      // already-running fragments wind down through their own guards.
      if (!corpus_guard.CheckNow()) continue;

      MinerConfig config = options.miner;
      config.observer = observing ? &slot.observer : nullptr;
      config.cancel = options.cancel;
      config.limits = fragment_limits;
      if (limits.deadline_ms > 0) {
        // The remaining corpus deadline is the fragment's own, so one
        // fragment cannot overshoot the corpus budget on its own.
        const std::int64_t elapsed_ms =
            static_cast<std::int64_t>(corpus_guard.elapsed_seconds() * 1000.0);
        config.limits.deadline_ms =
            std::max<std::int64_t>(1, limits.deadline_ms - elapsed_ms);
      }

      StatusOr<MiningResult> mined =
          Mine(options.algorithm, fragments[i].sequence, config);
      slot.out.mined = true;
      if (mined.ok()) {
        slot.out.result = *std::move(mined);
        // A corpus candidate cap that latches here skips the unstarted
        // fragments at pickup. This fragment's own result stays — it is
        // already complete and sound.
        (void)corpus_guard.ChargeLevelCandidates(
            slot.out.result.total_candidates);
      } else {
        slot.out.status = mined.status();
      }
    }
  });

  // Deterministic aggregation: fold the slots in plan-ordinal order,
  // whatever order the workers finished in. Everything derived below —
  // pattern union, counters, ledger, merged observer streams — depends only
  // on the per-fragment results and this fixed order, so untripped runs are
  // byte-identical at every corpus_threads setting.
  CorpusResult corpus;
  corpus.fragments_planned = fragments.size();
  corpus.fragments.reserve(fragments.size());

  struct UnionEntry {
    FrequentPattern pattern;
    std::uint64_t fragment_count = 0;
  };
  // Keyed by (length, symbols as bytes): std::string compares bytes as
  // unsigned, so the map's order is PatternOrderLess, the result order.
  std::map<std::pair<std::size_t, std::string>, UnionEntry> pattern_union;

  MetricsRegistry* user_metrics =
      observing ? options.observer->metrics : nullptr;
  MiningTrace* user_trace = observing ? options.observer->trace : nullptr;

  for (Slot& slot : slots) {
    FragmentResult& fragment = slot.out;
    if (user_trace != nullptr) {
      TraceEvent start;
      start.kind = TraceEventKind::kFragmentStart;
      start.fragment = static_cast<std::int64_t>(fragment.ordinal);
      start.detail = fragment.record_id;
      start.offset = fragment.start;
      start.candidates = fragment.length;
      user_trace->Append(std::move(start));
      if (slot.trace != nullptr) {
        for (TraceEvent& event : slot.trace->events()) {
          user_trace->Append(std::move(event));
        }
      }
    }
    if (user_metrics != nullptr && slot.metrics != nullptr) {
      user_metrics->MergeFrom(*slot.metrics);
    }

    const bool ok = fragment.mined && fragment.status.ok();
    if (fragment.mined) {
      ++corpus.fragments_mined;
      corpus.ledger_peak_bytes =
          SatAdd(corpus.ledger_peak_bytes,
                 WindowBytes(fragments[fragment.ordinal].sequence));
      if (!fragment.status.ok()) {
        ++corpus.fragments_failed;
      } else if (fragment.result.complete()) {
        ++corpus.fragments_completed;
      }
    } else {
      ++corpus.fragments_skipped;
    }
    if (ok) {
      const MiningResult& result = fragment.result;
      corpus.ledger_peak_bytes =
          SatAdd(corpus.ledger_peak_bytes, ApproxResultBytes(result));
      corpus.total_candidates =
          SatAdd(corpus.total_candidates, result.total_candidates);
      corpus.pil_memory_peak_bytes =
          std::max(corpus.pil_memory_peak_bytes, result.pil_memory_peak_bytes);
      corpus.longest_frequent_length = std::max(
          corpus.longest_frequent_length, result.longest_frequent_length);
      for (const FrequentPattern& found : result.patterns) {
        const std::vector<Symbol>& symbols = found.pattern.symbols();
        UnionEntry& entry = pattern_union[{
            symbols.size(), std::string(symbols.begin(), symbols.end())}];
        if (entry.fragment_count == 0 || found.support > entry.pattern.support) {
          // Keep the best *per-fragment* support (§7 aggregation: support
          // is never summed across fragment boundaries); ties keep the
          // earliest fragment's entry.
          entry.pattern = found;
        }
        ++entry.fragment_count;
      }
    }

    if (user_trace != nullptr) {
      TraceEvent end;
      end.kind = TraceEventKind::kFragmentEnd;
      end.fragment = static_cast<std::int64_t>(fragment.ordinal);
      end.detail = FragmentReason(fragment);
      end.patterns = ok ? fragment.result.patterns.size() : 0;
      user_trace->Append(std::move(end));
    }

    corpus.fragments.push_back(std::move(fragment));
  }

  corpus.patterns.reserve(pattern_union.size());
  corpus.pattern_fragment_counts.reserve(pattern_union.size());
  for (auto& [key, entry] : pattern_union) {
    corpus.patterns.push_back(std::move(entry.pattern));
    corpus.pattern_fragment_counts.push_back(entry.fragment_count);
  }

  // Termination: a corpus-level trip wins; otherwise the first fragment cut
  // short by its own budget names the reason.
  if (corpus_guard.stopped()) {
    corpus.termination = corpus_guard.reason();
  } else {
    for (const FragmentResult& fragment : corpus.fragments) {
      if (fragment.mined && fragment.status.ok() &&
          !fragment.result.complete()) {
        corpus.termination = fragment.result.termination;
        break;
      }
    }
  }

  if (corpus.fragments_skipped == 0 && corpus.fragments_failed == 0 &&
      corpus.fragments_mined == corpus.fragments_planned) {
    corpus.guaranteed_complete_up_to = INT64_MAX;
    for (const FragmentResult& fragment : corpus.fragments) {
      corpus.guaranteed_complete_up_to =
          std::min(corpus.guaranteed_complete_up_to,
                   fragment.result.guaranteed_complete_up_to);
    }
  }

  // Deterministic corpus.* metrics (the ledger peak rides on the result,
  // not in the export).
  if (user_metrics != nullptr) {
    std::uint64_t patterns_total = 0;
    for (const FragmentResult& fragment : corpus.fragments) {
      if (fragment.mined && fragment.status.ok()) {
        patterns_total = SatAdd(
            patterns_total,
            static_cast<std::uint64_t>(fragment.result.patterns.size()));
      }
    }
    user_metrics->GetCounter("corpus.records")->Add(plan.num_records());
    user_metrics->GetCounter("corpus.records.skipped")
        ->Add(plan.skipped_records().size());
    user_metrics->GetCounter("corpus.residues.dropped")
        ->Add(plan.num_dropped_residues());
    user_metrics->GetCounter("corpus.fragments.planned")
        ->Add(corpus.fragments_planned);
    user_metrics->GetCounter("corpus.fragments.mined")
        ->Add(corpus.fragments_mined);
    user_metrics->GetCounter("corpus.fragments.completed")
        ->Add(corpus.fragments_completed);
    user_metrics->GetCounter("corpus.fragments.failed")
        ->Add(corpus.fragments_failed);
    user_metrics->GetCounter("corpus.fragments.skipped")
        ->Add(corpus.fragments_skipped);
    user_metrics->GetCounter("corpus.patterns.total")->Add(patterns_total);
    user_metrics->GetCounter("corpus.patterns.unique")
        ->Add(corpus.patterns.size());
    user_metrics->GetCounter("corpus.candidates.total")
        ->Add(corpus.total_candidates);
  }

  return corpus;
}

}  // namespace pgm
