#ifndef PGM_CORE_MINER_H_
#define PGM_CORE_MINER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/gap.h"
#include "core/guard.h"
#include "core/offset_counter.h"
#include "core/parallel.h"
#include "core/pattern.h"
#include "core/pil.h"
#include "core/trace.h"
#include "seq/sequence.h"
#include "util/limits.h"
#include "util/status.h"

namespace pgm {

/// Shared configuration for all mining algorithms. The gap requirement and
/// support threshold follow Section 3; the remaining knobs select algorithm
/// variants from Sections 5 and 6.
struct MinerConfig {
  /// Minimum gap N between successive pattern characters.
  std::int64_t min_gap = 0;
  /// Maximum gap M between successive pattern characters.
  std::int64_t max_gap = 0;
  /// ρs as a fraction in (0, 1] (the paper quotes percentages: 0.003% is
  /// 0.00003 here). A pattern P of length l is frequent iff
  /// sup(P) >= ρs * N_l.
  double min_support_ratio = 0.0;
  /// First mined pattern length. The paper starts at 3 because length-1/2
  /// patterns over a 4-letter alphabet are always frequent and thus
  /// uninteresting; tests use 1 to cross-validate against enumeration.
  std::int64_t start_length = 3;
  /// Hard cap on pattern length; -1 means "until the candidate set empties
  /// or l2 is reached". Enumeration treats this as its level budget.
  std::int64_t max_length = -1;

  // --- MPP ---
  /// The user's estimate n of the longest frequent pattern length; -1 means
  /// "no idea" which the paper calls the worst case (n = l1). Values above
  /// l1 are clamped to l1 (algorithm line 3).
  std::int64_t user_n = -1;

  // --- MPPm ---
  /// The order m of the e_m statistic (Theorem 2).
  std::int64_t em_order = 10;
  /// When false, the n-estimation uses the loose Theorem 1 λ instead of the
  /// tight Theorem 2 λ' (ablation; typically estimates n = l1).
  bool use_em_bound = true;

  // --- Adaptive ---
  /// Starting n of the adaptive refinement loop (Section 6 sketch).
  std::int64_t initial_n = 10;
  /// Safety bound on adaptive iterations.
  std::int64_t max_iterations = 16;

  // --- Parallel execution ---
  /// Worker threads for level evaluation: 1 = serial (the default), 0 = one
  /// per hardware thread, T > 1 = exactly T workers, up to
  /// ThreadPool::kMaxThreads (larger values are rejected). Candidates within
  /// a level are evaluated in parallel and merged in candidate order, so
  /// runs that no resource limit interrupts produce byte-identical results
  /// at every thread count; under an interrupting limit the
  /// partial-but-sound contract holds at every thread count, but the
  /// truncation point may differ.
  std::int64_t threads = 1;
  /// Join kernel for the level joins (core/kernel.h, DESIGN.md §7e); set
  /// only through the C++ API. kAuto runs the AVX2 bitset kernel whenever
  /// the window width W = max_gap - min_gap + 1 fits one 64-bit mask and
  /// the CPU supports AVX2, and the scalar kernel otherwise; kScalar pins
  /// the scalar oracle. Both produce byte-identical rows and supports, so
  /// the choice only affects speed, never results.
  KernelTier kernel_tier = KernelTier::kAuto;

  // --- Resource governance ---
  /// Budgets for the run (defaults: unlimited). When a budget is exhausted
  /// the miners return ok() with a partial-but-sound result; see
  /// MiningResult::termination. For Adaptive, the deadline covers the whole
  /// refinement loop, not each inner MPP run.
  ResourceLimits limits;
  /// Optional cooperative cancellation; must outlive the mining call.
  /// Polled at level boundaries and every MiningGuard::kTickPeriod PIL
  /// extensions.
  const CancelToken* cancel = nullptr;

  // --- Observability ---
  /// Optional metrics/trace sinks (core/trace.h); the observer and its
  /// registries must outlive the mining call. Null (the default) keeps the
  /// per-candidate hot path at a single predicted branch. Adaptive attaches
  /// the observer to every inner MPP run, so counters accumulate across
  /// iterations and the trace carries one run_start/run_end pair per
  /// iteration.
  const MiningObserver* observer = nullptr;
};

/// One frequent pattern in a mining result.
struct FrequentPattern {
  Pattern pattern;
  /// sup(P): number of distinct matching offset sequences (clamped).
  std::uint64_t support = 0;
  /// True when the support counter saturated (degenerate inputs).
  bool saturated = false;
  /// sup(P) / N_l.
  double support_ratio = 0.0;
};
// A result's growth moves its patterns rather than copying them.
static_assert(std::is_nothrow_move_constructible_v<FrequentPattern>);

/// Per-level candidate accounting (the raw material of the paper's Table 3).
/// Read out of the run's level table (internal::ObserverContext) when the
/// run is sealed; the per-level metrics counters come from the same table,
/// so the two agree by construction.
struct LevelStats {
  /// Pattern length of the level.
  std::int64_t length = 0;
  /// |C_l|: candidates generated (for the first level: |Σ|^start_length).
  std::uint64_t num_candidates = 0;
  /// |L_l|: candidates meeting the full threshold ρs * N_l.
  std::uint64_t num_frequent = 0;
  /// |L̂_l|: candidates meeting the relaxed threshold λ_{n,n-l} * ρs * N_l
  /// (these seed the next level's join).
  std::uint64_t num_retained = 0;
};

/// The order of MiningResult::patterns and of every pattern list the
/// library derives from one: by length, then by symbols.
bool PatternOrderLess(const FrequentPattern& a, const FrequentPattern& b);

/// The outcome of a mining run.
struct MiningResult {
  /// All frequent patterns, sorted by (length, symbols): PatternOrderLess.
  std::vector<FrequentPattern> patterns;
  /// One entry per processed level, in order.
  std::vector<LevelStats> level_stats;

  /// The effective n the level thresholds used (user, clamp, or estimate).
  std::int64_t n_used = 0;
  /// Completeness guarantee: every frequent pattern with length <= this
  /// bound is present; longer ones are returned best-effort.
  std::int64_t guaranteed_complete_up_to = 0;
  /// Length of the longest frequent pattern found (0 when none).
  std::int64_t longest_frequent_length = 0;
  /// Total candidates across levels: the (saturating) sum of
  /// LevelStats::num_candidates, including the level a budget trip cut
  /// short — partial runs report the true count of generated candidates.
  std::uint64_t total_candidates = 0;

  /// Why the run stopped. Anything except kCompleted marks a partial
  /// result: every returned pattern is genuinely frequent, patterns with
  /// length <= guaranteed_complete_up_to are all present, and longer ones
  /// may be missing. Budget exhaustion is NOT an error — the Status stays
  /// OK and the caller inspects this field.
  TerminationReason termination = TerminationReason::kCompleted;
  /// Peak PIL memory observed by the guard, in bytes. Measured as the
  /// high-water capacity of the run's PIL arenas (core/pil_arena.h) — the
  /// memory actually held for pattern rows — not per-pattern heap blocks.
  std::uint64_t pil_memory_peak_bytes = 0;

  /// True when no budget, deadline, or cancellation cut the run short.
  bool complete() const {
    return termination == TerminationReason::kCompleted;
  }

  /// MPPm: the computed e_m and its estimate of n (-1 when not applicable).
  std::uint64_t em = 0;
  std::int64_t estimated_n = -1;
  /// Adaptive: number of MPP invocations performed (0 when not applicable).
  std::int64_t adaptive_iterations = 0;

  /// Wall-clock accounting (seconds).
  double em_seconds = 0.0;
  double mining_seconds = 0.0;
  double total_seconds = 0.0;
};

/// Estimated resident size of a MiningResult: the struct, each pattern and
/// its symbols, and the level stats. It counts lengths, not capacities, so
/// a copy and its original count the same. An estimate, not an audit: the
/// serving cache bounds memory growth with it and the corpus ledger counts
/// results with it; neither reproduces malloc bookkeeping.
std::uint64_t ApproxResultBytes(const MiningResult& result);

/// MPP (Section 5.1): level-wise mining with PIL-based support counting and
/// the Theorem 1 λ-relaxed thresholds, steered by the user estimate n
/// (config.user_n). Guarantees completeness for lengths <= min(n, l1) and
/// returns longer frequent patterns best-effort.
StatusOr<MiningResult> MineMpp(const Sequence& sequence,
                               const MinerConfig& config);

/// MPPm (Section 5.2): MPP with n estimated automatically from the e_m
/// statistic (config.em_order) and the first level's support spectrum.
StatusOr<MiningResult> MineMppm(const Sequence& sequence,
                                const MinerConfig& config);

/// The brute-force baseline of Section 6: every |Σ|^l pattern of every level
/// is counted; no pruning. Practical only for small alphabets/levels — set
/// config.max_length. Exact (it is the reference the tests validate
/// against).
StatusOr<MiningResult> MineEnumeration(const Sequence& sequence,
                                       const MinerConfig& config);

/// The adaptive-n refinement the paper sketches at the end of Section 6:
/// run MPP with a small n, raise n to the longest pattern found, repeat
/// until stable.
StatusOr<MiningResult> MineAdaptive(const Sequence& sequence,
                                    const MinerConfig& config);

/// "mpp | mppm | enum | adaptive": the algorithm names Mine accepts, for
/// usage text.
std::string AlgorithmNames();

/// OK when `algorithm` names a miner; InvalidArgument naming it otherwise.
Status CheckAlgorithm(std::string_view algorithm);

/// OK unless `algorithm` is "enum" with no length cap (max_length < 0);
/// then InvalidArgument naming max-length. Uncapped, enumeration visits
/// every |Σ|^l candidate up to its level-count horizon and, with the PIL
/// budget unlimited by default, runs into the OOM killer instead of a
/// budget trip. `pgm mine`, `pgm corpus` and each MiningService job check
/// it before loading any input; MineEnumeration itself keeps
/// max_length = -1 (the horizon) as its default.
Status CheckLengthCap(std::string_view algorithm, const MinerConfig& config);

/// Runs the miner `algorithm` names — "mpp" (MineMpp), "mppm" (MineMppm),
/// "enum" (MineEnumeration) or "adaptive" (MineAdaptive) — or returns
/// CheckAlgorithm's error. The one dispatcher behind `pgm mine`, the corpus
/// executor and the serving layer.
StatusOr<MiningResult> Mine(std::string_view algorithm,
                            const Sequence& sequence,
                            const MinerConfig& config);

namespace internal {

// ArenaEntry, BuiltLevel, JoinPlan (core/candidate_index.h) and the
// ParallelLevelExecutor (core/parallel.h) are re-exported here.

/// Validates every configuration field against the sequence, for every
/// algorithm alike (MPPm's m and the adaptive loop's knobs included), and
/// returns the run's gap requirement. The engines call it before they build
/// their guard, context and executor, so a rejected run records nothing.
StatusOr<GapRequirement> ValidateConfig(const Sequence& sequence,
                                        const MinerConfig& config);

/// |Σ|^length, saturating at kSaturatedCount: the candidate count of a level
/// that generates every pattern of its length (a level-wise run's first
/// level, every enumeration level).
std::uint64_t AnalyticCandidateCount(std::size_t alphabet_size,
                                     std::int64_t length);

/// Builds the arena-backed level of every length-k pattern with non-empty
/// PIL, each entry's support beside it. Used to seed the level-wise loop and
/// by MPPm's n-estimation. When `guard` is non-null every PIL extension
/// ticks it and the level arena's capacity is charged against the memory
/// budget; the charge travels with the returned BuiltLevel and drains when
/// it is destroyed. On a tripped guard the returned level is partial and
/// `guard->stopped()` is true. When `executor` is non-null the level joins
/// run on it; null means serial. `kernel` selects the join-kernel
/// implementation (core/kernel.h) — both produce byte-identical levels, so
/// the scalar default is a correctness-neutral convenience for tests and
/// benchmarks.
BuiltLevel BuildAllPatternsOfLength(
    const Sequence& sequence, const GapRequirement& gap, std::int64_t k,
    MiningGuard* guard = nullptr, ParallelLevelExecutor* executor = nullptr,
    KernelImpl kernel = KernelImpl::kScalar);

/// Extends `level` by one symbol on the left without pruning: joins `plan`
/// (left.entries[t.left] against level.entries[r]; `left` may be `level`
/// itself) into `spare`, and makes `level` every candidate with a non-empty
/// PIL, in plan order, its symbols the left entry's first symbol followed
/// by the right entry's, its support the join kernel's. `spare` takes
/// `level`'s old arena, cleared with its capacity kept, so a run of
/// extensions ping-pongs between two arenas. Returns true when `guard`
/// interrupted the join; `level` then holds the delivered prefix.
bool ExtendLevel(const BuiltLevel& left, const JoinPlan& plan,
                 const GapRequirement& gap, KernelImpl kernel,
                 MiningGuard* guard, ParallelLevelExecutor& executor,
                 BuiltLevel& level, PilArena& spare);

/// Appends the frequent pattern `symbols` spells over `alphabet`, with
/// `support` and its ratio to `n_l`, to result->patterns, and raises
/// result->longest_frequent_length to its length.
Status RecordFrequent(std::string_view symbols, const SupportInfo& support,
                      long double n_l, const Alphabet& alphabet,
                      MiningResult* result);

/// Seals a run: records why it stopped and its PIL peak, shrinks the
/// completeness horizon to ctx.last_completed_level() when the run was cut
/// short, puts the patterns in PatternOrderLess order, lets `ctx` derive
/// the level stats (ObserverContext::Finish), and reads the run's time off
/// the guard's clock: total_seconds, and mining_seconds as total_seconds
/// minus result->em_seconds.
void SealRun(const MiningGuard& guard, ObserverContext& ctx,
             MiningResult* result);

/// The shared level-wise engine behind MPP and MPPm. `config` must have
/// passed ValidateConfig, and `counter` carries its gap. `n_effective` is
/// the (already clamped) n; `seed_level` may carry a precomputed first level
/// to avoid duplicate work (pass a default-constructed BuiltLevel to build
/// internally — non-empty seeds must be backed by arenas charged against
/// `guard`, with one support per entry). The guard is checked at every
/// level boundary and ticked per PIL extension; when it trips, the engine
/// stops, tightens guaranteed_complete_up_to to the last fully processed
/// level, and returns the partial result with the guard's reason. The
/// engine's arenas release their charges when they go out of scope, so on
/// every exit the guard's ledger returns to whatever the caller's
/// outstanding charges are. `executor` runs the level joins and `ctx` is
/// the caller's recording context; the engine reports each level into it
/// and seals the run (SealRun).
StatusOr<MiningResult> RunLevelwise(const Sequence& sequence,
                                    const MinerConfig& config,
                                    const OffsetCounter& counter,
                                    std::int64_t n_effective,
                                    BuiltLevel seed_level, MiningGuard& guard,
                                    ParallelLevelExecutor& executor,
                                    ObserverContext& ctx);

}  // namespace internal
}  // namespace pgm

#endif  // PGM_CORE_MINER_H_
