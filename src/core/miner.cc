#include "core/miner.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

#include "util/saturating.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace pgm {

namespace {

struct NamedMiner {
  std::string_view name;
  StatusOr<MiningResult> (*mine)(const Sequence&, const MinerConfig&);
};

constexpr NamedMiner kMiners[] = {
    {"mpp", &MineMpp},
    {"mppm", &MineMppm},
    {"enum", &MineEnumeration},
    {"adaptive", &MineAdaptive},
};

const NamedMiner* FindMiner(std::string_view algorithm) {
  for (const NamedMiner& miner : kMiners) {
    if (miner.name == algorithm) return &miner;
  }
  return nullptr;
}

}  // namespace

bool PatternOrderLess(const FrequentPattern& a, const FrequentPattern& b) {
  if (a.pattern.length() != b.pattern.length()) {
    return a.pattern.length() < b.pattern.length();
  }
  return a.pattern.symbols() < b.pattern.symbols();
}

std::uint64_t ApproxResultBytes(const MiningResult& result) {
  std::uint64_t bytes = sizeof(MiningResult);
  for (const FrequentPattern& fp : result.patterns) {
    bytes += sizeof(FrequentPattern) + fp.pattern.length() * sizeof(Symbol);
  }
  return bytes + result.level_stats.size() * sizeof(LevelStats);
}

std::string AlgorithmNames() {
  std::string names;
  for (const NamedMiner& miner : kMiners) {
    if (!names.empty()) names += " | ";
    names += miner.name;
  }
  return names;
}

Status CheckAlgorithm(std::string_view algorithm) {
  if (FindMiner(algorithm) != nullptr) return Status::OK();
  return Status::InvalidArgument("unknown algorithm '" +
                                 std::string(algorithm) + "' (" +
                                 AlgorithmNames() + ")");
}

Status CheckLengthCap(std::string_view algorithm, const MinerConfig& config) {
  if (algorithm != "enum" || config.max_length >= 0) return Status::OK();
  return Status::InvalidArgument(
      "algorithm enum requires max-length: it enumerates every |alphabet|^l "
      "candidate up to its horizon, so an uncapped run can exhaust memory");
}

StatusOr<MiningResult> Mine(std::string_view algorithm,
                            const Sequence& sequence,
                            const MinerConfig& config) {
  PGM_RETURN_IF_ERROR(CheckAlgorithm(algorithm));
  return FindMiner(algorithm)->mine(sequence, config);
}

namespace internal {

StatusOr<GapRequirement> ValidateConfig(const Sequence& sequence,
                                        const MinerConfig& config) {
  if (sequence.empty()) {
    return Status::InvalidArgument("subject sequence must not be empty");
  }
  PGM_RETURN_IF_ERROR(ValidateSequenceLength(sequence.size()));
  PGM_ASSIGN_OR_RETURN(GapRequirement gap,
                       GapRequirement::Create(config.min_gap, config.max_gap));
  if (!(config.min_support_ratio > 0.0) || config.min_support_ratio > 1.0) {
    return Status::InvalidArgument(
        StrFormat("min_support_ratio must lie in (0, 1], got %g",
                  config.min_support_ratio));
  }
  if (config.start_length < 1) {
    return Status::InvalidArgument("start_length must be >= 1");
  }
  if (config.max_length >= 0 && config.max_length < config.start_length) {
    return Status::InvalidArgument(
        "max_length must be >= start_length (or -1 for unbounded)");
  }
  if (config.threads < 0 || config.threads > ThreadPool::kMaxThreads) {
    return Status::InvalidArgument(StrFormat(
        "threads must lie in [0, %lld] (0 = one per hardware thread), got %lld",
        static_cast<long long>(ThreadPool::kMaxThreads),
        static_cast<long long>(config.threads)));
  }
  if (config.em_order < 1) {
    return Status::InvalidArgument("e_m order m must be >= 1");
  }
  if (config.initial_n < 1) {
    return Status::InvalidArgument("initial_n must be >= 1");
  }
  if (config.max_iterations < 1) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }
  return gap;
}

std::uint64_t AnalyticCandidateCount(std::size_t alphabet_size,
                                     std::int64_t length) {
  std::uint64_t count = 1;
  for (std::int64_t i = 0; i < length; ++i) {
    count = SatMul(count, static_cast<std::uint64_t>(alphabet_size));
  }
  return count;
}

BuiltLevel BuildAllPatternsOfLength(const Sequence& sequence,
                                    const GapRequirement& gap, std::int64_t k,
                                    MiningGuard* guard,
                                    ParallelLevelExecutor* executor,
                                    KernelImpl kernel) {
  // Length-1 patterns: every position contributes exactly one row (to its
  // symbol's span), so one reservation of |S| rows covers the whole level.
  BuiltLevel level{PilArena(guard), {}, {}};
  if (!level.arena.Reserve(sequence.size())) {
    // The very first reservation tripped the memory budget. The guard has
    // latched, so skip the build: every caller checks guard->stopped() and
    // unwinds, and the rows would only be discarded.
    level.arena.SealWatermark();
    return level;
  }
  // One counting sort: count each symbol's positions, turn the counts into
  // write cursors, then place every position — symbol-major, positions
  // ascending. A symbol's support is its row count.
  std::vector<std::uint64_t> cursors(sequence.alphabet().size(), 0);
  for (std::size_t pos = 0; pos < sequence.size(); ++pos) {
    ++cursors[sequence[pos]];
  }
  std::uint64_t offset = 0;
  for (std::size_t s = 0; s < cursors.size(); ++s) {
    const std::uint64_t len = cursors[s];
    cursors[s] = offset;
    if (len == 0) continue;
    level.entries.push_back(
        ArenaEntry{std::string(1, static_cast<char>(s)), PilSpan{offset, len}});
    level.supports.push_back(ClampSupport(len, /*saturated=*/false));
    offset += len;
  }
  PilEntry* rows =
      level.arena.MutableRows(level.arena.Allocate(sequence.size()));
  for (std::size_t pos = 0; pos < sequence.size(); ++pos) {
    rows[cursors[sequence[pos]]++] =
        PilEntry{static_cast<std::uint32_t>(pos), 1};
  }
  level.arena.SealWatermark();
  if (guard != nullptr && guard->stopped()) return level;

  // Longer levels: self-join, keeping every non-empty candidate.
  ParallelLevelExecutor serial_executor(1);
  if (executor == nullptr) executor = &serial_executor;
  PilArena spare(guard);
  for (std::int64_t length = 2; length <= k; ++length) {
    const JoinPlan plan = JoinPlan::SelfJoin(level.entries, executor);
    if (ExtendLevel(level, plan, gap, kernel, guard, *executor, level,
                    spare)) {
      break;
    }
  }
  return level;
}

bool ExtendLevel(const BuiltLevel& left, const JoinPlan& plan,
                 const GapRequirement& gap, KernelImpl kernel,
                 MiningGuard* guard, ParallelLevelExecutor& executor,
                 BuiltLevel& level, PilArena& spare) {
  std::vector<ArenaEntry> entries;
  std::vector<SupportInfo> supports;
  auto sink = [&](const JoinedCandidate& candidate) -> Status {
    if (candidate.span.empty()) return Status::OK();
    const std::string& right = level.entries[candidate.right].symbols;
    ArenaEntry entry;
    entry.symbols.reserve(right.size() + 1);
    entry.symbols.push_back(left.entries[candidate.left].symbols.front());
    entry.symbols.append(right);
    entry.span = spare.Promote(candidate.span);
    entries.push_back(std::move(entry));
    supports.push_back(candidate.support);
    return Status::OK();
  };
  bool interrupted = false;
  spare.BeginScratch();
  const Status status =
      executor.ExecuteJoin(left.entries, left.arena, level.entries,
                           level.arena, plan, gap, kernel, guard, spare, sink,
                           &interrupted);
  spare.EndScratch();
  (void)status;  // the sink above cannot fail, so this is always OK
  level.entries = std::move(entries);
  level.supports = std::move(supports);
  level.arena.Clear();
  std::swap(level.arena, spare);
  return interrupted;
}

Status RecordFrequent(std::string_view symbols, const SupportInfo& support,
                      long double n_l, const Alphabet& alphabet,
                      MiningResult* result) {
  PGM_ASSIGN_OR_RETURN(
      Pattern pattern,
      Pattern::FromSymbols(std::vector<Symbol>(symbols.begin(), symbols.end()),
                           alphabet));
  result->longest_frequent_length =
      std::max(result->longest_frequent_length,
               static_cast<std::int64_t>(pattern.length()));
  result->patterns.push_back(FrequentPattern{
      std::move(pattern), support.count, support.saturated,
      static_cast<double>(static_cast<long double>(support.count) / n_l)});
  return Status::OK();
}

void SealRun(const MiningGuard& guard, ObserverContext& ctx,
             MiningResult* result) {
  result->termination = guard.reason();
  result->pil_memory_peak_bytes = guard.memory_peak_bytes();
  if (!result->complete()) {
    result->guaranteed_complete_up_to = std::min(
        result->guaranteed_complete_up_to, ctx.last_completed_level());
  }
  std::sort(result->patterns.begin(), result->patterns.end(),
            PatternOrderLess);
  ctx.Finish(result);
  result->total_seconds = guard.elapsed_seconds();
  result->mining_seconds = result->total_seconds - result->em_seconds;
}

StatusOr<MiningResult> RunLevelwise(const Sequence& sequence,
                                    const MinerConfig& config,
                                    const OffsetCounter& counter,
                                    std::int64_t n_effective,
                                    BuiltLevel seed_level, MiningGuard& guard,
                                    ParallelLevelExecutor& executor,
                                    ObserverContext& ctx) {
  const GapRequirement& gap = counter.gap();
  // One resolution per run: the gap (and so the window width) is fixed, so
  // every level of the run uses the same kernel implementation.
  const KernelImpl kernel = ResolveKernel(config.kernel_tier, gap);

  MiningResult result;
  result.n_used = n_effective;
  result.guaranteed_complete_up_to = std::min(n_effective, counter.l1());

  std::int64_t level_length = config.start_length;
  if (level_length > counter.l2()) {  // no offset sequences at all
    SealRun(guard, ctx, &result);
    return result;
  }
  if (!guard.CheckNow()) {
    ctx.GuardTrip(guard.reason(), 0);
    SealRun(guard, ctx, &result);
    return result;
  }

  // The open level's thresholds; its counts live in `ctx`.
  long double n_l = 0.0L;
  long double full_threshold = 0.0L;
  long double relaxed_threshold = 0.0L;
  // Opens level `level_length` with `candidates` generated. Its λ factor is
  // Theorem 1's λ_{n,n-l} for l <= n and 1 beyond (algorithm lines 4-7).
  auto open_level = [&](std::uint64_t candidates) {
    const long double lambda =
        level_length > n_effective
            ? 1.0L
            : counter.Lambda(n_effective, n_effective - level_length);
    n_l = counter.Count(level_length);
    full_threshold = static_cast<long double>(config.min_support_ratio) * n_l;
    relaxed_threshold = lambda * full_threshold;
    ctx.LevelStart(level_length, candidates, static_cast<double>(lambda),
                   static_cast<double>(full_threshold),
                   static_cast<double>(relaxed_threshold));
  };
  // Judges one candidate of the open level and counts it there. An empty
  // candidate is never kept: λ can be 0, and zero support would then clear
  // the relaxed threshold.
  struct Verdict {
    bool frequent = false;
    bool retain = false;
  };
  auto judge = [&](const SupportInfo& support, const PilSpan& span) {
    Verdict verdict;
    if (support.count > 0) {
      const long double count = static_cast<long double>(support.count);
      verdict.frequent = count >= full_threshold;
      verdict.retain = count >= relaxed_threshold;
    }
    ctx.ObserveCandidate(support.count, span.bytes(), verdict.frequent,
                         verdict.retain);
    return verdict;
  };

  // The two arenas the mining loop ping-pongs between: arenas[cur] owns the
  // retained entries' rows, arenas[cur ^ 1] receives the next level. After
  // a level the source is Clear()ed — capacity (and its ledger charge)
  // stays, so warmed-up levels run without arena growth. Dropped candidates
  // are never released individually; their scratch rows vanish with the
  // executor's block truncation and their share of the capacity charge with
  // the arenas at function exit.
  PilArena arenas[2] = {PilArena(&guard), PilArena(&guard)};
  int cur = 0;
  std::vector<ArenaEntry> retained;

  // First level: all |Σ|^start_length patterns (counted as candidates even
  // when their PIL turned out empty). The level opens before the build, so
  // a trip during construction still reports the level it was working on.
  // A non-empty seed was built (and memory-charged) by the caller against
  // the same guard.
  const std::uint64_t first_candidates =
      AnalyticCandidateCount(sequence.alphabet().size(), level_length);
  open_level(first_candidates);
  BuiltLevel first_level =
      seed_level.entries.empty()
          ? BuildAllPatternsOfLength(sequence, gap, level_length, &guard,
                                     &executor, kernel)
          : std::move(seed_level);
  assert(first_level.supports.size() == first_level.entries.size());
  // A trip during the build or at the candidate charge ends the run here.
  const bool charged =
      !guard.stopped() && guard.ChargeLevelCandidates(first_candidates);
  for (std::size_t i = 0; charged && i < first_level.entries.size(); ++i) {
    if (!guard.Tick()) break;
    ArenaEntry& entry = first_level.entries[i];
    const SupportInfo& support = first_level.supports[i];
    const Verdict verdict = judge(support, entry.span);
    if (verdict.frequent) {
      PGM_RETURN_IF_ERROR(RecordFrequent(entry.symbols, support, n_l,
                                         sequence.alphabet(), &result));
    }
    if (verdict.retain) retained.push_back(std::move(entry));
  }
  // Retained spans stay valid: the whole first-level arena becomes the
  // loop's source side.
  arenas[cur] = std::move(first_level.arena);
  ctx.LevelEnd(guard.reason());

  while (!guard.stopped() && !retained.empty() &&
         (config.max_length < 0 || level_length < config.max_length) &&
         level_length + 1 <= counter.l2()) {
    if (!guard.CheckNow()) {
      ctx.GuardTrip(guard.reason(), level_length);
      break;
    }
    ++level_length;
    const JoinPlan plan = JoinPlan::SelfJoin(retained, &executor);
    open_level(plan.num_candidates());

    PilArena& src = arenas[cur];
    PilArena& dst = arenas[cur ^ 1];
    std::vector<ArenaEntry> next_retained;
    if (guard.ChargeLevelCandidates(plan.num_candidates())) {
      auto sink = [&](const JoinedCandidate& candidate) -> Status {
        const Verdict verdict = judge(candidate.support, candidate.span);
        if (!verdict.frequent && !verdict.retain) return Status::OK();
        std::string symbols;
        symbols.reserve(static_cast<std::size_t>(level_length));
        symbols.push_back(retained[candidate.left].symbols.front());
        symbols.append(retained[candidate.right].symbols);
        if (verdict.frequent) {
          PGM_RETURN_IF_ERROR(RecordFrequent(symbols, candidate.support, n_l,
                                             sequence.alphabet(), &result));
        }
        if (verdict.retain) {
          next_retained.push_back(
              ArenaEntry{std::move(symbols), dst.Promote(candidate.span)});
        }
        return Status::OK();
      };
      bool interrupted = false;
      dst.BeginScratch();
      const Status join_status =
          executor.ExecuteJoin(retained, src, retained, src, plan, gap, kernel,
                               &guard, dst, sink, &interrupted);
      dst.EndScratch();
      PGM_RETURN_IF_ERROR(join_status);
    }
    retained = std::move(next_retained);
    src.Clear();
    cur ^= 1;
    ctx.LevelEnd(guard.reason());
  }

  SealRun(guard, ctx, &result);
  return result;
}

}  // namespace internal
}  // namespace pgm
