#include "core/miner.h"

#include <algorithm>
#include <optional>
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

Status ValidateConfig(const Sequence& sequence, const MinerConfig& config) {
  if (sequence.empty()) {
    return Status::InvalidArgument("subject sequence must not be empty");
  }
  PGM_RETURN_IF_ERROR(ValidateSequenceLength(sequence.size()));
  PGM_ASSIGN_OR_RETURN(GapRequirement gap,
                       GapRequirement::Create(config.min_gap, config.max_gap));
  (void)gap;  // validation only; the engines re-create their own
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
  return Status::OK();
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
  ParallelLevelExecutor serial_executor(1);
  if (executor == nullptr) executor = &serial_executor;

  // Length-1 patterns: every position contributes exactly one row (to its
  // symbol's span), so one reservation of |S| rows covers the whole level.
  BuiltLevel level{PilArena(guard), {}};
  if (!level.arena.Reserve(sequence.size())) {
    // The very first reservation tripped the memory budget. The guard has
    // latched, so skip the build: every caller checks guard->stopped() and
    // unwinds, and the rows would only be discarded.
    level.arena.SealWatermark();
    return level;
  }
  // Built in two parallel passes over position chunks: count per
  // (chunk, symbol), serially prefix-sum the counts into per-chunk write
  // cursors (symbol-major, chunks in position order inside each symbol),
  // then fill the disjoint slices. The resulting layout — symbol-major,
  // positions ascending — is byte-identical to a serial symbol-by-symbol
  // append, and independent of the thread count by construction.
  const std::size_t seq_len = sequence.size();
  const std::size_t alphabet_size = sequence.alphabet().size();
  constexpr std::size_t kBuildChunk = std::size_t{1} << 16;
  const std::size_t num_chunks = (seq_len + kBuildChunk - 1) / kBuildChunk;
  std::vector<std::uint64_t> cursors(num_chunks * alphabet_size, 0);
  executor->ParallelFor(
      num_chunks, 1, [&](std::size_t chunk_begin, std::size_t chunk_end) {
        for (std::size_t c = chunk_begin; c < chunk_end; ++c) {
          std::uint64_t* counts = cursors.data() + c * alphabet_size;
          const std::size_t hi = std::min((c + 1) * kBuildChunk, seq_len);
          for (std::size_t pos = c * kBuildChunk; pos < hi; ++pos) {
            counts[sequence[pos]] += 1;
          }
        }
      });
  std::vector<std::uint64_t> base(alphabet_size + 1, 0);
  {
    std::uint64_t running = 0;
    for (std::size_t s = 0; s < alphabet_size; ++s) {
      base[s] = running;
      for (std::size_t c = 0; c < num_chunks; ++c) {
        const std::uint64_t count = cursors[c * alphabet_size + s];
        cursors[c * alphabet_size + s] = running;
        running += count;
      }
    }
    base[alphabet_size] = running;  // == seq_len: every position has a symbol
  }
  PilEntry* rows = level.arena.MutableRows(level.arena.Allocate(seq_len));
  executor->ParallelFor(
      num_chunks, 1, [&](std::size_t chunk_begin, std::size_t chunk_end) {
        for (std::size_t c = chunk_begin; c < chunk_end; ++c) {
          std::uint64_t* cursor = cursors.data() + c * alphabet_size;
          const std::size_t hi = std::min((c + 1) * kBuildChunk, seq_len);
          for (std::size_t pos = c * kBuildChunk; pos < hi; ++pos) {
            rows[cursor[sequence[pos]]++] =
                PilEntry{static_cast<std::uint32_t>(pos), 1};
          }
        }
      });
  for (std::size_t s = 0; s < alphabet_size; ++s) {
    const std::uint64_t len = base[s + 1] - base[s];
    if (len == 0) continue;
    ArenaEntry entry;
    entry.symbols.assign(1, static_cast<char>(static_cast<Symbol>(s)));
    entry.span = PilSpan{base[s], len};
    level.entries.push_back(std::move(entry));
  }
  level.arena.SealWatermark();
  if (guard != nullptr && guard->stopped()) return level;

  // Longer levels: self-join into the other arena, then swap — the same
  // ping-pong the mining loop uses, so a multi-level build touches exactly
  // two arenas regardless of k.
  PilArena other(guard);
  for (std::int64_t length = 2; length <= k; ++length) {
    const JoinPlan plan = JoinPlan::SelfJoin(level.entries, executor);
    std::vector<ArenaEntry> next;
    bool interrupted = false;
    auto sink = [&](const JoinedCandidate& candidate) -> Status {
      if (candidate.span.empty()) return Status::OK();
      ArenaEntry entry;
      entry.symbols.reserve(static_cast<std::size_t>(length));
      entry.symbols.push_back(level.entries[candidate.left].symbols.front());
      entry.symbols.append(level.entries[candidate.right].symbols);
      entry.span = other.Promote(candidate.span);
      next.push_back(std::move(entry));
      return Status::OK();
    };
    other.BeginScratch();
    // The sink cannot fail, so the status is always OK.
    const Status status =
        executor->ExecuteJoin(level.entries, level.arena, level.entries,
                              level.arena, plan, gap, kernel, guard, other,
                              sink, &interrupted);
    other.EndScratch();
    (void)status;  // the sink above cannot fail, so this is always OK
    level.entries = std::move(next);
    level.arena.Clear();
    std::swap(level.arena, other);
    if (interrupted) break;
  }
  return level;
}

StatusOr<MiningResult> RunLevelwise(const Sequence& sequence,
                                    const MinerConfig& config,
                                    const OffsetCounter& counter,
                                    std::int64_t n_effective,
                                    BuiltLevel seed_level, MiningGuard& guard,
                                    ParallelLevelExecutor* executor,
                                    ObserverContext* ctx) {
  PGM_RETURN_IF_ERROR(ValidateConfig(sequence, config));
  PGM_ASSIGN_OR_RETURN(GapRequirement gap,
                       GapRequirement::Create(config.min_gap, config.max_gap));
  ParallelLevelExecutor own_executor(executor == nullptr ? config.threads : 1);
  if (executor == nullptr) executor = &own_executor;
  // Only direct callers (tests) get a context made here; the engines pass
  // their own so the trace carries their algorithm name, not "levelwise".
  std::optional<ObserverContext> own_ctx;
  if (ctx == nullptr) {
    own_ctx.emplace(config.observer, "levelwise",
                    KernelTierToString(config.kernel_tier));
    ctx = &*own_ctx;
  }
  executor->set_observer(ctx);
  // One resolution per run: the gap (and so the window width) is fixed, so
  // every level of the run uses the same kernel implementation.
  const KernelImpl kernel = ResolveKernel(config.kernel_tier, gap);

  MiningResult result;
  result.n_used = n_effective;
  result.guaranteed_complete_up_to = std::min(n_effective, counter.l1());

  // Last level whose candidates were all processed: on an interrupted run
  // the completeness guarantee shrinks to this horizon.
  std::int64_t last_completed_level = 0;
  auto finalize = [&]() {
    result.termination = guard.reason();
    result.pil_memory_peak_bytes = guard.memory_peak_bytes();
    if (!result.complete()) {
      result.guaranteed_complete_up_to =
          std::min(result.guaranteed_complete_up_to, last_completed_level);
    }
    std::sort(result.patterns.begin(), result.patterns.end(),
              PatternOrderLess);
    ctx->Finish(&result);
  };

  const long double rho = config.min_support_ratio;
  const std::int64_t l2 = counter.l2();
  std::int64_t level_length = config.start_length;
  if (level_length > l2) {  // no offset sequences at all
    finalize();
    return result;
  }
  if (!guard.CheckNow()) {
    ctx->GuardTrip(guard.reason(), 0);
    finalize();
    return result;
  }

  // λ factor applied at level i: Theorem 1's λ_{n,n-i} for i <= n, 1 beyond
  // (algorithm lines 4-7).
  auto level_lambda = [&](std::int64_t i) -> long double {
    if (i > n_effective) return 1.0L;
    return counter.Lambda(n_effective, n_effective - i);
  };

  // Records one pattern that cleared the full threshold.
  auto record_frequent = [&](const std::string& symbols,
                             const SupportInfo& support, long double n_l,
                             std::int64_t length) -> Status {
    FrequentPattern fp;
    std::vector<Symbol> syms(symbols.begin(), symbols.end());
    PGM_ASSIGN_OR_RETURN(
        fp.pattern, Pattern::FromSymbols(std::move(syms), sequence.alphabet()));
    fp.support = support.count;
    fp.saturated = support.saturated;
    fp.support_ratio = static_cast<double>(
        static_cast<long double>(support.count) / n_l);
    result.patterns.push_back(std::move(fp));
    result.longest_frequent_length =
        std::max(result.longest_frequent_length, length);
    return Status::OK();
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
  bool interrupted = false;

  // First level: all |Σ|^start_length patterns (counted as candidates even
  // when their PIL turned out empty). The level opens in the registry
  // before the build, so a trip during construction still reports the level
  // it was working on. A non-empty seed was built (and memory-charged) by
  // the caller against the same guard.
  {
    const long double n_l = counter.Count(level_length);
    const long double full_threshold = rho * n_l;
    const long double relaxed_threshold =
        level_lambda(level_length) * full_threshold;
    LevelStats stats;
    stats.length = level_length;
    stats.num_candidates =
        AnalyticCandidateCount(sequence.alphabet().size(), level_length);
    ctx->LevelStart(level_length, stats.num_candidates,
                    static_cast<double>(level_lambda(level_length)),
                    static_cast<double>(full_threshold),
                    static_cast<double>(relaxed_threshold));
    std::uint64_t evaluated = 0;
    BuiltLevel first_level =
        seed_level.entries.empty()
            ? BuildAllPatternsOfLength(sequence, gap, level_length, &guard,
                                       executor, kernel)
            : std::move(seed_level);
    if (guard.stopped()) {
      // Dropping the level here returns its arena's charge to the guard.
      ctx->GuardTrip(guard.reason(), level_length);
      ctx->LevelEnd(level_length, stats.num_candidates, evaluated, 0, 0,
                    /*completed=*/false);
      finalize();
      return result;
    }
    if (guard.ChargeLevelCandidates(stats.num_candidates)) {
      // Support counting is a read-only scan per entry: precompute the
      // supports in parallel, then threshold serially — ticks, records,
      // and the retention order are exactly the serial loop's.
      std::vector<SupportInfo> supports(first_level.entries.size());
      executor->ParallelFor(
          first_level.entries.size(), 64,
          [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
              supports[i] =
                  first_level.arena.Support(first_level.entries[i].span);
            }
          });
      for (std::size_t i = 0; i < first_level.entries.size(); ++i) {
        ArenaEntry& entry = first_level.entries[i];
        if (!guard.Tick()) {
          interrupted = true;
          break;
        }
        const SupportInfo support = supports[i];
        ++evaluated;
        ctx->ObserveCandidate(support.count, entry.span.bytes());
        if (support.count == 0) continue;
        const long double support_ld =
            static_cast<long double>(support.count);
        if (support_ld >= full_threshold) {
          ++stats.num_frequent;
          PGM_RETURN_IF_ERROR(
              record_frequent(entry.symbols, support, n_l, level_length));
        }
        if (support_ld >= relaxed_threshold) {
          ++stats.num_retained;
          retained.push_back(std::move(entry));
        }
      }
    } else {
      interrupted = true;
    }
    // Retained spans stay valid: the whole first-level arena becomes the
    // loop's source side.
    arenas[cur] = std::move(first_level.arena);
    if (interrupted) ctx->GuardTrip(guard.reason(), level_length);
    ctx->LevelEnd(level_length, stats.num_candidates, evaluated,
                  stats.num_frequent, stats.num_retained, !interrupted);
    if (!interrupted) last_completed_level = level_length;
  }

  while (!interrupted && !retained.empty() &&
         (config.max_length < 0 || level_length < config.max_length) &&
         level_length + 1 <= l2) {
    if (!guard.CheckNow()) {
      ctx->GuardTrip(guard.reason(), level_length);
      break;
    }
    ++level_length;
    const long double n_l = counter.Count(level_length);
    const long double full_threshold = rho * n_l;
    const long double relaxed_threshold =
        level_lambda(level_length) * full_threshold;

    LevelStats stats;
    stats.length = level_length;
    const JoinPlan plan = JoinPlan::SelfJoin(retained, executor);
    stats.num_candidates = plan.num_candidates();
    ctx->LevelStart(level_length, stats.num_candidates,
                    static_cast<double>(level_lambda(level_length)),
                    static_cast<double>(full_threshold),
                    static_cast<double>(relaxed_threshold));
    std::uint64_t evaluated = 0;

    PilArena& src = arenas[cur];
    PilArena& dst = arenas[cur ^ 1];
    std::vector<ArenaEntry> next_retained;
    if (guard.ChargeLevelCandidates(stats.num_candidates)) {
      auto sink = [&](const JoinedCandidate& candidate) -> Status {
        ++evaluated;
        ctx->ObserveCandidate(candidate.support.count,
                              candidate.span.bytes());
        if (candidate.support.count == 0) return Status::OK();
        const long double support_ld =
            static_cast<long double>(candidate.support.count);
        const bool frequent = support_ld >= full_threshold;
        const bool retain = support_ld >= relaxed_threshold;
        if (!frequent && !retain) return Status::OK();
        std::string symbols;
        symbols.reserve(static_cast<std::size_t>(level_length));
        symbols.push_back(retained[candidate.left].symbols.front());
        symbols.append(retained[candidate.right].symbols);
        if (frequent) {
          ++stats.num_frequent;
          PGM_RETURN_IF_ERROR(
              record_frequent(symbols, candidate.support, n_l, level_length));
        }
        if (retain) {
          ++stats.num_retained;
          ArenaEntry entry;
          entry.symbols = std::move(symbols);
          entry.span = dst.Promote(candidate.span);
          next_retained.push_back(std::move(entry));
        }
        return Status::OK();
      };
      bool level_interrupted = false;
      dst.BeginScratch();
      const Status join_status =
          executor->ExecuteJoin(retained, src, retained, src, plan, gap,
                                kernel, &guard, dst, sink,
                                &level_interrupted);
      dst.EndScratch();
      PGM_RETURN_IF_ERROR(join_status);
      interrupted = level_interrupted;
    } else {
      interrupted = true;
    }
    retained = std::move(next_retained);
    src.Clear();
    cur ^= 1;
    if (interrupted) ctx->GuardTrip(guard.reason(), level_length);
    ctx->LevelEnd(level_length, stats.num_candidates, evaluated,
                  stats.num_frequent, stats.num_retained, !interrupted);
    if (!interrupted) last_completed_level = level_length;
  }

  finalize();
  return result;
}

}  // namespace internal
}  // namespace pgm
