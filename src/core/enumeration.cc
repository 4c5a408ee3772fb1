#include <algorithm>

#include "core/miner.h"
#include "util/stopwatch.h"

namespace pgm {

StatusOr<MiningResult> MineEnumeration(const Sequence& sequence,
                                       const MinerConfig& config) {
  PGM_RETURN_IF_ERROR(internal::ValidateConfig(sequence, config));
  PGM_ASSIGN_OR_RETURN(GapRequirement gap,
                       GapRequirement::Create(config.min_gap, config.max_gap));
  Stopwatch watch;
  MiningGuard guard(config.limits, config.cancel);
  internal::ObserverContext ctx(config.observer, "enum",
                                KernelTierToString(config.kernel_tier));
  internal::ParallelLevelExecutor executor(config.threads);
  executor.set_observer(&ctx);
  OffsetCounter counter(static_cast<std::int64_t>(sequence.size()), gap);
  const KernelImpl kernel = ResolveKernel(config.kernel_tier, gap);

  MiningResult result;
  // Enumeration cannot prune, so it has no completeness horizon below l2;
  // it is exact up to whatever level budget it is given.
  const std::int64_t l2 = counter.l2();
  const std::int64_t cap =
      config.max_length >= 0 ? std::min(config.max_length, l2) : l2;
  result.n_used = cap;
  result.guaranteed_complete_up_to = cap;

  std::int64_t last_completed_level = 0;
  auto finalize = [&]() {
    internal::SealRun(guard, last_completed_level, ctx, &result);
    result.total_seconds = result.mining_seconds = watch.ElapsedSeconds();
  };

  const long double rho = config.min_support_ratio;
  auto analytic_candidates = [&](std::int64_t length) {
    return internal::AnalyticCandidateCount(sequence.alphabet().size(),
                                            length);
  };

  std::int64_t level_length = config.start_length;
  if (level_length > cap) {
    finalize();
    return result;
  }
  if (!guard.CheckNow()) {
    ctx.GuardTrip(guard.reason(), 0);
    finalize();
    return result;
  }

  // The enumeration applies no λ relaxation, so every level's relaxed
  // threshold equals its full one.
  auto full_threshold_for = [&](std::int64_t length) -> double {
    return static_cast<double>(rho * counter.Count(length));
  };
  // The first level opens in the registry before its construction, so a
  // budget trip during the builds still reports the level (and its analytic
  // candidate count) instead of an empty stats vector.
  ctx.LevelStart(level_length, analytic_candidates(level_length), 1.0,
                 full_threshold_for(level_length),
                 full_threshold_for(level_length));

  // PILs of the length-1 patterns, used to extend levels on the left:
  // PIL(c + P) = Combine(PIL(c), PIL(P)) — valid because `c` is exactly the
  // prefix character preceding P by one gap. The singles level stays live
  // for the whole run; the current level ping-pongs between two arenas.
  // All three arenas drop their charges when they go out of scope, so the
  // guard's ledger drains to zero on every exit.
  internal::BuiltLevel singles = internal::BuildAllPatternsOfLength(
      sequence, gap, 1, &guard, &executor, kernel);

  internal::BuiltLevel level = internal::BuildAllPatternsOfLength(
      sequence, gap, level_length, &guard, &executor, kernel);
  PilArena spare(&guard);
  if (guard.stopped()) {
    ctx.GuardTrip(guard.reason(), level_length);
    ctx.LevelEnd(level_length, analytic_candidates(level_length), 0, 0, 0,
                 /*completed=*/false);
    finalize();
    return result;
  }

  bool interrupted = false;
  while (true) {
    if (!guard.CheckNow()) {
      ctx.GuardTrip(guard.reason(), level_length);
      ctx.LevelEnd(level_length, analytic_candidates(level_length), 0, 0, 0,
                   /*completed=*/false);
      break;
    }
    const long double n_l = counter.Count(level_length);
    const long double full_threshold = rho * n_l;

    LevelStats stats;
    stats.length = level_length;
    stats.num_candidates = analytic_candidates(level_length);
    std::uint64_t evaluated = 0;
    if (guard.ChargeLevelCandidates(stats.num_candidates)) {
      for (std::size_t i = 0; i < level.entries.size(); ++i) {
        if (!guard.Tick()) {
          interrupted = true;
          break;
        }
        ++evaluated;
        const internal::ArenaEntry& entry = level.entries[i];
        const SupportInfo& support = level.supports[i];
        ctx.ObserveCandidate(support.count, entry.span.bytes());
        // Every entry's PIL is non-empty, and the threshold is positive.
        if (static_cast<long double>(support.count) >= full_threshold) {
          ++stats.num_frequent;
          PGM_RETURN_IF_ERROR(internal::RecordFrequent(
              entry.symbols, support, n_l, sequence.alphabet(), &result));
        }
      }
    } else {
      interrupted = true;
    }
    // Enumeration carries every matched pattern forward regardless of
    // support: num_retained reports the carried-forward set size.
    stats.num_retained = level.entries.size();
    if (interrupted) ctx.GuardTrip(guard.reason(), level_length);
    ctx.LevelEnd(level_length, stats.num_candidates, evaluated,
                 stats.num_frequent, stats.num_retained, !interrupted);
    if (interrupted) break;
    last_completed_level = level_length;

    if (level_length >= cap || level.entries.empty()) break;

    // Extend every level pattern by every single on the left. The plan
    // indexes (singles, level), singles-major, matching the serial visit
    // order, so the executor's merged output is identical to it.
    const internal::JoinPlan plan = internal::JoinPlan::CrossProduct(
        static_cast<std::uint32_t>(singles.entries.size()),
        static_cast<std::uint32_t>(level.entries.size()));
    interrupted = internal::ExtendLevel(singles, plan, gap, kernel, &guard,
                                        executor, level, spare);
    if (interrupted) {
      // The trip happened while building the next level's PILs: record that
      // level as started-and-cut-short so the candidate totals stay true.
      const std::int64_t next_length = level_length + 1;
      ctx.LevelStart(next_length, analytic_candidates(next_length), 1.0,
                     full_threshold_for(next_length),
                     full_threshold_for(next_length));
      ctx.GuardTrip(guard.reason(), next_length);
      ctx.LevelEnd(next_length, analytic_candidates(next_length), 0, 0, 0,
                   /*completed=*/false);
      break;
    }
    ++level_length;
    ctx.LevelStart(level_length, analytic_candidates(level_length), 1.0,
                   full_threshold_for(level_length),
                   full_threshold_for(level_length));
  }

  finalize();
  return result;
}

}  // namespace pgm
