#include <algorithm>

#include "core/miner.h"

namespace pgm {

StatusOr<MiningResult> MineEnumeration(const Sequence& sequence,
                                       const MinerConfig& config) {
  PGM_ASSIGN_OR_RETURN(GapRequirement gap,
                       internal::ValidateConfig(sequence, config));
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

  std::int64_t level_length = config.start_length;
  if (level_length > cap) {
    internal::SealRun(guard, ctx, &result);
    return result;
  }
  if (!guard.CheckNow()) {
    ctx.GuardTrip(guard.reason(), 0);
    internal::SealRun(guard, ctx, &result);
    return result;
  }

  const long double rho = config.min_support_ratio;
  const auto candidates = [&](std::int64_t length) {
    return internal::AnalyticCandidateCount(sequence.alphabet().size(),
                                            length);
  };
  // Opens a level of all |Σ|^length patterns. The enumeration applies no λ
  // relaxation, so its relaxed threshold equals its full one.
  const auto open_level = [&](std::int64_t length) {
    const double full_threshold =
        static_cast<double>(rho * counter.Count(length));
    ctx.LevelStart(length, candidates(length), 1.0, full_threshold,
                   full_threshold);
  };
  // The first level opens before its construction, so a budget trip during
  // the builds still reports the level (and its analytic candidate count).
  open_level(level_length);

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

  // Each pass judges the open level, closes it, and extends it into the
  // next. A trip in the builds, in an extension or at a level boundary
  // fails the CheckNow below, so the open level closes cut short with
  // nothing judged; a trip at the charge or in the judging closes it with
  // the entries judged so far.
  while (true) {
    if (guard.CheckNow() &&
        guard.ChargeLevelCandidates(candidates(level_length))) {
      const long double n_l = counter.Count(level_length);
      const long double full_threshold = rho * n_l;
      for (std::size_t i = 0; i < level.entries.size() && guard.Tick(); ++i) {
        const internal::ArenaEntry& entry = level.entries[i];
        const SupportInfo& support = level.supports[i];
        // Every entry's PIL is non-empty, and the threshold is positive.
        // Enumeration carries every judged entry forward regardless of
        // support.
        const bool frequent =
            static_cast<long double>(support.count) >= full_threshold;
        ctx.ObserveCandidate(support.count, entry.span.bytes(), frequent,
                             /*retained=*/true);
        if (frequent) {
          PGM_RETURN_IF_ERROR(internal::RecordFrequent(
              entry.symbols, support, n_l, sequence.alphabet(), &result));
        }
      }
    }
    ctx.LevelEnd(guard.reason());
    if (guard.stopped() || level_length >= cap || level.entries.empty()) {
      break;
    }

    // Extend every level pattern by every single on the left. The plan
    // indexes (singles, level), singles-major, matching the serial visit
    // order, so the executor's merged output is identical to it.
    const internal::JoinPlan plan = internal::JoinPlan::CrossProduct(
        static_cast<std::uint32_t>(singles.entries.size()),
        static_cast<std::uint32_t>(level.entries.size()));
    internal::ExtendLevel(singles, plan, gap, kernel, &guard, executor, level,
                          spare);
    open_level(++level_length);
  }

  internal::SealRun(guard, ctx, &result);
  return result;
}

}  // namespace pgm
