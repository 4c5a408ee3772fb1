#include <algorithm>

#include "core/em.h"
#include "core/miner.h"
#include "util/stopwatch.h"

namespace pgm {

StatusOr<MiningResult> MineMppm(const Sequence& sequence,
                                const MinerConfig& config) {
  PGM_ASSIGN_OR_RETURN(GapRequirement gap,
                       internal::ValidateConfig(sequence, config));
  MiningGuard guard(config.limits, config.cancel);
  internal::ObserverContext ctx(config.observer, "mppm",
                                KernelTierToString(config.kernel_tier));
  internal::ParallelLevelExecutor executor(config.threads);
  executor.set_observer(&ctx);
  OffsetCounter counter(static_cast<std::int64_t>(sequence.size()), gap);

  // A budget that is exhausted on arrival (0-ms deadline, pre-cancelled
  // token) skips every phase and returns an empty partial result.
  if (!guard.CheckNow()) {
    ctx.GuardTrip(guard.reason(), 0);
    MiningResult result;
    internal::SealRun(guard, ctx, &result);
    return result;
  }

  // Phase 1: the e_m statistic (Section 4.2). Only the maximum feeds the
  // Theorem 2 bound, so the per-position K_r profile is never built.
  Stopwatch em_watch;
  PGM_ASSIGN_OR_RETURN(EmValue em_result,
                       ComputeEmValue(sequence, gap, config.em_order));
  // e_m == 0 means no complete length-(m+1) offset sequence exists, so no
  // pattern longer than m can be frequent; 1 keeps the Theorem 2 bound
  // sound (and maximally tight) in that case.
  const std::uint64_t em = std::max<std::uint64_t>(1, em_result.em);
  const double em_seconds = em_watch.ElapsedSeconds();

  // Phase 2: estimate n. Build the start-length level, whose supports come
  // with it, then find the largest k <= l1 for which some start-length
  // pattern still clears the Theorem 2 prefix bound λ'_{k,k-s} * ρs * N_s.
  // Scanning k downward returns the largest such k directly.
  const std::int64_t s = config.start_length;
  internal::BuiltLevel seed = internal::BuildAllPatternsOfLength(
      sequence, gap, s, &guard, &executor,
      ResolveKernel(config.kernel_tier, gap));
  if (guard.stopped()) {
    // Dropping the seed returns its arena's charge to the guard; the ledger
    // needs no manual balancing.
    seed = internal::BuiltLevel{};
    // The trip cut the first level's construction short. Record the level
    // with its analytic |Σ|^s candidate count (n is not yet estimated, so
    // no λ relaxation applies) so the partial result reports the true
    // candidate total instead of zero.
    const double full_threshold = static_cast<double>(
        static_cast<long double>(config.min_support_ratio) * counter.Count(s));
    ctx.LevelStart(
        s, internal::AnalyticCandidateCount(sequence.alphabet().size(), s),
        1.0, full_threshold, full_threshold);
    ctx.LevelEnd(guard.reason());
    MiningResult result;
    result.em = em_result.em;
    result.em_seconds = em_seconds;
    internal::SealRun(guard, ctx, &result);
    return result;
  }
  std::uint64_t max_support = 0;
  for (const SupportInfo& support : seed.supports) {
    max_support = std::max(max_support, support.count);
  }
  const long double rho = config.min_support_ratio;
  const long double n_s = counter.Count(s);
  std::int64_t n = s;
  for (std::int64_t k = counter.l1(); k > s; --k) {
    const long double factor =
        config.use_em_bound
            ? counter.LambdaPrime(k, k - s, config.em_order, em)
            : counter.Lambda(k, k - s);
    const long double threshold = factor * rho * n_s;
    if (static_cast<long double>(max_support) >= threshold) {
      n = k;
      break;
    }
  }

  ctx.Estimate(em_result.em, em_result.starts_searched, n);

  // Phase 3: MPP with the estimated n, reusing the seed level.
  PGM_ASSIGN_OR_RETURN(
      MiningResult result,
      internal::RunLevelwise(sequence, config, counter, n, std::move(seed),
                             guard, executor, ctx));
  result.em = em_result.em;
  result.estimated_n = n;
  result.em_seconds = em_seconds;
  result.mining_seconds = result.total_seconds - em_seconds;
  return result;
}

}  // namespace pgm
