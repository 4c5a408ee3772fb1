#include <algorithm>

#include "core/miner.h"
#include "util/stopwatch.h"

namespace pgm {

StatusOr<MiningResult> MineMpp(const Sequence& sequence,
                               const MinerConfig& config) {
  PGM_RETURN_IF_ERROR(internal::ValidateConfig(sequence, config));
  PGM_ASSIGN_OR_RETURN(GapRequirement gap,
                       GapRequirement::Create(config.min_gap, config.max_gap));
  Stopwatch watch;
  MiningGuard guard(config.limits, config.cancel);
  internal::ObserverContext ctx(config.observer, "mpp",
                                KernelTierToString(config.kernel_tier));
  internal::ParallelLevelExecutor executor(config.threads);
  executor.set_observer(&ctx);
  OffsetCounter counter(static_cast<std::int64_t>(sequence.size()), gap);

  // Algorithm line 3: clamp the user estimate to l1 ("if n > l1, n = l1");
  // user_n < 0 encodes "no estimate", the paper's worst case n = l1.
  std::int64_t n = config.user_n;
  if (n < 0 || n > counter.l1()) n = counter.l1();

  PGM_ASSIGN_OR_RETURN(
      MiningResult result,
      internal::RunLevelwise(sequence, config, counter, n,
                             internal::BuiltLevel{}, guard, executor, ctx));
  result.mining_seconds = watch.ElapsedSeconds();
  result.total_seconds = result.mining_seconds;
  return result;
}

}  // namespace pgm
