#include "core/miner.h"

namespace pgm {

StatusOr<MiningResult> MineMpp(const Sequence& sequence,
                               const MinerConfig& config) {
  PGM_ASSIGN_OR_RETURN(GapRequirement gap,
                       internal::ValidateConfig(sequence, config));
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

  return internal::RunLevelwise(sequence, config, counter, n,
                                internal::BuiltLevel{}, guard, executor, ctx);
}

}  // namespace pgm
