#include <algorithm>

#include "core/miner.h"
#include "util/stopwatch.h"

namespace pgm {

StatusOr<MiningResult> MineAdaptive(const Sequence& sequence,
                                    const MinerConfig& config) {
  PGM_RETURN_IF_ERROR(internal::ValidateConfig(sequence, config).status());
  Stopwatch watch;

  // The Section 6 sketch: run MPP with a cheap small n; whenever the
  // best-effort output contains a pattern longer than n, the guess was too
  // low — raise n to that length and re-run. Terminates because n grows
  // strictly and is capped at l1 by MineMpp.
  std::int64_t n = config.initial_n;
  std::int64_t iterations = 0;
  MiningResult result;
  while (true) {
    MinerConfig run_config = config;
    run_config.user_n = n;
    // The deadline governs the whole refinement loop: each inner run gets
    // only what remains of the overall budget. Memory and candidate caps
    // apply per run — a re-run starts from a clean slate.
    if (config.limits.deadline_ms >= 0) {
      const std::int64_t elapsed_ms =
          static_cast<std::int64_t>(watch.ElapsedSeconds() * 1000.0);
      run_config.limits.deadline_ms =
          std::max<std::int64_t>(0, config.limits.deadline_ms - elapsed_ms);
    }
    PGM_ASSIGN_OR_RETURN(result, MineMpp(sequence, run_config));
    ++iterations;
    // A truncated inner run ends the refinement: its partial result (and
    // its TerminationReason) is what the caller gets.
    if (!result.complete()) break;
    const std::int64_t longest = result.longest_frequent_length;
    if (longest <= n || iterations >= config.max_iterations) break;
    n = longest;
  }
  result.adaptive_iterations = iterations;
  result.total_seconds = result.mining_seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace pgm
