#ifndef PGM_CORE_EM_H_
#define PGM_CORE_EM_H_

#include <cstdint>
#include <vector>

#include "core/gap.h"
#include "seq/sequence.h"
#include "util/status.h"

namespace pgm {

/// Result of the e_m analysis of Section 4.2.
struct EmResult {
  /// k_values[r] = K_r for every 0-based start position r: the count of the
  /// most frequently observed character string over all length-(m+1) offset
  /// sequences starting at r. 0 when no complete offset sequence fits.
  std::vector<std::uint64_t> k_values;
  /// e_m = max_r K_r.
  std::uint64_t em = 0;
  /// Order m the statistic was computed for.
  std::int64_t m = 0;
};

/// Computes e_m exactly. `m >= 1` is the number of *gapped extensions*; each
/// examined offset sequence has m+1 positions. Uses a multiplicity-weighted
/// string DFS: a search state maps reachable positions to the number of
/// offset-sequence prefixes landing there, branching per character — far
/// cheaper than enumerating the W^m raw offset sequences because branches
/// whose total multiplicity drops to 1 terminate immediately.
///
/// Returns InvalidArgument for m < 1.
StatusOr<EmResult> ComputeEm(const Sequence& sequence,
                             const GapRequirement& gap, std::int64_t m);

/// Result of the max-only e_m search.
struct EmValue {
  /// e_m = max_r K_r; equal to ComputeEm(...).em.
  std::uint64_t em = 0;
  /// Start positions whose K_r search actually ran (the rest were pruned by
  /// their upper bound).
  std::uint64_t starts_searched = 0;
};

/// Computes e_m alone, which is all MPPm's Theorem 2 bound needs. Start
/// positions are visited in descending order of their upper bound on K_r
/// (ties by ascending position), each search is seeded with the best K_r
/// found so far so it prunes against the global incumbent, and the loop
/// stops at the first position whose bound cannot beat the incumbent.
/// Exact; ComputeEm is its oracle.
///
/// Returns InvalidArgument for m < 1.
StatusOr<EmValue> ComputeEmValue(const Sequence& sequence,
                                 const GapRequirement& gap, std::int64_t m);

/// Test reference: K_r by naive enumeration of every length-(m+1) offset
/// sequence starting at 0-based position `r` (exponential in m; tests only).
std::uint64_t BruteForceKr(const Sequence& sequence, const GapRequirement& gap,
                           std::int64_t m, std::size_t r);

}  // namespace pgm

#endif  // PGM_CORE_EM_H_
