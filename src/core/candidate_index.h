#ifndef PGM_CORE_CANDIDATE_INDEX_H_
#define PGM_CORE_CANDIDATE_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/pil_arena.h"

namespace pgm {
namespace internal {

class ParallelLevelExecutor;

/// A pattern of one mining level: its encoded symbols (one byte per Symbol,
/// usable as a hash key) and the span of its PIL rows in the level's arena.
struct ArenaEntry {
  std::string symbols;
  PilSpan span;
};

/// One mining level in arena form: the entry table, each entry's support,
/// and the arena that owns every entry's rows. The level-wise engines hand
/// these across phases (seed build → n-estimation → mining) as a unit;
/// destroying one returns the arena's whole charge to the guard, so there
/// is no per-entry ledger bookkeeping to keep balanced on early exits.
struct BuiltLevel {
  PilArena arena;
  std::vector<ArenaEntry> entries;
  /// sup of entries[i], counted where its rows were built: the row count at
  /// length 1, the join kernel's sum above it.
  std::vector<SupportInfo> supports;
};

/// One join task: the left pattern extended by every right pattern in
/// [rights_begin, rights_end) of the plan's rights pool. The candidates of
/// task t, in rights order, precede those of task t+1 — that flat order is
/// the executor's merge order, and with it the next level's entry order.
/// SelfJoin orders tasks group-major (see there); CrossProduct left-major.
struct JoinTask {
  std::uint32_t left = 0;
  std::uint32_t rights_begin = 0;
  std::uint32_t rights_end = 0;

  std::uint32_t group_size() const { return rights_end - rights_begin; }
};

/// The prefix-indexed candidate plan of one level join.
///
/// For the level-wise self-join, rights are grouped by their shared
/// length-(l-1) prefix: every left pattern whose suffix equals that prefix
/// joins against the *same* pool range, stored once per group, so the plan
/// holds no per-candidate record and no per-candidate symbol strings are
/// materialized at generation time at all. The executor joins each
/// candidate with one CombinePair call (core/kernel.h); the group-major
/// task order keeps a group's suffix PILs in cache across its lefts.
class JoinPlan {
 public:
  /// The level-wise join of `level` with itself: for every pair (P1, P2)
  /// with suffix(P1) == prefix(P2), the candidate P1[0] + P2. Joining
  /// length-1 entries keys on the empty string, i.e. the full cross
  /// product.
  ///
  /// Tasks are group-major: every left that joins one rights group runs
  /// back to back, so the group's suffix PILs are still in cache for all of
  /// them (left-major order revisits a group once per left, up to |Σ| lefts
  /// that lie about a level-quarter apart). Groups come in group-index
  /// order — the first appearance of their prefix in `level` — and lefts
  /// ascend within a group. The order depends only on `level`, so the
  /// merge, and with it the output, is identical at every thread count.
  ///
  /// `executor` (optional) parallelizes the probe half — the read-only
  /// suffix lookups — across its pool; the plan is identical with or
  /// without it (the bucketing and the task ordering stay serial).
  static JoinPlan SelfJoin(const std::vector<ArenaEntry>& level,
                           ParallelLevelExecutor* executor = nullptr);

  /// Every left extended by every right (the enumeration engine's
  /// level-extension by single symbols).
  static JoinPlan CrossProduct(std::uint32_t num_left,
                               std::uint32_t num_right);

  const std::vector<JoinTask>& tasks() const { return tasks_; }
  const std::vector<std::uint32_t>& rights_pool() const {
    return rights_pool_;
  }
  std::uint64_t num_candidates() const { return num_candidates_; }
  bool empty() const { return num_candidates_ == 0; }

 private:
  std::vector<JoinTask> tasks_;
  std::vector<std::uint32_t> rights_pool_;
  std::uint64_t num_candidates_ = 0;
};

}  // namespace internal
}  // namespace pgm

#endif  // PGM_CORE_CANDIDATE_INDEX_H_
