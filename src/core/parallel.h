#ifndef PGM_CORE_PARALLEL_H_
#define PGM_CORE_PARALLEL_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/candidate_index.h"
#include "core/gap.h"
#include "core/guard.h"
#include "core/kernel.h"
#include "core/pil_arena.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace pgm {
namespace internal {

class ObserverContext;

/// One joined candidate, handed to the consumer in candidate order. `span`
/// is scratch in the output arena (above its watermark): the consumer
/// Promote()s it to retain the candidate, or simply returns to drop it —
/// scratch is reclaimed wholesale after the block, so dropping costs
/// nothing and there is no per-candidate charge to hand back.
struct JoinedCandidate {
  /// Index into the join's left entry table.
  std::uint32_t left = 0;
  /// Index into the join's right entry table.
  std::uint32_t right = 0;
  /// The candidate's PIL rows in the output arena (scratch).
  PilSpan span;
  /// sup of the candidate, computed inside the join kernel.
  SupportInfo support;
};

/// Serial, in-candidate-order consumer of joined candidates. May call
/// Promote on the output arena (and nothing else on it).
using JoinSink = std::function<Status(const JoinedCandidate&)>;

/// Data-parallel execution of one level's join plan: one fork-join per
/// scratch window.
///
/// A serial prepass slices the plan into "pieces": slices of one task's
/// rights range sized by output rows (left-PIL length x candidates,
/// targeting kPieceRowsTarget). A piece is the unit a worker claims and
/// charges with one TickN; the worker fills it with one CombinePair call
/// (core/kernel.h) per candidate. Consecutive pieces form row-sized "blocks"
/// (kBlockRowsTarget), and consecutive blocks form "windows" of at least
/// kWindowRowsTarget rows, so a skewed prefix group costs proportionally
/// many pieces instead of straggling inside one. Slicing depends only on
/// the plan, never on the schedule or the thread count.
///
/// Each window runs on the calling thread in three steps: Reserve its rows
/// in `out` and assign every piece a disjoint output slice; fill the pieces
/// with one ThreadPool::Execute whose workers claim them off an atomic
/// cursor; merge the filled pieces through the sink in piece order. A
/// serial executor fills and merges one piece at a time instead, so each
/// piece's rows are merged while still in cache; its windows are the same.
/// Reserve() — the only call that may move the arena's buffer — therefore
/// runs only while no fill is in flight, and the pool's join orders every
/// filled row before the merge reads it.
///
/// Ordering argument (the byte-identical `--threads` contract): the sink
/// sees candidates exactly in plan order regardless of which worker filled
/// them, kernel arithmetic is schedule-independent, and scratch offsets
/// never reach the output (Promote assigns final spans in merge order).
/// Windows and their Reserve sizes depend only on the plan, so an
/// uninterrupted run, its PIL memory peak included, is byte-identical at
/// every thread count.
///
/// Guard interaction: a worker charges a piece's candidates with one
/// TickN(count) before filling it; a refused batch (trip) leaves the piece
/// unfilled and refunds the ticks, so the guard's tick total equals the
/// candidates delivered to the sink. The merge still delivers every filled
/// piece of the window (the work was paid for), no further window starts,
/// and *interrupted is set. A Reserve() that trips the memory budget stops
/// before its window fills, so memory-budget truncation points are
/// deterministic and the delivered prefix is byte-identical at every
/// thread count; tick-based trips keep the documented latitude (the
/// delivered set may differ between thread counts, never its soundness).
/// The sink and all arena mutation run on the caller thread only.
class ParallelLevelExecutor {
 public:
  /// `threads` follows MinerConfig::threads: 1 = serial (no worker
  /// threads), 0 = one worker per hardware thread, T > 1 = exactly T
  /// workers.
  explicit ParallelLevelExecutor(std::int64_t threads);

  ParallelLevelExecutor(const ParallelLevelExecutor&) = delete;
  ParallelLevelExecutor& operator=(const ParallelLevelExecutor&) = delete;

  /// Worker count (1 when serial).
  std::size_t num_threads() const;

  /// Attaches the recording context that receives one shard-timing trace
  /// event per ExecuteJoin call (wall-clock and worker count — the volatile
  /// part of the trace). Null (the default) disables recording; the context
  /// must outlive the executor's use.
  void set_observer(ObserverContext* ctx) { ctx_ = ctx; }

  /// Runs `plan` — every candidate left_entries[t.left] ⋈
  /// right_entries[rights_pool[r]] under `gap` — writing candidate PILs
  /// into `out` and feeding the results to `sink` serially, in plan order.
  /// `left_arena`/`right_arena` back the entries' spans and may alias each
  /// other (the level self-join) but never `out`. `kernel` is the resolved
  /// join-kernel implementation (ResolveKernel, core/kernel.h) every piece
  /// of this level runs — all tiers produce byte-identical rows and
  /// supports, so the choice never affects results, only speed. `guard` may
  /// be null (ungoverned build). Returns a non-OK status only when the sink
  /// fails; *interrupted is set when the guard tripped, in which case the
  /// sink saw a sound subset of the candidates. On return `out` holds
  /// exactly the spans the sink promoted (scratch is truncated on every
  /// path).
  Status ExecuteJoin(const std::vector<ArenaEntry>& left_entries,
                     const PilArena& left_arena,
                     const std::vector<ArenaEntry>& right_entries,
                     const PilArena& right_arena, const JoinPlan& plan,
                     const GapRequirement& gap, KernelImpl kernel,
                     MiningGuard* guard, PilArena& out, const JoinSink& sink,
                     bool* interrupted);

  /// Data-parallel loop over [0, n) on this executor's pool (inline when
  /// serial): ThreadPool::ParallelFor with its disjoint-writes discipline.
  /// Its one user is JoinPlan::SelfJoin's probe, which looks up each
  /// entry's suffix among the level's prefix groups (core/candidate_index.h).
  void ParallelFor(std::size_t n, std::size_t grain,
                   const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  ThreadPool pool_;  // spawns nothing when serial
  ObserverContext* ctx_ = nullptr;
};

}  // namespace internal
}  // namespace pgm

#endif  // PGM_CORE_PARALLEL_H_
