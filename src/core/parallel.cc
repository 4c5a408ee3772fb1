#include "core/parallel.h"

// pgm-lint: allow(arena-scratch) — ExecuteJoin runs INSIDE the caller's
// BeginScratch/EndScratch bracket (asserted at entry); the truncate calls
// here are the protocol's cleanup half, not an unbracketed use.

#include <algorithm>
#include <atomic>
#include <cassert>
#include <span>

#include "core/trace.h"
#include "util/stopwatch.h"

namespace pgm {
namespace internal {

namespace {

/// Emits one shard-timing event when the enclosing ExecuteJoin call returns
/// — RAII so every early return (sink error, guard trip) still records.
/// Runs on the caller thread, after the pool has quiesced. `level` is the
/// length of the candidates the join builds. `candidates` counts
/// deliveries to the sink (not the plan's size), accumulated by the
/// merge as it goes, so tripped levels report the work that happened; the
/// phase fields split the caller's wall-clock into the kernel fills it ran
/// itself, its wait for the other workers at the end of each window's
/// fill, and sink merging.
struct ShardTimingScope {
  ObserverContext* ctx = nullptr;
  std::int64_t level = 0;
  std::uint64_t candidates = 0;
  std::int64_t workers = 0;
  const char* kernel = "scalar";
  double fill_seconds = 0.0;
  double merge_seconds = 0.0;
  double stall_seconds = 0.0;
  Stopwatch watch;

  ~ShardTimingScope() {
    if (ctx != nullptr) {
      ctx->ShardTiming(level, candidates, workers, kernel,
                       watch.ElapsedSeconds(), fill_seconds, merge_seconds,
                       stall_seconds);
    }
  }
};

/// Output rows one piece targets. A piece is the unit a worker claims off
/// the cursor and charges with one TickN: candidates sharing a left
/// pattern, each one CombinePair call writing a left-PIL-length slice.
/// Sizing by rows (not candidate count) keeps pieces comparable units of
/// work when PIL lengths are skewed.
constexpr std::uint64_t kPieceRowsTarget = 2048;
/// Cap on candidates per piece, so short-PIL groups still split into
/// several claims. With kPieceRowsTarget it fixes the piece, block and
/// window boundaries, and so every Reserve size and the PIL peak: change
/// either and memory-trip prefixes and `memory_peak_bytes` move.
constexpr std::uint64_t kMaxPieceCands = 64;
/// Rows per block: windows end only on block boundaries.
constexpr std::uint64_t kBlockRowsTarget = 16384;
/// The scratch window: at least this many rows (whole blocks), reserved in
/// one Reserve call and merged before the next. Bounds speculative memory
/// independently of the thread count, which also makes memory-budget trip
/// points deterministic.
constexpr std::uint64_t kWindowRowsTarget = 4 * kBlockRowsTarget;

/// One claim's worth of candidates: a slice [begin, end) of one task's
/// rights range.
struct Piece {
  std::uint32_t task = 0;
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  std::uint64_t left_len = 0;
  /// left_len * (end - begin): the piece's scratch slice size.
  std::uint64_t rows = 0;
  /// Assigned serially once the piece's window is reserved: the arena
  /// offset of the first candidate's output slice (candidate k's slice
  /// starts at out_offset + k * left_len) and the index of its first
  /// candidate in the window's pair results.
  std::uint64_t out_offset = 0;
  std::uint64_t out_index = 0;
  /// Set by the filling worker; stays false when the guard refused the
  /// piece's ticks.
  bool filled = false;
};

/// Pieces [piece_begin, piece_end): whole blocks totalling `rows` output
/// rows (at least kWindowRowsTarget, except for the level's last window)
/// and `cands` candidates.
struct Window {
  std::size_t piece_begin = 0;
  std::size_t piece_end = 0;
  std::uint64_t rows = 0;
  std::uint64_t cands = 0;
};

}  // namespace

ParallelLevelExecutor::ParallelLevelExecutor(std::int64_t threads)
    : pool_(ThreadPool::ResolveThreadCount(threads)) {}

std::size_t ParallelLevelExecutor::num_threads() const {
  return pool_.num_threads();
}

void ParallelLevelExecutor::ParallelFor(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  pool_.ParallelFor(n, grain, fn);
}

Status ParallelLevelExecutor::ExecuteJoin(
    const std::vector<ArenaEntry>& left_entries, const PilArena& left_arena,
    const std::vector<ArenaEntry>& right_entries, const PilArena& right_arena,
    const JoinPlan& plan, const GapRequirement& gap, KernelImpl kernel,
    MiningGuard* guard, PilArena& out, const JoinSink& sink,
    bool* interrupted) {
  *interrupted = false;
  assert(out.scratch_open() &&
         "ExecuteJoin requires the caller's BeginScratch/EndScratch bracket");
  if (plan.empty()) return Status::OK();
  const std::vector<JoinTask>& tasks = plan.tasks();
  const std::vector<std::uint32_t>& pool = plan.rights_pool();
  ShardTimingScope timing;
  timing.ctx = ctx_;
  // Every candidate is one left symbol followed by a right pattern, and all
  // rights of a level have one length.
  timing.level = static_cast<std::int64_t>(
      right_entries[pool.front()].symbols.size() + 1);
  timing.workers = static_cast<std::int64_t>(num_threads());
  timing.kernel = KernelImplToString(kernel);

  // --- Prepass (serial): slice the plan into row-sized pieces and cut them
  // into windows of whole row-sized blocks. Depends only on the plan, never
  // on the schedule or the thread count — the pieces' flat order IS the
  // candidate order the sink must observe.
  std::vector<Piece> pieces;
  std::vector<Window> windows;
  {
    Window window;
    std::uint64_t block_rows = 0;
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      const JoinTask& task = tasks[t];
      const std::uint64_t left_len = left_entries[task.left].span.len;
      const std::uint32_t group = task.group_size();
      std::uint32_t per_piece = static_cast<std::uint32_t>(kMaxPieceCands);
      if (left_len > 0) {
        per_piece = static_cast<std::uint32_t>(std::clamp<std::uint64_t>(
            kPieceRowsTarget / left_len, 1, kMaxPieceCands));
      }
      for (std::uint32_t off = 0; off < group; off += per_piece) {
        Piece piece;
        piece.task = static_cast<std::uint32_t>(t);
        piece.begin = off;
        piece.end = std::min(off + per_piece, group);
        piece.left_len = left_len;
        piece.rows = left_len * (piece.end - piece.begin);
        block_rows += piece.rows;
        window.cands += piece.end - piece.begin;
        pieces.push_back(piece);
        if (block_rows < kBlockRowsTarget) continue;
        window.rows += block_rows;
        block_rows = 0;
        if (window.rows < kWindowRowsTarget) continue;
        window.piece_end = pieces.size();
        windows.push_back(window);
        window = Window{pieces.size(), pieces.size(), 0, 0};
      }
    }
    if (window.piece_begin < pieces.size()) {
      window.rows += block_rows;
      window.piece_end = pieces.size();
      windows.push_back(window);
    }
  }

  // One kernel scratch per worker: once warmed up to the largest pair, the
  // fill performs no allocation.
  std::vector<KernelScratch> scratch(num_threads());
  // The current window's per-candidate pair results, indexed by
  // Piece::out_index (+ the candidate's position in its piece).
  std::vector<PairResult> results;
  PilEntry* base = nullptr;  // `out`'s rows; stable within a window
  Status sink_status = Status::OK();
  Stopwatch phase;

  // Fills pieces [first, last) with one fork-join: every worker claims
  // pieces off the cursor. A piece charges its candidates with one batched
  // TickN first; a refused batch (guard trip) leaves the piece unfilled and
  // refunds the ticks, so the guard's tick total stays equal to the
  // candidates the sink receives.
  auto fill = [&](std::size_t first, std::size_t last) {
    std::atomic<std::size_t> cursor{first};
    double caller_seconds = 0.0;
    phase.Reset();
    pool_.Execute([&](std::size_t worker) {
      KernelScratch& ks = scratch[worker];
      while (true) {
        const std::size_t p = cursor.fetch_add(1, std::memory_order_relaxed);
        if (p >= last) break;
        Piece& piece = pieces[p];
        const std::uint32_t count = piece.end - piece.begin;
        if (guard != nullptr && !guard->TickN(count)) continue;
        const JoinTask& task = tasks[piece.task];
        const std::span<const PilEntry> prefix(
            left_arena.Rows(left_entries[task.left].span), piece.left_len);
        for (std::uint32_t k = 0; k < count; ++k) {
          const PilSpan& right =
              right_entries[pool[task.rights_begin + piece.begin + k]].span;
          results[piece.out_index + k] = CombinePair(
              kernel, prefix, {right_arena.Rows(right), right.len}, gap,
              base + piece.out_offset + k * piece.left_len, ks);
        }
        piece.filled = true;
      }
      if (worker == 0) caller_seconds = phase.ElapsedSeconds();
    });
    timing.fill_seconds += caller_seconds;
    timing.stall_seconds += phase.ElapsedSeconds() - caller_seconds;
  };

  // Feeds the filled pieces of [first, last) to the sink in plan order,
  // stopping at the first sink error. Unfilled pieces are skipped — their
  // ticks were refunded and their scratch dies with the window.
  auto merge = [&](std::size_t first, std::size_t last) {
    phase.Reset();
    for (std::size_t p = first; p < last && sink_status.ok(); ++p) {
      const Piece& piece = pieces[p];
      if (!piece.filled) continue;
      const JoinTask& task = tasks[piece.task];
      for (std::uint32_t k = 0; k < piece.end - piece.begin; ++k) {
        const PairResult& result = results[piece.out_index + k];
        JoinedCandidate candidate;
        candidate.left = task.left;
        candidate.right = pool[task.rights_begin + piece.begin + k];
        candidate.span =
            PilSpan{piece.out_offset + k * piece.left_len, result.len};
        candidate.support = result.support;
        sink_status = sink(candidate);
        if (!sink_status.ok()) break;
        ++timing.candidates;
      }
    }
    timing.merge_seconds += phase.ElapsedSeconds();
  };

  for (const Window& window : windows) {
    if (guard != nullptr && guard->stopped()) break;
    // Recycle the scratch and reserve the window. Reserve is the only call
    // that may move the buffer, and no fill is in flight here.
    out.TruncateToWatermark();
    if (!out.Reserve(static_cast<std::size_t>(out.size() + window.rows))) {
      // Memory trip. Every candidate of the previous windows was delivered,
      // so the prefix is exact and identical at every thread count.
      break;
    }
    if (results.size() < window.cands) {
      results.resize(static_cast<std::size_t>(window.cands));
    }
    std::uint64_t out_index = 0;
    for (std::size_t p = window.piece_begin; p < window.piece_end; ++p) {
      Piece& piece = pieces[p];
      piece.out_offset = out.Allocate(piece.rows).offset;
      piece.out_index = out_index;
      out_index += piece.end - piece.begin;
    }
    base = out.MutableRows(PilSpan{0, 0});

    // Fill, then merge, one batch of pieces at a time: the whole window
    // when there are workers to share it; one piece when serial, so each
    // piece's rows are merged while they are still in cache.
    const std::size_t batch =
        num_threads() == 1 ? 1 : window.piece_end - window.piece_begin;
    for (std::size_t first = window.piece_begin;
         first < window.piece_end && sink_status.ok(); first += batch) {
      const std::size_t last = std::min(first + batch, window.piece_end);
      fill(first, last);
      merge(first, last);
    }
    if (!sink_status.ok()) break;
  }

  // Reclaim the last window's dead scratch, leaving exactly the promoted
  // spans (the invariant EndScratch asserts).
  out.TruncateToWatermark();
  if (!sink_status.ok()) return sink_status;
  if (guard != nullptr && guard->stopped()) *interrupted = true;
  return Status::OK();
}

}  // namespace internal
}  // namespace pgm
