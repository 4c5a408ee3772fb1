#ifndef PGM_CORE_PIL_ARENA_H_
#define PGM_CORE_PIL_ARENA_H_

#include <cassert>
#include <cstddef>
#include <cstdint>

#include "core/guard.h"
#include "core/pil.h"

namespace pgm {

/// A half-open row range inside a PilArena: the arena-backed representation
/// of one pattern's partial index list. Spans are trivially copyable and
/// 16 bytes, so pattern tables stay compact; the rows themselves live in
/// the owning arena's contiguous buffer.
struct PilSpan {
  std::uint64_t offset = 0;
  std::uint64_t len = 0;

  bool empty() const { return len == 0; }
  std::uint64_t bytes() const { return len * sizeof(PilEntry); }
};

/// Contiguous bump storage for the PIL rows of one mining level.
///
/// The level-wise engines keep two arenas that ping-pong across levels: the
/// join reads level l-1's spans from the source arena and writes level l's
/// rows into the destination arena, then the source is Clear()ed (capacity
/// kept) and the roles swap. Once both arenas have grown to the run's
/// high-water mark, steady-state mining performs zero heap allocations in
/// the join loop.
///
/// Scratch/watermark protocol: rows appended above `watermark()` are
/// speculative join output ("scratch"). The serial consumer either
/// Promote()s a scratch span — compacting its rows down onto the watermark —
/// or abandons it; TruncateToWatermark() then reclaims everything
/// speculative at once. This is what lets parallel workers write candidate
/// PILs into disjoint pre-reserved slices and still end the level with the
/// retained rows densely packed.
///
/// The window in which scratch operations are legal is explicit: the join
/// driver brackets it with BeginScratch()/EndScratch(), and Promote /
/// TruncateToWatermark assert the window is open (debug builds; the
/// `arena-scratch` pgm_lint rule enforces the same pairing textually at
/// build time). EndScratch additionally asserts no speculative rows
/// survived — every scratch row was either promoted or truncated — which is
/// the structural half of the ledger-balance invariant.
///
/// Guard accounting: the arena charges its *capacity* against the guard's
/// memory ledger — the delta on every growth, the whole capacity back on
/// destruction (or move-assignment). Capacity never shrinks while the arena
/// lives, so the ledger carries each arena's high-water footprint rather
/// than per-PIL vector capacities, and it drains to zero exactly when the
/// arenas die with the run.
///
/// Thread safety: Reserve/Allocate/Promote/Truncate/Clear are serial-only.
/// Concurrent workers may call Rows()/MutableRows() on disjoint spans
/// between a Reserve and the next serial mutation (the buffer is stable in
/// that window — this is the executor's fill phase).
///
/// Row contents: rows at or above size() after a Reserve are indeterminate.
/// Growth is a realloc — above the allocator's mmap threshold an mremap
/// that moves page tables, so no row is copied or zeroed and capacity the
/// join never writes is never faulted in. Nothing reads such rows: the
/// kernels write only their candidate's [0, len) slice, and the merge and
/// Promote read only that range.
class PilArena {
 public:
  /// An unaccounted arena (no guard).
  PilArena() = default;
  /// `guard` may be null (unaccounted); when non-null it must outlive the
  /// arena.
  explicit PilArena(MiningGuard* guard) : guard_(guard) {}
  ~PilArena() { Release(); }

  PilArena(const PilArena&) = delete;
  PilArena& operator=(const PilArena&) = delete;

  /// Moves transfer the buffer and its ledger charge; the source is left
  /// empty and chargeless.
  PilArena(PilArena&& other) noexcept { MoveFrom(other); }
  PilArena& operator=(PilArena&& other) noexcept {
    if (this != &other) {
      Release();
      MoveFrom(other);
    }
    return *this;
  }

  /// Grows capacity to at least `total_rows` (geometric growth, never
  /// shrinks) and charges the delta to the guard. Returns false when the
  /// charge tripped the memory budget — the capacity is still available, so
  /// the caller can finish the in-flight block before unwinding (the same
  /// "deliver what was paid for" contract the per-vector ledger had).
  /// [[nodiscard]]: ignoring the verdict would mine past a tripped budget.
  [[nodiscard]] bool Reserve(std::size_t total_rows);

  /// Appends `len` uninitialized rows and returns their span. Capacity must
  /// have been Reserve()d. Serial-only.
  PilSpan Allocate(std::size_t len) {
    PilSpan span{size_, len};
    size_ += len;
    return span;
  }

  const PilEntry* Rows(const PilSpan& span) const {
    return rows_ + span.offset;
  }
  PilEntry* MutableRows(const PilSpan& span) { return rows_ + span.offset; }

  /// Rows in use (retained + scratch).
  std::uint64_t size() const { return size_; }
  /// The retained frontier: rows below it are promoted level output, rows
  /// at or above it are speculative scratch.
  std::uint64_t watermark() const { return watermark_; }

  /// Opens the scratch window: the caller is about to Allocate speculative
  /// spans and consume them with Promote/TruncateToWatermark. No scratch
  /// rows may be pending from a previous window.
  void BeginScratch() {
    assert(!scratch_open_ && "BeginScratch inside an open scratch window");
    assert(size_ == watermark_ && "scratch rows pending at BeginScratch");
    scratch_open_ = true;
  }

  /// Closes the scratch window. Every speculative row must have been
  /// promoted or truncated.
  void EndScratch() {
    assert(scratch_open_ && "EndScratch without BeginScratch");
    assert(size_ == watermark_ && "scratch rows leaked past EndScratch");
    scratch_open_ = false;
  }

  /// True between BeginScratch and EndScratch.
  bool scratch_open() const { return scratch_open_; }

  /// Compacts a scratch span down onto the watermark and returns its final
  /// span. Spans must be promoted in increasing offset order (the serial
  /// merge's candidate order), which guarantees the destination never
  /// overtakes the source. Legal only inside a scratch window.
  PilSpan Promote(const PilSpan& span);

  /// Drops all scratch rows (size back to the watermark). Legal only inside
  /// a scratch window.
  void TruncateToWatermark() {
    assert(scratch_open_ && "TruncateToWatermark outside a scratch window");
    size_ = watermark_;
  }

  /// Marks everything currently in the arena as retained (used after
  /// first-level construction, where every row is level output).
  void SealWatermark() { watermark_ = size_; }

  /// Empties the arena but keeps the capacity and its ledger charge — the
  /// ping-pong reuse path. Illegal inside a scratch window.
  void Clear() {
    assert(!scratch_open_ && "Clear inside an open scratch window");
    size_ = 0;
    watermark_ = 0;
  }

  /// Capacity bytes currently charged to the guard (the arena's high-water
  /// reservation, not its resident memory).
  std::uint64_t capacity_bytes() const {
    return capacity_ * sizeof(PilEntry);
  }

  /// Number of buffer growths since construction. A warmed-up arena stops
  /// growing: steady-state levels report zero new growths, which is the
  /// "zero allocations in the join loop" claim in checkable form.
  std::uint64_t growth_count() const { return growths_; }

 private:
  void Release();
  void MoveFrom(PilArena& other);

  MiningGuard* guard_ = nullptr;
  // `capacity_` rows, grown only by Reserve (Allocate only bumps), so worker
  // threads never observe a reallocation. Owned: realloc'd and free'd here.
  PilEntry* rows_ = nullptr;
  std::size_t capacity_ = 0;
  std::uint64_t size_ = 0;
  std::uint64_t watermark_ = 0;
  std::uint64_t growths_ = 0;
  bool scratch_open_ = false;
};

}  // namespace pgm

#endif  // PGM_CORE_PIL_ARENA_H_
