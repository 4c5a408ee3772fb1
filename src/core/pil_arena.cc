#include "core/pil_arena.h"

// pgm-lint: allow(arena-scratch) — this file IMPLEMENTS the scratch
// protocol; the bracket lives in callers.

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <type_traits>

namespace pgm {

// Growth moves rows bytewise (realloc, or mremap above the mmap threshold).
static_assert(std::is_trivially_copyable_v<PilEntry>);

bool PilArena::Reserve(std::size_t total_rows) {
  if (total_rows <= capacity_) return guard_ == nullptr || !guard_->stopped();
  // Geometric growth so a level loop performs O(log) growths, after which
  // the ping-pong reuse makes further levels allocation-free.
  const std::size_t grown = std::max(total_rows, capacity_ * 2);
  const std::uint64_t delta =
      static_cast<std::uint64_t>(grown - capacity_) * sizeof(PilEntry);
  // A short buffer must never survive: a byte size that overflows, or a
  // failed realloc, ends the process, as the unhandled exception of a failed
  // vector growth did.
  if (grown > std::numeric_limits<std::size_t>::max() / sizeof(PilEntry)) {
    std::abort();
  }
  // realloc grows without zeroing the new rows; above the mmap threshold it
  // is an mremap, so no row is copied either.
  // pgm-lint: allow(raw-alloc) — PilArena is where src/core's PIL rows live
  void* grown_rows = std::realloc(rows_, grown * sizeof(PilEntry));
  if (grown_rows == nullptr) std::abort();
  rows_ = static_cast<PilEntry*>(grown_rows);
  capacity_ = grown;
  ++growths_;
  // Charge after growing: the rows exist either way, and the caller is
  // allowed to finish the current block with them (the ledger stays truthful
  // about live memory even past the budget).
  return guard_ == nullptr || guard_->ChargeMemory(delta);
}

PilSpan PilArena::Promote(const PilSpan& span) {
  assert(scratch_open_ && "Promote outside a scratch window");
  assert(span.offset >= watermark_);
  PilSpan promoted{watermark_, span.len};
  if (span.offset != watermark_ && span.len > 0) {
    std::memmove(rows_ + watermark_, rows_ + span.offset,
                 span.len * sizeof(PilEntry));
  }
  watermark_ += span.len;
  return promoted;
}

void PilArena::Release() {
  if (guard_ != nullptr && capacity_ > 0) {
    guard_->ReleaseMemory(capacity_bytes());
  }
  // pgm-lint: allow(raw-alloc) — PilArena is where src/core's PIL rows live
  std::free(rows_);
  rows_ = nullptr;
  capacity_ = 0;
  size_ = 0;
  watermark_ = 0;
}

void PilArena::MoveFrom(PilArena& other) {
  guard_ = other.guard_;
  rows_ = other.rows_;
  capacity_ = other.capacity_;
  size_ = other.size_;
  watermark_ = other.watermark_;
  growths_ = other.growths_;
  scratch_open_ = other.scratch_open_;
  other.guard_ = nullptr;
  other.rows_ = nullptr;
  other.capacity_ = 0;
  other.size_ = 0;
  other.watermark_ = 0;
  other.growths_ = 0;
  other.scratch_open_ = false;
}

}  // namespace pgm
