#include "core/pil_arena.h"

// pgm-lint: allow(arena-scratch) — this file IMPLEMENTS the scratch
// protocol; the bracket lives in callers.

#include <algorithm>
#include <cassert>
#include <cstring>

#include "util/saturating.h"

namespace pgm {

bool PilArena::Reserve(std::size_t total_rows) {
  if (total_rows <= rows_.size()) return guard_ == nullptr || !guard_->stopped();
  // Geometric growth so a level loop performs O(log) growths, after which
  // the ping-pong reuse makes further levels allocation-free.
  const std::size_t grown = std::max(total_rows, rows_.size() * 2);
  const std::uint64_t delta =
      static_cast<std::uint64_t>(grown - rows_.size()) * sizeof(PilEntry);
  rows_.resize(grown);
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
    std::memmove(rows_.data() + watermark_, rows_.data() + span.offset,
                 span.len * sizeof(PilEntry));
  }
  watermark_ += span.len;
  return promoted;
}

void PilArena::Release() {
  if (guard_ != nullptr && !rows_.empty()) {
    guard_->ReleaseMemory(capacity_bytes());
  }
  rows_.clear();
  size_ = 0;
  watermark_ = 0;
}

void PilArena::MoveFrom(PilArena& other) {
  guard_ = other.guard_;
  rows_ = std::move(other.rows_);
  size_ = other.size_;
  watermark_ = other.watermark_;
  growths_ = other.growths_;
  scratch_open_ = other.scratch_open_;
  other.guard_ = nullptr;
  other.rows_.clear();
  other.size_ = 0;
  other.watermark_ = 0;
  other.growths_ = 0;
  other.scratch_open_ = false;
}

void CombinePrefixGroup(const PilEntry* prefix_rows, std::size_t prefix_len,
                        const GapRequirement& gap, const GroupSuffix* suffixes,
                        GroupOutput* outputs, std::size_t group_size,
                        GroupJoinScratch& scratch) {
  GroupJoinScratch::State* states = scratch.Prepare(group_size);
  for (std::size_t j = 0; j < group_size; ++j) outputs[j].len = 0;

  const std::int64_t min_gap = gap.min_gap();
  const std::int64_t max_gap = gap.max_gap();
  // Blocked iteration: each block of prefix rows is streamed from memory
  // once and then replayed per suffix out of cache, while that suffix's
  // window state lives in registers (loaded from and stored back to the
  // scratch array once per block, amortized over kBlockRows rows). A
  // straight prefix-row-outer loop would instead touch every suffix's
  // ~64-byte state per row, which costs more than the prefix re-streaming
  // it avoids. Each suffix still sees exactly the per-row Add/Remove/Total
  // sequence of PartialIndexList::Combine, so outputs are byte-identical.
  constexpr std::size_t kBlockRows = 256;
  for (std::size_t block_begin = 0; block_begin < prefix_len;
       block_begin += kBlockRows) {
    const std::size_t block_end =
        std::min(prefix_len, block_begin + kBlockRows);
    for (std::size_t j = 0; j < group_size; ++j) {
      GroupJoinScratch::State st = states[j];
      GroupOutput& out = outputs[j];
      const PilEntry* suffix_rows = suffixes[j].rows;
      const std::size_t suffix_len = suffixes[j].len;
      PilEntry* out_rows = out.rows;
      std::size_t out_len = out.len;
      for (std::size_t i = block_begin; i < block_end; ++i) {
        const std::int64_t window_begin =
            static_cast<std::int64_t>(prefix_rows[i].pos) + min_gap + 1;
        const std::int64_t window_end =
            static_cast<std::int64_t>(prefix_rows[i].pos) + max_gap + 1;
        while (st.hi < suffix_len &&
               static_cast<std::int64_t>(suffix_rows[st.hi].pos) <=
                   window_end) {
          st.window.Add(suffix_rows[st.hi].count);
          ++st.hi;
        }
        while (st.lo < st.hi &&
               static_cast<std::int64_t>(suffix_rows[st.lo].pos) <
                   window_begin) {
          st.window.Remove(suffix_rows[st.lo].count);
          ++st.lo;
        }
        const std::uint64_t total = st.window.Total();
        if (total > 0) {
          out_rows[out_len++] = PilEntry{prefix_rows[i].pos, total};
          if (IsSaturated(total)) st.support_saturated = true;
          st.support_sum += total;
        }
      }
      out.len = out_len;
      states[j] = st;
    }
  }

  for (std::size_t j = 0; j < group_size; ++j) {
    outputs[j].support =
        ClampSupport(states[j].support_sum, states[j].support_saturated);
  }
}

}  // namespace pgm
