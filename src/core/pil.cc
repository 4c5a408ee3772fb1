#include "core/pil.h"

#include <cassert>

namespace pgm {

SupportInfo ClampSupport(unsigned __int128 sum, bool saturated) {
  if (saturated || sum >= static_cast<unsigned __int128>(kSaturatedCount)) {
    return SupportInfo{kSaturatedCount, true};
  }
  return SupportInfo{static_cast<std::uint64_t>(sum), false};
}

SupportInfo SupportOfRows(const PilEntry* rows, std::size_t len) {
  unsigned __int128 sum = 0;
  bool any_saturated = false;
  for (std::size_t i = 0; i < len; ++i) {
    if (IsSaturated(rows[i].count)) any_saturated = true;
    sum += rows[i].count;
  }
  return ClampSupport(sum, any_saturated);
}

PartialIndexList PartialIndexList::ForSymbol(const Sequence& sequence,
                                             Symbol symbol) {
  PartialIndexList pil;
  for (std::size_t pos = 0; pos < sequence.size(); ++pos) {
    if (sequence[pos] == symbol) {
      pil.entries_.push_back(
          PilEntry{static_cast<std::uint32_t>(pos), 1});
    }
  }
  return pil;
}

PartialIndexList PartialIndexList::Combine(const PartialIndexList& prefix_pil,
                                           const PartialIndexList& suffix_pil,
                                           const GapRequirement& gap) {
  PartialIndexList result;
  const auto& prefix = prefix_pil.entries_;
  const auto& suffix = suffix_pil.entries_;
  if (prefix.empty() || suffix.empty()) return result;
  result.entries_.reserve(prefix.size());

  // For prefix position x, eligible suffix positions lie in
  // [x + N + 1, x + M + 1]. Both bounds are monotone in x, so `lo` and `hi`
  // only ever advance: amortized O(|prefix| + |suffix|).
  internal::WindowSum window;
  std::size_t lo = 0;  // first suffix index inside the window
  std::size_t hi = 0;  // first suffix index beyond the window
  for (const PilEntry& entry : prefix) {
    const std::int64_t window_begin =
        static_cast<std::int64_t>(entry.pos) + gap.min_gap() + 1;
    const std::int64_t window_end =
        static_cast<std::int64_t>(entry.pos) + gap.max_gap() + 1;
    while (hi < suffix.size() &&
           static_cast<std::int64_t>(suffix[hi].pos) <= window_end) {
      window.Add(suffix[hi].count);
      ++hi;
    }
    while (lo < hi &&
           static_cast<std::int64_t>(suffix[lo].pos) < window_begin) {
      window.Remove(suffix[lo].count);
      ++lo;
    }
    const std::uint64_t total = window.Total();
    if (total > 0) {
      result.entries_.push_back(PilEntry{entry.pos, total});
    }
  }
  return result;
}

PartialIndexList PartialIndexList::FromEntries(std::vector<PilEntry> entries) {
#ifndef NDEBUG
  for (std::size_t i = 0; i < entries.size(); ++i) {
    assert(entries[i].count > 0);
    if (i > 0) assert(entries[i - 1].pos < entries[i].pos);
  }
#endif
  PartialIndexList pil;
  pil.entries_ = std::move(entries);
  return pil;
}

SupportInfo PartialIndexList::TotalSupport() const {
  return SupportOfRows(entries_.data(), entries_.size());
}

}  // namespace pgm
