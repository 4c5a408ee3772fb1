#ifndef PGM_CORE_PIL_H_
#define PGM_CORE_PIL_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "core/gap.h"
#include "seq/sequence.h"
#include "util/saturating.h"

namespace pgm {

/// One entry of a partial index list: there are exactly `count` offset
/// sequences of the pattern whose first offset is `pos` (0-based).
struct PilEntry {
  std::uint32_t pos;
  std::uint64_t count;

  bool operator==(const PilEntry& other) const {
    return pos == other.pos && count == other.count;
  }
};

// `pos` is 32 bits, so a PIL can only index sequences whose last position
// fits in it. Sequence construction and ValidateConfig reject anything
// longer (kMaxSequenceLength in seq/sequence.h); this assert ties that
// limit to the field so widening one without the other fails to compile
// instead of silently truncating positions.
static_assert(kMaxSequenceLength - 1 <=
                  std::numeric_limits<decltype(PilEntry::pos)>::max(),
              "PilEntry::pos must be able to index every position of a "
              "maximum-length sequence; update kMaxSequenceLength and "
              "PilEntry::pos together");

/// Aggregate support of a pattern together with an overflow indicator.
struct SupportInfo {
  /// Total number of matching offset sequences, clamped at 2^64-1.
  std::uint64_t count = 0;
  /// True when `count` hit the clamp (degenerate inputs only).
  bool saturated = false;
};

/// The one support clamp: the exact 128-bit sum of a pattern's row counts
/// becomes the saturated sentinel when any row count was saturated or the
/// sum reaches kSaturatedCount. Every join kernel and SupportOfRows finish
/// through it, so their supports agree by construction.
SupportInfo ClampSupport(unsigned __int128 sum, bool saturated);

/// sup over a row range: the saturating sum of the entries' counts. The one
/// support computation both PIL representations (heap-backed
/// PartialIndexList and arena spans) share, so their results are identical
/// by construction.
SupportInfo SupportOfRows(const PilEntry* rows, std::size_t len);

namespace internal {

/// Sliding-window accumulator over suffix-PIL counts. Saturated entries are
/// tracked separately so the running sum stays exact under removal. Shared
/// by PartialIndexList::Combine and the arena group-join kernel
/// (core/pil_arena.h) — one definition, identical arithmetic.
class WindowSum {
 public:
  void Add(std::uint64_t count) {
    if (IsSaturated(count)) {
      ++num_saturated_;
    } else {
      sum_ += count;
    }
  }

  void Remove(std::uint64_t count) {
    if (IsSaturated(count)) {
      --num_saturated_;
    } else {
      sum_ -= count;
    }
  }

  /// Current window total, clamped at 2^64-1.
  std::uint64_t Total() const {
    if (num_saturated_ > 0) return kSaturatedCount;
    if (sum_ >= static_cast<unsigned __int128>(kSaturatedCount)) {
      return kSaturatedCount;
    }
    return static_cast<std::uint64_t>(sum_);
  }

 private:
  // Sum of non-saturated counts. Entries are < 2^64 and there are < 2^32 of
  // them, so the exact sum fits comfortably in 128 bits.
  unsigned __int128 sum_ = 0;
  std::uint64_t num_saturated_ = 0;
};

}  // namespace internal

/// The partial index list (PIL) of Section 5.1: for a pattern P over a
/// subject sequence S, a sorted list of (x, y) pairs meaning "y offset
/// sequences of the form [x, c2, ..., cl] match P". The PIL supports the
/// two operations the paper identifies:
///
///   1. sup(P) = sum of all y (TotalSupport).
///   2. PIL(P) is computable from PIL(prefix(P)) and PIL(suffix(P)) alone
///      (Combine) — this is what makes the level-wise join cheap.
class PartialIndexList {
 public:
  PartialIndexList() = default;

  /// PIL of a length-1 pattern: one entry of count 1 per occurrence of
  /// `symbol` in `sequence`.
  static PartialIndexList ForSymbol(const Sequence& sequence, Symbol symbol);

  /// PIL(P) from PIL(prefix(P)) and PIL(suffix(P)) under `gap`, using the
  /// paper's procedure with a sliding-window sum (O(|prefix| + |suffix|)):
  /// for each (x, y) in the prefix list, t = sum of y' over suffix entries
  /// (x', y') with x' - x - 1 in [N, M]; emit (x, t) when t > 0.
  static PartialIndexList Combine(const PartialIndexList& prefix_pil,
                                  const PartialIndexList& suffix_pil,
                                  const GapRequirement& gap);

  /// Builds directly from entries; they must be sorted by pos with positive
  /// counts (assert-checked in debug builds). Test helper.
  static PartialIndexList FromEntries(std::vector<PilEntry> entries);

  const std::vector<PilEntry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// sup(P): the saturating sum of all counts.
  SupportInfo TotalSupport() const;

  /// Approximate heap footprint, for the miners' memory accounting.
  std::size_t MemoryBytes() const {
    return entries_.capacity() * sizeof(PilEntry);
  }

  bool operator==(const PartialIndexList& other) const {
    return entries_ == other.entries_;
  }

 private:
  std::vector<PilEntry> entries_;
};

}  // namespace pgm

#endif  // PGM_CORE_PIL_H_
