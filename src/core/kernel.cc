#include "core/kernel.h"

#include <algorithm>

namespace pgm {

const char* KernelTierToString(KernelTier tier) {
  switch (tier) {
    case KernelTier::kAuto:
      return "auto";
    case KernelTier::kScalar:
      return "scalar";
  }
  return "auto";
}

bool KernelTierFromString(const std::string& name, KernelTier* tier) {
  if (name == "auto") {
    *tier = KernelTier::kAuto;
  } else if (name == "scalar") {
    *tier = KernelTier::kScalar;
  } else {
    return false;
  }
  return true;
}

const char* KernelImplToString(KernelImpl impl) {
  switch (impl) {
    case KernelImpl::kScalar:
      return "scalar";
    case KernelImpl::kAvx2:
      return "avx2";
  }
  return "scalar";
}

bool Avx2Available() {
#if defined(__x86_64__) || defined(__i386__)
  return internal::Avx2PairKernel() != nullptr &&
         __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

KernelImpl ResolveKernel(KernelTier tier, const GapRequirement& gap) {
  if (tier == KernelTier::kAuto && gap.flexibility() <= 64 &&
      Avx2Available()) {
    return KernelImpl::kAvx2;
  }
  return KernelImpl::kScalar;
}

namespace {

/// Sizes the bitset layout of one (prefix, suffix) pair: the 64-aligned
/// `base` of a bitmap over the pair's position span and its `words`.
/// Returns false — the pair goes to the scalar loop — when W > 64, a side
/// is empty, or the span is so sparse the O(span) bitmap pass would
/// dominate the O(rows) scalar loop. O(1): the exactness check over the
/// suffix counts is the bitset kernel's own (kPairNotExact), made in the
/// pass that builds its bitmap. Eligibility depends only on the pair,
/// never the schedule, so the decision is thread-count independent.
bool BitsetLayout(const PilEntry* prefix_rows, std::size_t prefix_len,
                  const PilEntry* suffix_rows, std::size_t suffix_len,
                  std::uint64_t shift, std::uint64_t wbits,
                  std::uint64_t* base, std::uint64_t* words) {
  if (wbits > 64 || prefix_len == 0 || suffix_len == 0) return false;
  const std::uint64_t first_query = prefix_rows[0].pos + shift;
  *base = std::min<std::uint64_t>(suffix_rows[0].pos, first_query) &
          ~std::uint64_t{63};
  const std::uint64_t last_query =
      prefix_rows[prefix_len - 1].pos + shift + (wbits - 1);
  const std::uint64_t span_hi =
      std::max<std::uint64_t>(suffix_rows[suffix_len - 1].pos, last_query);
  *words = ((span_hi - *base) >> 6) + 1;
  return *words <= 4 * (prefix_len + suffix_len) + 64;
}

/// The scalar kernel: PartialIndexList::Combine's sliding window on raw
/// rows. For prefix position x the eligible suffix rows are those with
/// positions in [x + N + 1, x + M + 1]; both bounds are monotone in x, so
/// `lo` and `hi` only advance (O(|prefix| + |suffix|)). The support is the exact sum of
/// the emitted counts, clamped once at the end: an emitted saturated count
/// is kSaturatedCount itself, so the sum alone decides the clamp that
/// TotalSupport's saturated flag would.
PairResult CombinePairScalar(std::span<const PilEntry> prefix,
                             std::span<const PilEntry> suffix,
                             const GapRequirement& gap, PilEntry* out_rows) {
  if (prefix.empty() || suffix.empty()) return PairResult{};
  const std::int64_t begin_offset = gap.min_gap() + 1;
  const std::int64_t end_offset = gap.max_gap() + 1;
  const PilEntry* lo = suffix.data();
  const PilEntry* hi = suffix.data();
  const PilEntry* const suffix_end = suffix.data() + suffix.size();
  PilEntry* out = out_rows;
  internal::WindowSum window;
  unsigned __int128 support_sum = 0;
  for (const PilEntry& entry : prefix) {
    const std::int64_t pos = entry.pos;
    while (hi != suffix_end &&
           static_cast<std::int64_t>(hi->pos) <= pos + end_offset) {
      window.Add(hi->count);
      ++hi;
    }
    while (lo != hi &&
           static_cast<std::int64_t>(lo->pos) < pos + begin_offset) {
      window.Remove(lo->count);
      ++lo;
    }
    const std::uint64_t total = window.Total();
    if (total > 0) {
      *out++ = PilEntry{entry.pos, total};
      support_sum += total;
    }
  }
  return PairResult{static_cast<std::size_t>(out - out_rows),
                    ClampSupport(support_sum, /*saturated=*/false)};
}

}  // namespace

PairResult CombinePair(KernelImpl impl, std::span<const PilEntry> prefix,
                       std::span<const PilEntry> suffix,
                       const GapRequirement& gap, PilEntry* out_rows,
                       KernelScratch& scratch) {
  if (impl == KernelImpl::kAvx2) {
    const std::uint64_t shift = static_cast<std::uint64_t>(gap.min_gap() + 1);
    const std::uint64_t wbits = static_cast<std::uint64_t>(gap.flexibility());
    std::uint64_t base = 0;
    std::uint64_t words = 0;
    if (BitsetLayout(prefix.data(), prefix.size(), suffix.data(),
                     suffix.size(), shift, wbits, &base, &words)) {
      const std::size_t alloc = static_cast<std::size_t>(words) + 1;
      if (scratch.bitmap.size() < alloc) scratch.bitmap.resize(alloc);
      if (scratch.rank.size() < alloc) scratch.rank.resize(alloc);
      if (scratch.cum.size() < suffix.size() + 1) {
        scratch.cum.resize(suffix.size() + 1);
      }
      unsigned __int128 support_sum = 0;
      const std::size_t len = internal::Avx2PairKernel()(
          prefix.data(), prefix.size(), suffix.data(), suffix.size(), shift,
          wbits, base, words, scratch.bitmap.data(), scratch.rank.data(),
          scratch.cum.data(), out_rows, &support_sum);
      // No window clamps on an exact pair, so the only saturation source
      // left is the cross-row support sum.
      if (len != internal::kPairNotExact) {
        return PairResult{len, ClampSupport(support_sum, /*saturated=*/false)};
      }
    }
  }
  return CombinePairScalar(prefix, suffix, gap, out_rows);
}

}  // namespace pgm
