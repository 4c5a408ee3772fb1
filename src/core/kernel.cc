#include "core/kernel.h"

#include <algorithm>

#include "util/saturating.h"

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
/// Returns false — the pair goes to CombinePrefixGroup — when the pair is
/// not exactly representable: W > 64, an empty side, a saturated suffix
/// count or total suffix mass at/above the clamp (the bitset kernel's plain
/// uint64 prefix sums would diverge from WindowSum's clamping), or a span
/// so sparse the O(span) bitmap pass would dominate the O(rows) scalar
/// loop. Eligibility depends only on the pair, never the schedule, so the
/// decision is thread-count independent.
bool BitsetLayout(const PilEntry* prefix_rows, std::size_t prefix_len,
                  const GroupSuffix& suffix, std::uint64_t shift,
                  std::uint64_t wbits, std::uint64_t* base,
                  std::uint64_t* words) {
  const PilEntry* suffix_rows = suffix.rows;
  const std::size_t suffix_len = suffix.len;
  if (wbits > 64 || prefix_len == 0 || suffix_len == 0) return false;
  unsigned __int128 mass = 0;
  for (std::size_t i = 0; i < suffix_len; ++i) {
    if (IsSaturated(suffix_rows[i].count)) return false;
    mass += suffix_rows[i].count;
  }
  if (mass >= static_cast<unsigned __int128>(kSaturatedCount)) return false;

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

}  // namespace

void CombinePrefixGroupKernel(KernelImpl impl, const PilEntry* prefix_rows,
                              std::size_t prefix_len,
                              const GapRequirement& gap,
                              const GroupSuffix* suffixes,
                              GroupOutput* outputs, std::size_t group_size,
                              KernelScratch& scratch) {
  if (impl == KernelImpl::kScalar) {
    CombinePrefixGroup(prefix_rows, prefix_len, gap, suffixes, outputs,
                       group_size, scratch.scalar);
    return;
  }
  const internal::BitsetPairKernel pair_kernel = internal::Avx2PairKernel();
  const std::uint64_t shift = static_cast<std::uint64_t>(gap.min_gap() + 1);
  const std::uint64_t wbits = static_cast<std::uint64_t>(gap.flexibility());
  for (std::size_t j = 0; j < group_size; ++j) {
    const GroupSuffix& suffix = suffixes[j];
    GroupOutput& out = outputs[j];
    std::uint64_t base = 0;
    std::uint64_t words = 0;
    if (!BitsetLayout(prefix_rows, prefix_len, suffix, shift, wbits, &base,
                      &words)) {
      CombinePrefixGroup(prefix_rows, prefix_len, gap, &suffix, &out, 1,
                         scratch.scalar);
      continue;
    }
    const std::size_t alloc = static_cast<std::size_t>(words) + 1;
    if (scratch.bitmap.size() < alloc) scratch.bitmap.resize(alloc);
    if (scratch.rank.size() < alloc) scratch.rank.resize(alloc);
    if (scratch.cum.size() < suffix.len + 1) scratch.cum.resize(suffix.len + 1);
    unsigned __int128 support_sum = 0;
    out.len = pair_kernel(prefix_rows, prefix_len, suffix.rows, suffix.len,
                          shift, wbits, base, words, scratch.bitmap.data(),
                          scratch.rank.data(), scratch.cum.data(), out.rows,
                          &support_sum);
    // No window clamps under the guards, so the only saturation source left
    // is the cross-row support sum.
    out.support = ClampSupport(support_sum, /*saturated=*/false);
  }
}

}  // namespace pgm
