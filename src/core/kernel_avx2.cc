#include "core/kernel.h"

#include "util/saturating.h"

// The one translation unit built with -mavx2 (x86 only; see
// src/core/CMakeLists.txt), and the only one the raw-intrinsics pgm_lint
// rule lets use vector intrinsics. The whole bitset pair kernel lives here,
// so its popcounts compile to the POPCNT instruction every AVX2 CPU has;
// baseline x86-64 has no POPCNT and counts bits in software. The rest of
// the build stays baseline-ISA and reaches this code through runtime
// dispatch (Avx2Available).
//
// One-definition rule: the linker may keep any single copy of an inline
// function or template, so a copy compiled here could end up serving
// baseline callers on a CPU without AVX2. This unit therefore defines no
// such symbol — no std:: templates or other inline functions with external
// linkage, only builtins, intrinsics, plain loops and raw pointers (the
// caller sizes the scratch buffers). The avx2_unit_odr ctest checks the
// object file with nm.

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace pgm {
namespace internal {

#if defined(__AVX2__)

namespace {

/// Prefix rows per window-extraction strip.
constexpr std::size_t kStrip = 64;

/// Extracts `n` W-bit window masks from the bitmap — one per query bit
/// offset offs[i] — together with each query's below-window bits of its
/// first word (`prelow`, popcounted into a row rank) and the word-rank base
/// (`rankbase`). Four queries at a time gather their bitmap/rank words and
/// shift with variable vector shifts; the tail runs scalar.
void ExtractWindows(const std::uint64_t* bitmap, const std::uint64_t* rank,
                    const std::uint64_t* offs, std::size_t n,
                    std::uint64_t wmask, std::uint64_t* masks,
                    std::uint64_t* prelow, std::uint64_t* rankbase) {
  const __m256i vwmask = _mm256_set1_epi64x(static_cast<long long>(wmask));
  const __m256i vones = _mm256_set1_epi64x(1);
  const __m256i v64 = _mm256_set1_epi64x(64);
  const __m256i v63 = _mm256_set1_epi64x(63);
  const long long* words = reinterpret_cast<const long long*>(bitmap);
  const long long* ranks = reinterpret_cast<const long long*>(rank);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i voff =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(offs + i));
    const __m256i vword = _mm256_srli_epi64(voff, 6);
    const __m256i vbit = _mm256_and_si256(voff, v63);
    const __m256i w0 = _mm256_i64gather_epi64(words, vword, 8);
    const __m256i w1 = _mm256_i64gather_epi64(words + 1, vword, 8);
    const __m256i vrank = _mm256_i64gather_epi64(ranks, vword, 8);
    // Intel variable-shift semantics: a count >= 64 yields 0, so the
    // bit == 0 lane (where 64 - bit == 64) takes nothing from w1 — exactly
    // the scalar tail's bit == 0 special case, without a branch.
    const __m256i low = _mm256_srlv_epi64(w0, vbit);
    const __m256i high = _mm256_sllv_epi64(w1, _mm256_sub_epi64(v64, vbit));
    const __m256i vmask =
        _mm256_and_si256(_mm256_or_si256(low, high), vwmask);
    // (1 << bit) - 1 keeps w0's below-window bits; bit == 0 keeps none.
    const __m256i vlowmask =
        _mm256_sub_epi64(_mm256_sllv_epi64(vones, vbit), vones);
    const __m256i vprelow = _mm256_and_si256(w0, vlowmask);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(masks + i), vmask);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(prelow + i), vprelow);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(rankbase + i), vrank);
  }
  for (; i < n; ++i) {
    const std::uint64_t word = offs[i] >> 6;
    const std::uint64_t bit = offs[i] & 63;
    const std::uint64_t w0 = bitmap[word];
    const std::uint64_t w1 = bitmap[word + 1];
    masks[i] = (bit == 0 ? w0 : (w0 >> bit) | (w1 << (64 - bit))) & wmask;
    prelow[i] = bit == 0 ? 0 : w0 & ((std::uint64_t{1} << bit) - 1);
    rankbase[i] = rank[word];
  }
}

/// The bitset pair kernel (contract: BitsetPairKernel in core/kernel.h).
/// rank[w] counts the set bits in words [0, w) and cum[i] prefix-sums the
/// suffix counts, so a prefix row resolves in O(1): popcount its window
/// mask for the number of suffix rows in the window, rank + a masked
/// popcount for the first of them, and the window total is a cum
/// difference. The suffix is read once: the pass that marks its positions
/// also builds cum and decides exactness. The pair is inexact when it has
/// a saturated row or its exact mass is >= kSaturatedCount; a saturated
/// row is kSaturatedCount itself, so that is exactly the running uint64
/// sum overflowing or ending at kSaturatedCount.
std::size_t CombinePairAvx2(const PilEntry* prefix_rows,
                            std::size_t prefix_len,
                            const PilEntry* suffix_rows,
                            std::size_t suffix_len, std::uint64_t shift,
                            std::uint64_t wbits, std::uint64_t base,
                            std::uint64_t words, std::uint64_t* bitmap,
                            std::uint64_t* rank, std::uint64_t* cum,
                            PilEntry* out_rows,
                            unsigned __int128* support_sum) {
  // The trailing pad word keeps every query's second-word read in bounds.
  for (std::uint64_t w = 0; w <= words; ++w) bitmap[w] = 0;
  std::uint64_t mass = 0;
  cum[0] = 0;
  for (std::size_t i = 0; i < suffix_len; ++i) {
    const std::uint64_t bit = suffix_rows[i].pos - base;
    bitmap[bit >> 6] |= std::uint64_t{1} << (bit & 63);
    if (__builtin_add_overflow(mass, suffix_rows[i].count, &mass)) {
      return kPairNotExact;
    }
    cum[i + 1] = mass;
  }
  if (mass == kSaturatedCount) return kPairNotExact;
  std::uint64_t running = 0;
  for (std::uint64_t w = 0; w < words; ++w) {
    rank[w] = running;
    running += static_cast<std::uint64_t>(__builtin_popcountll(bitmap[w]));
  }
  rank[words] = running;

  const std::uint64_t wmask =
      wbits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << wbits) - 1;
  std::size_t out_len = 0;
  unsigned __int128 sum = 0;
  std::uint64_t offs[kStrip];
  std::uint64_t masks[kStrip];
  std::uint64_t prelow[kStrip];
  std::uint64_t rankbase[kStrip];
  for (std::size_t begin = 0; begin < prefix_len; begin += kStrip) {
    const std::size_t n =
        prefix_len - begin < kStrip ? prefix_len - begin : kStrip;
    for (std::size_t k = 0; k < n; ++k) {
      offs[k] = prefix_rows[begin + k].pos + shift - base;
    }
    ExtractWindows(bitmap, rank, offs, n, wmask, masks, prelow, rankbase);
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint64_t cnt =
          static_cast<std::uint64_t>(__builtin_popcountll(masks[k]));
      if (cnt == 0) continue;
      const std::uint64_t lo =
          rankbase[k] +
          static_cast<std::uint64_t>(__builtin_popcountll(prelow[k]));
      const std::uint64_t total = cum[lo + cnt] - cum[lo];
      out_rows[out_len++] = PilEntry{prefix_rows[begin + k].pos, total};
      sum += total;
    }
  }
  *support_sum = sum;
  return out_len;
}

}  // namespace

BitsetPairKernel Avx2PairKernel() { return &CombinePairAvx2; }

#else  // !defined(__AVX2__)

BitsetPairKernel Avx2PairKernel() { return nullptr; }

#endif  // defined(__AVX2__)

}  // namespace internal
}  // namespace pgm
