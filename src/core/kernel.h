#ifndef PGM_CORE_KERNEL_H_
#define PGM_CORE_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/gap.h"
#include "core/pil.h"

namespace pgm {

/// Join-kernel selection (MinerConfig::kernel_tier). The code picks the
/// kernel: kAuto is the default, and kScalar exists so tests and benchmarks
/// can pin the oracle. Both produce byte-identical PIL rows and support
/// counts — the scalar kernel is the authoritative oracle the bitset kernel
/// is differentially tested against (DESIGN.md §7e).
enum class KernelTier {
  /// The AVX2 bitset kernel when the window width
  /// W = max_gap - min_gap + 1 <= 64 and the CPU supports AVX2; scalar
  /// otherwise.
  kAuto,
  /// Always the scalar sliding-window kernel (the oracle).
  kScalar,
};

/// The implementation actually resolved for one run: what ResolveKernel
/// picked from the tier, the gap's window width, and the CPU.
enum class KernelImpl { kScalar, kAvx2 };

/// "auto" | "scalar".
const char* KernelTierToString(KernelTier tier);
/// Inverse of KernelTierToString; returns false on an unknown name.
bool KernelTierFromString(const std::string& name, KernelTier* tier);
/// "scalar" | "avx2" (the shard_timing trace field).
const char* KernelImplToString(KernelImpl impl);

/// True when the AVX2 kernel can run here: the CPU reports AVX2 at runtime
/// AND kernel_avx2.cc was compiled with AVX2 enabled (x86 builds only; on
/// other architectures this is false and every run is scalar).
bool Avx2Available();

/// Maps a configured tier to the implementation a run with `gap` uses:
/// kAvx2 for kAuto when W = gap.flexibility() <= 64 and Avx2Available(),
/// kScalar otherwise. The bitset kernel packs one window into a 64-bit
/// mask, so wider windows have no bit-parallel representation.
KernelImpl ResolveKernel(KernelTier tier, const GapRequirement& gap);

/// Reusable per-worker state for CombinePair: the bitset kernel's position
/// bitmap, word ranks, and suffix-count prefix sums. Once warmed up to the
/// largest pair seen, CombinePair performs no allocation.
struct KernelScratch {
  std::vector<std::uint64_t> bitmap;
  std::vector<std::uint64_t> rank;
  std::vector<std::uint64_t> cum;
};

/// One candidate's join outcome: the rows CombinePair wrote and their
/// support.
struct PairResult {
  std::size_t len = 0;
  SupportInfo support;
};

/// The level join's kernel: writes PIL(P) for the candidate P with prefix
/// PIL `prefix` and suffix PIL `suffix` to `out_rows`, which must hold at
/// least prefix.size() rows (at most one row per prefix row), and returns
/// the row count and sup(P). Rows and support are byte-identical to
/// PartialIndexList::Combine followed by TotalSupport, the oracle the kernel
/// test layer checks every path against.
///
/// kAvx2 runs the bitset kernel when the pair is exactly representable
/// (W <= 64, a dense-enough position span, and, decided by the bitset kernel
/// in its one suffix pass, a total suffix count below the clamp). Every
/// other pair, and every pair under kScalar, runs one scalar sliding-window
/// loop over the whole prefix. kAvx2 requires Avx2Available(). Per-pair
/// setup is O(1) and allocation-free once `scratch` is warm.
PairResult CombinePair(KernelImpl impl, std::span<const PilEntry> prefix,
                       std::span<const PilEntry> suffix,
                       const GapRequirement& gap, PilEntry* out_rows,
                       KernelScratch& scratch);

namespace internal {

/// What a BitsetPairKernel returns for a pair whose suffix counts sum to
/// kSaturatedCount or more (a saturated row is kSaturatedCount itself): its
/// uint64 prefix sums could not reproduce WindowSum's clamping, so the pair
/// goes to CombinePair's scalar loop instead. No row count reaches it, since a
/// pair emits at most one row per prefix row.
inline constexpr std::size_t kPairNotExact = ~std::size_t{0};

/// The bitset pair kernel for one (prefix, suffix) pair that passed
/// CombinePair's layout checks. Suffix positions are marked in
/// a bitmap of `words` 64-bit words starting at position `base` (a multiple
/// of 64); prefix row x's window starts at bit x + `shift` - base and is
/// `wbits` (1..64) bits wide. The caller sizes `bitmap` and `rank` to
/// words + 1 entries and `cum` to suffix_len + 1. Returns kPairNotExact,
/// having written no output row, when the suffix counts sum to the clamp
/// or past it. Otherwise writes the pair's rows to `out_rows`, returns how
/// many, and stores the exact sum of their counts in *support_sum.
using BitsetPairKernel = std::size_t (*)(
    const PilEntry* prefix_rows, std::size_t prefix_len,
    const PilEntry* suffix_rows, std::size_t suffix_len, std::uint64_t shift,
    std::uint64_t wbits, std::uint64_t base, std::uint64_t words,
    std::uint64_t* bitmap, std::uint64_t* rank, std::uint64_t* cum,
    PilEntry* out_rows, unsigned __int128* support_sum);

/// The bitset pair kernel compiled into kernel_avx2.cc with AVX2 code
/// generation, or null when that unit was built without it (non-x86
/// builds). Avx2Available() adds the runtime CPU check.
BitsetPairKernel Avx2PairKernel();

}  // namespace internal
}  // namespace pgm

#endif  // PGM_CORE_KERNEL_H_
