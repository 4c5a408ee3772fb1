#ifndef PGM_CORE_KERNEL_H_
#define PGM_CORE_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/gap.h"
#include "core/pil_arena.h"

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

/// Reusable per-worker state for CombinePrefixGroupKernel: the scalar
/// kernel's window states plus the bitset kernel's position bitmap, word
/// ranks, and suffix-count prefix sums. Once warmed up to the largest pair
/// seen, the join performs no allocation (the same contract
/// GroupJoinScratch gives the scalar kernel).
struct KernelScratch {
  GroupJoinScratch scalar;
  std::vector<std::uint64_t> bitmap;
  std::vector<std::uint64_t> rank;
  std::vector<std::uint64_t> cum;
};

/// The dispatching join kernel: identical contract to CombinePrefixGroup
/// (core/pil_arena.h), with `impl` selecting the implementation.
/// kScalar delegates to CombinePrefixGroup verbatim. kAvx2 runs each
/// (prefix, suffix) pair through the bitset kernel when the pair is exactly
/// representable (W <= 64, no saturated suffix counts, total suffix count
/// below the clamp, dense-enough position span) and through
/// CombinePrefixGroup otherwise — every path reproduces the oracle's rows
/// and supports byte-for-byte, which the kernel test layer enforces rather
/// than trusts. kAvx2 requires Avx2Available().
void CombinePrefixGroupKernel(KernelImpl impl, const PilEntry* prefix_rows,
                              std::size_t prefix_len,
                              const GapRequirement& gap,
                              const GroupSuffix* suffixes,
                              GroupOutput* outputs, std::size_t group_size,
                              KernelScratch& scratch);

namespace internal {

/// The bitset pair kernel for one (prefix, suffix) pair that passed
/// CombinePrefixGroupKernel's guards. Suffix positions are marked in a
/// bitmap of `words` 64-bit words starting at position `base` (a multiple
/// of 64); prefix row x's window starts at bit x + `shift` - base and is
/// `wbits` (1..64) bits wide. The caller sizes `bitmap` and `rank` to
/// words + 1 entries and `cum` to suffix_len + 1. Writes the pair's rows to
/// `out_rows`, returns how many, and stores the exact sum of their counts
/// in *support_sum.
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
