#ifndef PGM_SERVE_CANONICAL_H_
#define PGM_SERVE_CANONICAL_H_

#include <cstdint>
#include <string>

#include "core/miner.h"
#include "seq/sequence.h"

namespace pgm {

/// Renders the semantic fields of `config` — the ones that determine which
/// patterns a completed run emits — as a canonical string: `key=value;`
/// pairs sorted by key, doubles in `%a` hex-float form so the rendering is
/// exact and locale-independent. The fields are the MinerOptions() rows
/// marked `cache_key` (core/miner_options.h), keyed by their field names.
///
/// Execution options are deliberately excluded: `threads`, `kernel_tier`,
/// `limits`, `observer` and `cancel` never change a *completed* result (the
/// guard only observes, the parallel merge is candidate-ordered, and every
/// kernel tier emits identical rows), so two requests that differ only in
/// those fields may share a cache entry. The cache in turn stores only
/// completed results, which is what makes the exclusion sound.
std::string CanonicalConfigString(const std::string& algorithm,
                                  const MinerConfig& config);

/// FNV-1a 64 digest of the sequence: alphabet characters, case flag, length,
/// then the encoded symbol bytes.
std::uint64_t SequenceDigest(const Sequence& sequence);

/// The ResultCache key: `<sequence digest hex>:<canonical config hex>` (two
/// 16-digit lowercase hex fields). Keeping the halves separate makes cache
/// keys greppable by input in traces and logs.
std::string CacheKey(const Sequence& sequence, const std::string& algorithm,
                     const MinerConfig& config);

}  // namespace pgm

#endif  // PGM_SERVE_CANONICAL_H_
