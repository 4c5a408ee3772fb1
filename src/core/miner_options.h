#ifndef PGM_CORE_MINER_OPTIONS_H_
#define PGM_CORE_MINER_OPTIONS_H_

#include <array>
#include <span>
#include <string>
#include <string_view>

#include "core/miner.h"
#include "util/status.h"

namespace pgm {

/// How MinerOption::render spells a value: as the flag or job key takes it
/// (the --help default), or exactly (the cache-key rendering).
enum class OptionText { kUser, kExact };

/// One MinerConfig or ResourceLimits field as every surface sees it: the
/// `pgm mine`/`corpus`/`em` flags, the `pgm serve` job keys and the
/// result-cache key (serve/canonical.h) are all loops over MinerOptions().
struct MinerOption {
  /// The `--flag` and job key; empty for fields only the C++ API sets.
  std::string_view name;
  /// The member (`limits.` prefix for ResourceLimits); the cache-key name.
  std::string_view field;
  std::string_view help;
  /// Parses `text` and stores it when the field can hold it; checks across
  /// fields stay in the miners' ValidateConfig. Errors do not name the
  /// option: callers add the flag or key.
  Status (*set)(std::string_view text, MinerConfig* config);
  void (*render)(const MinerConfig& config, OptionText form,
                 std::string* out);
  /// True when the field can change which patterns a completed run emits.
  /// Execution options (threads, kernel tier, budgets) leave completed
  /// results byte-identical and stay out of the cache key.
  bool cache_key;
};

/// The option table, sorted by `field`.
std::span<const MinerOption> MinerOptions();

/// The row whose user name is `name`, or null.
const MinerOption* FindMinerOption(std::string_view name);

/// The MinerConfig members no row claims: run plumbing wired in code.
inline constexpr std::array<std::string_view, 2> kInternalMinerFields = {
    "cancel", "observer"};

}  // namespace pgm

#endif  // PGM_CORE_MINER_OPTIONS_H_
