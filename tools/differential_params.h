#ifndef PGM_TOOLS_DIFFERENTIAL_PARAMS_H_
#define PGM_TOOLS_DIFFERENTIAL_PARAMS_H_

// The randomized-oracle configuration sweep shared by the differential test
// and the golden generator (tools/gen_differential_goldens). Both draw the
// same configurations from the same fixed seed, so the committed fixture
// file and the assertions agree byte-for-byte; regenerating the fixtures on
// an implementation whose output drifted produces a visible diff instead of
// a silently moved goalpost.

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/gap.h"
#include "core/miner.h"
#include "util/random.h"
#include "util/string_util.h"

namespace pgm::difftest {

/// One randomized oracle configuration: the data-generation knobs plus the
/// mining knobs the satellite sweep randomizes (alphabet size, sequence
/// length, gap requirement, ρs, em_order).
struct OracleConfig {
  std::string alphabet;
  std::size_t length = 0;
  std::int64_t min_gap = 0;
  std::int64_t max_gap = 0;
  double rho = 0.0;
  std::int64_t em_order = 0;
  std::uint64_t data_seed = 0;
};

inline constexpr std::size_t kNumOracleConfigs = 50;
inline constexpr std::uint64_t kOracleSweepSeed = 0x9e3779b97f4a7c15ull;

/// Draws the sweep's configurations from the fixed seed. Ranges keep the
/// enumeration oracle tractable (short sequences, alphabets of 2-5) while
/// covering rigid gaps (W = 1), adjacent characters (N = M = 0), and wide
/// windows.
inline std::vector<OracleConfig> OracleConfigs() {
  std::vector<OracleConfig> configs;
  configs.reserve(kNumOracleConfigs);
  Rng rng(kOracleSweepSeed);
  for (std::size_t i = 0; i < kNumOracleConfigs; ++i) {
    OracleConfig config;
    const std::int64_t alphabet_size = rng.UniformRange(2, 5);
    config.alphabet =
        std::string("ABCDE").substr(0, static_cast<std::size_t>(alphabet_size));
    config.length = static_cast<std::size_t>(rng.UniformRange(24, 96));
    config.min_gap = rng.UniformRange(0, 5);
    config.max_gap = config.min_gap + rng.UniformRange(0, 4);
    static constexpr double kRhoBuckets[] = {0.005, 0.01, 0.02, 0.04, 0.08};
    config.rho = kRhoBuckets[rng.UniformInt(5)];
    config.em_order = rng.UniformRange(2, 10);
    config.data_seed = rng.Next();
    configs.push_back(std::move(config));
  }
  return configs;
}

inline MinerConfig ToMinerConfig(const OracleConfig& config) {
  MinerConfig miner_config;
  miner_config.min_gap = config.min_gap;
  miner_config.max_gap = config.max_gap;
  miner_config.min_support_ratio = config.rho;
  miner_config.start_length = 1;
  miner_config.em_order = config.em_order;
  return miner_config;
}

/// The length horizon below which every engine must agree exactly with the
/// brute-force oracle; capped at 5 to bound |Σ|^l enumeration cost.
inline std::size_t OracleHorizon(const OracleConfig& config) {
  GapRequirement gap = *GapRequirement::Create(config.min_gap, config.max_gap);
  return std::min<std::size_t>(
      5, static_cast<std::size_t>(gap.MaxGuaranteedLength(
             static_cast<std::int64_t>(config.length))));
}

/// Canonical byte representation of the pattern set with length <=
/// max_length: "shorthand=support" joined with ';', in the engines' output
/// order (length, then symbols). Equality of these strings is equality of
/// pattern sets *and* supports.
inline std::string CanonicalPatterns(const MiningResult& result,
                                     std::size_t max_length) {
  std::string canonical;
  for (const FrequentPattern& fp : result.patterns) {
    if (fp.pattern.length() > max_length) continue;
    if (!canonical.empty()) canonical += ';';
    canonical += fp.pattern.ToShorthand();
    canonical += '=';
    canonical += std::to_string(fp.support);
  }
  return canonical;
}

/// `json` with the value of every `"kernel_tier": "..."` field replaced by
/// `*`. The configured tier is the one export field that legitimately
/// differs between kernels (run_start records it verbatim); masking it lets
/// every remaining byte be compared exactly. A value with no closing quote
/// ends the scan, and the rest is copied unchanged.
inline std::string MaskKernelTier(const std::string& json) {
  static constexpr std::string_view kKey = "\"kernel_tier\": \"";
  std::string masked;
  masked.reserve(json.size());
  std::size_t copied = 0;
  for (std::size_t key = json.find(kKey); key != std::string::npos;
       key = json.find(kKey, copied)) {
    const std::size_t value = key + kKey.size();
    const std::size_t end = json.find('"', value);
    if (end == std::string::npos) break;
    masked.append(json, copied, value - copied);
    masked += '*';
    copied = end;
  }
  masked.append(json, copied, std::string::npos);
  return masked;
}

/// One-line description of a configuration for SCOPED_TRACE / fixture
/// comments.
inline std::string DescribeConfig(const OracleConfig& config) {
  return StrFormat("alphabet=%s length=%zu gap=[%lld,%lld] rho=%g em=%lld",
                   config.alphabet.c_str(), config.length,
                   static_cast<long long>(config.min_gap),
                   static_cast<long long>(config.max_gap), config.rho,
                   static_cast<long long>(config.em_order));
}

}  // namespace pgm::difftest

#endif  // PGM_TOOLS_DIFFERENTIAL_PARAMS_H_
