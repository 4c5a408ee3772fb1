#include "core/miner_options.h"

#include <algorithm>
#include <iterator>

#include "core/kernel.h"
#include "util/string_util.h"

namespace pgm {

namespace {

Status ParseValue(std::string_view text, std::int64_t* value) {
  PGM_ASSIGN_OR_RETURN(*value, ParseInt64(text));
  return Status::OK();
}

// The budgets are unsigned: a negative value is an error, never a wrap.
Status ParseValue(std::string_view text, std::uint64_t* value) {
  PGM_ASSIGN_OR_RETURN(std::int64_t parsed, ParseInt64(text));
  if (parsed < 0) {
    return Status::InvalidArgument("budgets must be non-negative (0 = "
                                   "unlimited), got " + std::string(text));
  }
  *value = static_cast<std::uint64_t>(parsed);
  return Status::OK();
}

Status ParseValue(std::string_view text, bool* value) {
  if (text != "0" && text != "1") {
    return Status::InvalidArgument("expected 0 or 1, got " + std::string(text));
  }
  *value = text == "1";
  return Status::OK();
}

Status ParseValue(std::string_view text, KernelTier* value) {
  if (KernelTierFromString(std::string(text), value)) return Status::OK();
  return Status::InvalidArgument("unknown kernel '" + std::string(text) +
                                 "' (auto | scalar)");
}

template <typename Integer>
void AppendValue(Integer value, std::string* out) {
  out->append(std::to_string(value));
}
void AppendValue(bool value, std::string* out) {
  out->push_back(value ? '1' : '0');
}
void AppendValue(KernelTier value, std::string* out) {
  out->append(KernelTierToString(value));
}

// A row's field is a member-pointer path: one MinerConfig member, or
// `limits` followed by a ResourceLimits member. Integers, bools and kernel
// names read the same to users and to the cache key, so only ρs below
// renders the two OptionText forms differently.
template <auto... Path>
Status SetField(std::string_view text, MinerConfig* config) {
  return ParseValue(text, &(*config .* ... .* Path));
}
template <auto... Path>
void RenderField(const MinerConfig& config, OptionText, std::string* out) {
  AppendValue((config .* ... .* Path), out);
}

// ρs is a fraction in MinerConfig and a percentage everywhere users type it.
Status SetRhoPercent(std::string_view text, MinerConfig* config) {
  PGM_ASSIGN_OR_RETURN(double percent, ParseDouble(text));
  config->min_support_ratio = percent / 100.0;
  return Status::OK();
}
void RenderRhoPercent(const MinerConfig& config, OptionText form,
                      std::string* out) {
  // %a round-trips the exact bits; a %g key could merge distinct configs.
  out->append(form == OptionText::kExact
                  ? StrFormat("%a", config.min_support_ratio)
                  : StrFormat("%g", config.min_support_ratio * 100.0));
}

constexpr bool kInCacheKey = true;
constexpr bool kNotInCacheKey = false;

template <auto... Path>
constexpr MinerOption Row(std::string_view name, std::string_view field,
                          std::string_view help, bool cache_key) {
  return {name, field, help, &SetField<Path...>, &RenderField<Path...>,
          cache_key};
}

using Config = MinerConfig;
using Limits = ResourceLimits;

constexpr MinerOption kOptions[] = {
    Row<&Config::em_order>("m", "em_order", "MPPm e_m order", kInCacheKey),
    Row<&Config::initial_n>("", "initial_n", "adaptive: first n tried",
                            kInCacheKey),
    Row<&Config::kernel_tier>("", "kernel_tier",
                              "join kernel: auto | scalar (results are "
                              "identical under both)",
                              kNotInCacheKey),
    Row<&Config::limits, &Limits::deadline_ms>(
        "deadline-ms", "limits.deadline_ms",
        "wall-clock budget in ms; partial result on expiry (-1 = none)",
        kNotInCacheKey),
    Row<&Config::limits, &Limits::max_level_candidates>(
        "max-level-candidates", "limits.max_level_candidates",
        "cap on candidates per level (0 = unlimited)", kNotInCacheKey),
    Row<&Config::limits, &Limits::max_total_candidates>(
        "max-total-candidates", "limits.max_total_candidates",
        "cap on total candidates (0 = unlimited)", kNotInCacheKey),
    Row<&Config::limits, &Limits::pil_memory_budget_bytes>(
        "pil-budget-bytes", "limits.pil_memory_budget_bytes",
        "PIL memory budget in bytes (0 = unlimited)", kNotInCacheKey),
    Row<&Config::max_gap>("max-gap", "max_gap", "maximum gap M", kInCacheKey),
    Row<&Config::max_iterations>("", "max_iterations",
                                 "adaptive: iteration bound", kInCacheKey),
    Row<&Config::max_length>("max-length", "max_length",
                             "pattern length cap (-1 = none)", kInCacheKey),
    Row<&Config::min_gap>("min-gap", "min_gap", "minimum gap N", kInCacheKey),
    {"rho-percent", "min_support_ratio", "support threshold in percent",
     &SetRhoPercent, &RenderRhoPercent, kInCacheKey},
    Row<&Config::start_length>("start-length", "start_length",
                               "first mined pattern length", kInCacheKey),
    Row<&Config::threads>(
        "threads", "threads",
        "worker threads for level evaluation (1 = serial, 0 = one per "
        "hardware thread); results are identical at every thread count",
        kNotInCacheKey),
    Row<&Config::use_em_bound>("", "use_em_bound",
                               "MPPm: 1 = Theorem 2's bound, 0 = Theorem 1's",
                               kInCacheKey),
    Row<&Config::user_n>("n", "user_n",
                         "MPP estimate of longest pattern (-1 = worst)",
                         kInCacheKey),
};

// CanonicalConfigString emits "algorithm" and then the keyed rows in table
// order, which is the cache-key schema only while this holds.
static_assert(
    std::string_view("algorithm") < kOptions[0].field &&
        std::is_sorted(std::begin(kOptions), std::end(kOptions),
                       [](const MinerOption& a, const MinerOption& b) {
                         return a.field < b.field;
                       }),
    "kOptions must stay sorted by field, after \"algorithm\"");

}  // namespace

std::span<const MinerOption> MinerOptions() { return kOptions; }

const MinerOption* FindMinerOption(std::string_view name) {
  if (name.empty()) return nullptr;
  for (const MinerOption& option : kOptions) {
    if (option.name == name) return &option;
  }
  return nullptr;
}

}  // namespace pgm
