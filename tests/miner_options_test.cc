// The option table is the one declaration of every MinerConfig field's
// user name, parser, renderer and cache-key membership. These tests pin the
// table to the struct, so a field added without a row (which would let
// configs that differ in it share a result-cache entry) fails the build.

#include "core/miner_options.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "core/kernel.h"

namespace pgm {
namespace {

// Every MinerConfig member, with the ResourceLimits members flattened in.
// The structured bindings stop compiling when either struct gains or loses
// a member: give the new field a MinerOptions() row (or, for run plumbing,
// an entry in kInternalMinerFields), then list it here and in kMemberNames.
auto Members(MinerConfig& config) {
  auto& [min_gap, max_gap, min_support_ratio, start_length, max_length,
         user_n, em_order, use_em_bound, initial_n, max_iterations, threads,
         kernel_tier, limits, cancel, observer] = config;
  auto& [deadline_ms, pil_memory_budget_bytes, max_level_candidates,
         max_total_candidates] = limits;
  return std::tie(min_gap, max_gap, min_support_ratio, start_length,
                  max_length, user_n, em_order, use_em_bound, initial_n,
                  max_iterations, threads, kernel_tier, deadline_ms,
                  pil_memory_budget_bytes, max_level_candidates,
                  max_total_candidates, cancel, observer);
}

constexpr std::array<std::string_view, 18> kMemberNames = {
    "min_gap",
    "max_gap",
    "min_support_ratio",
    "start_length",
    "max_length",
    "user_n",
    "em_order",
    "use_em_bound",
    "initial_n",
    "max_iterations",
    "threads",
    "kernel_tier",
    "limits.deadline_ms",
    "limits.pil_memory_budget_bytes",
    "limits.max_level_candidates",
    "limits.max_total_candidates",
    "cancel",
    "observer",
};
using MemberTuple = decltype(Members(std::declval<MinerConfig&>()));
static_assert(kMemberNames.size() == std::tuple_size_v<MemberTuple>);

void Perturb(std::int64_t& value) { value += 7; }
void Perturb(std::uint64_t& value) { value += 7; }
void Perturb(double& value) { value += 0.125; }
void Perturb(bool& value) { value = !value; }
void Perturb(KernelTier& value) {
  value = value == KernelTier::kScalar ? KernelTier::kAuto
                                       : KernelTier::kScalar;
}
void Perturb(const CancelToken*& value) {
  static const CancelToken token;
  value = &token;
}
void Perturb(const MiningObserver*& value) {
  static const MiningObserver observer;
  value = &observer;
}

std::string Render(const MinerOption& option, const MinerConfig& config,
                   OptionText form = OptionText::kExact) {
  std::string out;
  option.render(config, form, &out);
  return out;
}

// The fields of the rows whose rendering moves when member I moves.
template <std::size_t I>
std::vector<std::string_view> RowsMovedByMember() {
  const MinerConfig base;
  MinerConfig config;
  Perturb(std::get<I>(Members(config)));
  std::vector<std::string_view> moved;
  for (const MinerOption& option : MinerOptions()) {
    if (Render(option, config) != Render(option, base)) {
      moved.push_back(option.field);
    }
  }
  return moved;
}

template <std::size_t... I>
void ExpectEveryMemberClaimedOnce(std::index_sequence<I...>) {
  const auto check = [](std::string_view member,
                        const std::vector<std::string_view>& moved) {
    const bool internal =
        std::find(kInternalMinerFields.begin(), kInternalMinerFields.end(),
                  member) != kInternalMinerFields.end();
    if (internal) {
      EXPECT_TRUE(moved.empty())
          << member << " is internal; no row may render it";
    } else {
      EXPECT_EQ(moved, std::vector<std::string_view>{member})
          << member << " must be claimed by exactly the row with its name";
    }
  };
  (check(kMemberNames[I], RowsMovedByMember<I>()), ...);
}

TEST(MinerOptionsTest, EveryMemberIsClaimedByExactlyOneRowOrIsInternal) {
  ExpectEveryMemberClaimedOnce(
      std::make_index_sequence<kMemberNames.size()>{});
  // Each non-internal member moves exactly its own row, so equal counts
  // leave no row without a member.
  EXPECT_EQ(MinerOptions().size(),
            kMemberNames.size() - kInternalMinerFields.size());
}

TEST(MinerOptionsTest, SetRejectsValuesTheFieldCannotHold) {
  MinerConfig config;
  for (const MinerOption& option : MinerOptions()) {
    EXPECT_FALSE(option.set("x", &config).ok()) << option.field;
  }
  const MinerOption* budget = FindMinerOption("pil-budget-bytes");
  ASSERT_NE(budget, nullptr);
  const Status negative = budget->set("-1", &config);
  EXPECT_FALSE(negative.ok());
  EXPECT_NE(negative.message().find("non-negative"), std::string::npos);
}

TEST(MinerOptionsTest, RhoPercentIsAPercentOfTheStoredRatio) {
  const MinerOption* rho = FindMinerOption("rho-percent");
  ASSERT_NE(rho, nullptr);
  MinerConfig config;
  ASSERT_TRUE(rho->set("0.5", &config).ok());
  EXPECT_DOUBLE_EQ(config.min_support_ratio, 0.005);
  EXPECT_EQ(Render(*rho, config, OptionText::kUser), "0.5");
  EXPECT_EQ(Render(*rho, config), "0x1.47ae147ae147bp-8");
}

TEST(MinerOptionsTest, FindsUserNamesOnly) {
  ASSERT_NE(FindMinerOption("max-gap"), nullptr);
  EXPECT_EQ(FindMinerOption("max-gap")->field, "max_gap");
  EXPECT_EQ(FindMinerOption("max_gap"), nullptr);
  EXPECT_EQ(FindMinerOption(""), nullptr);  // API-only rows have no name
  EXPECT_EQ(FindMinerOption("algorithm"), nullptr);
}

}  // namespace
}  // namespace pgm
