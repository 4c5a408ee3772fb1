#include "core/candidate_index.h"

#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/parallel.h"

namespace pgm {
namespace internal {

namespace {

constexpr std::uint32_t kNoKey = ~std::uint32_t{0};

/// A stable counting sort of indices by key: `indices` holds every i with
/// key[i] != kNoKey, ordered by key and ascending within one key, and key
/// k's run is indices[begin[k], begin[k + 1]).
struct KeyRuns {
  std::vector<std::uint32_t> indices;
  std::vector<std::uint32_t> begin;
};

KeyRuns SortIndicesByKey(const std::vector<std::uint32_t>& key,
                         std::size_t num_keys) {
  KeyRuns runs;
  runs.begin.assign(num_keys + 1, 0);
  for (std::uint32_t k : key) {
    if (k != kNoKey) ++runs.begin[k + 1];
  }
  for (std::size_t k = 1; k <= num_keys; ++k) {
    runs.begin[k] += runs.begin[k - 1];
  }
  std::vector<std::uint32_t> next(runs.begin.begin(), runs.begin.end() - 1);
  runs.indices.resize(runs.begin.back());
  for (std::uint32_t i = 0; i < key.size(); ++i) {
    if (key[i] != kNoKey) runs.indices[next[key[i]]++] = i;
  }
  return runs;
}

}  // namespace

JoinPlan JoinPlan::SelfJoin(const std::vector<ArenaEntry>& level,
                            ParallelLevelExecutor* executor) {
  JoinPlan plan;
  if (level.empty()) return plan;
  const std::size_t len = level.front().symbols.size();

  // Number the level entries' (len-1)-prefixes in first-appearance order.
  // Keys are views into the entries' stable symbol storage, so neither the
  // numbering nor the probes allocate a key string. Each group becomes one
  // contiguous slice of the rights pool (its entries in level order),
  // shared by every left whose suffix matches it.
  std::unordered_map<std::string_view, std::uint32_t> group_of_prefix;
  group_of_prefix.reserve(level.size());
  std::vector<std::uint32_t> group(level.size());
  for (std::uint32_t i = 0; i < level.size(); ++i) {
    const std::string_view prefix =
        std::string_view(level[i].symbols).substr(0, len - 1);
    group[i] = group_of_prefix
                   .emplace(prefix,
                            static_cast<std::uint32_t>(group_of_prefix.size()))
                   .first->second;
  }
  const std::size_t num_groups = group_of_prefix.size();
  KeyRuns rights = SortIndicesByKey(group, num_groups);
  plan.rights_pool_ = std::move(rights.indices);
  const std::vector<std::uint32_t>& group_begin = rights.begin;

  // The group each left's suffix matches. The probes are read-only lookups
  // in the (now frozen) prefix map writing one slot per left, so they
  // parallelize.
  std::vector<std::uint32_t> match(level.size(), kNoKey);
  auto probe = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const std::string_view suffix_key =
          std::string_view(level[i].symbols).substr(1);
      auto it = group_of_prefix.find(suffix_key);
      if (it != group_of_prefix.end()) match[i] = it->second;
    }
  };
  if (executor != nullptr) {
    executor->ParallelFor(level.size(), 1024, probe);
  } else {
    probe(0, level.size());
  }

  // One task per (left, matched group), group-major: sorting the lefts by
  // their matched group, serially, fixes the merge order.
  const KeyRuns lefts = SortIndicesByKey(match, num_groups);
  plan.tasks_.reserve(lefts.indices.size());
  for (std::uint32_t left : lefts.indices) {
    const std::uint32_t g = match[left];
    plan.tasks_.push_back(JoinTask{left, group_begin[g], group_begin[g + 1]});
    plan.num_candidates_ += group_begin[g + 1] - group_begin[g];
  }
  return plan;
}

JoinPlan JoinPlan::CrossProduct(std::uint32_t num_left,
                                std::uint32_t num_right) {
  JoinPlan plan;
  if (num_left == 0 || num_right == 0) return plan;
  plan.rights_pool_.reserve(num_right);
  for (std::uint32_t j = 0; j < num_right; ++j) plan.rights_pool_.push_back(j);
  plan.tasks_.reserve(num_left);
  for (std::uint32_t i = 0; i < num_left; ++i) {
    plan.tasks_.push_back(JoinTask{i, 0, num_right});
  }
  plan.num_candidates_ =
      static_cast<std::uint64_t>(num_left) * num_right;
  return plan;
}

}  // namespace internal
}  // namespace pgm
