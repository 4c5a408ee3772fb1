#include "analysis/compare.h"

#include <set>
#include <string>
#include <utility>

namespace pgm {

namespace {

std::set<std::string> Keys(const std::vector<FrequentPattern>& patterns) {
  std::set<std::string> keys;
  for (const FrequentPattern& fp : patterns) {
    keys.insert(
        std::string(fp.pattern.symbols().begin(), fp.pattern.symbols().end()));
  }
  return keys;
}

}  // namespace

StatusOr<std::vector<SetComparison>> ComparePatternSets(
    const std::vector<NamedPatternSet>& sets) {
  if (sets.size() < 2) {
    return Status::InvalidArgument(
        "pattern-set comparison needs at least two sets");
  }
  std::vector<std::set<std::string>> keys;
  keys.reserve(sets.size());
  for (const NamedPatternSet& set : sets) keys.push_back(Keys(set.patterns));

  std::vector<SetComparison> comparisons;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    SetComparison comparison;
    comparison.name = sets[i].name;
    comparison.total = keys[i].size();
    // Deduplicate by iterating the key set, not the (possibly duplicated)
    // pattern list; recover a Pattern from each contributing entry.
    std::set<std::string> seen;
    for (const FrequentPattern& fp : sets[i].patterns) {
      const std::string key(fp.pattern.symbols().begin(),
                            fp.pattern.symbols().end());
      if (!seen.insert(key).second) continue;
      bool in_all = true;
      bool in_any_other = false;
      for (std::size_t j = 0; j < sets.size(); ++j) {
        if (j == i) continue;
        const bool present = keys[j].count(key) > 0;
        in_all = in_all && present;
        in_any_other = in_any_other || present;
      }
      if (in_all) comparison.common.push_back(fp.pattern);
      if (!in_any_other) comparison.unique.push_back(fp.pattern);
    }
    comparisons.push_back(std::move(comparison));
  }
  return comparisons;
}

double PatternSetJaccard(const std::vector<FrequentPattern>& a,
                         const std::vector<FrequentPattern>& b) {
  const std::set<std::string> keys_a = Keys(a);
  const std::set<std::string> keys_b = Keys(b);
  if (keys_a.empty() && keys_b.empty()) return 1.0;
  std::size_t intersection = 0;
  for (const std::string& key : keys_a) {
    if (keys_b.count(key) > 0) ++intersection;
  }
  const std::size_t union_size = keys_a.size() + keys_b.size() - intersection;
  return static_cast<double>(intersection) / static_cast<double>(union_size);
}

}  // namespace pgm
