#ifndef PGM_ANALYSIS_COMPARE_H_
#define PGM_ANALYSIS_COMPARE_H_

#include <string>
#include <vector>

#include "core/miner.h"

namespace pgm {

/// Cross-sequence comparison of frequent-pattern sets — the tool behind
/// the paper's closing Section 7 observation that "there are unique
/// periodic patterns for each species".

/// One named frequent-pattern set (e.g. the mining result of one genome).
struct NamedPatternSet {
  std::string name;
  std::vector<FrequentPattern> patterns;
};

/// Comparison outcome for one set against the others.
struct SetComparison {
  std::string name;
  /// Patterns frequent in this set and in every other set.
  std::vector<Pattern> common;
  /// Patterns frequent in this set only.
  std::vector<Pattern> unique;
  std::size_t total = 0;
};

/// Compares two or more frequent-pattern sets: for each set, which of its
/// patterns are common to all sets and which are unique to it. Patterns
/// are identified by their character content (supports may differ).
/// Fails when fewer than two sets are given.
StatusOr<std::vector<SetComparison>> ComparePatternSets(
    const std::vector<NamedPatternSet>& sets);

/// Jaccard similarity |A ∩ B| / |A ∪ B| of two frequent-pattern sets
/// (1.0 for two empty sets).
double PatternSetJaccard(const std::vector<FrequentPattern>& a,
                         const std::vector<FrequentPattern>& b);

}  // namespace pgm

#endif  // PGM_ANALYSIS_COMPARE_H_
