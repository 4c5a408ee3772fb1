#ifndef PGM_ANALYSIS_CASE_STUDY_H_
#define PGM_ANALYSIS_CASE_STUDY_H_

#include <cstdint>
#include <vector>

#include "analysis/composition.h"
#include "core/miner.h"
#include "seq/sequence.h"
#include "util/status.h"

namespace pgm {

/// Configuration of a Section 7 style case study: fragment a genome, mine
/// each fragment with MPPm, and aggregate composition statistics of the
/// frequent patterns.
struct CaseStudyConfig {
  /// Mining parameters per fragment (paper: gap [10,12], ρs = 0.006%).
  MinerConfig miner;
  /// Fragment size (paper: 100 kb).
  std::size_t fragment_length = 100'000;
  /// Pattern length whose composition buckets are reported (paper: 8).
  std::int64_t report_length = 8;
  /// Optional cap on the number of fragments mined (0 = all).
  std::size_t max_fragments = 0;
};

/// Per-fragment findings.
struct FragmentReport {
  std::size_t index = 0;
  /// Composition buckets of the frequent report_length patterns.
  LengthClassCounts buckets;
  /// Length of the longest frequent pattern in the fragment.
  std::int64_t longest = 0;
  /// Total number of frequent patterns.
  std::uint64_t num_frequent = 0;
  /// Length of the longest frequent all-G pattern (0 when none).
  std::int64_t longest_poly_g = 0;
  /// Frequent patterns (length >= 4) that repeat a shorter unit, e.g.
  /// ATATATATATA or GTAGTAGTAGT.
  std::uint64_t num_self_repeating = 0;
};

/// Aggregated Section 7 report.
struct CaseStudyReport {
  std::vector<FragmentReport> fragments;
  /// Union of frequent patterns across fragments: MineCorpus's Section 7
  /// union (CorpusResult::patterns), each pattern once with its best
  /// per-fragment support, in (length, symbols) order. Feeds cross-species
  /// comparison (analysis/compare.h).
  std::vector<FrequentPattern> frequent_union;
  /// Mean bucket sizes across fragments at report_length.
  double avg_at_only = 0.0;
  double avg_single_cg = 0.0;
  double avg_multi_cg = 0.0;
  /// Fragments in which *all* 2^report_length AT-only patterns are frequent.
  std::size_t fragments_with_all_at = 0;
  /// Fragments with at least one frequent poly-G pattern of report_length.
  std::size_t fragments_with_poly_g = 0;
  std::int64_t longest_poly_g_overall = 0;
  std::int64_t longest_overall = 0;
};

/// Fragments `genome`, mines every fragment with MPPm under
/// `config.miner`, and aggregates. Fragments shorter than fragment_length
/// (the tail) are skipped, mirroring the paper; a genome shorter than one
/// fragment is MineCorpus's empty-plan InvalidArgument.
StatusOr<CaseStudyReport> RunCaseStudy(const Sequence& genome,
                                       const CaseStudyConfig& config);

}  // namespace pgm

#endif  // PGM_ANALYSIS_CASE_STUDY_H_
