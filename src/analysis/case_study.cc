#include "analysis/case_study.h"

#include <algorithm>
#include <utility>

#include "corpus/executor.h"

namespace pgm {

StatusOr<CaseStudyReport> RunCaseStudy(const Sequence& genome,
                                       const CaseStudyConfig& config) {
  if (config.report_length < 1) {
    return Status::InvalidArgument("report_length must be >= 1");
  }
  CorpusPlanOptions plan_options;
  plan_options.fragment.fragment_length = config.fragment_length;
  plan_options.fragment.keep_tail = false;
  plan_options.max_fragments = config.max_fragments;
  PGM_ASSIGN_OR_RETURN(
      CorpusPlan plan,
      CorpusPlan::FromSequence(genome, "genome", plan_options));

  // The corpus executor mines the fragments (serially here — the case
  // study is itself run per species inside benchmarks), refuses a genome
  // shorter than one fragment with the plan's diagnostic, and hands back
  // per-fragment results in ordinal order plus the Section 7 union.
  CorpusOptions options;
  options.algorithm = "mppm";
  options.miner = config.miner;
  PGM_ASSIGN_OR_RETURN(CorpusResult corpus, MineCorpus(plan, options));

  // Number of AT-only patterns of the report length: 2^report_length.
  std::uint64_t all_at_count = 1;
  for (std::int64_t i = 0; i < config.report_length; ++i) all_at_count *= 2;

  CaseStudyReport report;
  for (const FragmentResult& fragment_result : corpus.fragments) {
    if (fragment_result.mined && !fragment_result.status.ok()) {
      return fragment_result.status;
    }
    const MiningResult& mined = fragment_result.result;
    FragmentReport fragment;
    fragment.index = fragment_result.ordinal;
    PGM_ASSIGN_OR_RETURN(fragment.buckets,
                         BucketFrequentPatterns(mined, config.report_length));
    fragment.longest = mined.longest_frequent_length;
    fragment.num_frequent = mined.patterns.size();
    for (const FrequentPattern& fp : mined.patterns) {
      const std::int64_t length =
          static_cast<std::int64_t>(fp.pattern.length());
      if (IsHomopolymer(fp.pattern, 'G')) {
        fragment.longest_poly_g = std::max(fragment.longest_poly_g, length);
      }
      if (length >= 4 && IsSelfRepeating(fp.pattern)) {
        ++fragment.num_self_repeating;
      }
    }

    report.avg_at_only += static_cast<double>(fragment.buckets.at_only);
    report.avg_single_cg += static_cast<double>(fragment.buckets.single_cg);
    report.avg_multi_cg += static_cast<double>(fragment.buckets.multi_cg);
    if (fragment.buckets.at_only == all_at_count) {
      ++report.fragments_with_all_at;
    }
    if (fragment.longest_poly_g >= config.report_length) {
      ++report.fragments_with_poly_g;
    }
    report.longest_poly_g_overall =
        std::max(report.longest_poly_g_overall, fragment.longest_poly_g);
    report.longest_overall = std::max(report.longest_overall, fragment.longest);
    report.fragments.push_back(fragment);
  }
  report.frequent_union = std::move(corpus.patterns);
  const double n = static_cast<double>(report.fragments.size());
  report.avg_at_only /= n;
  report.avg_single_cg /= n;
  report.avg_multi_cg /= n;
  return report;
}

}  // namespace pgm
