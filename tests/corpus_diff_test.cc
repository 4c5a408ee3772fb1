// Corpus differential suite: the corpus executor's aggregate must be
// byte-identical to a serial one-fragment-at-a-time reference loop — same
// pattern union, same per-fragment counts, same metrics and trace exports —
// across corpus_threads {1, 2, 8} x join-kernel tiers {scalar, auto}. The
// hand-rolled reference below re-implements the Section 7 aggregation
// (per-fragment mining, best per-fragment support, ties to the earliest
// fragment) independently of src/corpus, so an executor bug cannot hide by
// agreeing with itself. Mirrors tests/kernel_diff_test.cc at the corpus
// level; carries the corpus, robustness (ASan), concurrency (TSan), and
// service labels.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/kernel.h"
#include "core/miner.h"
#include "core/trace.h"
#include "corpus/executor.h"
#include "corpus/plan.h"
#include "datagen/generators.h"
#include "seq/fasta.h"
#include "util/metrics.h"
#include "util/random.h"

#include "tools/differential_params.h"

namespace pgm {
namespace {

// (alphabet, records, record length, fragment length, keep_tail, N, M, rho,
// seed) — each record cuts into several fragments, so the sweep exercises
// multi-record plans, ragged tails, and the ordinal merge order.
using CorpusDiffParam =
    std::tuple<const char*, std::size_t, std::size_t, std::size_t, bool,
               std::int64_t, std::int64_t, double, std::uint64_t>;

class CorpusDifferentialSweep : public testing::TestWithParam<CorpusDiffParam> {
};

CorpusPlan BuildPlan(const CorpusDiffParam& param) {
  // Reads only the corpus-shape fields of the tuple; the mining fields
  // belong to BaseConfig.
  const char* symbols = std::get<0>(param);
  const std::size_t records = std::get<1>(param);
  const std::size_t record_length = std::get<2>(param);
  const std::size_t fragment_length = std::get<3>(param);
  const bool keep_tail = std::get<4>(param);
  const std::uint64_t seed = std::get<8>(param);
  Alphabet alphabet = *Alphabet::Create(symbols);
  Rng rng(seed);
  std::vector<FastaRecord> fasta;
  for (std::size_t r = 0; r < records; ++r) {
    Sequence sequence = *UniformRandomSequence(record_length, alphabet, rng);
    fasta.push_back(FastaRecord{"rec" + std::to_string(r), "",
                                sequence.ToString()});
  }
  CorpusPlanOptions options;
  options.fragment.fragment_length = fragment_length;
  options.fragment.keep_tail = keep_tail;
  return *CorpusPlan::FromRecords(fasta, alphabet, options);
}

MinerConfig BaseConfig(const CorpusDiffParam& param) {
  // Reads only the mining fields of the tuple; the corpus-shape fields
  // belong to BuildPlan.
  MinerConfig config;
  config.min_gap = std::get<5>(param);
  config.max_gap = std::get<6>(param);
  config.min_support_ratio = std::get<7>(param);
  config.start_length = 1;
  config.em_order = 2;
  return config;
}

// The serial reference: mine every fragment one at a time with the scalar
// kernel and fold the union by hand. Deliberately independent of
// MineCorpus so the two aggregations can disagree.
struct ReferenceAggregate {
  std::string canonical_patterns;
  std::vector<std::uint64_t> fragment_counts;
};

ReferenceAggregate SerialReference(const CorpusPlan& plan,
                                   const MinerConfig& base) {
  struct Entry {
    FrequentPattern pattern;
    std::uint64_t fragments = 0;
  };
  std::map<std::string, Entry> fold;
  MinerConfig config = base;
  config.kernel_tier = KernelTier::kScalar;
  config.threads = 1;
  for (const CorpusFragment& fragment : plan.fragments()) {
    StatusOr<MiningResult> mined = MineMppm(fragment.sequence, config);
    EXPECT_TRUE(mined.ok()) << mined.status().message();
    if (!mined.ok()) continue;
    for (const FrequentPattern& fp : mined->patterns) {
      const std::vector<Symbol>& symbols = fp.pattern.symbols();
      Entry& entry = fold[std::string(symbols.begin(), symbols.end())];
      if (entry.fragments == 0 || fp.support > entry.pattern.support) {
        entry.pattern = fp;
      }
      ++entry.fragments;
    }
  }
  std::vector<const Entry*> entries;
  entries.reserve(fold.size());
  for (const auto& [symbols, entry] : fold) entries.push_back(&entry);
  std::sort(entries.begin(), entries.end(), [](const Entry* a, const Entry* b) {
    if (a->pattern.pattern.length() != b->pattern.pattern.length()) {
      return a->pattern.pattern.length() < b->pattern.pattern.length();
    }
    return a->pattern.pattern.symbols() < b->pattern.pattern.symbols();
  });
  ReferenceAggregate reference;
  MiningResult flat;
  for (const Entry* entry : entries) {
    flat.patterns.push_back(entry->pattern);
    reference.fragment_counts.push_back(entry->fragments);
  }
  reference.canonical_patterns =
      difftest::CanonicalPatterns(flat, /*max_length=*/1000);
  return reference;
}

struct CorpusRun {
  std::string patterns;
  std::vector<std::uint64_t> fragment_counts;
  std::string metrics_json;
  std::string trace_json;
  CorpusResult result;
};

CorpusRun RunCorpus(const CorpusPlan& plan, MinerConfig config,
                    KernelTier tier, std::int64_t corpus_threads) {
  config.kernel_tier = tier;
  MetricsRegistry metrics;
  MiningTrace trace;
  MiningObserver observer;
  observer.metrics = &metrics;
  observer.trace = &trace;
  CorpusOptions options;
  options.miner = config;
  options.corpus_threads = corpus_threads;
  options.observer = &observer;
  StatusOr<CorpusResult> result = MineCorpus(plan, options);
  EXPECT_TRUE(result.ok()) << result.status().message();
  CorpusRun run;
  if (result.ok()) {
    run.result = *std::move(result);
    run.patterns =
        difftest::CanonicalPatterns(run.result.ToMiningResult(), 1000);
    run.fragment_counts = run.result.pattern_fragment_counts;
  }
  run.metrics_json = metrics.ToJson();
  run.trace_json = difftest::MaskKernelTier(trace.ToJson());
  // Structural trace invariant at every thread count: exactly one
  // fragment_start and one fragment_end per planned fragment, emitted in
  // ordinal order, with the fragment's own run events strictly between its
  // brackets.
  const std::vector<TraceEvent> events = trace.events();
  std::int64_t open_fragment = -1;
  std::size_t starts = 0;
  std::size_t ends = 0;
  for (const TraceEvent& event : events) {
    if (event.kind == TraceEventKind::kFragmentStart) {
      EXPECT_EQ(open_fragment, -1) << "fragment_start inside an open fragment";
      EXPECT_EQ(event.fragment, static_cast<std::int64_t>(starts))
          << "fragment streams out of ordinal order";
      open_fragment = event.fragment;
      ++starts;
    } else if (event.kind == TraceEventKind::kFragmentEnd) {
      EXPECT_EQ(event.fragment, open_fragment)
          << "fragment_end does not match the open fragment";
      open_fragment = -1;
      ++ends;
    } else {
      EXPECT_NE(open_fragment, -1)
          << "run event outside any fragment bracket: "
          << TraceEventKindToString(event.kind);
    }
  }
  EXPECT_EQ(open_fragment, -1) << "unclosed fragment stream";
  EXPECT_EQ(starts, plan.fragments().size());
  EXPECT_EQ(ends, plan.fragments().size());
  return run;
}

TEST_P(CorpusDifferentialSweep, ByteIdenticalAcrossThreadsAndKernelTiers) {
  const CorpusDiffParam param = GetParam();
  const CorpusPlan plan = BuildPlan(param);
  ASSERT_GE(plan.fragments().size(), 2u)
      << "sweep configuration must cut multiple fragments";
  const MinerConfig base = BaseConfig(param);

  // Auto must actually engage the AVX2 kernel (window fits 64 bits) or the
  // tier axis of this sweep is vacuous; without AVX2 only scalar runs.
  GapRequirement gap =
      *GapRequirement::Create(base.min_gap, base.max_gap);
  const bool avx2 = Avx2Available();
  if (avx2) {
    ASSERT_EQ(ResolveKernel(KernelTier::kAuto, gap), KernelImpl::kAvx2);
  }

  const ReferenceAggregate reference = SerialReference(plan, base);
  const CorpusRun anchor = RunCorpus(plan, base, KernelTier::kScalar, 1);
  EXPECT_EQ(anchor.patterns, reference.canonical_patterns)
      << "executor aggregate drifted from the serial reference loop";
  EXPECT_EQ(anchor.fragment_counts, reference.fragment_counts);
  EXPECT_EQ(anchor.result.fragments_planned, plan.fragments().size());
  EXPECT_EQ(anchor.result.fragments_completed, plan.fragments().size());

  for (KernelTier tier : {KernelTier::kScalar, KernelTier::kAuto}) {
    if (tier == KernelTier::kAuto && !avx2) continue;
    for (std::int64_t threads :
         {std::int64_t{1}, std::int64_t{2}, std::int64_t{8}}) {
      SCOPED_TRACE(std::string(KernelTierToString(tier)) +
                   " corpus_threads=" + std::to_string(threads));
      const CorpusRun run = RunCorpus(plan, base, tier, threads);
      EXPECT_EQ(run.patterns, reference.canonical_patterns)
          << "pattern union drifted from the serial scalar reference";
      EXPECT_EQ(run.fragment_counts, reference.fragment_counts)
          << "per-pattern fragment counts drifted";
      EXPECT_EQ(run.metrics_json, anchor.metrics_json)
          << "metrics export is not byte-stable across threads/tiers";
      EXPECT_EQ(run.trace_json, anchor.trace_json)
          << "trace export is not byte-stable across threads/tiers";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeededCorpora, CorpusDifferentialSweep,
    testing::Values(
        // alphabet, records, record_len, frag_len, keep_tail, N, M, rho, seed
        CorpusDiffParam{"ACGT", 2, 90, 30, false, 1, 2, 0.02, 4001},
        CorpusDiffParam{"ACGT", 3, 80, 25, true, 0, 1, 0.05, 4002},
        CorpusDiffParam{"ACGT", 2, 100, 40, false, 2, 4, 0.01, 4003},
        CorpusDiffParam{"AB", 2, 70, 20, true, 1, 2, 0.08, 4004},
        CorpusDiffParam{"AB", 3, 60, 30, false, 0, 2, 0.1, 4005},
        CorpusDiffParam{"ABC", 2, 84, 28, false, 2, 3, 0.02, 4006},
        CorpusDiffParam{"ACGT", 1, 120, 30, false, 3, 3, 0.01, 4007},
        CorpusDiffParam{"ACGT", 2, 96, 32, true, 0, 0, 0.02, 4008},
        CorpusDiffParam{"ABCDE", 2, 72, 24, false, 1, 2, 0.01, 4009},
        CorpusDiffParam{"ACGT", 4, 50, 22, true, 1, 3, 0.04, 4010}));

}  // namespace
}  // namespace pgm
