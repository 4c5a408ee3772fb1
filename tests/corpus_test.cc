// Corpus plan and executor properties: the fragment-boundary matrix around
// every off-by-one length (L-1, L, L+1, 2L-1, 2L, and empty), the
// loud-empty-plan contract, the Section 7 guarantee that a pattern's
// support is counted within fragments and never across a fragment boundary,
// the up-front checks (an invalid miner config, algorithm or corpus_threads
// fails before any fragment runs), and the ledger peak on every termination
// path (completed, cancelled, candidate-cap): the sum of the mined windows
// and results, the same at every thread count. Runs under the robustness
// (ASan), concurrency (TSan), and service presets.

#include "corpus/executor.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "core/miner.h"
#include "core/trace.h"
#include "corpus/plan.h"
#include "seq/fasta.h"
#include "seq/sequence.h"
#include "serve/service.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace pgm {
namespace {

Sequence PeriodicSeq(std::size_t length) {
  std::string text;
  for (std::size_t i = 0; i < length; ++i) text.push_back("ACGT"[i % 4]);
  return *Sequence::FromString(text, Alphabet::Dna());
}

CorpusPlanOptions PlanOptions(std::size_t fragment_length, bool keep_tail,
                              std::size_t max_fragments = 0) {
  CorpusPlanOptions options;
  options.fragment.fragment_length = fragment_length;
  options.fragment.keep_tail = keep_tail;
  options.max_fragments = max_fragments;
  return options;
}

MinerConfig TinyConfig(std::int64_t min_gap = 0, std::int64_t max_gap = 0,
                       double rho = 0.001) {
  MinerConfig config;
  config.min_gap = min_gap;
  config.max_gap = max_gap;
  config.min_support_ratio = rho;
  config.start_length = 1;
  config.em_order = 2;
  return config;
}

const FrequentPattern* FindPattern(const std::vector<FrequentPattern>& set,
                                   const std::string& shorthand) {
  for (const FrequentPattern& fp : set) {
    if (fp.pattern.ToShorthand() == shorthand) return &fp;
  }
  return nullptr;
}

// --- Fragment boundary matrix -------------------------------------------

struct BoundaryCase {
  std::size_t length;
  bool keep_tail;
  std::size_t fragments;
  std::size_t skipped_records;
};

TEST(CorpusPlanTest, FragmentBoundaryMatrix) {
  constexpr std::size_t kL = 8;
  const BoundaryCase cases[] = {
      // One symbol short of a window: dropped entirely, or one tail.
      {kL - 1, false, 0, 1},
      {kL - 1, true, 1, 0},
      // Exact window: identical either way.
      {kL, false, 1, 0},
      {kL, true, 1, 0},
      // One symbol past a window: the extra symbol is the tail.
      {kL + 1, false, 1, 0},
      {kL + 1, true, 2, 0},
      // One short of two windows.
      {2 * kL - 1, false, 1, 0},
      {2 * kL - 1, true, 2, 0},
      // Exactly two windows.
      {2 * kL, false, 2, 0},
      {2 * kL, true, 2, 0},
  };
  for (const BoundaryCase& c : cases) {
    SCOPED_TRACE("length=" + std::to_string(c.length) +
                 " keep_tail=" + std::to_string(c.keep_tail));
    StatusOr<CorpusPlan> plan = CorpusPlan::FromSequence(
        PeriodicSeq(c.length), "rec", PlanOptions(kL, c.keep_tail));
    ASSERT_TRUE(plan.ok()) << plan.status().message();
    EXPECT_EQ(plan->fragments().size(), c.fragments);
    EXPECT_EQ(plan->skipped_records().size(), c.skipped_records);
    EXPECT_EQ(plan->num_records(), 1u);
    // Fragments tile the record prefix: ordinal == index, start == i * L,
    // and every fragment but a kept tail is exactly L symbols.
    std::size_t covered = 0;
    for (std::size_t i = 0; i < plan->fragments().size(); ++i) {
      const CorpusFragment& fragment = plan->fragments()[i];
      EXPECT_EQ(fragment.ordinal, i);
      EXPECT_EQ(fragment.fragment_index, i);
      EXPECT_EQ(fragment.record_index, 0u);
      EXPECT_EQ(fragment.record_id, "rec");
      EXPECT_EQ(fragment.start, i * kL);
      EXPECT_LE(fragment.sequence.size(), kL);
      covered += fragment.sequence.size();
    }
    EXPECT_EQ(covered, plan->total_symbols());
    if (c.keep_tail) {
      EXPECT_EQ(covered, c.fragments > 0 ? c.length : 0u);
    } else {
      EXPECT_EQ(covered, c.fragments * kL);
    }
    if (c.skipped_records == 1) {
      EXPECT_EQ(plan->skipped_records()[0].length, c.length);
    }
  }
}

TEST(CorpusPlanTest, EmptySequenceYieldsEmptyPlanWithSkippedRecord) {
  const Sequence empty = *Sequence::FromString("", Alphabet::Dna());
  for (bool keep_tail : {false, true}) {
    SCOPED_TRACE(keep_tail ? "keep_tail" : "drop_tail");
    StatusOr<CorpusPlan> plan =
        CorpusPlan::FromSequence(empty, "void", PlanOptions(8, keep_tail));
    ASSERT_TRUE(plan.ok()) << plan.status().message();
    EXPECT_TRUE(plan->fragments().empty());
    ASSERT_EQ(plan->skipped_records().size(), 1u);
    EXPECT_EQ(plan->skipped_records()[0].record_id, "void");
    EXPECT_EQ(plan->skipped_records()[0].length, 0u);
  }
}

// The loud-diagnostic contract: an empty plan explains which records were
// too short and how to fix it, and MineCorpus refuses to run it — never a
// silent zero-pattern success.
TEST(CorpusPlanTest, EmptyPlanDiagnosticNamesRecordsAndFix) {
  const CorpusPlanOptions options = PlanOptions(100, /*keep_tail=*/false);
  CorpusPlan plan =
      *CorpusPlan::FromSequence(PeriodicSeq(12), "short_rec", options);
  ASSERT_TRUE(plan.fragments().empty());

  const std::string diagnostic = plan.EmptyPlanDiagnostic();
  EXPECT_NE(diagnostic.find("corpus plan is empty"), std::string::npos)
      << diagnostic;
  EXPECT_NE(diagnostic.find("short_rec"), std::string::npos) << diagnostic;
  EXPECT_NE(diagnostic.find("fragment_length=100"), std::string::npos)
      << diagnostic;
  EXPECT_NE(diagnostic.find("keep_tail=false"), std::string::npos)
      << diagnostic;
  EXPECT_NE(diagnostic.find("hint:"), std::string::npos) << diagnostic;

  CorpusOptions corpus_options;
  corpus_options.miner = TinyConfig();
  StatusOr<CorpusResult> result = MineCorpus(plan, corpus_options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.status().message(), diagnostic);
}

TEST(CorpusPlanTest, MultiRecordOrdinalsAndFragmentCap) {
  std::vector<FastaRecord> records = {
      {"alpha", "", "ACGTACGTAC"},  // 10 symbols -> 2 windows of 4 + tail
      {"beta", "", "ACG"},          // sub-window -> skipped
      {"gamma", "", "ACGTACGT"},    // exactly 2 windows
  };
  const CorpusPlanOptions options = PlanOptions(4, /*keep_tail=*/false);
  CorpusPlan plan =
      *CorpusPlan::FromRecords(records, Alphabet::Dna(), options);
  ASSERT_EQ(plan.fragments().size(), 4u);
  EXPECT_EQ(plan.num_records(), 3u);
  ASSERT_EQ(plan.skipped_records().size(), 1u);
  EXPECT_EQ(plan.skipped_records()[0].record_id, "beta");
  // Ordinals are corpus-wide and dense; fragment_index restarts per record.
  const char* expected_ids[] = {"alpha", "alpha", "gamma", "gamma"};
  const std::size_t expected_fragment_index[] = {0, 1, 0, 1};
  for (std::size_t i = 0; i < plan.fragments().size(); ++i) {
    EXPECT_EQ(plan.fragments()[i].ordinal, i);
    EXPECT_EQ(plan.fragments()[i].record_id, expected_ids[i]);
    EXPECT_EQ(plan.fragments()[i].fragment_index, expected_fragment_index[i]);
  }

  // The deterministic cap keeps the plan-order prefix.
  CorpusPlan capped = *CorpusPlan::FromRecords(
      records, Alphabet::Dna(), PlanOptions(4, false, /*max_fragments=*/3));
  ASSERT_EQ(capped.fragments().size(), 3u);
  EXPECT_EQ(capped.fragments()[2].record_id, "gamma");
}

// --- Section 7 boundary semantics ---------------------------------------

// A planted run of G's straddling the fragment boundary must NOT produce a
// cross-fragment pattern: mining the unfragmented sequence finds "GGG"
// (the run GGGG spans positions 18..21), but the corpus union — fragment 0
// sees G's at 18,19 and fragment 1 at 20,21 — reports only "GG", because
// §7 support is counted within fragments, never across a boundary.
TEST(CorpusExecutorTest, PlantedPatternSupportNeverCrossesFragmentBoundary) {
  std::string text;
  for (std::size_t i = 0; i < 40; ++i) text.push_back(i % 2 == 0 ? 'A' : 'T');
  // Two G-pairs per fragment so "GG" is solidly frequent per fragment; the
  // pair at 18,19 + the pair at 20,21 form the boundary-straddling GGGG.
  for (std::size_t i : {5u, 6u, 18u, 19u, 20u, 21u, 33u, 34u}) text[i] = 'G';
  const Sequence whole = *Sequence::FromString(text, Alphabet::Dna());

  const MinerConfig config = TinyConfig(/*min_gap=*/0, /*max_gap=*/0);
  MiningResult unfragmented = *MineMppm(whole, config);
  ASSERT_NE(FindPattern(unfragmented.patterns, "GGG"), nullptr)
      << "straddling run not frequent in the unfragmented sequence; the "
         "boundary test would be vacuous";

  CorpusPlan plan = *CorpusPlan::FromSequence(
      whole, "straddle", PlanOptions(20, /*keep_tail=*/false));
  ASSERT_EQ(plan.fragments().size(), 2u);
  CorpusOptions options;
  options.miner = config;
  CorpusResult corpus = *MineCorpus(plan, options);
  ASSERT_EQ(corpus.fragments_completed, 2u);

  EXPECT_EQ(FindPattern(corpus.patterns, "GGG"), nullptr)
      << "corpus union contains a pattern only supported across the "
         "fragment boundary";
  EXPECT_EQ(FindPattern(corpus.patterns, "GGGG"), nullptr);
  const FrequentPattern* gg = FindPattern(corpus.patterns, "GG");
  ASSERT_NE(gg, nullptr);
  // Both fragments report "GG"; the union keeps the best per-fragment
  // support (2 occurrences in each fragment, never the whole-sequence 4).
  for (std::size_t i = 0; i < corpus.patterns.size(); ++i) {
    if (&corpus.patterns[i] == gg) {
      EXPECT_EQ(corpus.pattern_fragment_counts[i], 2u);
    }
  }
  EXPECT_EQ(gg->support, 2u);
  const FrequentPattern* whole_gg = FindPattern(unfragmented.patterns, "GG");
  ASSERT_NE(whole_gg, nullptr);
  EXPECT_GT(whole_gg->support, gg->support)
      << "whole-sequence support should exceed the per-fragment best";
}

// --- Ledger peak and up-front checks on every termination path ----------

TEST(CorpusExecutorTest, LedgerDrainsAfterCompletedRun) {
  CorpusPlan plan = *CorpusPlan::FromSequence(PeriodicSeq(64), "rec",
                                              PlanOptions(16, false));
  ASSERT_EQ(plan.fragments().size(), 4u);
  CorpusOptions options;
  options.miner = TinyConfig(1, 2, 0.02);
  options.corpus_threads = 2;
  CorpusResult corpus = *MineCorpus(plan, options);
  EXPECT_EQ(corpus.termination, TerminationReason::kCompleted);
  EXPECT_TRUE(corpus.complete());
  EXPECT_EQ(corpus.fragments_completed, 4u);
  EXPECT_GT(corpus.ledger_peak_bytes, 0u);
  EXPECT_GT(corpus.guaranteed_complete_up_to, 0);
}

TEST(CorpusExecutorTest, LedgerDrainsWhenCancelledBeforeStart) {
  CorpusPlan plan = *CorpusPlan::FromSequence(PeriodicSeq(64), "rec",
                                              PlanOptions(16, false));
  CancelToken cancel;
  cancel.RequestCancel();
  CorpusOptions options;
  options.miner = TinyConfig(1, 2, 0.02);
  options.cancel = &cancel;
  CorpusResult corpus = *MineCorpus(plan, options);
  EXPECT_EQ(corpus.termination, TerminationReason::kCancelled);
  EXPECT_EQ(corpus.fragments_skipped, 4u);
  EXPECT_EQ(corpus.fragments_mined, 0u);
  EXPECT_TRUE(corpus.patterns.empty());
  // Nothing was picked up, so nothing was ever charged.
  EXPECT_EQ(corpus.ledger_peak_bytes, 0u);
  EXPECT_EQ(corpus.guaranteed_complete_up_to, 0);
}

TEST(CorpusExecutorTest, LedgerDrainsWhenCorpusCandidateCapTrips) {
  CorpusPlan plan = *CorpusPlan::FromSequence(PeriodicSeq(64), "rec",
                                              PlanOptions(16, false));
  CorpusOptions options;
  options.miner = TinyConfig(1, 2, 0.02);
  // Serial so the trip point is deterministic: fragment 0 mines, its
  // candidate total latches the corpus cap, fragments 1..3 are skipped.
  options.corpus_threads = 1;
  options.miner.limits.max_total_candidates = 1;
  CorpusResult corpus = *MineCorpus(plan, options);
  EXPECT_EQ(corpus.termination, TerminationReason::kCandidateCap);
  EXPECT_EQ(corpus.fragments_mined, 1u);
  EXPECT_EQ(corpus.fragments_skipped, 3u);
  // Partial-but-sound: the mined fragment's patterns survive the trip.
  EXPECT_FALSE(corpus.patterns.empty());
  EXPECT_GT(corpus.ledger_peak_bytes, 0u);
  EXPECT_EQ(corpus.guaranteed_complete_up_to, 0);
}

// A config every fragment's run would reject fails the corpus before any
// fragment runs, with that run's reason: no fragment starts, so the
// observer records nothing.
TEST(CorpusExecutorTest, InvalidMinerConfigFailsBeforeAnyFragment) {
  CorpusPlan plan = *CorpusPlan::FromSequence(PeriodicSeq(64), "rec",
                                              PlanOptions(16, false));
  MiningTrace trace;
  MiningObserver observer;
  observer.trace = &trace;
  CorpusOptions options;
  options.miner = TinyConfig(/*min_gap=*/5, /*max_gap=*/2);  // rejected
  options.corpus_threads = 2;
  options.observer = &observer;
  StatusOr<CorpusResult> result = MineCorpus(plan, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find(
                "maximum gap 2 is smaller than minimum gap 5"),
            std::string::npos)
      << result.status().message();
  EXPECT_TRUE(trace.events().empty());

  // MPPm's order m is part of the config every run checks.
  options.miner = TinyConfig(1, 2, 0.02);
  options.miner.em_order = 0;
  result = MineCorpus(plan, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(trace.events().empty());
}

TEST(CorpusExecutorTest, UnknownAlgorithmFailsWithoutCharging) {
  CorpusPlan plan = *CorpusPlan::FromSequence(PeriodicSeq(32), "rec",
                                              PlanOptions(16, false));
  CorpusOptions options;
  options.algorithm = "nonesuch";
  StatusOr<CorpusResult> result = MineCorpus(plan, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(CorpusExecutorTest, CorpusThreadsAboveTheCeilingFailWithoutCharging) {
  CorpusPlan plan = *CorpusPlan::FromSequence(PeriodicSeq(32), "rec",
                                              PlanOptions(16, false));
  CorpusOptions options;
  options.miner = TinyConfig(1, 2, 0.02);
  options.corpus_threads = ThreadPool::kMaxThreads + 1;
  StatusOr<CorpusResult> result = MineCorpus(plan, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find(
                std::to_string(options.corpus_threads)),
            std::string::npos)
      << result.status().message();

  // The ceiling itself is a legal request.
  options.corpus_threads = ThreadPool::kMaxThreads;
  result = MineCorpus(plan, options);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_TRUE(result->complete());
}

// The fold frees nothing until every fragment is mined, so the ledger peak
// is a sum: every mined window plus every fragment result that came back
// OK. That makes it the same at every thread count.
TEST(CorpusExecutorTest, LedgerPeakIsTheSumOfMinedWindowsAndResults) {
  CorpusPlan plan = *CorpusPlan::FromSequence(PeriodicSeq(64), "rec",
                                              PlanOptions(16, false));
  auto fold_sum = [](const CorpusResult& corpus) {
    std::uint64_t bytes = 0;
    for (const FragmentResult& fragment : corpus.fragments) {
      if (!fragment.mined) continue;
      bytes += sizeof(Sequence) + fragment.length * sizeof(Symbol);
      if (fragment.status.ok()) bytes += ApproxResultBytes(fragment.result);
    }
    return bytes;
  };
  CorpusOptions options;
  options.miner = TinyConfig(1, 2, 0.02);
  std::uint64_t serial_peak = 0;
  for (std::int64_t threads : {1, 2, 8}) {
    SCOPED_TRACE("corpus_threads=" + std::to_string(threads));
    options.corpus_threads = threads;
    const CorpusResult corpus = *MineCorpus(plan, options);
    ASSERT_EQ(corpus.fragments_mined, 4u);
    EXPECT_EQ(corpus.ledger_peak_bytes, fold_sum(corpus));
    if (threads == 1) serial_peak = corpus.ledger_peak_bytes;
    EXPECT_EQ(corpus.ledger_peak_bytes, serial_peak);
  }

  // A tripped run sums only what it mined.
  options.corpus_threads = 1;
  options.miner.limits.max_total_candidates = 1;
  const CorpusResult capped = *MineCorpus(plan, options);
  ASSERT_EQ(capped.fragments_mined, 1u);
  EXPECT_EQ(capped.ledger_peak_bytes, fold_sum(capped));
  EXPECT_LT(capped.ledger_peak_bytes, serial_peak);
}

TEST(CorpusExecutorTest, ToMiningResultCarriesTheAggregate) {
  CorpusPlan plan = *CorpusPlan::FromSequence(PeriodicSeq(64), "rec",
                                              PlanOptions(16, false));
  CorpusOptions options;
  options.miner = TinyConfig(1, 2, 0.02);
  CorpusResult corpus = *MineCorpus(plan, options);
  const MiningResult flat = corpus.ToMiningResult();
  ASSERT_EQ(flat.patterns.size(), corpus.patterns.size());
  for (std::size_t i = 0; i < flat.patterns.size(); ++i) {
    EXPECT_EQ(flat.patterns[i].pattern, corpus.patterns[i].pattern);
    EXPECT_EQ(flat.patterns[i].support, corpus.patterns[i].support);
  }
  EXPECT_EQ(flat.termination, corpus.termination);
  EXPECT_EQ(flat.total_candidates, corpus.total_candidates);
  EXPECT_EQ(flat.longest_frequent_length, corpus.longest_frequent_length);
  EXPECT_EQ(flat.guaranteed_complete_up_to, corpus.guaranteed_complete_up_to);
}

// `miner.limits` is the corpus's one budget set: the PIL budget applies to
// each fragment, the candidate caps to the corpus.
TEST(CorpusExecutorTest, MinerLimitsBudgetFragmentsAndCorpus) {
  CorpusPlan plan = *CorpusPlan::FromSequence(PeriodicSeq(64), "rec",
                                              PlanOptions(16, false));
  CorpusOptions options;
  options.miner = TinyConfig(1, 2, 0.02);
  // Serial so the cap's trip point is deterministic.
  options.corpus_threads = 1;

  // A PIL budget of 1 trips inside every fragment, and skips none.
  options.miner.limits.pil_memory_budget_bytes = 1;
  CorpusResult corpus = *MineCorpus(plan, options);
  EXPECT_EQ(corpus.termination, TerminationReason::kMemoryBudget);
  EXPECT_EQ(corpus.fragments_mined, 4u);
  EXPECT_EQ(corpus.fragments_completed, 0u);
  EXPECT_EQ(corpus.fragments_skipped, 0u);
  for (const FragmentResult& fragment : corpus.fragments) {
    EXPECT_EQ(fragment.result.termination, TerminationReason::kMemoryBudget);
  }

  // A cap of 5 candidates per fragment is charged when each fragment ends:
  // the first fragment runs uncapped and latches it, and every later
  // fragment is skipped.
  options.miner.limits = ResourceLimits{};
  options.miner.limits.max_level_candidates = 5;
  corpus = *MineCorpus(plan, options);
  EXPECT_EQ(corpus.termination, TerminationReason::kCandidateCap);
  EXPECT_EQ(corpus.fragments_mined, 1u);
  EXPECT_EQ(corpus.fragments_completed, 1u);
  EXPECT_EQ(corpus.fragments_skipped, 3u);
  EXPECT_GT(corpus.fragments[0].result.total_candidates, 5u);
}

// --- Serve-layer corpus jobs --------------------------------------------

ServiceConfig CorpusServiceConfig() {
  ServiceConfig config;
  config.loader = [](const std::string& input) -> StatusOr<Sequence> {
    return Sequence::FromString(input, Alphabet::Dna());
  };
  config.corpus_loader =
      [](const std::string& input,
         const CorpusPlanOptions& options) -> StatusOr<CorpusPlan> {
    PGM_ASSIGN_OR_RETURN(Sequence sequence,
                         Sequence::FromString(input, Alphabet::Dna()));
    return CorpusPlan::FromSequence(sequence, "inline", options);
  };
  return config;
}

TEST(CorpusServeTest, CorpusJobMatchesDirectExecutor) {
  const std::string residues = PeriodicSeq(64).ToString();
  MiningJob job;
  job.input = residues;
  job.algorithm = "mppm";
  job.config = TinyConfig(1, 2, 0.02);
  job.corpus_fragment_length = 16;

  MiningService service(CorpusServiceConfig());
  ASSERT_TRUE(service.Submit(job).ok());
  service.Start();
  std::vector<JobResponse> responses = service.Join();
  ASSERT_EQ(responses.size(), 1u);
  const JobResponse& response = responses[0];
  ASSERT_TRUE(response.status.ok()) << response.status.message();
  EXPECT_EQ(response.corpus_fragments, 4u);
  EXPECT_FALSE(response.cache_hit);

  // The service answer must match the executor run directly.
  CorpusPlan plan = *CorpusPlan::FromSequence(PeriodicSeq(64), "inline",
                                              PlanOptions(16, false));
  CorpusOptions options;
  options.algorithm = "mppm";
  options.miner = TinyConfig(1, 2, 0.02);
  const MiningResult expected = MineCorpus(plan, options)->ToMiningResult();
  ASSERT_EQ(response.result.patterns.size(), expected.patterns.size());
  for (std::size_t i = 0; i < expected.patterns.size(); ++i) {
    EXPECT_EQ(response.result.patterns[i].pattern,
              expected.patterns[i].pattern);
    EXPECT_EQ(response.result.patterns[i].support,
              expected.patterns[i].support);
  }
  EXPECT_EQ(response.result.termination, expected.termination);
}

TEST(CorpusServeTest, CorpusJobWithoutLoaderIsFailedPrecondition) {
  ServiceConfig config;
  config.loader = [](const std::string& input) -> StatusOr<Sequence> {
    return Sequence::FromString(input, Alphabet::Dna());
  };
  MiningJob job;
  job.input = "ACGTACGTACGTACGT";
  job.corpus_fragment_length = 4;
  MiningService service(std::move(config));
  ASSERT_TRUE(service.Submit(job).ok());
  service.Start();
  std::vector<JobResponse> responses = service.Join();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status.code(), StatusCode::kFailedPrecondition);
}

TEST(CorpusServeTest, EmptyCorpusPlanFailsLoudlyThroughService) {
  MiningJob job;
  job.input = "ACGT";  // 4 symbols, sub-window for fragment_length 100
  job.corpus_fragment_length = 100;
  MiningService service(CorpusServiceConfig());
  ASSERT_TRUE(service.Submit(job).ok());
  service.Start();
  std::vector<JobResponse> responses = service.Join();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(responses[0].status.message().find("corpus plan is empty"),
            std::string::npos)
      << responses[0].status.message();
}

}  // namespace
}  // namespace pgm
