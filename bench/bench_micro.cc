// Micro-benchmarks (google-benchmark) for the core primitives, including
// the ablations called out in DESIGN.md §6:
//   * PIL combine vs direct-DP support recounting (why PILs exist),
//   * e_m via bounded multiplicity search vs naive offset enumeration,
//   * N_l computation across the closed-form and recurrence regions,
//   * the level join's pair kernel (bitset vs scalar) on cache-resident PILs,
//   * candidate generation and sequence synthesis throughput.

#include <benchmark/benchmark.h>

#include "bench/common.h"
#include "core/em.h"
#include "core/kernel.h"
#include "core/miner.h"
#include "core/offset_counter.h"
#include "core/pil.h"
#include "core/verifier.h"
#include "datagen/generators.h"
#include "datagen/presets.h"
#include "util/random.h"

namespace pgm::bench {
namespace {

Sequence BenchSequence(std::size_t length) {
  Rng rng(2718);
  return ValueOrDie(UniformRandomSequence(length, Alphabet::Dna(), rng));
}

// --- Ablation 1: PIL combine vs recounting support from scratch. ---

void BM_PilCombine(benchmark::State& state) {
  const std::size_t length = static_cast<std::size_t>(state.range(0));
  Sequence s = BenchSequence(length);
  GapRequirement gap = ValueOrDie(GapRequirement::Create(9, 12));
  Pattern left = ValueOrDie(Pattern::Parse("ACG", Alphabet::Dna()));
  Pattern right = ValueOrDie(Pattern::Parse("CGT", Alphabet::Dna()));
  PartialIndexList left_pil = ValueOrDie(ComputePil(s, left, gap));
  PartialIndexList right_pil = ValueOrDie(ComputePil(s, right, gap));
  for (auto _ : state) {
    PartialIndexList combined =
        PartialIndexList::Combine(left_pil, right_pil, gap);
    benchmark::DoNotOptimize(combined.TotalSupport().count);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(left_pil.size()));
}
BENCHMARK(BM_PilCombine)->Arg(1000)->Arg(10'000)->Arg(100'000);

// --- The level join's pair kernel, cache-resident. ---

// CombinePair on dense 10 kb PILs: the 'A' PIL (~2,500 rows) joined with
// each of the four single-symbol PILs in turn, at W = 4, W = 16 and W = 71
// (min gap 9), under auto (the AVX2 bitset kernel where the CPU has it and
// W <= 64; W = 71 is scalar under auto too) and scalar. Everything fits in
// L2, so this is the kernel's arithmetic; the same kernel inside a level
// join also pays for streaming PILs from memory. Items are prefix rows per
// pair.
void BM_PairKernel(benchmark::State& state) {
  const Sequence s = BenchSequence(10'000);
  const std::int64_t width = state.range(0);
  const KernelTier tier =
      state.range(1) == 0 ? KernelTier::kAuto : KernelTier::kScalar;
  const GapRequirement gap =
      ValueOrDie(GapRequirement::Create(9, 9 + width - 1));
  const KernelImpl impl = ResolveKernel(tier, gap);
  const PartialIndexList prefix = PartialIndexList::ForSymbol(s, 0);
  std::vector<PartialIndexList> group;
  for (Symbol symbol = 0; symbol < 4; ++symbol) {
    group.push_back(PartialIndexList::ForSymbol(s, symbol));
  }
  std::vector<std::vector<PilEntry>> slices(group.size());
  for (std::vector<PilEntry>& slice : slices) slice.resize(prefix.size());
  KernelScratch scratch;
  for (auto _ : state) {
    for (std::size_t i = 0; i < group.size(); ++i) {
      const PairResult result =
          CombinePair(impl, prefix.entries(), group[i].entries(), gap,
                      slices[i].data(), scratch);
      benchmark::DoNotOptimize(result);
      benchmark::DoNotOptimize(slices[i].data());
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(prefix.size() *
                                                    group.size()));
  state.SetLabel(KernelImplToString(impl));
}
BENCHMARK(BM_PairKernel)
    ->ArgNames({"W", "scalar"})
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({71, 0});

void BM_VerifierRecount(benchmark::State& state) {
  const std::size_t length = static_cast<std::size_t>(state.range(0));
  Sequence s = BenchSequence(length);
  GapRequirement gap = ValueOrDie(GapRequirement::Create(9, 12));
  Pattern pattern = ValueOrDie(Pattern::Parse("ACGT", Alphabet::Dna()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountSupport(s, pattern, gap)->count);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(length));
}
BENCHMARK(BM_VerifierRecount)->Arg(1000)->Arg(10'000)->Arg(100'000);

// --- Ablation 2: exact e_m search vs naive enumeration. ---

void BM_EmBoundedSearch(benchmark::State& state) {
  const std::int64_t m = state.range(0);
  Sequence s = BenchSequence(1000);
  GapRequirement gap = ValueOrDie(GapRequirement::Create(9, 12));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeEm(s, gap, m)->em);
  }
}
BENCHMARK(BM_EmBoundedSearch)->Arg(4)->Arg(8)->Arg(10);

// The max-only path MineMppm takes: same e_m, but starts are visited in
// descending bound order against a shared incumbent, so most never run.
void BM_EmValueBoundOrdered(benchmark::State& state) {
  const std::int64_t m = state.range(0);
  Sequence s = BenchSequence(1000);
  GapRequirement gap = ValueOrDie(GapRequirement::Create(9, 12));
  std::uint64_t starts = 0;
  for (auto _ : state) {
    EmValue value = ValueOrDie(ComputeEmValue(s, gap, m));
    starts = value.starts_searched;
    benchmark::DoNotOptimize(value.em);
  }
  state.counters["starts_searched"] = static_cast<double>(starts);
}
BENCHMARK(BM_EmValueBoundOrdered)->Arg(4)->Arg(8)->Arg(10);

void BM_EmNaiveEnumeration(benchmark::State& state) {
  const std::int64_t m = state.range(0);
  Sequence s = BenchSequence(1000);
  GapRequirement gap = ValueOrDie(GapRequirement::Create(9, 12));
  for (auto _ : state) {
    std::uint64_t em = 0;
    for (std::size_t r = 0; r < s.size(); r += 25) {  // sampled: full scan
      em = std::max(em, BruteForceKr(s, gap, m, r));  // is intractable
    }
    benchmark::DoNotOptimize(em);
  }
}
BENCHMARK(BM_EmNaiveEnumeration)->Arg(4)->Arg(8);

// --- N_l computation. ---

void BM_OffsetCounterClosedForm(benchmark::State& state) {
  GapRequirement gap = ValueOrDie(GapRequirement::Create(9, 12));
  for (auto _ : state) {
    OffsetCounter counter(10'000, gap);
    benchmark::DoNotOptimize(counter.Count(counter.l1()));
  }
}
BENCHMARK(BM_OffsetCounterClosedForm);

void BM_OffsetCounterCaseThree(benchmark::State& state) {
  GapRequirement gap = ValueOrDie(GapRequirement::Create(9, 12));
  for (auto _ : state) {
    OffsetCounter counter(2'000, gap);
    benchmark::DoNotOptimize(counter.Count(counter.l2()));
  }
}
BENCHMARK(BM_OffsetCounterCaseThree);

// --- End-to-end miners at Section 6 scale. ---

void BM_MineMppm(benchmark::State& state) {
  Sequence segment = ValueOrDie(SurrogateSegment(1000, 42));
  MinerConfig config = Section6Defaults();
  for (auto _ : state) {
    benchmark::DoNotOptimize(MineMppm(segment, config)->patterns.size());
  }
}
BENCHMARK(BM_MineMppm);

// Same run with a full observer (metrics registry + trace) attached. The
// contract in DESIGN.md §Observability is that BM_MineMppm (null observer)
// stays within 1% of the pre-observability baseline; this variant shows the
// cost of actually recording, which is allowed to be visible.
void BM_MineMppmObserved(benchmark::State& state) {
  Sequence segment = ValueOrDie(SurrogateSegment(1000, 42));
  MinerConfig config = Section6Defaults();
  for (auto _ : state) {
    RunObservation obs;
    benchmark::DoNotOptimize(
        MineMppm(segment, obs.Attach(config))->patterns.size());
  }
}
BENCHMARK(BM_MineMppmObserved);

void BM_MineMppBestCase(benchmark::State& state) {
  Sequence segment = ValueOrDie(SurrogateSegment(1000, 42));
  MinerConfig config = Section6Defaults();
  config.user_n = 13;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MineMpp(segment, config)->patterns.size());
  }
}
BENCHMARK(BM_MineMppBestCase);

// --- Parallel level evaluation: the threads axis. ---

// MPPm at Section 6 scale with the level joins sharded over the argument's
// worker count. Results are identical at every thread count; only the time
// should move.
void BM_MineMppmThreads(benchmark::State& state) {
  Sequence segment = ValueOrDie(SurrogateSegment(1000, 42));
  MinerConfig config = Section6Defaults();
  config.threads = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MineMppm(segment, config)->patterns.size());
  }
}
BENCHMARK(BM_MineMppmThreads)->Arg(1)->Arg(2)->Arg(4);

// A level-heavy configuration (worst-case n, low threshold, longer segment)
// so the candidate lists are wide enough for the sharding to matter.
void BM_MineMppLevelHeavyThreads(benchmark::State& state) {
  Sequence segment = ValueOrDie(SurrogateSegment(4000, 42));
  MinerConfig config = Section6Defaults();
  config.min_support_ratio = 0.00001;  // 0.001%
  config.threads = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MineMpp(segment, config)->patterns.size());
  }
}
BENCHMARK(BM_MineMppLevelHeavyThreads)->Arg(1)->Arg(2)->Arg(4);

// --- Data generation throughput. ---

void BM_GenerateBacteriaGenome(benchmark::State& state) {
  const std::size_t length = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakeBacteriaLikeGenome(length, seed++)->size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(length));
}
BENCHMARK(BM_GenerateBacteriaGenome)->Arg(100'000);

}  // namespace
}  // namespace pgm::bench

BENCHMARK_MAIN();
