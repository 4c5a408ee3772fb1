// Tests for the arena-backed PIL representation (core/pil_arena.h).
//
// Three layers:
//   1. Property tests pinning the equivalence contract: every entry of a
//      built level carries exactly the SupportInfo the heap-backed oracle
//      (PartialIndexList::ForSymbol / Combine / TotalSupport) reports for
//      its pattern, at every thread count and kernel tier, and the level-1
//      counting sort lays out ForSymbol's rows. (The join kernel's row
//      equivalence with PartialIndexList::Combine is kernel_oracle_test's;
//      the support clamp is pil_test's and miner_saturation_test's.)
//   2. Arena mechanics: the watermark/scratch protocol (Promote
//      compaction, TruncateToWatermark), capacity reuse across Clear()
//      (the ping-pong path), move semantics, and the growth counter that
//      makes the "zero steady-state allocations" claim checkable.
//   3. Ledger regression tests: every early-return path of the level-wise
//      engine — completion, memory-budget trip, candidate-cap trip,
//      expired deadline, pre-cancelled token — must leave the guard's
//      memory ledger at exactly zero once the run's arenas die. With
//      capacity-based charging this is structural (arena destructors
//      release everything they charged), and these tests keep it that way.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/candidate_index.h"
#include "core/gap.h"
#include "core/guard.h"
#include "core/kernel.h"
#include "core/miner.h"
#include "core/offset_counter.h"
#include "core/parallel.h"
#include "core/pil.h"
#include "core/pil_arena.h"
#include "core/trace.h"
#include "seq/sequence.h"
#include "util/limits.h"
#include "util/random.h"

namespace pgm {
namespace {

// Copies `entries` into `arena` as a fresh span.
PilSpan SpanOf(PilArena& arena, const std::vector<PilEntry>& entries) {
  EXPECT_TRUE(arena.Reserve(arena.size() + entries.size()));
  PilSpan span = arena.Allocate(entries.size());
  std::copy(entries.begin(), entries.end(), arena.MutableRows(span));
  return span;
}

Sequence RandomDna(std::size_t length, std::uint64_t seed) {
  Rng rng(seed);
  std::string text;
  for (std::size_t i = 0; i < length; ++i) text += "ACGT"[rng.UniformInt(4)];
  return *Sequence::FromString(text, Alphabet::Dna());
}

std::vector<KernelImpl> TiersUnderTest() {
  std::vector<KernelImpl> tiers = {KernelImpl::kScalar};
  if (Avx2Available()) tiers.push_back(KernelImpl::kAvx2);
  return tiers;
}

// The oracle PIL of `symbols`: ForSymbol at length 1, and
// Combine(PIL(prefix), PIL(suffix)) above it, memoized in `memo`.
const PartialIndexList& OraclePil(
    const Sequence& sequence, const GapRequirement& gap,
    const std::string& symbols,
    std::map<std::string, PartialIndexList>& memo) {
  auto it = memo.find(symbols);
  if (it != memo.end()) return it->second;
  PartialIndexList pil =
      symbols.size() == 1
          ? PartialIndexList::ForSymbol(sequence,
                                        static_cast<Symbol>(symbols[0]))
          : PartialIndexList::Combine(
                OraclePil(sequence, gap, symbols.substr(0, symbols.size() - 1),
                          memo),
                OraclePil(sequence, gap, symbols.substr(1), memo), gap);
  return memo.emplace(symbols, std::move(pil)).first->second;
}

// Checks every entry of the length-1..4 levels built over `sequence` under
// `gap`, at 1 and 4 threads and under every kernel tier, against the oracle.
void ExpectSupportsMatchOracle(const Sequence& sequence,
                               const GapRequirement& gap) {
  std::map<std::string, PartialIndexList> memo;
  for (std::int64_t k = 1; k <= 4; ++k) {
    // Every length-k pattern with a non-empty oracle PIL must be an entry.
    std::size_t non_empty = 0;
    for (std::size_t code = 0; code < (std::size_t{1} << (2 * k)); ++code) {
      std::string symbols;
      for (std::int64_t i = k - 1; i >= 0; --i) {
        symbols.push_back(static_cast<char>((code >> (2 * i)) & 3));
      }
      if (!OraclePil(sequence, gap, symbols, memo).empty()) ++non_empty;
    }
    for (KernelImpl kernel : TiersUnderTest()) {
      for (std::int64_t threads : {std::int64_t{1}, std::int64_t{4}}) {
        SCOPED_TRACE(testing::Message()
                     << "k=" << k << " kernel=" << KernelImplToString(kernel)
                     << " threads=" << threads);
        internal::ParallelLevelExecutor executor(threads);
        const internal::BuiltLevel level = internal::BuildAllPatternsOfLength(
            sequence, gap, k, nullptr, &executor, kernel);
        ASSERT_EQ(level.supports.size(), level.entries.size());
        EXPECT_EQ(level.entries.size(), non_empty);
        for (std::size_t i = 0; i < level.entries.size(); ++i) {
          const SupportInfo expected =
              OraclePil(sequence, gap, level.entries[i].symbols, memo)
                  .TotalSupport();
          ASSERT_GT(expected.count, 0u) << "entry " << i;
          EXPECT_EQ(level.supports[i].count, expected.count) << "entry " << i;
          EXPECT_EQ(level.supports[i].saturated, expected.saturated)
              << "entry " << i;
        }
      }
    }
  }
}

TEST(BuiltLevelSupportTest, SupportsMatchTheOracleAtEveryLengthAndTier) {
  const Sequence sequence = RandomDna(600, 0x5eedc0de);
  // Gap [0,0] leaves some length-4 patterns unmatched; [1,3] matches all.
  ExpectSupportsMatchOracle(sequence, *GapRequirement::Create(0, 0));
  ExpectSupportsMatchOracle(sequence, *GapRequirement::Create(1, 3));
}

TEST(BuiltLevelSupportTest, LevelOneIsForSymbolRowForRowPast64kSymbols) {
  // More than 2^16 symbols: a layout that depended on cutting the sequence
  // into 64k-position blocks would show a seam here.
  const Sequence sequence = RandomDna(70000, 0xc0ffee);
  const GapRequirement gap = *GapRequirement::Create(1, 3);
  for (std::int64_t threads : {std::int64_t{1}, std::int64_t{4}}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    internal::ParallelLevelExecutor executor(threads);
    const internal::BuiltLevel level = internal::BuildAllPatternsOfLength(
        sequence, gap, 1, nullptr, &executor);
    ASSERT_EQ(level.entries.size(), 4u);
    ASSERT_EQ(level.supports.size(), 4u);
    std::uint64_t offset = 0;
    for (std::size_t s = 0; s < level.entries.size(); ++s) {
      const internal::ArenaEntry& entry = level.entries[s];
      EXPECT_EQ(entry.symbols, std::string(1, static_cast<char>(s)));
      const PartialIndexList oracle =
          PartialIndexList::ForSymbol(sequence, static_cast<Symbol>(s));
      const std::vector<PilEntry>& expected = oracle.entries();
      EXPECT_EQ(entry.span.offset, offset) << "symbol " << s;
      ASSERT_EQ(entry.span.len, expected.size()) << "symbol " << s;
      const PilEntry* rows = level.arena.Rows(entry.span);
      EXPECT_TRUE(std::equal(expected.begin(), expected.end(), rows))
          << "symbol " << s;
      EXPECT_EQ(level.supports[s].count, expected.size()) << "symbol " << s;
      EXPECT_FALSE(level.supports[s].saturated) << "symbol " << s;
      offset += entry.span.len;
    }
    EXPECT_EQ(offset, sequence.size());
    EXPECT_EQ(level.arena.size(), sequence.size());
    EXPECT_EQ(level.arena.watermark(), sequence.size());
  }
}

TEST(PilArenaMechanicsTest, PromoteCompactsScratchOntoWatermark) {
  PilArena arena;
  // Retained level output: two rows, sealed below the watermark.
  SpanOf(arena, {PilEntry{1, 10}, PilEntry{2, 20}});
  arena.SealWatermark();
  ASSERT_EQ(arena.watermark(), 2u);

  // Three scratch spans; the middle one is abandoned (an infrequent
  // candidate), the other two are promoted in offset order.
  arena.BeginScratch();
  const PilSpan keep_a = SpanOf(arena, {PilEntry{3, 30}});
  SpanOf(arena, {PilEntry{4, 40}, PilEntry{5, 50}});  // abandoned
  const PilSpan keep_b = SpanOf(arena, {PilEntry{6, 60}, PilEntry{7, 70}});

  const PilSpan a = arena.Promote(keep_a);
  const PilSpan b = arena.Promote(keep_b);
  EXPECT_EQ(a.offset, 2u);
  EXPECT_EQ(b.offset, 3u);
  arena.TruncateToWatermark();
  arena.EndScratch();
  EXPECT_EQ(arena.size(), arena.watermark());
  EXPECT_EQ(arena.size(), 5u);

  // The promoted rows are dense and intact; the abandoned rows are gone.
  EXPECT_EQ(arena.Rows(a)[0], (PilEntry{3, 30}));
  EXPECT_EQ(arena.Rows(b)[0], (PilEntry{6, 60}));
  EXPECT_EQ(arena.Rows(b)[1], (PilEntry{7, 70}));
}

TEST(PilArenaMechanicsTest, ClearKeepsCapacityAndChargeForPingPong) {
  MiningGuard guard(ResourceLimits{});
  {
    PilArena arena(&guard);
    ASSERT_TRUE(arena.Reserve(1000));
    EXPECT_EQ(arena.capacity_bytes(), 1000 * sizeof(PilEntry));
    EXPECT_EQ(guard.memory_in_use_bytes(), arena.capacity_bytes());
    EXPECT_EQ(arena.growth_count(), 1u);

    arena.Clear();
    EXPECT_EQ(arena.size(), 0u);
    // Capacity and its ledger charge survive Clear — that is the whole
    // point of the ping-pong reuse.
    EXPECT_EQ(arena.capacity_bytes(), 1000 * sizeof(PilEntry));
    EXPECT_EQ(guard.memory_in_use_bytes(), arena.capacity_bytes());

    // Re-reserving within capacity is allocation-free.
    ASSERT_TRUE(arena.Reserve(500));
    ASSERT_TRUE(arena.Reserve(1000));
    EXPECT_EQ(arena.growth_count(), 1u);
    // Growing past capacity doubles (geometric growth).
    ASSERT_TRUE(arena.Reserve(1001));
    EXPECT_EQ(arena.growth_count(), 2u);
    EXPECT_EQ(arena.capacity_bytes(), 2000 * sizeof(PilEntry));
    EXPECT_EQ(guard.memory_in_use_bytes(), arena.capacity_bytes());
  }
  EXPECT_EQ(guard.memory_in_use_bytes(), 0u);
  EXPECT_EQ(guard.memory_peak_bytes(), 2000 * sizeof(PilEntry));
}

TEST(PilArenaMechanicsTest, MoveTransfersBufferAndLedgerCharge) {
  MiningGuard guard(ResourceLimits{});
  PilArena source(&guard);
  ASSERT_TRUE(source.Reserve(100));
  const PilSpan span = SpanOf(source, {PilEntry{9, 9}});
  const std::uint64_t charged = guard.memory_in_use_bytes();
  ASSERT_GT(charged, 0u);

  PilArena moved(std::move(source));
  EXPECT_EQ(guard.memory_in_use_bytes(), charged);
  EXPECT_EQ(source.capacity_bytes(), 0u);
  EXPECT_EQ(source.size(), 0u);
  EXPECT_EQ(moved.Rows(span)[0], (PilEntry{9, 9}));

  // Move-assignment over a charged arena releases the overwritten charge.
  PilArena other(&guard);
  ASSERT_TRUE(other.Reserve(5000));
  ASSERT_GT(guard.memory_in_use_bytes(), charged);
  other = std::move(moved);
  EXPECT_EQ(guard.memory_in_use_bytes(), charged);
  EXPECT_EQ(other.Rows(span)[0], (PilEntry{9, 9}));

  // Destroying the chargeless husk releases nothing further...
  { PilArena graveyard(std::move(source)); }
  EXPECT_EQ(guard.memory_in_use_bytes(), charged);
  // ...and destroying the live arena drains the ledger to zero.
  other = PilArena{};
  EXPECT_EQ(guard.memory_in_use_bytes(), 0u);
}

// Growth moves the buffer (a realloc; an mremap once it passes the
// allocator's mmap threshold, 32 MiB at most in glibc). Rows promoted before
// a growth must survive it unchanged, and the ledger must carry exactly the
// doubled capacity, through a move and down to zero when the arena dies.
TEST(PilArenaMechanicsTest, GrowthKeepsLiveRowsAndChargesCapacity) {
  const auto row = [](std::size_t i) {
    return PilEntry{static_cast<std::uint32_t>(i), 3 * i + 1};
  };
  // Index of the first of `arena`'s rows that is not row(i), or its size.
  const auto first_bad_row = [&](const PilArena& arena) {
    const PilEntry* rows = arena.Rows(PilSpan{0, arena.size()});
    std::size_t i = 0;
    while (i < arena.size() && rows[i] == row(i)) ++i;
    return i;
  };
  // 64 MiB of rows, twice glibc's cap on the mmap threshold.
  constexpr std::size_t kPastMmapRows = std::size_t{4} << 20;

  MiningGuard guard(ResourceLimits{});
  std::size_t capacity = 1000;
  {
    PilArena arena(&guard);
    ASSERT_TRUE(arena.Reserve(capacity));
    std::uint64_t growths = 1;
    while (capacity < kPastMmapRows) {
      // Fill the arena to capacity with distinct promoted rows...
      arena.BeginScratch();
      const std::size_t first = arena.size();
      const PilSpan span = arena.Allocate(capacity - first);
      PilEntry* rows = arena.MutableRows(span);
      for (std::size_t i = 0; i < span.len; ++i) rows[i] = row(first + i);
      ASSERT_EQ(arena.Promote(span).offset, first);
      arena.EndScratch();

      // ...then ask for one row more, which doubles the capacity.
      ASSERT_TRUE(arena.Reserve(capacity + 1));
      capacity *= 2;
      ++growths;
      ASSERT_EQ(arena.size(), capacity / 2);
      ASSERT_EQ(first_bad_row(arena), arena.size());
      ASSERT_EQ(arena.capacity_bytes(), capacity * sizeof(PilEntry));
      ASSERT_EQ(guard.memory_in_use_bytes(), arena.capacity_bytes());
      ASSERT_EQ(arena.growth_count(), growths);
    }

    PilArena moved;
    moved = std::move(arena);
    EXPECT_EQ(first_bad_row(moved), capacity / 2);
    EXPECT_EQ(guard.memory_in_use_bytes(), moved.capacity_bytes());
  }
  EXPECT_EQ(guard.memory_in_use_bytes(), 0u);
  EXPECT_EQ(guard.memory_peak_bytes(), capacity * sizeof(PilEntry));
}

TEST(PilArenaMechanicsTest, ReserveTripReportsBudgetButKeepsCapacityUsable) {
  ResourceLimits limits;
  limits.pil_memory_budget_bytes = 64;
  MiningGuard guard(limits);
  PilArena arena(&guard);
  // The charge trips the budget, but per the "deliver what was paid for"
  // contract the capacity is really there: the caller may finish the
  // in-flight block before unwinding.
  EXPECT_FALSE(arena.Reserve(100));
  EXPECT_TRUE(guard.stopped());
  EXPECT_EQ(guard.reason(), TerminationReason::kMemoryBudget);
  const PilSpan span = arena.Allocate(100);
  arena.MutableRows(span)[99] = PilEntry{1, 1};
  EXPECT_EQ(arena.Rows(span)[99], (PilEntry{1, 1}));
  // A tripped guard also fails the no-growth Reserve path, so the block
  // loop observes the stop even when capacity already suffices.
  EXPECT_FALSE(arena.Reserve(10));
}

// --- Ledger regression tests -------------------------------------------
//
// Every exit path of the level-wise engine must return the guard's memory
// ledger to zero once the run's arenas are destroyed. The charge is
// capacity-based and released by arena destructors, so a leak here means a
// BuiltLevel or arena outlived the run (or a charge bypassed the arena).

Sequence LedgerSequence() {
  std::string text;
  for (int i = 0; i < 8; ++i) text += "ACGTTGCAACGGTTAC";
  return *Sequence::FromString(text, Alphabet::Dna());
}

MinerConfig LedgerConfig(std::int64_t threads) {
  MinerConfig config;
  config.min_gap = 0;
  config.max_gap = 2;
  config.min_support_ratio = 0.05;
  config.start_length = 1;
  config.threads = threads;
  return config;
}

struct LedgerRun {
  MiningResult result;
  std::uint64_t in_use_after = 0;
  std::uint64_t peak = 0;
};

LedgerRun RunLevelwiseWith(const ResourceLimits& limits,
                           const CancelToken* cancel, std::int64_t threads) {
  const Sequence sequence = LedgerSequence();
  const MinerConfig config = LedgerConfig(threads);
  const GapRequirement gap =
      *GapRequirement::Create(config.min_gap, config.max_gap);
  MiningGuard guard(limits, cancel);
  OffsetCounter counter(static_cast<std::int64_t>(sequence.size()), gap);
  internal::ParallelLevelExecutor executor(config.threads);
  internal::ObserverContext ctx(nullptr, "mpp");
  StatusOr<MiningResult> result =
      internal::RunLevelwise(sequence, config, counter, counter.l1(),
                             internal::BuiltLevel{}, guard, executor, ctx);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  LedgerRun run;
  run.result = *std::move(result);
  run.in_use_after = guard.memory_in_use_bytes();
  run.peak = guard.memory_peak_bytes();
  return run;
}

TEST(ArenaLedgerTest, CompletedRunDrainsLedgerToZero) {
  for (std::int64_t threads : {std::int64_t{1}, std::int64_t{4}}) {
    const LedgerRun run = RunLevelwiseWith(ResourceLimits{}, nullptr, threads);
    EXPECT_EQ(run.result.termination, TerminationReason::kCompleted);
    EXPECT_GT(run.result.patterns.size(), 0u);
    EXPECT_EQ(run.in_use_after, 0u) << "threads=" << threads;
    EXPECT_GT(run.peak, 0u);
  }
}

TEST(ArenaLedgerTest, MemoryBudgetTripDrainsLedgerToZero) {
  ResourceLimits limits;
  limits.pil_memory_budget_bytes = 256;  // trips on the first level arena
  for (std::int64_t threads : {std::int64_t{1}, std::int64_t{4}}) {
    const LedgerRun run = RunLevelwiseWith(limits, nullptr, threads);
    EXPECT_EQ(run.result.termination, TerminationReason::kMemoryBudget);
    EXPECT_EQ(run.in_use_after, 0u) << "threads=" << threads;
    // The trip happened because a charge exceeded the budget, so the peak
    // must show the overshooting charge.
    EXPECT_GT(run.peak, limits.pil_memory_budget_bytes);
  }
}

TEST(ArenaLedgerTest, CandidateCapTripDrainsLedgerToZero) {
  ResourceLimits limits;
  limits.max_level_candidates = 1;  // trips at the first level's charge
  for (std::int64_t threads : {std::int64_t{1}, std::int64_t{4}}) {
    const LedgerRun run = RunLevelwiseWith(limits, nullptr, threads);
    EXPECT_EQ(run.result.termination, TerminationReason::kCandidateCap);
    EXPECT_EQ(run.in_use_after, 0u) << "threads=" << threads;
  }
}

TEST(ArenaLedgerTest, ExpiredDeadlineDrainsLedgerToZero) {
  ResourceLimits limits;
  limits.deadline_ms = 0;  // expired before the first check
  for (std::int64_t threads : {std::int64_t{1}, std::int64_t{4}}) {
    const LedgerRun run = RunLevelwiseWith(limits, nullptr, threads);
    EXPECT_EQ(run.result.termination, TerminationReason::kDeadline);
    EXPECT_EQ(run.in_use_after, 0u) << "threads=" << threads;
  }
}

TEST(ArenaLedgerTest, PreCancelledTokenDrainsLedgerToZero) {
  CancelToken cancel;
  cancel.RequestCancel();
  for (std::int64_t threads : {std::int64_t{1}, std::int64_t{4}}) {
    const LedgerRun run = RunLevelwiseWith(ResourceLimits{}, &cancel, threads);
    EXPECT_EQ(run.result.termination, TerminationReason::kCancelled);
    EXPECT_EQ(run.in_use_after, 0u) << "threads=" << threads;
  }
}

TEST(ArenaLedgerTest, BuiltLevelCarriesChargeAndReleasesOnDestruction) {
  const Sequence sequence = LedgerSequence();
  const GapRequirement gap = *GapRequirement::Create(0, 2);
  MiningGuard guard(ResourceLimits{});
  {
    internal::BuiltLevel level =
        internal::BuildAllPatternsOfLength(sequence, gap, 2, &guard);
    EXPECT_FALSE(level.entries.empty());
    EXPECT_EQ(guard.memory_in_use_bytes(), level.arena.capacity_bytes());
    EXPECT_GT(level.arena.capacity_bytes(), 0u);
  }
  EXPECT_EQ(guard.memory_in_use_bytes(), 0u);
}

// The "zero allocations in the join loop at steady state" claim, pinned:
// once the ping-pong arenas have grown to the run's high-water mark, later
// levels reuse that capacity. A completed run's arenas must report far
// fewer growths than levels — here, the seed run's growth counts stabilize
// after re-running the same level joins on a warmed arena.
TEST(ArenaLedgerTest, WarmedArenaStopsGrowing) {
  PilArena arena;
  ASSERT_TRUE(arena.Reserve(4096));
  const std::uint64_t warm_growths = arena.growth_count();
  for (int level = 0; level < 16; ++level) {
    arena.Clear();
    ASSERT_TRUE(arena.Reserve(1 + (level * 251) % 4096));
    arena.BeginScratch();
    const PilSpan span = arena.Allocate(64);
    arena.MutableRows(span)[0] = PilEntry{0, 1};
    arena.Promote(span);
    arena.TruncateToWatermark();
    arena.EndScratch();
  }
  EXPECT_EQ(arena.growth_count(), warm_growths);
}

}  // namespace
}  // namespace pgm
