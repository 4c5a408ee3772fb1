// The parallel level engine's contract: multi-threaded mining is
// result-identical to serial mining (the executor merges shard outputs in
// candidate order, so thread scheduling never leaks into the result), the
// MiningGuard's atomic ledger balances under concurrent charge/release,
// and budget trips latch exactly one termination reason visible to every
// worker.

#include "core/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/guard.h"
#include "core/miner.h"
#include "core/offset_counter.h"
#include "core/trace.h"
#include "datagen/generators.h"
#include "seq/sequence.h"
#include "util/random.h"

namespace pgm {
namespace {

using Miner = StatusOr<MiningResult> (*)(const Sequence&, const MinerConfig&);

struct NamedMiner {
  const char* name;
  Miner mine;
};

const NamedMiner kMiners[] = {
    {"mpp", MineMpp},
    {"mppm", MineMppm},
    {"enum", MineEnumeration},
    {"adaptive", MineAdaptive},
};

MinerConfig TestConfig() {
  MinerConfig config;
  config.min_gap = 0;
  config.max_gap = 3;
  config.min_support_ratio = 0.01;
  config.start_length = 1;
  config.max_length = 6;  // keeps enumeration tractable
  return config;
}

// Everything in a MiningResult except wall-clock times. The PIL memory peak
// is included: the executor's scratch windows, and so every arena Reserve,
// depend only on the join plan, never on the thread count.
void ExpectSameResult(const MiningResult& serial, const MiningResult& parallel,
                      const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(serial.patterns.size(), parallel.patterns.size());
  for (std::size_t i = 0; i < serial.patterns.size(); ++i) {
    EXPECT_EQ(serial.patterns[i].pattern.ToShorthand(),
              parallel.patterns[i].pattern.ToShorthand());
    EXPECT_EQ(serial.patterns[i].support, parallel.patterns[i].support);
    EXPECT_EQ(serial.patterns[i].saturated, parallel.patterns[i].saturated);
    EXPECT_DOUBLE_EQ(serial.patterns[i].support_ratio,
                     parallel.patterns[i].support_ratio);
  }
  ASSERT_EQ(serial.level_stats.size(), parallel.level_stats.size());
  for (std::size_t i = 0; i < serial.level_stats.size(); ++i) {
    EXPECT_EQ(serial.level_stats[i].length, parallel.level_stats[i].length);
    EXPECT_EQ(serial.level_stats[i].num_candidates,
              parallel.level_stats[i].num_candidates);
    EXPECT_EQ(serial.level_stats[i].num_frequent,
              parallel.level_stats[i].num_frequent);
    EXPECT_EQ(serial.level_stats[i].num_retained,
              parallel.level_stats[i].num_retained);
  }
  EXPECT_EQ(serial.n_used, parallel.n_used);
  EXPECT_EQ(serial.guaranteed_complete_up_to,
            parallel.guaranteed_complete_up_to);
  EXPECT_EQ(serial.longest_frequent_length, parallel.longest_frequent_length);
  EXPECT_EQ(serial.total_candidates, parallel.total_candidates);
  EXPECT_EQ(serial.termination, parallel.termination);
  EXPECT_EQ(serial.em, parallel.em);
  EXPECT_EQ(serial.estimated_n, parallel.estimated_n);
  EXPECT_EQ(serial.adaptive_iterations, parallel.adaptive_iterations);
  EXPECT_EQ(serial.pil_memory_peak_bytes, parallel.pil_memory_peak_bytes);
}

TEST(ParallelMiningTest, AllMinersIdenticalAcrossThreadCountsRandomized) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed * 7919);
    Sequence sequence =
        *UniformRandomSequence(600 + 100 * seed, Alphabet::Dna(), rng);
    for (const NamedMiner& miner : kMiners) {
      MinerConfig config = TestConfig();
      config.threads = 1;
      StatusOr<MiningResult> serial = miner.mine(sequence, config);
      ASSERT_TRUE(serial.ok()) << serial.status().message();
      for (std::int64_t threads : {2, 4}) {
        config.threads = threads;
        StatusOr<MiningResult> parallel = miner.mine(sequence, config);
        ASSERT_TRUE(parallel.ok()) << parallel.status().message();
        ExpectSameResult(*serial, *parallel,
                         std::string(miner.name) + " seed " +
                             std::to_string(seed) + " threads " +
                             std::to_string(threads));
      }
    }
  }
}

TEST(ParallelMiningTest, GappyConfigIdenticalAcrossThreadCounts) {
  Rng rng(424242);
  Sequence sequence = *UniformRandomSequence(2000, Alphabet::Dna(), rng);
  MinerConfig config;
  config.min_gap = 9;
  config.max_gap = 12;  // the paper's Section 6 gap requirement
  config.min_support_ratio = 0.0005;
  config.start_length = 3;
  config.threads = 1;
  StatusOr<MiningResult> serial = MineMppm(sequence, config);
  ASSERT_TRUE(serial.ok()) << serial.status().message();
  config.threads = 3;
  StatusOr<MiningResult> parallel = MineMppm(sequence, config);
  ASSERT_TRUE(parallel.ok()) << parallel.status().message();
  ExpectSameResult(*serial, *parallel, "mppm gap [9,12] threads 3");
}

TEST(ParallelMiningTest, ExecutorMergesInCandidateOrder) {
  // Run a level join with 1 and 4 workers; the sink must observe the same
  // candidates, in the same order, with the same supports and PIL rows.
  Rng rng(99);
  Sequence sequence = *UniformRandomSequence(800, Alphabet::Dna(), rng);
  GapRequirement gap = *GapRequirement::Create(0, 2);
  internal::BuiltLevel level =
      internal::BuildAllPatternsOfLength(sequence, gap, 2);
  ASSERT_FALSE(level.entries.empty());
  const internal::JoinPlan plan = internal::JoinPlan::SelfJoin(level.entries);
  ASSERT_FALSE(plan.empty());

  struct Seen {
    std::string symbols;
    std::uint64_t support;
    std::vector<PilEntry> rows;
    bool operator==(const Seen& other) const {
      return symbols == other.symbols && support == other.support &&
             rows == other.rows;
    }
  };
  auto evaluate = [&](std::int64_t threads) {
    internal::ParallelLevelExecutor executor(threads);
    PilArena out;
    std::vector<Seen> seen;
    bool interrupted = false;
    out.BeginScratch();
    Status status = executor.ExecuteJoin(
        level.entries, level.arena, level.entries, level.arena, plan, gap,
        KernelImpl::kScalar, /*guard=*/nullptr, out,
        [&](const internal::JoinedCandidate& candidate) -> Status {
          Seen s;
          s.symbols.push_back(level.entries[candidate.left].symbols.front());
          s.symbols.append(level.entries[candidate.right].symbols);
          s.support = candidate.support.count;
          const PilEntry* rows = out.Rows(candidate.span);
          s.rows.assign(rows, rows + candidate.span.len);
          seen.push_back(std::move(s));
          return Status::OK();
        },
        &interrupted);
    out.EndScratch();
    EXPECT_TRUE(status.ok());
    EXPECT_FALSE(interrupted);
    return seen;
  };
  const auto serial = evaluate(1);
  const auto parallel = evaluate(4);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

// JoinPlan::SelfJoin's group-major order, checked against a brute-force
// grouping of `level` by (len-1)-prefix: the tasks of one rights group are
// contiguous, groups come in the first-appearance order of their prefix,
// lefts ascend within a group, every left whose suffix is some entry's
// prefix appears exactly once (with exactly that group as its rights), and
// the plan is the same whether or not an executor ran the probes.
void ExpectGroupMajorPlan(const std::vector<internal::ArenaEntry>& level) {
  const std::size_t len = level.front().symbols.size();
  std::vector<std::string> prefix_order;
  std::map<std::string, std::vector<std::uint32_t>> group_of;
  for (std::uint32_t i = 0; i < level.size(); ++i) {
    const std::string prefix = level[i].symbols.substr(0, len - 1);
    if (group_of.find(prefix) == group_of.end()) {
      prefix_order.push_back(prefix);
    }
    group_of[prefix].push_back(i);
  }
  std::vector<std::uint32_t> matching_lefts;
  for (std::uint32_t i = 0; i < level.size(); ++i) {
    if (group_of.count(level[i].symbols.substr(1)) > 0) {
      matching_lefts.push_back(i);
    }
  }

  const internal::JoinPlan plan = internal::JoinPlan::SelfJoin(level);
  const std::vector<std::uint32_t>& pool = plan.rights_pool();
  std::vector<std::uint32_t> planned_lefts;
  std::uint64_t candidates = 0;
  std::size_t previous_rank = 0;
  for (std::size_t t = 0; t < plan.tasks().size(); ++t) {
    const internal::JoinTask& task = plan.tasks()[t];
    SCOPED_TRACE("task " + std::to_string(t));
    const std::string key = level[task.left].symbols.substr(1);
    ASSERT_EQ(group_of.count(key), 1u) << "planned left matches no group";
    EXPECT_EQ(std::vector<std::uint32_t>(pool.begin() + task.rights_begin,
                                         pool.begin() + task.rights_end),
              group_of[key]);
    const std::size_t rank = static_cast<std::size_t>(
        std::find(prefix_order.begin(), prefix_order.end(), key) -
        prefix_order.begin());
    if (t > 0) {
      const internal::JoinTask& previous = plan.tasks()[t - 1];
      if (rank == previous_rank) {
        EXPECT_LT(previous.left, task.left) << "lefts ascend within a group";
      } else {
        EXPECT_LT(previous_rank, rank)
            << "a group's tasks are contiguous and groups come in "
               "first-appearance order";
      }
    }
    previous_rank = rank;
    planned_lefts.push_back(task.left);
    candidates += task.group_size();
  }
  std::sort(planned_lefts.begin(), planned_lefts.end());
  EXPECT_EQ(planned_lefts, matching_lefts)
      << "every matching left is planned exactly once";
  EXPECT_EQ(plan.num_candidates(), candidates);

  internal::ParallelLevelExecutor executor(4);
  const internal::JoinPlan probed =
      internal::JoinPlan::SelfJoin(level, &executor);
  ASSERT_EQ(probed.tasks().size(), plan.tasks().size());
  for (std::size_t t = 0; t < plan.tasks().size(); ++t) {
    EXPECT_EQ(probed.tasks()[t].left, plan.tasks()[t].left);
    EXPECT_EQ(probed.tasks()[t].rights_begin, plan.tasks()[t].rights_begin);
    EXPECT_EQ(probed.tasks()[t].rights_end, plan.tasks()[t].rights_end);
  }
  EXPECT_EQ(probed.rights_pool(), pool);
  EXPECT_EQ(probed.num_candidates(), plan.num_candidates());
}

TEST(JoinPlanTest, SelfJoinIsGroupMajor) {
  // A sparse level (30 bp, length 3: some lefts match no group) and a dense
  // one large enough that the executor splits the probes.
  GapRequirement gap = *GapRequirement::Create(0, 1);
  Rng rng(31337);
  Sequence small = *UniformRandomSequence(30, Alphabet::Dna(), rng);
  internal::BuiltLevel sparse =
      internal::BuildAllPatternsOfLength(small, gap, 3);
  ASSERT_FALSE(sparse.entries.empty());
  {
    SCOPED_TRACE("sparse level");
    ExpectGroupMajorPlan(sparse.entries);
  }
  // On this level group-major differs from plain left order, so the order
  // checks above have something to catch.
  const internal::JoinPlan plan = internal::JoinPlan::SelfJoin(sparse.entries);
  bool left_major = true;
  for (std::size_t t = 1; t < plan.tasks().size(); ++t) {
    if (plan.tasks()[t - 1].left > plan.tasks()[t].left) left_major = false;
  }
  EXPECT_FALSE(left_major);

  Sequence large = *UniformRandomSequence(3000, Alphabet::Dna(), rng);
  internal::BuiltLevel dense =
      internal::BuildAllPatternsOfLength(large, gap, 6);
  ASSERT_GT(dense.entries.size(), 2048u);
  SCOPED_TRACE("dense level");
  ExpectGroupMajorPlan(dense.entries);
}

TEST(ParallelMiningTest, LedgerDrainsToZeroAfterCompletedRun) {
  Rng rng(7);
  Sequence sequence = *UniformRandomSequence(500, Alphabet::Dna(), rng);
  MinerConfig config = TestConfig();
  config.threads = 4;
  GapRequirement gap = *GapRequirement::Create(config.min_gap, config.max_gap);
  OffsetCounter counter(static_cast<std::int64_t>(sequence.size()), gap);
  MiningGuard guard(config.limits, config.cancel);
  internal::ParallelLevelExecutor executor(config.threads);
  internal::ObserverContext ctx(nullptr, "mpp");
  StatusOr<MiningResult> result =
      internal::RunLevelwise(sequence, config, counter, counter.l1(),
                             internal::BuiltLevel{}, guard, executor, ctx);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_TRUE(result->complete());
  EXPECT_EQ(guard.memory_in_use_bytes(), 0u);
  EXPECT_GT(guard.memory_peak_bytes(), 0u);
}

TEST(ParallelMiningTest, LedgerDrainsToZeroAfterBudgetTrippedRun) {
  Rng rng(8);
  Sequence sequence = *UniformRandomSequence(500, Alphabet::Dna(), rng);
  for (std::int64_t threads : {1, 4}) {
    MinerConfig config = TestConfig();
    config.threads = threads;
    config.limits.pil_memory_budget_bytes = 2048;  // trips mid-level
    GapRequirement gap =
        *GapRequirement::Create(config.min_gap, config.max_gap);
    OffsetCounter counter(static_cast<std::int64_t>(sequence.size()), gap);
    MiningGuard guard(config.limits, config.cancel);
    internal::ParallelLevelExecutor executor(config.threads);
    internal::ObserverContext ctx(nullptr, "mpp");
    StatusOr<MiningResult> result =
        internal::RunLevelwise(sequence, config, counter, counter.l1(),
                               internal::BuiltLevel{}, guard, executor, ctx);
    ASSERT_TRUE(result.ok()) << result.status().message();
    EXPECT_EQ(result->termination, TerminationReason::kMemoryBudget)
        << "threads " << threads;
    EXPECT_EQ(guard.memory_in_use_bytes(), 0u) << "threads " << threads;
  }
}

TEST(ParallelMiningTest, PartialResultsStaySoundUnderBudgetAtAnyThreadCount) {
  // Under a memory budget the truncation point may differ per thread
  // count, but every returned pattern must carry its exact support
  // (verified against an unbudgeted serial run).
  Rng rng(31);
  Sequence sequence = *UniformRandomSequence(800, Alphabet::Dna(), rng);
  MinerConfig config = TestConfig();
  StatusOr<MiningResult> full = MineMpp(sequence, config);
  ASSERT_TRUE(full.ok());
  std::vector<std::pair<std::string, std::uint64_t>> truth;
  for (const FrequentPattern& fp : full->patterns) {
    truth.emplace_back(fp.pattern.ToShorthand(), fp.support);
  }
  for (std::int64_t threads : {1, 2, 4}) {
    config.threads = threads;
    config.limits.pil_memory_budget_bytes = 4096;
    StatusOr<MiningResult> partial = MineMpp(sequence, config);
    ASSERT_TRUE(partial.ok()) << partial.status().message();
    for (const FrequentPattern& fp : partial->patterns) {
      const std::pair<std::string, std::uint64_t> entry(
          fp.pattern.ToShorthand(), fp.support);
      EXPECT_NE(std::find(truth.begin(), truth.end(), entry), truth.end())
          << "threads " << threads << ": pattern " << entry.first
          << " (support " << entry.second
          << ") not in the unbudgeted result";
    }
  }
}

// --- Windowed-sink contract: what the executor delivers (and charges)
// when a run does NOT finish cleanly. The delivered prefix must be
// byte-identical at every thread count for memory trips (which latch at a
// window's Reserve, before any of its pieces fill) and for sink errors (the
// merge stops in candidate order); and the guard's tick total must equal
// the candidates actually delivered to the sink (TickN refunds refused
// pieces), except after a sink error, where with several workers the
// failing window's later pieces were filled and paid for but never merged.

struct SinkRecord {
  std::string symbols;
  std::uint64_t support = 0;
  std::vector<PilEntry> rows;
  bool operator==(const SinkRecord& other) const {
    return symbols == other.symbols && support == other.support &&
           rows == other.rows;
  }
};

struct JoinRun {
  std::vector<SinkRecord> delivered;
  std::uint64_t ticks = 0;
  bool interrupted = false;
  Status status = Status::OK();
};

// Runs `plan` on `threads` workers under a fresh guard. `memory_budget` of 0
// means unlimited; `fail_after` >= 0 makes the sink error on delivery number
// fail_after (0-based). Every successful delivery is promoted, mirroring the
// mining loop.
JoinRun RunJoin(const internal::BuiltLevel& level,
                const internal::JoinPlan& plan, const GapRequirement& gap,
                std::int64_t threads, std::uint64_t memory_budget,
                std::int64_t fail_after) {
  JoinRun run;
  ResourceLimits limits;
  if (memory_budget > 0) limits.pil_memory_budget_bytes = memory_budget;
  MiningGuard guard(limits);
  {
    internal::ParallelLevelExecutor executor(threads);
    PilArena out(&guard);
    std::int64_t deliveries = 0;
    out.BeginScratch();
    run.status = executor.ExecuteJoin(
        level.entries, level.arena, level.entries, level.arena, plan, gap,
        KernelImpl::kScalar, &guard, out,
        [&](const internal::JoinedCandidate& candidate) -> Status {
          if (fail_after >= 0 && deliveries == fail_after) {
            return Status::Internal("sink failure injected by test");
          }
          ++deliveries;
          SinkRecord record;
          record.symbols.push_back(
              level.entries[candidate.left].symbols.front());
          record.symbols.append(level.entries[candidate.right].symbols);
          record.support = candidate.support.count;
          const PilEntry* rows = out.Rows(candidate.span);
          record.rows.assign(rows, rows + candidate.span.len);
          out.Promote(candidate.span);
          run.delivered.push_back(std::move(record));
          return Status::OK();
        },
        &run.interrupted);
    out.EndScratch();
    run.ticks = guard.ticks();
  }
  return run;
}

// A join big enough to span several scratch windows: 16 candidates of
// ~10k-row PILs each, ~160k output rows against a 64k-row window target.
internal::BuiltLevel MultiWindowLevel(const GapRequirement& gap) {
  Rng rng(2024);
  Sequence sequence = *UniformRandomSequence(40000, Alphabet::Dna(), rng);
  return internal::BuildAllPatternsOfLength(sequence, gap, 1);
}

TEST(ParallelMiningTest, TickTotalEqualsDeliveredCandidates) {
  GapRequirement gap = *GapRequirement::Create(0, 2);
  internal::BuiltLevel level = MultiWindowLevel(gap);
  const internal::JoinPlan plan = internal::JoinPlan::SelfJoin(level.entries);
  ASSERT_FALSE(plan.empty());
  for (std::int64_t threads : {1, 2, 8}) {
    JoinRun run = RunJoin(level, plan, gap, threads, /*memory_budget=*/0,
                          /*fail_after=*/-1);
    ASSERT_TRUE(run.status.ok()) << run.status.message();
    EXPECT_FALSE(run.interrupted);
    EXPECT_EQ(run.delivered.size(), plan.num_candidates());
    EXPECT_EQ(run.ticks, run.delivered.size()) << "threads " << threads;
  }
}

TEST(ParallelMiningTest, MemoryTripPrefixByteIdenticalAcrossThreadCounts) {
  GapRequirement gap = *GapRequirement::Create(0, 2);
  internal::BuiltLevel level = MultiWindowLevel(gap);
  const internal::JoinPlan plan = internal::JoinPlan::SelfJoin(level.entries);
  ASSERT_FALSE(plan.empty());

  // Find a budget that lets the first scratch window through and trips on a
  // later window's Reserve (searched, not hardcoded, so the test survives
  // retuning of the window/block row targets).
  std::uint64_t trip_budget = 0;
  JoinRun reference;
  for (std::uint64_t budget :
       {std::uint64_t{1} << 20, (std::uint64_t{3} << 20) / 2,
        std::uint64_t{2} << 20, std::uint64_t{3} << 20,
        std::uint64_t{1} << 19}) {
    JoinRun run = RunJoin(level, plan, gap, /*threads=*/1, budget,
                          /*fail_after=*/-1);
    ASSERT_TRUE(run.status.ok()) << run.status.message();
    if (run.interrupted && !run.delivered.empty() &&
        run.delivered.size() < plan.num_candidates()) {
      trip_budget = budget;
      reference = std::move(run);
      break;
    }
  }
  ASSERT_NE(trip_budget, 0u)
      << "no probed budget produced a mid-level memory trip";
  // The trip latched at a window's Reserve, before any of its pieces filled,
  // so the ticks charged are exactly the candidates the sink received.
  EXPECT_EQ(reference.ticks, reference.delivered.size());

  for (std::int64_t threads : {2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    JoinRun run = RunJoin(level, plan, gap, threads, trip_budget,
                          /*fail_after=*/-1);
    ASSERT_TRUE(run.status.ok()) << run.status.message();
    EXPECT_TRUE(run.interrupted);
    EXPECT_EQ(run.ticks, run.delivered.size());
    EXPECT_EQ(run.delivered, reference.delivered)
        << "memory-trip truncation point moved with the thread count";
  }
}

TEST(ParallelMiningTest, SinkErrorPrefixByteIdenticalAcrossThreadCounts) {
  GapRequirement gap = *GapRequirement::Create(0, 2);
  internal::BuiltLevel level = MultiWindowLevel(gap);
  const internal::JoinPlan plan = internal::JoinPlan::SelfJoin(level.entries);
  ASSERT_GT(plan.num_candidates(), 8u);

  const std::int64_t fail_after = 7;  // mid-stream, not at a window edge
  JoinRun reference = RunJoin(level, plan, gap, /*threads=*/1,
                              /*memory_budget=*/0, fail_after);
  ASSERT_FALSE(reference.status.ok());
  EXPECT_EQ(reference.delivered.size(),
            static_cast<std::size_t>(fail_after));

  for (std::int64_t threads : {2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    JoinRun run = RunJoin(level, plan, gap, threads, /*memory_budget=*/0,
                          fail_after);
    ASSERT_FALSE(run.status.ok());
    EXPECT_EQ(run.status.message(), reference.status.message());
    EXPECT_EQ(run.delivered, reference.delivered)
        << "sink-error prefix depends on the thread count";
    // The failing window's later pieces were filled (and paid for) before
    // the merge reached the failure, so ticks only bounds delivered from
    // above.
    EXPECT_GE(run.ticks, run.delivered.size());
  }
}

TEST(GuardConcurrencyTest, ChargeReleaseBalancesAcrossThreads) {
  ResourceLimits limits;  // unlimited
  MiningGuard guard(limits);
  constexpr int kThreads = 8;
  constexpr int kRounds = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&guard] {
      for (int i = 0; i < kRounds; ++i) {
        const std::uint64_t bytes = 16 + static_cast<std::uint64_t>(i % 7);
        EXPECT_TRUE(guard.ChargeMemory(bytes));
        guard.ReleaseMemory(bytes);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(guard.memory_in_use_bytes(), 0u);
  EXPECT_FALSE(guard.stopped());
}

TEST(GuardConcurrencyTest, BudgetTripLatchesExactlyOneReason) {
  ResourceLimits limits;
  limits.pil_memory_budget_bytes = 1000;
  MiningGuard guard(limits);
  constexpr int kThreads = 8;
  std::atomic<int> violations{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        if (!guard.ChargeMemory(64)) {
          violations.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_GT(violations.load(), 0);
  EXPECT_TRUE(guard.stopped());
  EXPECT_EQ(guard.reason(), TerminationReason::kMemoryBudget);
}

TEST(GuardConcurrencyTest, CancellationVisibleToAllWorkers) {
  CancelToken cancel;
  ResourceLimits limits;
  MiningGuard guard(limits, &cancel);
  constexpr int kThreads = 4;
  std::atomic<int> observed_stop{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      while (guard.CheckNow()) {
        std::this_thread::yield();
      }
      observed_stop.fetch_add(1);
    });
  }
  cancel.RequestCancel();
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(observed_stop.load(), kThreads);
  EXPECT_EQ(guard.reason(), TerminationReason::kCancelled);
}

TEST(GuardConcurrencyTest, ConcurrentTicksKeepSharedCadence) {
  ResourceLimits limits;
  MiningGuard guard(limits);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::atomic<bool> any_false{false};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100'000; ++i) {
        if (!guard.Tick()) any_false.store(true);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(any_false.load());  // nothing to trip: all ticks succeed
  EXPECT_FALSE(guard.stopped());
}

TEST(ParallelMiningTest, CancelRacingTheMergeStaysSound) {
  // The serve drain latches a CancelToken from another thread while the
  // parallel executor may be anywhere: sharding, counting, or merging.
  // Wherever the cancel lands, the run must return OK with either a
  // completed or a cancelled result, and every returned pattern must carry
  // its exact ungoverned support. TSan patrols the token/merge handshake.
  Rng rng(47);
  Sequence sequence = *UniformRandomSequence(600, Alphabet::Dna(), rng);
  MinerConfig config = TestConfig();

  StatusOr<MiningResult> full = MineMpp(sequence, config);
  ASSERT_TRUE(full.ok());
  std::vector<std::pair<std::string, std::uint64_t>> truth;
  for (const FrequentPattern& fp : full->patterns) {
    truth.emplace_back(fp.pattern.ToShorthand(), fp.support);
  }

  bool saw_cancelled = false;
  // Vary where the cancel lands by spinning a different amount each round;
  // the contract must hold at every interleaving.
  for (int round = 0; round < 12; ++round) {
    CancelToken cancel;
    config.threads = 4;
    config.cancel = &cancel;
    std::thread canceller([&cancel, round] {
      // Relaxed atomic spin: keeps the loop un-elidable without the
      // deprecated volatile increment.
      std::atomic<int> spin{0};
      while (spin.fetch_add(1, std::memory_order_relaxed) < round * 20'000) {
      }
      cancel.RequestCancel();
    });
    StatusOr<MiningResult> result = MineMpp(sequence, config);
    canceller.join();
    ASSERT_TRUE(result.ok()) << result.status().message();
    ASSERT_TRUE(result->termination == TerminationReason::kCompleted ||
                result->termination == TerminationReason::kCancelled);
    if (result->termination == TerminationReason::kCancelled) {
      saw_cancelled = true;
      EXPECT_LT(result->guaranteed_complete_up_to,
                full->guaranteed_complete_up_to + 1);
    } else {
      EXPECT_EQ(result->patterns.size(), full->patterns.size());
    }
    for (const FrequentPattern& fp : result->patterns) {
      const std::pair<std::string, std::uint64_t> entry(
          fp.pattern.ToShorthand(), fp.support);
      EXPECT_NE(std::find(truth.begin(), truth.end(), entry), truth.end())
          << "round " << round << ": pattern " << entry.first
          << " (support " << entry.second << ") not in the full result";
    }
  }
  // Round 0 cancels before the first guard poll, so at least one round is
  // guaranteed to come back cancelled.
  EXPECT_TRUE(saw_cancelled);
}

}  // namespace
}  // namespace pgm
