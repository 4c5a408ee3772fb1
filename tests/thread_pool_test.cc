// Unit tests for the fork-join ThreadPool behind the parallel level
// engine: full fan-out, inline execution for <= 1 threads, reuse across
// generations, and visibility of worker writes after Execute returns.

#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

namespace pgm {
namespace {

TEST(ThreadPoolTest, RunsFunctionOnEveryWorker) {
  ThreadPool pool(4);
  ASSERT_EQ(pool.num_threads(), 4u);
  std::vector<std::atomic<int>> hits(4);
  pool.Execute([&](std::size_t worker) { hits[worker].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "worker " << i;
  }
}

TEST(ThreadPoolTest, SingleThreadRunsInlineOnCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.Execute([&](std::size_t worker) {
    EXPECT_EQ(worker, 0u);
    seen = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, caller);
}

TEST(ThreadPoolTest, ZeroThreadsBehavesLikeOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  int calls = 0;
  pool.Execute([&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ReusableAcrossManyGenerations) {
  ThreadPool pool(3);
  std::atomic<std::uint64_t> total{0};
  for (int round = 0; round < 100; ++round) {
    pool.Execute([&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 300u);
}

TEST(ThreadPoolTest, WorkerWritesVisibleAfterExecute) {
  ThreadPool pool(4);
  // Plain (non-atomic) writes to disjoint slots must be visible to the
  // caller once Execute returns — the join is a synchronization point.
  std::vector<int> slots(1024, 0);
  std::atomic<std::size_t> next{0};
  pool.Execute([&](std::size_t) {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= slots.size()) return;
      slots[i] = static_cast<int>(i) + 1;
    }
  });
  long long sum = std::accumulate(slots.begin(), slots.end(), 0LL);
  EXPECT_EQ(sum, 1024LL * 1025 / 2);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1 << 12);
  pool.ParallelFor(hits.size(), 64, [&](std::size_t begin, std::size_t end) {
    ASSERT_LE(end - begin, 64u);  // ranges never exceed the grain
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForRunsInlineWhenSerialOrSmall) {
  const std::thread::id caller = std::this_thread::get_id();
  // Serial pool: always inline, one whole-range call.
  {
    ThreadPool pool(1);
    int calls = 0;
    pool.ParallelFor(100, 8, [&](std::size_t begin, std::size_t end) {
      ++calls;
      EXPECT_EQ(begin, 0u);
      EXPECT_EQ(end, 100u);
      EXPECT_EQ(std::this_thread::get_id(), caller);
    });
    EXPECT_EQ(calls, 1);
  }
  // Parallel pool, loop no bigger than one grain: nothing to split.
  {
    ThreadPool pool(4);
    int calls = 0;
    pool.ParallelFor(8, 8, [&](std::size_t begin, std::size_t end) {
      ++calls;
      EXPECT_EQ(begin, 0u);
      EXPECT_EQ(end, 8u);
      EXPECT_EQ(std::this_thread::get_id(), caller);
    });
    EXPECT_EQ(calls, 1);
  }
}

TEST(ThreadPoolTest, ParallelForZeroIterationsIsANoOp) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, 16, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // Grain 0 is clamped to 1, not an infinite loop.
  std::atomic<int> visited{0};
  pool.ParallelFor(5, 0, [&](std::size_t begin, std::size_t end) {
    visited.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(visited.load(), 5);
}

TEST(ThreadPoolTest, ParallelForWritesVisibleAfterReturn) {
  // Disjoint plain writes through the range argument must be visible to
  // the caller on return — same join barrier as Execute.
  ThreadPool pool(4);
  std::vector<int> slots(4096, 0);
  pool.ParallelFor(slots.size(), 32, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      slots[i] = static_cast<int>(i) + 1;
    }
  });
  long long sum = std::accumulate(slots.begin(), slots.end(), 0LL);
  EXPECT_EQ(sum, 4096LL * 4097 / 2);
}

TEST(ThreadPoolTest, ResolveThreadCountClampsAndDetects) {
  EXPECT_EQ(ThreadPool::ResolveThreadCount(1), 1u);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(7), 7u);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(-5), 1u);
  EXPECT_GE(ThreadPool::ResolveThreadCount(0), 1u);  // hardware concurrency
}

TEST(ThreadPoolTest, ResolveThreadCountNeverExceedsTheCeiling) {
  EXPECT_EQ(ThreadPool::ResolveThreadCount(ThreadPool::kMaxThreads),
            static_cast<std::size_t>(ThreadPool::kMaxThreads));
  EXPECT_EQ(ThreadPool::ResolveThreadCount(1'000'000),
            static_cast<std::size_t>(ThreadPool::kMaxThreads));
}

TEST(ThreadPoolTest, DrainsCleanlyWhenDestroyedRightAfterExecute) {
  // The serve host tears its pool down as soon as the drain loop returns;
  // destruction immediately after the join must not lose or hang work.
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> calls{0};
    {
      ThreadPool pool(4);
      pool.Execute([&](std::size_t) { calls.fetch_add(1); });
    }
    EXPECT_EQ(calls.load(), 4) << "round " << round;
  }
}

TEST(ThreadPoolTest, GenerationsStaySequentiallyConsistent) {
  // Each Execute is a full barrier: work from generation g must observe
  // every write from generation g-1. A stale worker re-running an old
  // generation would break the monotone sequence below.
  ThreadPool pool(4);
  std::atomic<int> sequence{0};
  for (int g = 1; g <= 200; ++g) {
    pool.Execute([&, g](std::size_t worker) {
      if (worker == 0) {
        EXPECT_EQ(sequence.load(), g - 1);
        sequence.store(g);
      }
    });
  }
  EXPECT_EQ(sequence.load(), 200);
}

TEST(ThreadPoolTest, IndependentPoolsInterleaveWithoutCrosstalk) {
  // The service pool and a job's mining-internal pool coexist; alternating
  // generations between two pools must not corrupt either barrier.
  ThreadPool a(2);
  ThreadPool b(3);
  std::atomic<int> a_calls{0};
  std::atomic<int> b_calls{0};
  for (int round = 0; round < 50; ++round) {
    a.Execute([&](std::size_t) { a_calls.fetch_add(1); });
    b.Execute([&](std::size_t) { b_calls.fetch_add(1); });
  }
  EXPECT_EQ(a_calls.load(), 100);
  EXPECT_EQ(b_calls.load(), 150);
}

TEST(ThreadPoolTest, ReuseUnderContendedSharedState) {
  // Stress the generation protocol (TSan hunts the handshake): many short
  // generations hammering one cacheline from every worker.
  ThreadPool pool(8);
  std::atomic<std::uint64_t> total{0};
  for (int round = 0; round < 500; ++round) {
    pool.Execute([&](std::size_t worker) {
      total.fetch_add(worker + 1);
    });
  }
  EXPECT_EQ(total.load(), 500ull * (1 + 2 + 3 + 4 + 5 + 6 + 7 + 8));
}

}  // namespace
}  // namespace pgm
