#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace pgm {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads <= 1) return;
  workers_.reserve(num_threads - 1);
  for (std::size_t i = 1; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Execute(const std::function<void(std::size_t)>& fn) {
  if (workers_.empty()) {
    fn(0);
    return;
  }
  {
    MutexLock lock(mu_);
    task_ = &fn;
    pending_ = workers_.size();
    ++generation_;
  }
  work_cv_.notify_all();
  fn(0);
  MutexLock lock(mu_);
  // Manual wait loop (not the predicate overload): the guarded read of
  // pending_ must sit in this function, where the analysis sees the lock
  // held — a predicate lambda would be analyzed as an unlocked context.
  while (pending_ != 0) done_cv_.wait(mu_);
  task_ = nullptr;
}

void ThreadPool::WorkerLoop(std::size_t worker_index) {
  std::uint64_t seen_generation = 0;
  while (true) {
    const std::function<void(std::size_t)>* task = nullptr;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && generation_ == seen_generation) work_cv_.wait(mu_);
      if (shutdown_) return;
      seen_generation = generation_;
      task = task_;
    }
    (*task)(worker_index);
    {
      MutexLock lock(mu_);
      --pending_;
    }
    done_cv_.notify_one();
  }
}

void ThreadPool::ParallelFor(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  grain = std::max<std::size_t>(grain, 1);
  // A loop that cannot produce at least two ranges has nothing to hand the
  // workers; run it inline and skip the wakeup entirely.
  if (workers_.empty() || n <= grain) {
    fn(0, n);
    return;
  }
  std::atomic<std::size_t> cursor{0};
  Execute([&](std::size_t) {
    while (true) {
      const std::size_t begin =
          cursor.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= n) return;
      fn(begin, std::min(begin + grain, n));
    }
  });
}

std::size_t ThreadPool::ResolveThreadCount(std::int64_t requested) {
  if (requested > 0) {
    return static_cast<std::size_t>(std::min(requested, kMaxThreads));
  }
  if (requested < 0) return 1;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : static_cast<std::size_t>(hardware);
}

}  // namespace pgm
