#ifndef PGM_UTIL_THREAD_POOL_H_
#define PGM_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace pgm {

/// A fixed-size pool of worker threads for fork-join data parallelism.
///
/// The pool targets the miners' level loops: the caller partitions a level
/// into chunks, hands Execute() a function that drains chunks off a shared
/// atomic counter, and Execute() runs it on every worker (the calling
/// thread included) and blocks until all invocations return. There is no
/// task queue and no work stealing — scheduling lives in the caller's chunk
/// counter, which is what keeps output slots deterministic.
///
/// A pool asked for <= 1 threads spawns nothing: Execute() runs the
/// function inline on the caller, so serial runs never touch threading
/// machinery.
class ThreadPool {
 public:
  /// `num_threads` counts the calling thread, so num_threads - 1 workers
  /// are spawned (none for num_threads <= 1).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker count including the calling thread (always >= 1).
  std::size_t num_threads() const { return workers_.size() + 1; }

  /// Invokes fn(worker_index) for every worker_index in [0, num_threads())
  /// concurrently — index 0 on the calling thread — and returns once all
  /// invocations have finished, so writes made by the workers are visible
  /// to the caller. Not reentrant: `fn` must not call Execute itself.
  void Execute(const std::function<void(std::size_t)>& fn);

  /// Fork-join loop over [0, n): workers drain half-open ranges of at most
  /// `grain` indices off a shared cursor and call fn(begin, end) for each.
  /// Ranges are claimed in order but may run on any worker, so fn must only
  /// write state disjoint per index (the deterministic-output discipline of
  /// Execute applies unchanged). Runs inline on the caller when the pool is
  /// serial or the loop is too small to split. Not reentrant (uses Execute).
  void ParallelFor(std::size_t n, std::size_t grain,
                   const std::function<void(std::size_t, std::size_t)>& fn);

  /// Ceiling on an explicit thread-count request. The surfaces that take
  /// one (MinerConfig::threads, corpus_threads, `pgm serve --workers`)
  /// reject larger values, and ResolveThreadCount never returns more, so a
  /// huge request cannot fail a thread spawn and abort the process.
  static constexpr std::int64_t kMaxThreads = 256;

  /// Maps a user-facing thread-count request to an actual worker count:
  /// 0 means one per hardware thread, anything else is clamped to
  /// [1, kMaxThreads].
  static std::size_t ResolveThreadCount(std::int64_t requested);

 private:
  void WorkerLoop(std::size_t worker_index);

  std::vector<std::thread> workers_;

  Mutex mu_{kLockRankPool};
  CondVar work_cv_;
  CondVar done_cv_;
  // task_ is non-null exactly while a generation runs.
  const std::function<void(std::size_t)>* task_ PGM_GUARDED_BY(mu_) = nullptr;
  std::uint64_t generation_ PGM_GUARDED_BY(mu_) = 0;
  std::size_t pending_ PGM_GUARDED_BY(mu_) = 0;
  bool shutdown_ PGM_GUARDED_BY(mu_) = false;
};

}  // namespace pgm

#endif  // PGM_UTIL_THREAD_POOL_H_
