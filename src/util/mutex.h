#ifndef PGM_UTIL_MUTEX_H_
#define PGM_UTIL_MUTEX_H_

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "util/thread_annotations.h"

// Runtime lock-order assertions: every ranked pgm::Mutex acquisition is
// checked against the ranks this thread already holds, and a non-increasing
// acquisition aborts with both ranks named. On by default (the check is a
// thread-local array walk, far below the cost of the lock itself);
// -DPGM_LOCK_ORDER_CHECKS=0 (CMake option PGM_LOCK_ORDER_CHECKS=OFF)
// compiles it out entirely. The static mirror of the same hierarchy is
// tools/lint/manifests/locks.txt, enforced by pgm_lint's lock-order rule.
#ifndef PGM_LOCK_ORDER_CHECKS
#define PGM_LOCK_ORDER_CHECKS 1
#endif

namespace pgm {

/// The declared lock hierarchy, outermost (lowest) to innermost (highest).
/// A thread may only acquire a ranked mutex whose rank is strictly greater
/// than every ranked mutex it already holds. Values and names mirror
/// tools/lint/manifests/locks.txt — change them together.
enum LockRank : int {
  kLockRankUnranked = 0,  ///< exempt from ordering (default-constructed)
  kLockRankQueue = 10,    ///< serve/queue.h admission queue
  kLockRankService = 20,  ///< serve/service.h job table
  kLockRankCache = 30,    ///< serve/cache.h result cache
  kLockRankPool = 40,     ///< util/thread_pool.h task queue
  kLockRankMetrics = 60,  ///< util/metrics.h registry
  kLockRankTrace = 70,    ///< core/trace.h sink
  kLockRankBackoff = 80,  ///< util/backoff.cc sleep recorder
};

#if PGM_LOCK_ORDER_CHECKS
namespace lock_order_internal {

/// Per-thread stack of held ranks. Fixed capacity: the hierarchy is seven
/// deep and MutexLock scopes nest shallowly; overflowing it is itself a
/// locking bug, so it aborts rather than silently dropping entries.
struct HeldStack {
  int ranks[16];
  int depth = 0;
};

inline HeldStack& Held() {
  static thread_local HeldStack held;
  return held;
}

/// Called before blocking on the lock, so an order violation that would
/// deadlock aborts with a diagnosis instead of hanging.
inline void NoteAcquired(int rank) {
  if (rank == kLockRankUnranked) return;
  HeldStack& held = Held();
  if (held.depth > 0 && held.ranks[held.depth - 1] >= rank) {
    std::fprintf(stderr,
                 "pgm: lock-order violation: acquiring rank %d while "
                 "holding rank %d; ranked mutexes must be acquired in "
                 "strictly increasing rank order (see "
                 "tools/lint/manifests/locks.txt)\n",
                 rank, held.ranks[held.depth - 1]);
    std::abort();
  }
  if (held.depth == 16) {
    std::fprintf(stderr, "pgm: lock-order stack overflow (16 ranked "
                         "mutexes held by one thread)\n");
    std::abort();
  }
  held.ranks[held.depth++] = rank;
}

/// Removes the most recent occurrence of `rank`. Usually the top (MutexLock
/// is scoped), but a CondVar wait releases its mutex mid-scope, so the
/// search tolerates out-of-LIFO release.
inline void NoteReleased(int rank) {
  if (rank == kLockRankUnranked) return;
  HeldStack& held = Held();
  for (int i = held.depth - 1; i >= 0; --i) {
    if (held.ranks[i] != rank) continue;
    for (int j = i; j + 1 < held.depth; ++j) held.ranks[j] = held.ranks[j + 1];
    --held.depth;
    return;
  }
}

}  // namespace lock_order_internal
#endif  // PGM_LOCK_ORDER_CHECKS

/// An annotated std::mutex. libstdc++ ships std::mutex without thread-safety
/// annotations, so locking through the raw type is invisible to Clang's
/// analysis; this wrapper is the capability the PGM_GUARDED_BY declarations
/// throughout the codebase refer to. It satisfies BasicLockable (lowercase
/// lock/unlock), so std::condition_variable_any waits on it directly.
///
/// Construct with a LockRank to opt the mutex into both the runtime
/// lock-order assertions above and the static lock-order lint; every
/// long-lived mutex in the tree is ranked, and new ones should be too
/// (add a row to tools/lint/manifests/locks.txt alongside).
///
/// Lock through MutexLock; the bare lock()/unlock() methods exist for the
/// condition-variable protocol and the RAII wrapper only (the `naked-lock`
/// lint rule rejects direct calls elsewhere).
class PGM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex(LockRank rank) : rank_(rank) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() PGM_ACQUIRE() {  // pgm-lint: allow(naked-lock)
#if PGM_LOCK_ORDER_CHECKS
    lock_order_internal::NoteAcquired(rank_);
#endif
    mu_.lock();  // pgm-lint: allow(naked-lock)
  }
  void unlock() PGM_RELEASE() {  // pgm-lint: allow(naked-lock)
#if PGM_LOCK_ORDER_CHECKS
    lock_order_internal::NoteReleased(rank_);
#endif
    mu_.unlock();  // pgm-lint: allow(naked-lock)
  }

  int rank() const { return rank_; }

 private:
  std::mutex mu_;
  int rank_ = kLockRankUnranked;
};

/// RAII lock for pgm::Mutex — the only sanctioned way to hold one outside a
/// condition-variable wait loop.
class PGM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) PGM_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }  // pgm-lint: allow(naked-lock)
  ~MutexLock() PGM_RELEASE() { mu_.unlock(); }  // pgm-lint: allow(naked-lock)

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with pgm::Mutex. Waits release and reacquire
/// the capability, which the analysis cannot see; callers therefore keep
/// guarded reads in the function that holds the MutexLock (a manual
/// while-wait loop), never in a predicate lambda. A wait on a ranked mutex
/// pops and re-pushes its rank through lock()/unlock(), so the re-acquire
/// is order-checked like any other acquisition.
using CondVar = std::condition_variable_any;

}  // namespace pgm

#endif  // PGM_UTIL_MUTEX_H_
