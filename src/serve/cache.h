#ifndef PGM_SERVE_CACHE_H_
#define PGM_SERVE_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <string>

#include "core/miner.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace pgm {

/// An LRU cache of completed mining results keyed by
/// serve::CacheKey(sequence, algorithm, config).
///
/// Only *completed* results belong here (the service enforces it): a
/// completed run is independent of thread count and resource limits, so a
/// hit is byte-equivalent to re-mining. Every entry's approximate size is
/// charged against `capacity_bytes`; inserting past the budget evicts
/// least-recently-used entries first, and an entry larger than the whole
/// budget is refused outright. All methods are thread-safe.
class ResultCache {
 public:
  /// `capacity_bytes` 0 disables the cache (lookups miss, inserts drop).
  /// `metrics` may be null; when set, the cache maintains
  /// serve.cache.{hits,misses,insertions,evictions,rejected} counters and
  /// the serve.cache.bytes gauge. It must outlive the cache.
  explicit ResultCache(std::uint64_t capacity_bytes,
                       MetricsRegistry* metrics = nullptr);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// On hit, copies the cached result into *result, marks the entry
  /// most-recently-used, and returns true.
  bool Lookup(const std::string& key, MiningResult* result);

  /// Inserts (or refreshes) `key`, evicting LRU entries until the ledger
  /// fits the budget. Returns false when the entry alone exceeds the budget
  /// (or the cache is disabled) — the result is simply not cached.
  bool Insert(const std::string& key, const MiningResult& result);

  std::uint64_t capacity_bytes() const { return capacity_bytes_; }
  std::uint64_t bytes_in_use() const;
  std::size_t entry_count() const;

 private:
  struct Entry {
    MiningResult result;
    std::uint64_t bytes = 0;
    /// Position in lru_ (most recent at the front).
    std::list<std::string>::iterator lru_pos;
  };

  /// Drops the LRU entry. Requires a non-empty cache.
  void EvictOne() PGM_REQUIRES(mutex_);

  const std::uint64_t capacity_bytes_;
  MetricsRegistry* const metrics_;

  mutable Mutex mutex_{kLockRankCache};
  std::map<std::string, Entry> entries_ PGM_GUARDED_BY(mutex_);
  std::list<std::string> lru_ PGM_GUARDED_BY(mutex_);
  std::uint64_t bytes_in_use_ PGM_GUARDED_BY(mutex_) = 0;
};

}  // namespace pgm

#endif  // PGM_SERVE_CACHE_H_
