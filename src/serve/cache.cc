#include "serve/cache.h"

#include <utility>

namespace pgm {

namespace {

void BumpCounter(MetricsRegistry* metrics, const char* name) {
  if (metrics != nullptr) metrics->GetCounter(name)->Increment();
}

}  // namespace

ResultCache::ResultCache(std::uint64_t capacity_bytes, MetricsRegistry* metrics)
    : capacity_bytes_(capacity_bytes), metrics_(metrics) {}

bool ResultCache::Lookup(const std::string& key, MiningResult* result) {
  if (capacity_bytes_ == 0) return false;  // disabled: no metrics noise
  {
    MutexLock lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      *result = it->second.result;
      BumpCounter(metrics_, "serve.cache.hits");
      return true;
    }
  }
  BumpCounter(metrics_, "serve.cache.misses");
  return false;
}

bool ResultCache::Insert(const std::string& key, const MiningResult& result) {
  if (capacity_bytes_ == 0) return false;  // disabled: no metrics noise
  const std::uint64_t bytes = ApproxResultBytes(result);
  if (bytes > capacity_bytes_) {
    // An entry bigger than the whole budget can never fit: caching must
    // never be the thing that busts the memory ledger.
    BumpCounter(metrics_, "serve.cache.rejected");
    return false;
  }
  MutexLock lock(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Refresh in place; completed results for one key are equivalent, but
    // the recency bump and ledger swap keep the bookkeeping exact.
    bytes_in_use_ -= it->second.bytes;
    it->second.result = result;
    it->second.bytes = bytes;
    bytes_in_use_ += bytes;
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  } else {
    while (bytes_in_use_ + bytes > capacity_bytes_) EvictOne();
    lru_.push_front(key);
    Entry entry;
    entry.result = result;
    entry.bytes = bytes;
    entry.lru_pos = lru_.begin();
    entries_.emplace(key, std::move(entry));
    bytes_in_use_ += bytes;
    BumpCounter(metrics_, "serve.cache.insertions");
  }
  if (metrics_ != nullptr) {
    metrics_->GetGauge("serve.cache.bytes")
        ->Set(static_cast<std::int64_t>(bytes_in_use_));
  }
  return true;
}

void ResultCache::EvictOne() {
  const std::string& victim = lru_.back();
  auto it = entries_.find(victim);
  bytes_in_use_ -= it->second.bytes;
  entries_.erase(it);
  lru_.pop_back();
  BumpCounter(metrics_, "serve.cache.evictions");
}

std::uint64_t ResultCache::bytes_in_use() const {
  MutexLock lock(mutex_);
  return bytes_in_use_;
}

std::size_t ResultCache::entry_count() const {
  MutexLock lock(mutex_);
  return entries_.size();
}

}  // namespace pgm
