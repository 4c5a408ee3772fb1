#include "util/metrics.h"

#include <algorithm>

#include "util/string_util.h"

namespace pgm {

namespace {

void AppendUintList(const std::vector<std::uint64_t>& values,
                    std::string* out) {
  out->push_back('[');
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out->append(", ");
    out->append(std::to_string(values[i]));
  }
  out->push_back(']');
}

}  // namespace

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {}

void Histogram::Observe(std::uint64_t value) {
  const std::size_t index = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t current = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(current, SatAdd(current, value),
                                     std::memory_order_relaxed)) {
  }
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mutex_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot.reset(new Counter());
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mutex_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) slot.reset(new Gauge());
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<std::uint64_t> bounds) {
  MutexLock lock(mutex_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) slot.reset(new Histogram(std::move(bounds)));
  return slot.get();
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  MutexLock lock(mutex_);
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name) const {
  MutexLock lock(mutex_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::FindHistogram(
    const std::string& name) const {
  MutexLock lock(mutex_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

std::uint64_t MetricsRegistry::CounterValue(const std::string& name) const {
  const Counter* counter = FindCounter(name);
  return counter == nullptr ? 0 : counter->value();
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  // Snapshot the other registry's handles under its lock, then apply them
  // through the public getters (which take this registry's lock); never hold
  // both locks at once, so Merge cycles cannot deadlock.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, const Histogram*>> histograms;
  {
    MutexLock lock(other.mutex_);
    for (const auto& [name, counter] : other.counters_) {
      counters.emplace_back(name, counter->value());
    }
    for (const auto& [name, gauge] : other.gauges_) {
      gauges.emplace_back(name, gauge->value());
    }
    for (const auto& [name, histogram] : other.histograms_) {
      histograms.emplace_back(name, histogram.get());
    }
  }
  for (const auto& [name, value] : counters) {
    if (value > 0) GetCounter(name)->Add(value);
  }
  for (const auto& [name, value] : gauges) GetGauge(name)->Set(value);
  for (const auto& [name, source] : histograms) {
    Histogram* target = GetHistogram(name, source->bounds());
    const std::size_t buckets =
        std::min(target->bounds_.size(), source->bounds_.size()) + 1;
    for (std::size_t i = 0; i < buckets; ++i) {
      const std::uint64_t delta = source->bucket_count(i);
      if (delta > 0) {
        target->buckets_[i].fetch_add(delta, std::memory_order_relaxed);
      }
    }
    target->count_.fetch_add(source->count(), std::memory_order_relaxed);
    std::uint64_t current = target->sum_.load(std::memory_order_relaxed);
    while (!target->sum_.compare_exchange_weak(
        current, SatAdd(current, source->sum()), std::memory_order_relaxed)) {
    }
  }
}

std::string MetricsRegistry::ToJson() const {
  MutexLock lock(mutex_);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + EscapeJson(name) +
           "\": " + std::to_string(counter->value());
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    out += first ? "\n" : ",\n";
    first = false;
    out +=
        "    \"" + EscapeJson(name) + "\": " + std::to_string(gauge->value());
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + EscapeJson(name) + "\": {\"bounds\": ";
    AppendUintList(histogram->bounds(), &out);
    out += ", \"buckets\": ";
    std::vector<std::uint64_t> buckets(histogram->bounds().size() + 1);
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      buckets[i] = histogram->bucket_count(i);
    }
    AppendUintList(buckets, &out);
    out += ", \"count\": " + std::to_string(histogram->count());
    out += ", \"sum\": " + std::to_string(histogram->sum());
    out += "}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}";
  return out;
}

}  // namespace pgm
