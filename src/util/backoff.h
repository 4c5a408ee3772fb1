#ifndef PGM_UTIL_BACKOFF_H_
#define PGM_UTIL_BACKOFF_H_

#include <cstdint>
#include <vector>

#include "util/status.h"

namespace pgm {

/// Exponential-backoff retry policy for transient faults (I/O reads, the
/// serving loop's load phase). The schedule is a pure function of the policy
/// and the attempt number — jitter comes from `jitter_seed`, never from
/// wall-clock or global RNG state — so tests can pin the exact delays a
/// caller will sleep.
struct RetryPolicy {
  /// Total attempts including the first; 1 means "no retry".
  int max_attempts = 1;
  /// Delay before the first retry (attempt 2), in milliseconds.
  std::int64_t base_delay_ms = 0;
  /// Each subsequent retry multiplies the previous delay by this.
  double multiplier = 2.0;
  /// Delays are clamped to this ceiling.
  std::int64_t max_delay_ms = 1000;
  /// Non-zero mixes a deterministic jitter into each delay: the delay for
  /// attempt k is drawn from [delay/2, delay] using SplitMix64(seed ^ k).
  /// Zero disables jitter (the delay is exactly the exponential value).
  std::uint64_t jitter_seed = 0;
};

/// The delay to sleep before retry attempt `attempt` (attempt 2 is the
/// first retry; attempt <= 1 returns 0). Deterministic given the policy.
std::int64_t BackoffDelayMs(const RetryPolicy& policy, int attempt);

/// Sleeps for `delay_ms` — or, when a ScopedBackoffRecorder is installed,
/// records the delay instead of sleeping, so retry tests run at full speed
/// and assert the exact schedule.
void BackoffSleep(std::int64_t delay_ms);

/// Calls `attempt` (returning a StatusOr) until it succeeds or fails with
/// anything but kIoError, at most max(1, policy.max_attempts) times,
/// sleeping BackoffSleep(BackoffDelayMs(policy, k + 1)) after failed
/// attempt k. Only kIoError is transient: Corruption, NotFound or
/// InvalidArgument mean the bytes (or the request) are wrong and fail at
/// once. Stores the number of calls made in *attempts when non-null.
template <typename Attempt>
auto RetryTransient(const RetryPolicy& policy, Attempt&& attempt,
                    int* attempts = nullptr) -> decltype(attempt()) {
  const int max_attempts = policy.max_attempts < 1 ? 1 : policy.max_attempts;
  for (int k = 1;; ++k) {
    auto result = attempt();
    if (result.ok() || result.status().code() != StatusCode::kIoError ||
        k >= max_attempts) {
      if (attempts != nullptr) *attempts = k;
      return result;
    }
    BackoffSleep(BackoffDelayMs(policy, k + 1));
  }
}

/// Captures every BackoffSleep delay for the duration of the scope instead
/// of sleeping (tests only; scopes must not nest). Safe to install before
/// spawning worker threads that sleep concurrently — the recorder's log is
/// mutex-protected — but installation/removal must not race with sleeps.
class ScopedBackoffRecorder {
 public:
  ScopedBackoffRecorder();
  ~ScopedBackoffRecorder();
  ScopedBackoffRecorder(const ScopedBackoffRecorder&) = delete;
  ScopedBackoffRecorder& operator=(const ScopedBackoffRecorder&) = delete;

  /// The delays recorded so far, in BackoffSleep call order.
  std::vector<std::int64_t> delays() const;
};

}  // namespace pgm

#endif  // PGM_UTIL_BACKOFF_H_
