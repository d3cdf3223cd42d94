// Bounded retry with capped exponential backoff, for the fleet's
// checkpoint writes. Two backoff flavors, both deterministic:
//
//   * jitter_fraction == 0 (default): the exact schedule base * factor^k,
//     capped — replayable with no state at all.
//   * jitter_fraction > 0: each delay is scaled by a factor drawn from
//     [1 - jitter_fraction, 1] using an Rng seeded from jitter_seed. A
//     fleet of tenants retrying against one failing store must not hammer
//     it in lockstep; seeded jitter decorrelates them while keeping every
//     sequence bit-replayable from its seed, like every other stochastic
//     process in the library.
//
// The sleep function is injectable so tests record the backoff sequence
// instead of waiting it out; passing nullptr skips sleeping entirely,
// which is the right default in a simulation whose clock is SimTime
// minutes, not wall time.
#pragma once

#include <cstdint>
#include <functional>

#include "util/rng.h"

namespace jarvis::util {

struct RetryPolicy {
  int max_attempts = 3;        // total tries, clamped to >= 1
  int base_backoff_ms = 10;    // delay before the second attempt
  double backoff_factor = 2.0; // multiplier per further failed attempt
  int max_backoff_ms = 10000;  // delay ceiling
  // Jitter: each delay is scaled by a uniform draw from
  // [1 - jitter_fraction, 1]. 0 disables (exact schedule); values are
  // clamped to [0, 1]. The cap applies before scaling, so a jittered
  // delay never exceeds max_backoff_ms.
  double jitter_fraction = 0.0;
  std::uint64_t jitter_seed = 0;  // seeds the per-Retry jitter stream
};

// Deterministic backoff before the given 1-based attempt: attempt 1 waits
// nothing, attempt k >= 2 waits base * factor^(k-2), capped at the ceiling.
// Ignores jitter (the no-jitter schedule).
int BackoffMs(const RetryPolicy& policy, int attempt);

// Jittered backoff: the BackoffMs schedule scaled by a draw from `rng`
// (one draw per nonzero delay). Same (policy, seed) -> same sequence.
int BackoffMsJittered(const RetryPolicy& policy, int attempt, Rng& rng);

struct RetryResult {
  bool succeeded = false;
  int attempts = 0;          // attempts actually made
  int total_backoff_ms = 0;  // sum of delays requested
};

using SleepFn = std::function<void(int delay_ms)>;

// Calls `fn` (returning true on success) until it succeeds or the policy's
// attempt budget runs out. The jitter stream (when enabled) is seeded
// fresh per call, so every Retry invocation replays identically.
template <typename Fn>
RetryResult Retry(const RetryPolicy& policy, Fn&& fn,
                  const SleepFn& sleep = nullptr) {
  RetryResult result;
  Rng jitter_rng(policy.jitter_seed);
  const bool jittered = policy.jitter_fraction > 0.0;
  const int budget = policy.max_attempts < 1 ? 1 : policy.max_attempts;
  for (int attempt = 1; attempt <= budget; ++attempt) {
    if (attempt > 1) {
      const int delay = jittered
                            ? BackoffMsJittered(policy, attempt, jitter_rng)
                            : BackoffMs(policy, attempt);
      result.total_backoff_ms += delay;
      if (sleep) sleep(delay);
    }
    ++result.attempts;
    if (fn()) {
      result.succeeded = true;
      break;
    }
  }
  return result;
}

}  // namespace jarvis::util
