// Unified retry with capped exponential backoff + deterministic jitter.
//
// Every component that re-attempts a failed network operation — the RPC
// endpoint re-issuing a call, the connection manager pacing channel
// re-establishment toward a flapping peer — shares this one policy object
// instead of growing its own ad-hoc timeout constants. The paper's §IV.D
// recovery story ("a dead replica host costs one detection timeout, not
// data loss") only holds when retries are bounded and paced: unbounded
// immediate retries against a dead node turn one failure into a retry storm.
//
// Determinism: jitter is derived by mixing a fixed seed with a caller salt
// and the attempt number — no shared RNG, no wall clock — so two runs of
// the same seeded simulation back off identically.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/rng.h"
#include "common/status.h"
#include "common/units.h"

namespace dm::net {

struct RetryPolicy {
  // Total attempts, first try included. 1 disables retry entirely (and, for
  // backoff-gate users like the ConnectionManager, disables the gate).
  std::size_t max_attempts = 1;
  SimTime base_backoff = 1 * kMilli;  // delay before the 2nd attempt
  SimTime max_backoff = 64 * kMilli;  // exponential growth cap
  // Jitter fraction applied after the cap: the actual delay lands in
  // [backoff * (1 - kJitter), backoff * (1 + kJitter)].
  static constexpr double kJitter = 0.2;
  static constexpr std::uint64_t kSeed = 0x9e3779b97f4a7c15ULL;

  bool enabled() const noexcept { return max_attempts > 1; }

  // Only kUnavailable is retried: a timed-out request may have executed, and
  // retrying it would make the method at-least-once.
  static bool retryable(StatusCode code) noexcept {
    return code == StatusCode::kUnavailable;
  }

  // Delay to wait after failed attempt number `attempt` (1-based).
  // Exponential: base * 2^(attempt-1), capped, then jittered. `salt`
  // decorrelates concurrent callers (call id, peer pair) so they do not
  // retry in lockstep.
  SimTime backoff(std::size_t attempt, std::uint64_t salt) const noexcept {
    if (attempt == 0) attempt = 1;
    const std::size_t shift = std::min<std::size_t>(attempt - 1, 32);
    SimTime delay = base_backoff;
    if (delay > (max_backoff >> shift)) {
      delay = max_backoff;
    } else {
      delay <<= shift;
    }
    delay = std::min(delay, max_backoff);
    if (delay > 0) {
      const std::uint64_t h =
          mix64(kSeed ^ mix64(salt) ^ (0x9e37ULL * attempt));
      // Uniform in [-kJitter, +kJitter] from the top 53 bits.
      const double u =
          static_cast<double>(h >> 11) * 0x1.0p-53 * 2.0 - 1.0;
      const auto jittered = static_cast<SimTime>(
          static_cast<double>(delay) * (1.0 + kJitter * u));
      delay = std::max<SimTime>(jittered, 0);
    }
    return delay;
  }

  // Largest delay backoff() can produce — tests bound observed backoffs
  // with this ("cap reached" assertions).
  SimTime backoff_ceiling() const noexcept {
    return static_cast<SimTime>(static_cast<double>(max_backoff) *
                                (1.0 + kJitter));
  }
};

}  // namespace dm::net
