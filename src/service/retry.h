/// \file retry.h
/// \brief Client-side retry policy for retryable service failures.
///
/// The service's shedding/backoff contract (service.h) promises that every
/// kUnavailable outcome -- admission rejection or transient execution fault
/// -- will succeed if retried once load subsides. This is the client half:
/// capped exponential backoff with jitter, honouring the service's
/// suggested backoff, resubmitting under the *same* idempotency key so the
/// service can deduplicate and the end-to-end run stays exactly-once.
///
/// Two cross-attempt governors bound the whole retry session, not just one
/// attempt:
///
///   - `overall_deadline_ms` is an end-to-end budget spanning every attempt
///     and every backoff sleep. Each attempt's request deadline is clamped
///     to what remains, so attempt N cannot re-arm the full deadline the
///     caller thought covered the whole operation.
///   - `priority_aware_backoff` stretches backoff for weaker scheduling
///     classes (batch 2x, background 4x), so when the service sheds under
///     overload, background retries return last and interactive capacity
///     recovers first.
///
/// All jitter randomness derives from the request (seed + key) via
/// MixSeed/HashSeed -- never from process-global state -- so a concurrent
/// retry schedule is reproducible bit-for-bit given the same inputs.

#ifndef NED_SERVICE_RETRY_H_
#define NED_SERVICE_RETRY_H_

#include <cstdint>

#include "common/rng.h"
#include "common/timer.h"
#include "service/service.h"

namespace ned {

/// Capped exponential backoff with jitter.
struct RetryPolicy {
  /// Total Submit attempts (first try included).
  int max_attempts = 8;
  int64_t initial_backoff_ms = 1;
  double multiplier = 2.0;
  int64_t max_backoff_ms = 250;
  /// Jitter fraction: the computed backoff is scaled by a uniform factor in
  /// [1 - jitter, 1 + jitter] to de-synchronize retrying clients.
  double jitter = 0.5;
  /// End-to-end budget across all attempts and backoffs; 0 = unlimited.
  /// Each attempt's `request.deadline_ms` is clamped to the remaining
  /// budget, and when it runs out SubmitWithRetry stops with
  /// kDeadlineExceeded instead of starting another attempt.
  int64_t overall_deadline_ms = 0;
  /// Scale backoff by the request's priority class (interactive 1x,
  /// batch 2x, background 4x) so overload recovery favours the work the
  /// scheduler favours.
  bool priority_aware_backoff = false;
  /// Time source for the overall budget; nullptr = real steady clock
  /// (tests inject a ManualClock).
  const Clock* clock = nullptr;
};

/// True for outcomes the policy should retry: kUnavailable only. Resource
/// limits (deadline, budgets) are final partial answers, not retry bait.
bool IsRetryable(const Status& status);

/// Backoff before attempt `attempt + 1` (attempt is 1-based, the one that
/// just failed): max(exponential-with-jitter, service-suggested). Draws the
/// jitter from `rng`, which callers seed per request.
int64_t BackoffMs(const RetryPolicy& policy, int attempt,
                  int64_t suggested_ms, Rng& rng);

/// What SubmitWithRetry did, for harness bookkeeping.
struct RetryOutcome {
  WhyNotResponse response;
  /// Submit calls made (>= 1).
  int attempts = 0;
  /// Admission rejections (queue and quota sheds).
  int sheds = 0;
  /// Retryable execution failures (injected transients) encountered.
  int transients = 0;
  int64_t backoff_total_ms = 0;
  /// True when max_attempts ran out before a final response.
  bool exhausted = false;
  /// True when the service rejected permanently (bad database name etc.).
  bool permanent_rejection = false;
  /// True when `overall_deadline_ms` ran out across attempts; the response
  /// carries kDeadlineExceeded.
  bool deadline_exhausted = false;
  /// True when Submit rejected the request with the permanent error the
  /// answer tier remembers for its content (Submission::breaker_fast_fail).
  bool breaker_fast_fail = false;
};

/// Submits `request`, blocking on the response and retrying retryable
/// failures under `policy`. The request must carry a non-empty idempotency
/// key (retries must resubmit the same key to stay exactly-once). Jitter is
/// seeded from (request.seed, request.key).
RetryOutcome SubmitWithRetry(WhyNotService& service, WhyNotRequest request,
                             const RetryPolicy& policy = {});

}  // namespace ned

#endif  // NED_SERVICE_RETRY_H_
