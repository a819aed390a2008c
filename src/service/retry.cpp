#include "service/retry.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/strings.h"

namespace ned {

bool IsRetryable(const Status& status) {
  return status.code() == StatusCode::kUnavailable;
}

int64_t BackoffMs(const RetryPolicy& policy, int attempt,
                  int64_t suggested_ms, Rng& rng) {
  double backoff = static_cast<double>(policy.initial_backoff_ms);
  for (int i = 1; i < attempt; ++i) backoff *= policy.multiplier;
  backoff = std::min(backoff, static_cast<double>(policy.max_backoff_ms));
  if (policy.jitter > 0) {
    const double factor =
        1.0 + policy.jitter * (2.0 * rng.UniformDouble() - 1.0);
    backoff *= factor;
  }
  int64_t ms = static_cast<int64_t>(backoff);
  ms = std::max<int64_t>(ms, 0);
  return std::max(ms, suggested_ms);
}

namespace {

int64_t PriorityBackoffFactor(Priority priority) {
  switch (priority) {
    case Priority::kInteractive:
      return 1;
    case Priority::kBatch:
      return 2;
    case Priority::kBackground:
      return 4;
  }
  return 1;
}

}  // namespace

RetryOutcome SubmitWithRetry(WhyNotService& service, WhyNotRequest request,
                             const RetryPolicy& policy) {
  NED_CHECK_MSG(!request.key.empty(),
                "SubmitWithRetry needs an idempotency key: retries must "
                "resubmit under the same key");
  // Per-request determinism: same (seed, key) -> same jitter schedule.
  Rng rng(MixSeed(request.seed, HashSeed(request.key)));
  const Clock* clock = policy.clock != nullptr ? policy.clock : Clock::Real();
  const Clock::TimePoint session_start = clock->Now();
  const int64_t requested_deadline_ms = request.deadline_ms;
  RetryOutcome outcome;
  Status last_failure;
  for (int attempt = 1; attempt <= policy.max_attempts; ++attempt) {
    int64_t remaining_ms = 0;  // 0 = unlimited
    if (policy.overall_deadline_ms > 0) {
      const int64_t elapsed_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              clock->Now() - session_start)
              .count();
      remaining_ms = policy.overall_deadline_ms - elapsed_ms;
      if (remaining_ms <= 0) {
        outcome.deadline_exhausted = true;
        outcome.response.key = request.key;
        outcome.response.status = Status::DeadlineExceeded(StrCat(
            "retry budget exhausted after ", elapsed_ms, "ms (budget ",
            policy.overall_deadline_ms, "ms); last failure: ",
            last_failure.ToString()));
        return outcome;
      }
      // Clamp this attempt's deadline to the remaining session budget: a
      // late attempt must not re-arm the full per-request deadline and
      // overshoot the budget the caller planned around.
      request.deadline_ms = requested_deadline_ms > 0
                                ? std::min(requested_deadline_ms, remaining_ms)
                                : remaining_ms;
    }
    ++outcome.attempts;
    auto submission = service.Submit(request);
    int64_t suggested_ms = 0;
    if (submission.status.ok()) {
      WhyNotResponse response = submission.response.get();
      if (!response.retryable()) {
        outcome.response = std::move(response);
        return outcome;
      }
      ++outcome.transients;
      last_failure = response.status;
      suggested_ms = response.retry_after_ms;
    } else if (IsRetryable(submission.status)) {
      ++outcome.sheds;
      last_failure = submission.status;
      suggested_ms = submission.retry_after_ms;
    } else {
      outcome.permanent_rejection = true;
      outcome.breaker_fast_fail = submission.breaker_fast_fail;
      outcome.response.key = request.key;
      outcome.response.status = submission.status;
      return outcome;
    }
    if (attempt == policy.max_attempts) break;
    int64_t backoff = BackoffMs(policy, attempt, suggested_ms, rng);
    if (policy.priority_aware_backoff) {
      backoff *= PriorityBackoffFactor(request.priority);
    }
    if (policy.overall_deadline_ms > 0 && remaining_ms > 0) {
      // Never sleep past the session budget; the next iteration's check
      // turns an exhausted budget into a clean kDeadlineExceeded.
      backoff = std::min(backoff, remaining_ms);
    }
    outcome.backoff_total_ms += backoff;
    if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    }
  }
  outcome.exhausted = true;
  outcome.response.key = request.key;
  outcome.response.status = Status::Unavailable(
      "retry attempts exhausted; last failure: " + last_failure.ToString());
  return outcome;
}

}  // namespace ned
