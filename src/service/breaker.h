/// \file breaker.h
/// \brief Per-request-key circuit breakers: poison queries cost one worker
/// a bounded number of times, not forever.
///
/// A request whose *content* (database + normalized SQL + question) trips a
/// non-retryable engine failure -- bad SQL against this schema, an unknown
/// relation, a type error -- will fail identically on every retry until the
/// data or the query changes. Without a breaker, a client (or a fleet of
/// clients) resubmitting such a poison request re-executes the same doomed
/// compile/run each time, burning workers the healthy traffic needs.
///
/// The breaker tracks consecutive non-retryable failures per normalized
/// content key and walks the classic state machine:
///
///   closed --(threshold consecutive failures)--> open
///   open   --(probe interval elapses)----------> half-open (one probe)
///   half-open --probe succeeds--> closed    --probe fails--> open again
///
/// While open, submissions fail fast with the *cached* error -- the client
/// sees the same permanent status it would have earned by executing, at the
/// cost of a map lookup instead of a worker. Two details make the "poison
/// costs at most threshold + probes executions" bound honest under
/// concurrency:
///
///   - Suspect serialization: once a key has a recorded failure, only one
///     execution of it may be in flight; concurrent duplicates fail fast
///     with the cached error. Healthy keys (no failures) are untouched and
///     run fully parallel.
///   - The service re-checks the breaker when a queued request reaches a
///     worker (TryBegin), so work admitted before the breaker opened does
///     not execute after it.
///
/// Transient failures (kUnavailable) and resource-limit partials never
/// count toward the threshold: they are the retry policy's and the
/// governance layer's business, not evidence of poison.
///
/// Keys are snapshot-version-independent on purpose: a catalog reload that
/// fixes the failure (e.g. creates the missing relation) is discovered by
/// the next half-open probe.

#ifndef NED_SERVICE_BREAKER_H_
#define NED_SERVICE_BREAKER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/status.h"
#include "common/strings.h"
#include "common/timer.h"

namespace ned {

/// Breaker policy; embedded in ServiceOptions.
struct BreakerOptions {
  /// Consecutive non-retryable failures of one key that open its breaker.
  /// 0 disables the breaker entirely.
  int failure_threshold = 3;
  /// While open, one probe execution is admitted every this-many ms.
  int64_t probe_interval_ms = 200;
  /// Bound on tracked keys. Only failing keys are ever tracked (successes
  /// erase their entry), so this is a backstop against an adversary cycling
  /// through unbounded distinct poison queries, not a working-set size.
  size_t max_tracked_keys = 4096;
};

/// True when `status` is the kind of failure a breaker should count:
/// a permanent per-request error. Retryable unavailability and governed
/// resource limits are not poison.
bool IsBreakerFailure(const Status& status);

/// Builds the breaker's normalized content key.
std::string MakeBreakerKey(const std::string& db_name, const NormalizedSql& sql,
                           const std::string& question_text);

/// Thread-safe registry of per-key breaker states (internally locked: the
/// completion side runs on workers outside the service mutex).
class CircuitBreaker {
 public:
  enum class Gate {
    kAllow,     ///< execute normally
    kProbe,     ///< execute as the half-open probe
    kFastFail,  ///< do not execute; `cached_error` is the answer
  };

  struct Decision {
    Gate gate = Gate::kAllow;
    /// The last recorded failure for the key (set when gate == kFastFail).
    Status cached_error;
  };

  struct Stats {
    uint64_t opens = 0;       ///< closed -> open transitions
    uint64_t reopens = 0;     ///< failed probes re-arming an open breaker
    uint64_t probes = 0;      ///< half-open probe executions admitted
    uint64_t fast_fails = 0;  ///< submissions short-circuited with the cached error
    size_t tracked_keys = 0;
  };

  CircuitBreaker(BreakerOptions options, const Clock* clock);

  /// Submit-time gate: kFastFail rejects the submission synchronously with
  /// the cached error. Counts the fast-fail but does not register an
  /// execution.
  Decision Check(const std::string& key);

  /// Worker-side gate, called when the request actually reaches a worker.
  /// kAllow/kProbe registers an in-flight execution that MUST be paired
  /// with End(); kFastFail must be finalized with the cached error instead.
  Decision TryBegin(const std::string& key);

  /// Completion of an execution admitted by TryBegin. Success (or any
  /// non-breaker failure) resets the key; a breaker failure advances the
  /// state machine.
  void End(const std::string& key, const Status& status);

  Stats stats() const;

 private:
  struct KeyState {
    int consecutive_failures = 0;
    int executing = 0;
    bool open = false;
    bool probe_in_flight = false;
    Status last_error;
    Clock::TimePoint next_probe_time{};
  };

  /// Shared gate logic; does not mutate `state`.
  Gate GateLocked(const KeyState& state, Clock::TimePoint now) const;
  void EvictIfCrowdedLocked();

  const BreakerOptions options_;
  const Clock* const clock_;

  mutable std::mutex mu_;
  std::map<std::string, KeyState> keys_;
  Stats stats_;
};

}  // namespace ned

#endif  // NED_SERVICE_BREAKER_H_
