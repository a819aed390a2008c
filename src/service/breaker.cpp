#include "service/breaker.h"

#include <utility>

#include "common/strings.h"
#include "exec/exec_context.h"

namespace ned {

bool IsBreakerFailure(const Status& status) {
  if (status.ok()) return false;
  if (status.code() == StatusCode::kUnavailable) return false;  // transient
  if (IsResourceLimit(status)) return false;  // governance, not poison
  return true;
}

std::string MakeBreakerKey(const std::string& db_name, const NormalizedSql& sql,
                           const std::string& question_text) {
  // Length-prefixed like the answer-tier key, minus the content fingerprint
  // and budgets: poison is a property of the query, and probes (not
  // reloads) decide when to re-test it.
  const std::string& norm = sql.text();
  return StrCat("db=", db_name.size(), ":", db_name, "|q=", norm.size(), ":",
                norm, "|w=", question_text.size(), ":", question_text);
}

CircuitBreaker::CircuitBreaker(BreakerOptions options, const Clock* clock)
    : options_(options), clock_(clock != nullptr ? clock : Clock::Real()) {
  NED_CHECK_MSG(options_.failure_threshold > 0,
                "disabled breakers should not be constructed");
}

CircuitBreaker::Gate CircuitBreaker::GateLocked(const KeyState& state,
                                                Clock::TimePoint now) const {
  if (state.open) {
    if (state.probe_in_flight) return Gate::kFastFail;
    return now >= state.next_probe_time ? Gate::kProbe : Gate::kFastFail;
  }
  // Suspect serialization: a key with a recorded failure runs one at a
  // time until a success clears it, so the consecutive-failure count (and
  // with it the poison-execution bound) stays exact under concurrency.
  if (state.consecutive_failures > 0 && state.executing > 0) {
    return Gate::kFastFail;
  }
  return Gate::kAllow;
}

CircuitBreaker::Decision CircuitBreaker::Check(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = keys_.find(key);
  if (it == keys_.end()) return Decision{};
  const Gate gate = GateLocked(it->second, clock_->Now());
  if (gate != Gate::kFastFail) {
    // Probe admission is the worker-side TryBegin's call to make; at
    // submit time an open-but-probe-due breaker just lets the request in.
    return Decision{};
  }
  ++stats_.fast_fails;
  return Decision{Gate::kFastFail, it->second.last_error};
}

CircuitBreaker::Decision CircuitBreaker::TryBegin(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = keys_.find(key);
  if (it == keys_.end()) {
    // Healthy keys are not tracked: zero overhead and zero state until a
    // failure is first recorded by End().
    return Decision{};
  }
  KeyState& state = it->second;
  const Gate gate = GateLocked(state, clock_->Now());
  switch (gate) {
    case Gate::kAllow:
      ++state.executing;
      return Decision{};
    case Gate::kProbe:
      ++state.executing;
      state.probe_in_flight = true;
      ++stats_.probes;
      return Decision{Gate::kProbe, Status::OK()};
    case Gate::kFastFail:
      ++stats_.fast_fails;
      return Decision{Gate::kFastFail, state.last_error};
  }
  return Decision{};
}

void CircuitBreaker::End(const std::string& key, const Status& status) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = keys_.find(key);
  const bool failure = IsBreakerFailure(status);
  if (it == keys_.end()) {
    if (!failure) return;
    // First failure ever seen for this key: start tracking it.
    EvictIfCrowdedLocked();
    it = keys_.emplace(key, KeyState{}).first;
  }
  KeyState& state = it->second;
  if (state.executing > 0) --state.executing;
  if (failure) {
    ++state.consecutive_failures;
    state.last_error = status;
    if (state.probe_in_flight) {
      // Failed probe: stay open, re-arm the probe timer.
      state.probe_in_flight = false;
      state.next_probe_time =
          clock_->Now() + std::chrono::milliseconds(options_.probe_interval_ms);
      ++stats_.reopens;
    } else if (!state.open &&
               state.consecutive_failures >= options_.failure_threshold) {
      state.open = true;
      state.next_probe_time =
          clock_->Now() + std::chrono::milliseconds(options_.probe_interval_ms);
      ++stats_.opens;
    }
    return;
  }
  // Success -- or a transient/resource outcome, which proves the key is at
  // least *executable*. A strict reading would only close on success, but a
  // key that reaches its own resource limits is not poison, so both reset.
  keys_.erase(it);
}

void CircuitBreaker::EvictIfCrowdedLocked() {
  if (keys_.size() < options_.max_tracked_keys) return;
  // Backstop, not a hot path: drop closed idle entries first; if every
  // entry is open (an adversary cycling poison keys), drop the first --
  // a dropped open breaker merely re-learns its failures.
  for (auto it = keys_.begin(); it != keys_.end();) {
    if (!it->second.open && it->second.executing == 0) {
      it = keys_.erase(it);
      if (keys_.size() < options_.max_tracked_keys) return;
    } else {
      ++it;
    }
  }
  if (keys_.size() >= options_.max_tracked_keys && !keys_.empty()) {
    keys_.erase(keys_.begin());
  }
}

CircuitBreaker::Stats CircuitBreaker::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out = stats_;
  out.tracked_keys = keys_.size();
  return out;
}

}  // namespace ned
