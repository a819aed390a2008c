/// \file timer.h
/// \brief Wall-clock stopwatch and phase accounting.
///
/// NedExplain's evaluation (paper Fig. 5) breaks runtime into four phases:
/// Initialization, CompatibleFinder, SuccessorsFinder and Bottom-Up traversal.
/// PhaseTimer accumulates nanoseconds per named phase so the Fig. 5 bench can
/// print the same distribution.

#ifndef NED_COMMON_TIMER_H_
#define NED_COMMON_TIMER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>

namespace ned {

/// Injectable time source: the virtual now() seam that lets the service's
/// time-driven behaviour (queue expiry, request deadlines checked at the
/// engine's checkpoints) run against a test-controlled clock instead of
/// wall time.
/// Production code passes nullptr / Clock::Real() and pays one virtual call
/// per read; tests inject a ManualClock and advance it explicitly, so expiry
/// tests assert on exact instants instead of sleeping.
class Clock {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  virtual ~Clock() = default;
  virtual TimePoint Now() const = 0;

  /// Process-wide real (steady_clock) instance.
  static const Clock* Real();
};

/// Deterministic clock for tests. Starts at an arbitrary fixed epoch and
/// only moves when told to. Thread-safe: Advance/Now may race freely (the
/// watchdog thread reads while the test thread advances).
class ManualClock : public Clock {
 public:
  ManualClock() = default;

  TimePoint Now() const override {
    return TimePoint(std::chrono::nanoseconds(
        now_nanos_.load(std::memory_order_relaxed)));
  }

  void AdvanceMs(int64_t ms) {
    now_nanos_.fetch_add(ms * 1'000'000, std::memory_order_relaxed);
  }
  void AdvanceNanos(int64_t ns) {
    now_nanos_.fetch_add(ns, std::memory_order_relaxed);
  }

 private:
  // Start well above zero so "deadline = now - 5ms" style arithmetic in
  // tests can never underflow the epoch.
  std::atomic<int64_t> now_nanos_{int64_t{1} << 40};
};

/// Simple steady-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() { Restart(); }
  void Restart() { start_ = std::chrono::steady_clock::now(); }
  /// Elapsed time since construction/Restart, in nanoseconds.
  int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  double ElapsedMillis() const { return ElapsedNanos() / 1e6; }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Accumulates elapsed time per named phase.
class PhaseTimer {
 public:
  void Add(const std::string& phase, int64_t nanos) { nanos_[phase] += nanos; }

  /// Total nanoseconds charged to `phase` (0 if never seen).
  int64_t Nanos(const std::string& phase) const {
    auto it = nanos_.find(phase);
    return it == nanos_.end() ? 0 : it->second;
  }

  /// Sum over all phases.
  int64_t TotalNanos() const {
    int64_t total = 0;
    for (const auto& [_, ns] : nanos_) total += ns;
    return total;
  }

  const std::map<std::string, int64_t>& phases() const { return nanos_; }
  void Reset() { nanos_.clear(); }

 private:
  std::map<std::string, int64_t> nanos_;
};

/// Canonical phase names matching paper Fig. 5.
namespace phase {
inline constexpr const char kInitialization[] = "Initialization";
inline constexpr const char kCompatibleFinder[] = "CompatibleFinder";
inline constexpr const char kSuccessorsFinder[] = "SuccessorsFinder";
inline constexpr const char kBottomUp[] = "Bottom-Up";
}  // namespace phase

}  // namespace ned

#endif  // NED_COMMON_TIMER_H_
