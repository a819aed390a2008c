/// \file crash_point.h
/// \brief Deterministic crash injection at durability IO boundaries.
///
/// Every place the journal or answer store touches the filesystem is
/// bracketed by a named CrashPoint. A test arms a CrashInjector with one
/// point and a countdown; when the Nth visit to that point fires, the
/// injector either aborts the operation mid-way (simulating process death
/// at exactly that instant) or, for the power-loss points, additionally
/// tells the caller to discard bytes that were written but never synced.
///
/// Injection is cooperative and in-process: the component returns a
/// kCrashInjected status and the test then re-opens the directory as a
/// fresh process would, asserting the recovery invariants. ned_crashtest
/// walks every point; the real-SIGKILL battery in the same tool covers the
/// uncooperative case.

#ifndef NED_PERSIST_CRASH_POINT_H_
#define NED_PERSIST_CRASH_POINT_H_

#include <atomic>
#include <cstdint>

namespace ned {

enum class CrashPoint : uint8_t {
  kNone = 0,
  // --- journal ---
  /// Before any bytes of a record reach the segment file.
  kJournalBeforeAppend,
  /// After a strict prefix of the record's frame was written (torn tail).
  kJournalTornAppend,
  /// Record fully written but not fsynced; simulates power loss by rolling
  /// the file back to the last synced offset.
  kJournalUnsyncedAppend,
  /// Open created the run's fresh segment but has not written its magic
  /// header: Open fails and leaves an empty segment behind.
  kJournalBeforeSegmentMagic,
  // --- answer store ---
  /// Before the entry temp file is created.
  kStoreBeforeTemp,
  /// Temp file holds a strict prefix of the entry.
  kStoreTornTemp,
  /// Temp file complete, rename not yet issued.
  kStoreBeforeRename,
};

/// Arms at most one (point, countdown) pair. Thread-safe: the journal's
/// flusher thread and service workers may hit points concurrently.
class CrashInjector {
 public:
  CrashInjector() = default;

  /// Fire the `count`-th time `point` is visited (count >= 1).
  void Arm(CrashPoint point, int count = 1) {
    point_.store(static_cast<uint8_t>(point), std::memory_order_relaxed);
    remaining_.store(count, std::memory_order_relaxed);
    fired_.store(false, std::memory_order_relaxed);
  }

  void Disarm() { Arm(CrashPoint::kNone, 0); }

  /// Called by the instrumented code at each boundary. Returns true when
  /// the simulated crash should happen here.
  bool ShouldCrash(CrashPoint point) {
    if (static_cast<uint8_t>(point) !=
        point_.load(std::memory_order_relaxed)) {
      return false;
    }
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) != 1) return false;
    fired_.store(true, std::memory_order_release);
    return true;
  }

  bool fired() const { return fired_.load(std::memory_order_acquire); }

 private:
  std::atomic<uint8_t> point_{static_cast<uint8_t>(CrashPoint::kNone)};
  std::atomic<int> remaining_{0};
  std::atomic<bool> fired_{false};
};

}  // namespace ned

#endif  // NED_PERSIST_CRASH_POINT_H_
