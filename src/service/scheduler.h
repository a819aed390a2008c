/// \file scheduler.h
/// \brief Deadline-aware priority scheduling with per-client fair share.
///
/// Replaces the service's FIFO queue. Requests carry a priority class and a
/// client id; the scheduler orders work strictly by class (interactive over
/// batch over background) and earliest-deadline-first within a class, so a
/// queued interactive request is never stuck behind a backlog of batch work.
/// Two guards keep the ordering honest under overload:
///
///   - Fair-share quotas: each client may hold at most `per_client_limit`
///     admitted-but-unfinished requests (queued + running). A hot client
///     that fires requests open-loop saturates its own quota and gets shed,
///     while everyone else's admissions proceed -- one client cannot starve
///     the rest out of the queue.
///   - Queue expiry: a request whose deadline passes while it is still
///     queued is extracted by TakeExpired() and failed fast with
///     kDeadlineExceeded by the caller, instead of occupying a worker to
///     compute an answer nobody is waiting for.
///
/// The scheduler is a passive data structure, externally synchronized by
/// the service mutex (it never blocks, sleeps or reads the clock itself --
/// callers pass `now` in, which is what makes expiry testable against a
/// ManualClock).

#ifndef NED_SERVICE_SCHEDULER_H_
#define NED_SERVICE_SCHEDULER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.h"

namespace ned {

/// Scheduling classes, strongest first. Strict priority between classes:
/// interactive work preempts queued batch work which preempts background
/// (non-preemptive once running).
enum class Priority {
  kInteractive = 0,
  kBatch = 1,
  kBackground = 2,
};

inline constexpr int kPriorityClasses = 3;

/// "interactive" / "batch" / "background".
const char* PriorityName(Priority priority);

/// Sizing knobs; embedded in ServiceOptions.
struct SchedulerOptions {
  /// Total queued entries across all classes; admissions beyond it are
  /// refused (the service sheds them as retryable kUnavailable).
  size_t queue_capacity = 64;
  /// Max admitted-but-unfinished (queued + running) entries per client id.
  /// 0 = unlimited. Entries with an empty client id share one anonymous
  /// bucket.
  size_t per_client_limit = 0;
};

/// Priority + EDF queue with per-client occupancy accounting. T is the
/// queued payload (the service queues shared_ptr<Job>). Externally
/// synchronized.
template <typename T>
class PriorityScheduler {
 public:
  using TimePoint = Clock::TimePoint;

  struct Entry {
    T item{};
    Priority priority = Priority::kInteractive;
    TimePoint deadline{};
    std::string client;
  };

  enum class Admit { kOk, kQueueFull, kClientQuota };

  explicit PriorityScheduler(SchedulerOptions options)
      : options_(options) {}

  /// Queues `entry` unless the client's quota or the global capacity is
  /// exhausted. The quota verdict comes first: it depends only on the
  /// client's own in-flight work, so a hot client is told "you are the
  /// problem" even at moments the shared queue also happens to be full.
  /// On kOk the client's occupancy slot stays held until Release(client)
  /// -- through queueing, execution, expiry or drain.
  Admit TryAdmit(Entry entry) {
    if (options_.per_client_limit != 0) {
      auto it = occupancy_.find(entry.client);
      if (it != occupancy_.end() && it->second >= options_.per_client_limit) {
        return Admit::kClientQuota;
      }
    }
    if (size_ >= options_.queue_capacity) return Admit::kQueueFull;
    ++occupancy_[entry.client];
    auto& lane = lanes_[static_cast<size_t>(entry.priority)];
    lane.emplace(Key{entry.deadline, seq_++}, std::move(entry));
    ++size_;
    return Admit::kOk;
  }

  /// Next entry to run: strongest non-empty class, earliest deadline within
  /// it, FIFO among equal deadlines. Does not release the occupancy slot.
  std::optional<Entry> Pop() {
    for (auto& lane : lanes_) {
      if (lane.empty()) continue;
      Entry entry = std::move(lane.begin()->second);
      lane.erase(lane.begin());
      --size_;
      return entry;
    }
    return std::nullopt;
  }

  /// Removes and returns every queued entry whose deadline has passed, so
  /// the caller can fail them fast. Callers still Release() each.
  std::vector<Entry> TakeExpired(TimePoint now) {
    std::vector<Entry> expired;
    for (auto& lane : lanes_) {
      // EDF order: expired entries are a prefix of each lane.
      while (!lane.empty() && lane.begin()->first.first <= now) {
        expired.push_back(std::move(lane.begin()->second));
        lane.erase(lane.begin());
        --size_;
      }
    }
    return expired;
  }

  /// Empties the queue (a stop that runs no queued work). Callers Release()
  /// each.
  std::vector<Entry> DrainAll() {
    std::vector<Entry> all;
    for (auto& lane : lanes_) {
      for (auto& [key, entry] : lane) all.push_back(std::move(entry));
      lane.clear();
    }
    size_ = 0;
    return all;
  }

  /// Releases the occupancy slot held since TryAdmit. Call exactly once per
  /// admitted entry, when it is finalized (executed, expired or drained).
  void Release(const std::string& client) {
    auto it = occupancy_.find(client);
    if (it == occupancy_.end()) return;
    if (--it->second == 0) occupancy_.erase(it);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t depth(Priority priority) const {
    return lanes_[static_cast<size_t>(priority)].size();
  }
  /// Queued + running entries currently charged to `client`.
  size_t occupancy(const std::string& client) const {
    auto it = occupancy_.find(client);
    return it == occupancy_.end() ? 0 : it->second;
  }

 private:
  /// (deadline, admission sequence): multimap-free strict weak order with a
  /// FIFO tiebreak.
  using Key = std::pair<TimePoint, uint64_t>;

  SchedulerOptions options_;
  std::map<Key, Entry> lanes_[kPriorityClasses];
  std::map<std::string, size_t> occupancy_;
  size_t size_ = 0;
  uint64_t seq_ = 0;
};

}  // namespace ned

#endif  // NED_SERVICE_SCHEDULER_H_
