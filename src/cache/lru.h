/// \file lru.h
/// \brief Byte-budgeted LRU map, the shared eviction engine of src/cache/.
///
/// Both users (SubtreeCache over materialized evaluator outputs, and the
/// answer tier's memory half over complete AnswerSummary results and
/// permanent errors, persist/answer_store.h) are bounded by *bytes*, not
/// entry counts, because their values vary by orders of magnitude (a
/// two-row select output vs a 90k-row cross join). Keys are full canonical
/// strings rather than 64-bit digests, so equal keys imply equal cached
/// content by construction -- no hash-collision audit needed -- and key bytes
/// are charged against the budget alongside value bytes.
///
/// The container itself is single-threaded; SubtreeCache and the answer
/// tier wrap it with their own mutex (one lock per cache, audited under
/// TSan by the cache-enabled CI configuration).

#ifndef NED_CACHE_LRU_H_
#define NED_CACHE_LRU_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

namespace ned {

/// Hit/miss/occupancy counters of one ByteBudgetLru. Monotone except
/// `entries`/`bytes`, which track current occupancy.
struct LruStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;          ///< entries evicted to make room
  uint64_t rejected_oversized = 0; ///< values larger than the whole budget
  size_t entries = 0;
  size_t bytes = 0;
  size_t byte_budget = 0;
};

/// String-keyed LRU bounded by an approximate byte budget. `V` must be
/// cheaply copyable (the caches store shared_ptr values, so Get hands out a
/// reference-counted alias and eviction can never invalidate live readers).
template <typename V>
class ByteBudgetLru {
 public:
  /// `byte_budget` == 0 disables the cache: every Get misses, every Put is
  /// rejected. This is the "cache off" configuration knob.
  explicit ByteBudgetLru(size_t byte_budget) : byte_budget_(byte_budget) {}

  /// Looks up `key`, refreshing its recency on a hit.
  std::optional<V> Get(const std::string& key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++stats_.misses;
      return std::nullopt;
    }
    ++stats_.hits;
    order_.splice(order_.begin(), order_, it->second);
    return it->second->value;
  }

  /// Inserts (or replaces) `key`, charging `key.size() + value_bytes +
  /// kEntryOverhead` against the budget and evicting least-recently-used
  /// entries until the new total fits. A value that cannot fit even in an
  /// empty cache is rejected rather than flushing everything else.
  void Put(std::string key, V value, size_t value_bytes) {
    const size_t cost = key.size() + value_bytes + kEntryOverhead;
    if (cost > byte_budget_) {
      ++stats_.rejected_oversized;
      return;
    }
    auto it = index_.find(key);
    if (it != index_.end()) {
      bytes_ -= it->second->bytes;
      order_.erase(it->second);
      index_.erase(it);
      --stats_.entries;
    }
    while (bytes_ + cost > byte_budget_ && !order_.empty()) {
      EvictOldest();
    }
    order_.push_front(Entry{key, std::move(value), cost});
    index_.emplace(std::move(key), order_.begin());
    bytes_ += cost;
    ++stats_.inserts;
    ++stats_.entries;
  }

  void Clear() {
    order_.clear();
    index_.clear();
    bytes_ = 0;
    stats_.entries = 0;
  }

  LruStats stats() const {
    LruStats s = stats_;
    s.bytes = bytes_;
    s.byte_budget = byte_budget_;
    return s;
  }

  size_t bytes() const { return bytes_; }
  size_t entries() const { return order_.size(); }
  size_t byte_budget() const { return byte_budget_; }

  /// Fixed per-entry charge covering the list node, the index slot and the
  /// bookkeeping fields -- keeps tiny values from being accounted as free.
  static constexpr size_t kEntryOverhead = 64;

 private:
  struct Entry {
    std::string key;
    V value;
    size_t bytes = 0;
  };

  void EvictOldest() {
    const Entry& victim = order_.back();
    bytes_ -= victim.bytes;
    index_.erase(victim.key);
    order_.pop_back();
    ++stats_.evictions;
    --stats_.entries;
  }

  size_t byte_budget_;
  size_t bytes_ = 0;
  std::list<Entry> order_;  ///< front = most recently used
  std::unordered_map<std::string, typename std::list<Entry>::iterator> index_;
  LruStats stats_;
};

}  // namespace ned

#endif  // NED_CACHE_LRU_H_
