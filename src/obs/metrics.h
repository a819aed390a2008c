/// \file metrics.h
/// \brief Metrics registry: counters, gauges and fixed-boundary latency
/// histograms with exact quantiles-from-buckets.
///
/// The unified observability layer every subsystem reports through
/// (docs/OBSERVABILITY.md). Design constraints, in order:
///
///  - *Cheap writes.* A counter increment or histogram observation is one
///    relaxed atomic RMW -- no lock, no allocation. Registration (name +
///    label-set lookup) is the only locked path, and callers hold the
///    returned handle, so hot paths register once and write forever.
///  - *Deterministic reads.* Collect() yields a snapshot sorted by metric
///    name then label set, so two collections of identical state render
///    byte-identically -- the property the exposition goldens pin.
///  - *Exactness.* Histograms count integer values (the service uses
///    microseconds) into fixed `le` buckets; a histogram's count is *derived*
///    from its buckets, so every snapshot satisfies count == sum(buckets)
///    even while writers race, and after writers join the totals are exact.
///    Quantiles come from bucket counts by an exact, documented rule
///    (HistogramSnapshot::QuantileUpperBound) instead of interpolation.
///
/// Metric identity is (name, label set). Asking twice for the same identity
/// returns the same handle; asking for the same name with a different type
/// (or different histogram boundaries) is a programming error (NED_CHECK).
/// The registry owns every metric and must outlive all handles.

#ifndef NED_OBS_METRICS_H_
#define NED_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ned::obs {

/// Label key/value pairs. The registry normalizes order (sorted by key), so
/// {{"a","1"},{"b","2"}} and {{"b","2"},{"a","1"}} name the same series.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

enum class MetricType { kCounter, kGauge, kHistogram };

/// Monotonically increasing counter. Thread-safe; writes are relaxed atomic
/// adds (the totals are exact once writers are quiescent, which is what the
/// 8-thread hammer test asserts).
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A value that can go up and down (queue depth, bytes, ladder level).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Point-in-time view of one histogram. `counts` has bounds.size() + 1
/// entries: counts[i] holds observations v with bounds[i-1] < v <= bounds[i]
/// (`le` semantics: a value equal to a boundary lands in that boundary's
/// bucket); the final entry is the +Inf overflow bucket.
struct HistogramSnapshot {
  std::vector<int64_t> bounds;
  std::vector<uint64_t> counts;
  int64_t sum = 0;
  uint64_t count = 0;  ///< derived: sum over counts, consistent by construction

  /// Exact quantile-from-buckets rule: the tightest upper bound the bucket
  /// counts prove for the q-quantile. Let r = max(1, ceil(q * count)); the
  /// result is the boundary of the first bucket whose cumulative count
  /// reaches r. Returns 0 for an empty histogram and
  /// std::numeric_limits<int64_t>::max() when r falls in the overflow
  /// bucket (the buckets prove no finite bound).
  int64_t QuantileUpperBound(double q) const;
};

/// Fixed-boundary histogram over int64 values. Boundaries are ascending and
/// use `le` (value <= boundary) semantics. Observations are two relaxed
/// atomic adds (bucket + sum); the count is derived from the buckets at
/// snapshot time, so snapshots stay internally consistent under concurrent
/// writes.
class Histogram {
 public:
  explicit Histogram(std::vector<int64_t> bounds);

  void Observe(int64_t value);
  HistogramSnapshot Snapshot() const;
  const std::vector<int64_t>& bounds() const { return bounds_; }

  /// Convenience: QuantileUpperBound on a fresh snapshot.
  int64_t Quantile(double q) const { return Snapshot().QuantileUpperBound(q); }

 private:
  const std::vector<int64_t> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<int64_t> sum_{0};
};

/// One collected series, ready for exposition (obs/expose.h).
struct MetricSnapshot {
  std::string name;
  MetricType type = MetricType::kCounter;
  LabelSet labels;
  uint64_t counter_value = 0;
  int64_t gauge_value = 0;
  HistogramSnapshot histogram;
};

/// Default latency bucket ladder in microseconds: 100us .. 10s, roughly
/// 1-2.5-5 per decade. Exact p50/p99-to-bucket-boundary resolution at the
/// sub-ms to tens-of-ms scale the Fig. 6 workloads live in.
const std::vector<int64_t>& DefaultLatencyBoundsUs();

/// The registry. Get* registers on first use and returns a stable handle;
/// Collect() snapshots everything. One mutex guards registration and
/// collection, which run at construction and scrape time only; value writes
/// through handles never take it.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(std::string_view name, LabelSet labels = {});
  Gauge* GetGauge(std::string_view name, LabelSet labels = {});
  /// All series of one histogram family share `bounds`; re-registering the
  /// family with different bounds is a programming error.
  Histogram* GetHistogram(std::string_view name, LabelSet labels,
                          std::vector<int64_t> bounds);

  /// Registers a callback run at the start of every Collect(), for gauges
  /// that mirror subsystem-internal state (cache occupancy, queue depth,
  /// journal counters) instead of being written inline. Callbacks run
  /// outside the registry's lock and may call Get*/Set freely.
  void RegisterCollector(std::function<void()> collector);

  /// Snapshot of every registered series, sorted by (name, labels) --
  /// deterministic rendering order for the exposition formatters.
  std::vector<MetricSnapshot> Collect() const;

 private:
  struct Family;

  /// Requires mu_.
  Family& FamilyFor(std::string_view name, MetricType type,
                    const std::vector<int64_t>* bounds);

  mutable std::mutex mu_;
  /// Every family by metric name; guarded by mu_.
  std::map<std::string, Family, std::less<>> families_;
  std::vector<std::function<void()>> collectors_;  // guarded by mu_
};

}  // namespace ned::obs

#endif  // NED_OBS_METRICS_H_
