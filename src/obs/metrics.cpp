#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/status.h"

namespace ned::obs {

namespace {

// Canonical series key within a family: labels sorted by key, rendered as
// k=v pairs joined by '\x1f' (no escaping needed for a map key -- the
// exposition layer handles user-visible escaping).
std::string SeriesKey(const LabelSet& labels) {
  std::string key;
  for (const auto& [k, v] : labels) {
    key += k;
    key += '\x1f';
    key += v;
    key += '\x1f';
  }
  return key;
}

}  // namespace

int64_t HistogramSnapshot::QuantileUpperBound(double q) const {
  if (count == 0) return 0;
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    cumulative += counts[i];
    if (cumulative >= rank) {
      if (i < bounds.size()) return bounds[i];
      return std::numeric_limits<int64_t>::max();  // overflow bucket
    }
  }
  return std::numeric_limits<int64_t>::max();
}

Histogram::Histogram(std::vector<int64_t> bounds) : bounds_(std::move(bounds)) {
  NED_CHECK_MSG(!bounds_.empty(),
                "histogram needs at least one bucket boundary");
  NED_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                    std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                        bounds_.end(),
                "histogram boundaries must be strictly ascending");
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::Observe(int64_t value) {
  // `le` semantics: first boundary >= value; value above every boundary
  // lands in the overflow bucket at index bounds_.size().
  size_t idx = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.counts.resize(bounds_.size() + 1);
  uint64_t total = 0;
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    snap.counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += snap.counts[i];
  }
  // Count derives from the bucket reads themselves, so count == sum(counts)
  // holds for every snapshot no matter how writers interleave. The sum is
  // read last and may include observations the buckets missed (or vice
  // versa) mid-race; tests that need exactness quiesce writers first.
  snap.count = total;
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

const std::vector<int64_t>& DefaultLatencyBoundsUs() {
  static const std::vector<int64_t> kBounds = {
      100,     250,     500,     1000,    2500,     5000,
      10000,   25000,   50000,   100000,  250000,   500000,
      1000000, 2500000, 5000000, 10000000};
  return kBounds;
}

// A family owns every series sharing one metric name. The map values are
// unique_ptrs so handles stay stable across rehashes.
struct MetricsRegistry::Family {
  MetricType type;
  std::vector<int64_t> bounds;  // histogram families only
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
  std::map<std::string, LabelSet> labels;  // series key -> normalized labels
};

MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Family& MetricsRegistry::FamilyFor(
    std::string_view name, MetricType type,
    const std::vector<int64_t>* bounds) {
  auto it = families_.find(name);
  if (it == families_.end()) {
    Family family;
    family.type = type;
    if (bounds != nullptr) family.bounds = *bounds;
    it = families_.emplace(std::string(name), std::move(family)).first;
  } else {
    NED_CHECK_MSG(it->second.type == type,
                  "metric \"" + std::string(name) +
                      "\" re-registered with a different type");
    if (bounds != nullptr) {
      NED_CHECK_MSG(it->second.bounds == *bounds,
                    "histogram \"" + std::string(name) +
                        "\" re-registered with different boundaries");
    }
  }
  return it->second;
}

Counter* MetricsRegistry::GetCounter(std::string_view name, LabelSet labels) {
  std::sort(labels.begin(), labels.end());
  std::lock_guard<std::mutex> lock(mu_);
  Family& family = FamilyFor(name, MetricType::kCounter, nullptr);
  std::string key = SeriesKey(labels);
  auto& slot = family.counters[key];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
    family.labels.emplace(std::move(key), std::move(labels));
  }
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name, LabelSet labels) {
  std::sort(labels.begin(), labels.end());
  std::lock_guard<std::mutex> lock(mu_);
  Family& family = FamilyFor(name, MetricType::kGauge, nullptr);
  std::string key = SeriesKey(labels);
  auto& slot = family.gauges[key];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
    family.labels.emplace(std::move(key), std::move(labels));
  }
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name, LabelSet labels,
                                         std::vector<int64_t> bounds) {
  std::sort(labels.begin(), labels.end());
  std::lock_guard<std::mutex> lock(mu_);
  Family& family = FamilyFor(name, MetricType::kHistogram, &bounds);
  std::string key = SeriesKey(labels);
  auto& slot = family.histograms[key];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(std::move(bounds));
    family.labels.emplace(std::move(key), std::move(labels));
  }
  return slot.get();
}

void MetricsRegistry::RegisterCollector(std::function<void()> collector) {
  std::lock_guard<std::mutex> lock(mu_);
  collectors_.push_back(std::move(collector));
}

std::vector<MetricSnapshot> MetricsRegistry::Collect() const {
  {
    // Run mirror-refresh callbacks before reading values. Copy the list so
    // callbacks can themselves register metrics without deadlock.
    std::vector<std::function<void()>> collectors;
    {
      std::lock_guard<std::mutex> lock(mu_);
      collectors = collectors_;
    }
    for (const auto& fn : collectors) fn();
  }

  std::vector<MetricSnapshot> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, family] : families_) {
      auto emit = [&](const std::string& key) {
        MetricSnapshot snap;
        snap.name = name;
        snap.type = family.type;
        auto lit = family.labels.find(key);
        if (lit != family.labels.end()) snap.labels = lit->second;
        return snap;
      };
      for (const auto& [key, counter] : family.counters) {
        MetricSnapshot snap = emit(key);
        snap.counter_value = counter->value();
        out.push_back(std::move(snap));
      }
      for (const auto& [key, gauge] : family.gauges) {
        MetricSnapshot snap = emit(key);
        snap.gauge_value = gauge->value();
        out.push_back(std::move(snap));
      }
      for (const auto& [key, histogram] : family.histograms) {
        MetricSnapshot snap = emit(key);
        snap.histogram = histogram->Snapshot();
        out.push_back(std::move(snap));
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  return out;
}

}  // namespace ned::obs
