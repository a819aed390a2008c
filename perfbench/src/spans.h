/// \file spans.h
/// \brief Benchmark-owned spans of the traced run: recorded in memory
/// around calls into each module, written out when the run ends.

#ifndef NED_PERFBENCH_SPANS_H_
#define NED_PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace ned::perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the enclosing span in the same vector; -1 for a root.
  int32_t parent = -1;
  /// Shared by every span of one request.
  uint64_t request = 0;
  /// The client thread that recorded it.
  int thread = 0;
};

/// Steady-clock nanoseconds.
int64_t NowNs();

/// One thread's spans; each client thread owns one, so nothing is locked.
class SpanLog {
 public:
  /// Opens a span under the innermost open one.
  int32_t Open(std::string name, uint64_t request);
  /// Closes `id`, and any span opened inside it that is still open.
  void Close(int32_t id);
  /// Records a span whose interval is already known.
  int32_t Add(std::string name, int64_t start_ns, int64_t end_ns,
              int32_t parent, uint64_t request);
  void Rename(int32_t id, std::string name) {
    spans_[static_cast<size_t>(id)].name = std::move(name);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// Open and Close around a scope; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t request)
      : log_(log), id_(log != nullptr ? log->Open(name, request) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

 private:
  SpanLog* log_;
  int32_t id_;
};

/// Every thread's spans in one vector, parents re-indexed, `thread` set.
std::vector<Span> MergeLogs(const std::vector<const SpanLog*>& logs);

/// Each span's self time: its duration minus the part of its interval that
/// its children cover.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Per span name, one value per request that has such spans: their summed
/// durations (`self` false) or summed self times (`self` true), in ns.
using PerRequest = std::map<std::string, std::vector<double>>;
PerRequest SumByRequest(const std::vector<Span>& spans, bool self);

/// Nearest-rank percentile, p in (0, 1]; 0 for no values.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// The per-layer self-time table: per span name its count, total and median
/// self time, and the total's share of all root spans' time.
std::string SelfTimeTable(const std::vector<Span>& spans);

/// Writes one JSON object per span and line.
Status WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace ned::perfbench

#endif  // NED_PERFBENCH_SPANS_H_
