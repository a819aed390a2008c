/// \file spans.cpp
/// \brief Span recording, self time and the per-layer self-time table.

#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <utility>

#include "common/json.h"
#include "common/strings.h"

namespace ned::perfbench {
namespace {

std::string Fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t SpanLog::Open(std::string name, uint64_t request) {
  const int32_t parent = open_.empty() ? -1 : open_.back();
  const int32_t id = Add(std::move(name), NowNs(), 0, parent, request);
  open_.push_back(id);
  return id;
}

void SpanLog::Close(int32_t id) {
  const int64_t now = NowNs();
  while (!open_.empty()) {
    const int32_t top = open_.back();
    open_.pop_back();
    spans_[static_cast<size_t>(top)].end_ns = now;
    if (top == id) break;
  }
}

int32_t SpanLog::Add(std::string name, int64_t start_ns, int64_t end_ns,
                     int32_t parent, uint64_t request) {
  spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, request, 0});
  return static_cast<int32_t>(spans_.size() - 1);
}

std::vector<Span> MergeLogs(const std::vector<const SpanLog*>& logs) {
  std::vector<Span> merged;
  for (size_t thread = 0; thread < logs.size(); ++thread) {
    const int32_t base = static_cast<int32_t>(merged.size());
    for (Span span : logs[thread]->spans()) {
      if (span.parent >= 0) span.parent += base;
      span.thread = static_cast<int>(thread);
      merged.push_back(std::move(span));
    }
  }
  return merged;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                              span.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    std::sort(children[i].begin(), children[i].end());
    // Union of the children's intervals, clipped to this span.
    int64_t covered = 0;
    int64_t cursor = lo;
    for (const auto& [start, end] : children[i]) {
      const int64_t from = std::max(start, cursor);
      const int64_t to = std::min(end, hi);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

PerRequest SumByRequest(const std::vector<Span>& spans, bool self) {
  const std::vector<int64_t> self_ns =
      self ? SelfTimes(spans) : std::vector<int64_t>();
  std::map<std::pair<std::string, uint64_t>, double> sums;
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t ns = self ? self_ns[i] : spans[i].end_ns - spans[i].start_ns;
    sums[{spans[i].name, spans[i].request}] += static_cast<double>(ns);
  }
  PerRequest out;
  for (const auto& [key, ns] : sums) out[key.first].push_back(ns);
  return out;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size())));
  return values[index - 1];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

std::string SelfTimeTable(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimes(spans);
  struct Row {
    std::vector<double> self_ns;
    double total_ns = 0;
  };
  std::map<std::string, Row> rows;
  double root_ns = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    Row& row = rows[spans[i].name];
    row.self_ns.push_back(static_cast<double>(self[i]));
    row.total_ns += static_cast<double>(self[i]);
    if (spans[i].parent < 0) {
      root_ns += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    }
  }
  std::vector<std::pair<std::string, const Row*>> order;
  for (const auto& [name, row] : rows) order.emplace_back(name, &row);
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    return a.second->total_ns > b.second->total_ns;
  });
  std::vector<std::vector<std::string>> table;
  for (const auto& [name, row] : order) {
    table.push_back({name, std::to_string(row->self_ns.size()),
                     Fixed(row->total_ns / 1e6, 3),
                     Fixed(Median(row->self_ns) / 1e3, 2),
                     Fixed(root_ns > 0 ? 100 * row->total_ns / root_ns : 0, 2)});
  }
  return RenderTable(
      {"span", "count", "self_ms", "median_self_us", "self_pct_of_roots"},
      table);
}

Status WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::Internal("cannot write " + path);
  for (const Span& span : spans) {
    out << "{\"name\": " << json::Quote(span.name)
        << ", \"start_ns\": " << span.start_ns << ", \"end_ns\": " << span.end_ns
        << ", \"parent\": " << span.parent << ", \"request\": " << span.request
        << ", \"thread\": " << span.thread << "}\n";
  }
  out.flush();
  return out ? Status::OK() : Status::Internal("short write to " + path);
}

}  // namespace ned::perfbench
