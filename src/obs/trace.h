/// \file trace.h
/// \brief Per-request span trees mirroring the paper's Fig. 5 phase
/// breakdown, plus the serving phases around it.
///
/// A Trace records nested, named spans for one request: admission work
/// (snapshot pin, cache/store lookups, journal append), queue wait, and the
/// engine's own Fig. 5 phases (Initialization, CompatibleFinder,
/// SuccessorsFinder, Bottom-Up) down to per-TabQ-level granularity.
///
/// Two properties the tests pin:
///
///  - *Null fast path.* Nothing in the hot path pays for tracing unless a
///    trace is attached: every emission site is guarded by a raw pointer
///    check (SpanScope on a nullptr trace compiles down to two branches).
///    bench_obs gates the attached-trace overhead itself at <2%.
///  - *Deterministic structure.* The engine opens its spans at points fixed
///    by the query tree and the TabQ order, so for a complete run
///    RenderStructure() -- the names-and-nesting rendering with no
///    durations -- depends only on the query, the question and the data
///    (trace_test pins it for the 19 use cases).
///
/// Trace is deliberately NOT thread-safe: exactly one thread appends to it
/// at a time. Cross-thread handoff (client -> worker -> client) is sequenced
/// by the service's own synchronization (job mutex + promise), which
/// publishes the trace along with the response.

#ifndef NED_OBS_TRACE_H_
#define NED_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/timer.h"

namespace ned::obs {

/// One span: a named interval with a parent (index into the trace's span
/// vector, -1 for roots). Children always follow their parent in the
/// vector (append order == pre-order), which the renderers rely on.
struct Span {
  std::string name;
  int32_t parent = -1;
  int64_t start_ns = 0;  ///< clock-relative to the trace's first span start
  int64_t end_ns = -1;   ///< -1 while still open
};

/// Append-only span tree with clock injection. Spans open and close in
/// stack (LIFO) order; OpenSpan returns the span id to pass to CloseSpan,
/// and the RAII SpanScope below is the usual way to use it.
class Trace {
 public:
  /// `clock` may be nullptr for Clock::Real(). Span start/end offsets are
  /// relative to the first OpenSpan, so ManualClock tests see durations as
  /// exactly the nanos they advanced.
  explicit Trace(const Clock* clock = nullptr)
      : clock_(clock != nullptr ? clock : Clock::Real()) {}

  /// Opens a child of the innermost open span (a root if none) and returns
  /// its id.
  int32_t OpenSpan(std::string name);
  /// Closes span `id`, and any forgotten open descendants, at the current
  /// clock reading.
  void CloseSpan(int32_t id);

  /// Opens/closes with an explicit clock reading -- used by PhasedSpanScope
  /// so the span and the PhaseTimer charge derive from the same two
  /// readings and can never disagree.
  int32_t OpenSpanAt(std::string name, Clock::TimePoint at);
  void CloseSpanAt(int32_t id, Clock::TimePoint at);

  const std::vector<Span>& spans() const { return spans_; }
  const Clock* clock() const { return clock_; }

  /// Names and nesting only, durations omitted -- the byte-identity
  /// artifact for serial-vs-parallel comparison. One span per line,
  /// two-space indent per depth.
  std::string RenderStructure() const;

  /// RenderStructure plus per-span durations in microseconds.
  std::string Render() const;

  /// Total nanoseconds across spans named `name`. Sums only spans without a
  /// same-named ancestor, so recursive nesting is not double-counted; the
  /// Fig. 5-from-spans recipe sums the four engine phase names this way.
  int64_t PhaseNanos(const std::string& name) const;

 private:
  int64_t RelNanos(Clock::TimePoint at);

  const Clock* clock_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_stack_;
  bool have_epoch_ = false;
  Clock::TimePoint epoch_{};
};

/// RAII span with a null fast path: if `trace` is nullptr this is two
/// branches and no clock read.
class SpanScope {
 public:
  SpanScope(Trace* trace, const char* name) : trace_(trace) {
    if (trace_ != nullptr) id_ = trace_->OpenSpan(name);
  }
  /// Dynamic-name variant for cold sites (per-ctuple, per-level): the name
  /// is built by the caller and therefore costs an allocation even when no
  /// trace is attached -- do not use in per-row paths.
  SpanScope(Trace* trace, std::string name) : trace_(trace) {
    if (trace_ != nullptr) id_ = trace_->OpenSpan(std::move(name));
  }
  ~SpanScope() {
    if (trace_ != nullptr) trace_->CloseSpan(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Trace* trace_;
  int32_t id_ = -1;
};

/// Charges a PhaseTimer phase AND emits a same-named span from one pair of
/// clock readings, so trace-derived Fig. 5 numbers equal timer-derived ones
/// by construction. With no trace attached it charges the phase from a
/// Stopwatch (real wall clock), keeping the untraced path identical to what
/// bench_fig5 always measured.
class PhasedSpanScope {
 public:
  PhasedSpanScope(PhaseTimer* timer, const char* phase, Trace* trace)
      : timer_(timer), phase_(phase), trace_(trace) {
    if (trace_ != nullptr) {
      start_ = trace_->clock()->Now();
      id_ = trace_->OpenSpanAt(phase, start_);
    }
  }
  ~PhasedSpanScope() {
    if (trace_ != nullptr) {
      Clock::TimePoint end = trace_->clock()->Now();
      trace_->CloseSpanAt(id_, end);
      if (timer_ != nullptr) {
        timer_->Add(phase_,
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        end - start_)
                        .count());
      }
    } else if (timer_ != nullptr) {
      timer_->Add(phase_, watch_.ElapsedNanos());
    }
  }
  PhasedSpanScope(const PhasedSpanScope&) = delete;
  PhasedSpanScope& operator=(const PhasedSpanScope&) = delete;

 private:
  PhaseTimer* timer_;
  const char* phase_;
  Trace* trace_;
  int32_t id_ = -1;
  Clock::TimePoint start_{};
  Stopwatch watch_;
};

}  // namespace ned::obs

#endif  // NED_OBS_TRACE_H_
