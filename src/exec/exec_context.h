/// \file exec_context.h
/// \brief Resource governance for query evaluation: deadlines, budgets,
/// cooperative cancellation and deterministic fault injection.
///
/// A single adversarial why-not question (a large cross join before early
/// termination kicks in, or a gov-scale aggregate) can otherwise pin a core
/// for unbounded time and memory. ExecContext carries the limits of one
/// evaluation: every interruptible loop in the engine calls CheckPoint() at
/// operator boundaries and every kCheckInterval rows inside join/aggregate
/// inner loops. A tripped limit surfaces as kDeadlineExceeded /
/// kResourceExhausted / kCancelled, which the engine converts into a
/// *partial* answer (ResultCompleteness) rather than a hard failure.
///
/// CheckPoint() maintains a deterministic step counter that does not depend
/// on wall-clock time, so InjectFailureAt(step) reproducibly fails the same
/// evaluation point across runs -- the hook exec_limits_test uses to prove
/// that cancellation at *any* step leaks nothing and never corrupts answers.

#ifndef NED_EXEC_EXEC_CONTEXT_H_
#define NED_EXEC_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "common/status.h"
#include "common/timer.h"

namespace ned {

namespace obs {
class Trace;
}  // namespace obs

/// Inner loops call CheckEvery() per row; the full CheckPoint() (clock read,
/// budget comparison, injection test) runs once per this many rows.
inline constexpr uint64_t kCheckInterval = 256;

/// Limits and cancellation for one evaluation.
///
/// Thread model (audited under ThreadSanitizer via the service tests): the
/// configuration setters (deadline, budgets, InjectFailureAt) must happen
/// before the context is shared with the evaluating thread -- the service
/// publishes them through its queue mutex. Once evaluation runs, *all*
/// mutable state (cancellation flag, step/tick counters, charge accounting)
/// is std::atomic with relaxed ordering, so a watchdog or monitoring thread
/// may concurrently call RequestCancel() and read steps()/rows_charged()/
/// bytes_charged() without racing the evaluator. The counters are
/// single-writer (only the evaluating thread mutates them), which lets the
/// hot path use relaxed load+store pairs -- plain movs, no locked RMW --
/// keeping governance overhead within the <2% bar (bench_limits).
class ExecContext {
 public:
  ExecContext() = default;

  // ---- configuration ------------------------------------------------------

  /// Absolute wall-clock deadline.
  void set_deadline(std::chrono::steady_clock::time_point tp) {
    deadline_ = tp;
  }
  /// Deadline `ms` milliseconds from now.
  void set_deadline_after_ms(int64_t ms) {
    deadline_ = NowAgainstClock() + std::chrono::milliseconds(ms);
  }
  bool has_deadline() const { return deadline_.has_value(); }

  /// Injects the time source the deadline is checked against. Must be set
  /// before evaluation starts (like the other configuration) and the clock
  /// must outlive the context. nullptr (the default) reads steady_clock
  /// directly, keeping the hot checkpoint free of virtual dispatch.
  void set_clock(const Clock* clock) { clock_ = clock; }

  /// Maximum materialized rows (query input + intermediate results) across
  /// the evaluation. 0 = unlimited.
  void set_row_budget(size_t max_rows) { row_budget_ = max_rows; }
  size_t row_budget() const { return row_budget_; }

  /// Memory budget in bytes for materialized state. 0 = unlimited. The
  /// evaluator charges each output block's real size (Block::bytes(): its
  /// value array, string payloads and id pools); scans view the database in
  /// place and charge rows only.
  void set_memory_budget(size_t max_bytes) { memory_budget_ = max_bytes; }
  size_t memory_budget() const { return memory_budget_; }

  /// Requests cooperative cancellation; the evaluation stops at its next
  /// checkpoint. Safe to call from another thread.
  void RequestCancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancel_requested() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Deterministically fails the `step_index`-th checkpoint (1-based) with
  /// kResourceExhausted. 0 disables injection. Steps count CheckPoint()
  /// calls, which are independent of wall-clock time, so a given
  /// (query, data, step_index) always fails at the same evaluation point.
  void InjectFailureAt(uint64_t step_index) {
    inject_at_.store(step_index, std::memory_order_relaxed);
  }

  // ---- tracing ------------------------------------------------------------

  /// Attaches a per-request span sink (obs/trace.h). Configuration like the
  /// rest: set before evaluation starts, trace must outlive the context.
  /// nullptr (the default) keeps every emission site on its two-branch
  /// fast path.
  void set_trace(obs::Trace* trace) { trace_ = trace; }
  obs::Trace* trace() const { return trace_; }

  // ---- accounting ---------------------------------------------------------

  /// Charges `n` materialized rows against the row budget (checked at the
  /// next checkpoint, so a tight inner loop only pays an add here). Like
  /// all counters, single-writer: only the evaluating thread charges, so a
  /// relaxed load+store (plain movs) suffices and concurrent readers stay
  /// race-free.
  void ChargeRows(size_t n) {
    rows_charged_.store(rows_charged_.load(std::memory_order_relaxed) + n,
                        std::memory_order_relaxed);
  }
  /// Charges `n` bytes against the memory budget.
  void ChargeBytes(size_t n) {
    bytes_charged_.store(bytes_charged_.load(std::memory_order_relaxed) + n,
                         std::memory_order_relaxed);
  }

  size_t rows_charged() const {
    return rows_charged_.load(std::memory_order_relaxed);
  }
  size_t bytes_charged() const {
    return bytes_charged_.load(std::memory_order_relaxed);
  }
  /// Checkpoints passed so far (the fault-injection step space).
  uint64_t steps() const { return steps_.load(std::memory_order_relaxed); }

  // ---- checking -----------------------------------------------------------

  /// Full limit check: fault injection, cancellation, budgets, deadline.
  /// Call at operator boundaries and (via CheckEvery) inside inner loops.
  Status CheckPoint();

  /// Per-iteration check for inner loops: runs the full CheckPoint every
  /// kCheckInterval calls, keeping the steady-state cost to one add+branch
  /// per row. Budgets are charged separately via ChargeRows/ChargeBytes when
  /// tuples actually materialize.
  Status CheckEvery() {
    const uint64_t tick = ticks_.load(std::memory_order_relaxed) + 1;
    ticks_.store(tick, std::memory_order_relaxed);
    if ((tick & (kCheckInterval - 1)) != 0) return Status::OK();
    return CheckPoint();
  }

  /// Resets accounting and step counters (budgets/deadline stay configured).
  /// Lets one context govern several sequential evaluations in tests.
  void ResetCounters() {
    rows_charged_.store(0, std::memory_order_relaxed);
    bytes_charged_.store(0, std::memory_order_relaxed);
    steps_.store(0, std::memory_order_relaxed);
    ticks_.store(0, std::memory_order_relaxed);
  }

 private:
  std::chrono::steady_clock::time_point NowAgainstClock() const {
    return clock_ != nullptr ? clock_->Now() : std::chrono::steady_clock::now();
  }

  const Clock* clock_ = nullptr;
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  size_t row_budget_ = 0;
  size_t memory_budget_ = 0;
  obs::Trace* trace_ = nullptr;
  std::atomic<bool> cancelled_{false};
  std::atomic<uint64_t> inject_at_{0};
  std::atomic<uint64_t> steps_{0};
  std::atomic<uint64_t> ticks_{0};
  std::atomic<size_t> rows_charged_{0};
  std::atomic<size_t> bytes_charged_{0};
};

/// True for the status codes that mean "a governed limit tripped" rather
/// than "the computation is wrong": kDeadlineExceeded, kResourceExhausted,
/// kCancelled. The engine converts these into flagged partial answers.
bool IsResourceLimit(const Status& status);

/// Null-safe checkpoint helper for call sites holding an optional context.
inline Status CheckExec(ExecContext* ctx) {
  return ctx == nullptr ? Status::OK() : ctx->CheckPoint();
}

/// Per-iteration check inside hot loops: one branch when no context is
/// installed, one add+branch when one is. Propagates a tripped limit out of
/// the enclosing function (which must return Status or Result<T>).
#define NED_EXEC_TICK(ctx)                           \
  do {                                               \
    if ((ctx) != nullptr) {                          \
      ::ned::Status _tick_st = (ctx)->CheckEvery();  \
      if (!_tick_st.ok()) return _tick_st;           \
    }                                                \
  } while (0)

}  // namespace ned

#endif  // NED_EXEC_EXEC_CONTEXT_H_
