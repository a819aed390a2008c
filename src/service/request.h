/// \file request.h
/// \brief WhyNotRequest: one why-not request as submitted to the service.
///
/// Split out of service.h so the durability layer (src/persist/) can encode
/// and decode requests without depending on the service itself -- the
/// journal stores whole requests (ACCEPT records) and recovery hands them
/// back to WhyNotService::Submit. Header-only: the struct is plain data.

#ifndef NED_SERVICE_REQUEST_H_
#define NED_SERVICE_REQUEST_H_

#include <cstdint>
#include <string>

#include "core/nedexplain.h"
#include "service/scheduler.h"

namespace ned {

/// One why-not request. `key` is the idempotency key: resubmitting the same
/// key never executes twice concurrently and re-serves a completed answer
/// from cache; an empty key gets a unique auto-assigned one.
struct WhyNotRequest {
  std::string key;
  std::string db_name;
  std::string sql;
  WhyNotQuestion question;
  /// Scheduling class (strict priority between classes, EDF within one).
  Priority priority = Priority::kInteractive;
  /// Fair-share identity; empty ids share one anonymous bucket. Distinct
  /// from `key`: many requests share one client.
  std::string client_id;
  /// End-to-end deadline (queue wait + execution). 0 = service default.
  int64_t deadline_ms = 0;
  /// Rows this request may materialize; 0 = unlimited.
  size_t row_budget = 0;
  /// Bytes this request may hold; 0 = the service's default_memory_budget.
  size_t memory_budget = 0;
  /// Seed for any randomness consumed on behalf of this request (retry
  /// jitter); derived per request, never process-global, so concurrent runs
  /// stay deterministic.
  uint64_t seed = 0;
  /// Chaos knobs (see service.h for the semantics split).
  uint64_t inject_fault_at_step = 0;
  int inject_transient_failures = 0;
  /// Skip the answer tier, memory and disk halves alike, for this request
  /// (both lookup and put); the subtree cache still applies. Requests with
  /// either chaos knob set bypass implicitly -- injected faults must
  /// actually run.
  bool bypass_answer_cache = false;
  /// Record a per-request span trace (obs/trace.h) and deliver it on the
  /// Submission/WhyNotResponse. Transport-only: deliberately NOT journaled
  /// by the request codec, so a recovered request re-runs without tracing
  /// (no wire-format bump; see docs/OBSERVABILITY.md).
  bool collect_trace = false;
  NedExplainOptions engine_options;
};

}  // namespace ned

#endif  // NED_SERVICE_REQUEST_H_
