/// \file wire.h
/// \brief JSON wire protocol of the HTTP frontend (docs/NETWORK.md).
///
/// One request body = one WhyNotRequest; one response body = one
/// WhyNotResponse. The codec is symmetric on purpose: the server renders
/// with the same field names the client parser reads, so ned_loadgen and
/// net_test can decode a response off the socket and compare the
/// AnswerSummary byte-for-byte against an in-process Submit. All escaping
/// goes through common/json.h -- the wire shares the exposition layer's
/// single escaping implementation.
///
/// Request schema (POST /v1/whynot):
///
///   {
///     "db": "crime",                      // required
///     "sql": "SELECT ...",                // required
///     "question": [                       // required: disjunction of c-tuples
///       {"fields": [{"attr": "P.name", "const": "Homer"},
///                   {"attr": "ap", "var": "x1"}],
///        "where":  [{"var": "x1", "op": ">", "value": 25},
///                   {"var": "x1", "op": "!=", "var2": "x2"}]}
///     ],
///     "key": "...",                       // optional idempotency key
///     "client_id": "...",                 // optional fair-share identity
///     "priority": "interactive",          // interactive | batch | background
///     "deadline_ms": 2000, "row_budget": 0, "memory_budget": 0,
///     "seed": 0,
///     "bypass_answer_cache": false, "collect_trace": false,
///     "engine": {"early_termination": true, "secondary": true,
///                "tabq_dump": false}
///   }
///
/// `priority` and `key` may instead arrive as the `X-Ned-Priority` /
/// `X-Ned-Idempotency-Key` headers (the server layers those on top of this
/// codec; headers win over body fields).
///
/// Unknown top-level fields are rejected (kInvalidArgument) rather than
/// ignored: a typoed budget knob silently defaulting is worse than a 400.

#ifndef NED_NET_WIRE_H_
#define NED_NET_WIRE_H_

#include <string>
#include <string_view>

#include "common/json.h"
#include "common/status.h"
#include "service/service.h"

namespace ned::net {

/// Parses a /v1/whynot request body. Errors are kInvalidArgument (schema
/// violations) or kParseError (not JSON); both map to HTTP 400.
Result<WhyNotRequest> ParseWhyNotRequestJson(std::string_view body);

/// Renders a request back to its wire form (loadgen, tests, debugging).
/// ParseWhyNotRequestJson(RenderWhyNotRequestJson(r)) reproduces r exactly
/// for every field the schema carries.
std::string RenderWhyNotRequestJson(const WhyNotRequest& request);

/// Renders the response body for a resolved WhyNotResponse. `deduped` comes
/// from the Submission (it is an admission-side fact the response struct
/// does not carry). When `response.trace` is set the rendered structure is
/// included under "trace".
std::string RenderWhyNotResponseJson(const WhyNotResponse& response,
                                     bool deduped);

/// Renders the response body for a submission resolved synchronously
/// without a WhyNotResponse: sheds (kUnavailable + retry_after_ms),
/// remembered-error fast-fails and permanent rejections.
std::string RenderSubmissionErrorJson(const Status& status,
                                      int64_t retry_after_ms,
                                      bool breaker_fast_fail);

/// Client-side view of a response body: WhyNotResponse minus the in-process
/// trace pointer (the wire carries the rendered structure instead).
struct WireResponse {
  std::string key;
  StatusCode code = StatusCode::kOk;
  std::string message;
  AnswerSummary answer;
  uint64_t snapshot_version = 0;
  int attempt = 0;
  double queue_ms = 0;
  double exec_ms = 0;
  int64_t retry_after_ms = 0;
  bool served_from_answer_cache = false;
  bool served_from_answer_store = false;
  bool expired_in_queue = false;
  /// Submission::breaker_fast_fail of a synchronous rejection.
  bool breaker_fast_fail = false;
  bool deduped = false;
  /// Trace structure rendering ("" when the request did not ask for one).
  std::string trace_structure;
};

/// Parses a response body (either render form above).
Result<WireResponse> ParseWhyNotResponseJson(std::string_view body);

/// Inverse of StatusCodeName(); kInternal for unknown names is deliberate
/// (an unrecognized code from a newer server should not crash a client).
StatusCode StatusCodeFromName(std::string_view name);

/// HTTP status the frontend maps a service StatusCode onto: OK -> 200,
/// kUnavailable -> 503, kDeadlineExceeded -> 504, kNotFound -> 404, the
/// request-error family (kInvalidArgument/kParseError/kTypeError/
/// kUnsupported) -> 400, everything else -> 500.
int HttpStatusForCode(StatusCode code);

}  // namespace ned::net

#endif  // NED_NET_WIRE_H_
