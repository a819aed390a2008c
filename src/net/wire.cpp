#include "net/wire.h"

#include <cmath>
#include <cstdint>
#include <limits>

#include "common/strings.h"

namespace ned::net {

namespace {

using json::Value;

// ---------------------------------------------------------------------------
// Writing helpers. Rendering is deterministic: fixed field order, no
// whitespace variation, shared escaping via json::AppendEscaped.
// ---------------------------------------------------------------------------

void AppendKey(std::string* out, std::string_view key, bool* first) {
  if (!*first) *out += ',';
  *first = false;
  *out += '"';
  *out += key;
  *out += "\":";
}

void AppendStringField(std::string* out, std::string_view key,
                       std::string_view value, bool* first) {
  AppendKey(out, key, first);
  *out += '"';
  json::AppendEscaped(out, value);
  *out += '"';
}

void AppendIntField(std::string* out, std::string_view key, int64_t value,
                    bool* first) {
  AppendKey(out, key, first);
  *out += std::to_string(value);
}

void AppendUintField(std::string* out, std::string_view key, uint64_t value,
                     bool* first) {
  AppendKey(out, key, first);
  *out += std::to_string(value);
}

void AppendBoolField(std::string* out, std::string_view key, bool value,
                     bool* first) {
  AppendKey(out, key, first);
  *out += value ? "true" : "false";
}

void AppendDoubleField(std::string* out, std::string_view key, double value,
                       bool* first) {
  AppendKey(out, key, first);
  json::AppendDouble(out, value);
}

void AppendStringArrayField(std::string* out, std::string_view key,
                            const std::vector<std::string>& values,
                            bool* first) {
  AppendKey(out, key, first);
  *out += '[';
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) *out += ',';
    *out += '"';
    json::AppendEscaped(out, values[i]);
    *out += '"';
  }
  *out += ']';
}

/// Renders a relational value as a JSON scalar. The type split is exact:
/// kInt renders as a JSON integer, kDouble always as a JSON number with a
/// fractional/exponent form (AppendDouble), so the reader can reconstruct
/// the original ValueType.
void AppendRelValue(std::string* out, const ned::Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      *out += "null";
      return;
    case ValueType::kInt:
      *out += std::to_string(v.as_int());
      return;
    case ValueType::kDouble: {
      // An integral double ("25" after %.17g) would parse back as kInt;
      // force a ".0" so the wire preserves the type tag.
      std::string num;
      json::AppendDouble(&num, v.as_double());
      if (num.find_first_of(".eEn") == std::string::npos) num += ".0";
      *out += num;
      return;
    }
    case ValueType::kString:
      *out += '"';
      json::AppendEscaped(out, v.as_string());
      *out += '"';
      return;
  }
  *out += "null";
}

// ---------------------------------------------------------------------------
// Reading helpers. Schema errors name the offending field -- a client
// debugging a 400 should not have to bisect its body.
// ---------------------------------------------------------------------------

Status UnknownField(std::string_view context, const std::string& key) {
  return Status::InvalidArgument(
      StrCat("unknown field \"", key, "\" in ", context));
}

Status WrongType(std::string_view field, std::string_view want) {
  return Status::InvalidArgument(StrCat("field \"", field, "\" must be ", want));
}

Result<std::string> ReadString(const Value& v, std::string_view field) {
  if (!v.is_string()) return WrongType(field, "a string");
  return v.as_string();
}

Result<int64_t> ReadInt(const Value& v, std::string_view field) {
  if (!v.is_int()) return WrongType(field, "an integer");
  return v.as_int();
}

Result<uint64_t> ReadUint(const Value& v, std::string_view field) {
  if (!v.is_int() || v.as_int() < 0) {
    return WrongType(field, "a non-negative integer");
  }
  return static_cast<uint64_t>(v.as_int());
}

Result<bool> ReadBool(const Value& v, std::string_view field) {
  if (!v.is_bool()) return WrongType(field, "a boolean");
  return v.as_bool();
}

Result<double> ReadDouble(const Value& v, std::string_view field) {
  if (!v.is_number()) return WrongType(field, "a number");
  return v.as_double();
}

Result<std::vector<std::string>> ReadStringArray(const Value& v,
                                                 std::string_view field) {
  if (!v.is_array()) return WrongType(field, "an array of strings");
  std::vector<std::string> out;
  out.reserve(v.as_array().size());
  for (const Value& item : v.as_array()) {
    if (!item.is_string()) return WrongType(field, "an array of strings");
    out.push_back(item.as_string());
  }
  return out;
}

Result<ned::Value> ReadRelValue(const Value& v, std::string_view field) {
  switch (v.type()) {
    case Value::Type::kNull:
      return ned::Value::Null();
    case Value::Type::kInt:
      return ned::Value::Int(v.as_int());
    case Value::Type::kDouble:
      return ned::Value::Real(v.as_double());
    case Value::Type::kString:
      return ned::Value::Str(v.as_string());
    default:
      return WrongType(field, "a scalar (null, number or string)");
  }
}

Result<CompareOp> CompareOpFromSymbol(const std::string& symbol) {
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    if (symbol == CompareOpSymbol(op)) return op;
  }
  return Status::InvalidArgument(
      StrCat("unknown comparison operator \"", symbol, "\""));
}

Result<Priority> PriorityFromName(const std::string& name) {
  for (Priority p :
       {Priority::kInteractive, Priority::kBatch, Priority::kBackground}) {
    if (name == PriorityName(p)) return p;
  }
  return Status::InvalidArgument(StrCat("unknown priority \"", name, "\""));
}

// ---------------------------------------------------------------------------
// Question codec.
// ---------------------------------------------------------------------------

void AppendQuestion(std::string* out, const WhyNotQuestion& question) {
  *out += '[';
  bool first_tc = true;
  for (const CTuple& tc : question.ctuples()) {
    if (!first_tc) *out += ',';
    first_tc = false;
    *out += "{\"fields\":[";
    bool first_f = true;
    for (const auto& [attr, cv] : tc.fields()) {
      if (!first_f) *out += ',';
      first_f = false;
      *out += "{\"attr\":\"";
      json::AppendEscaped(out, attr.FullName());
      *out += "\",";
      if (cv.is_var) {
        *out += "\"var\":\"";
        json::AppendEscaped(out, cv.var);
        *out += '"';
      } else {
        *out += "\"const\":";
        AppendRelValue(out, cv.constant);
      }
      *out += '}';
    }
    *out += ']';
    if (!tc.cond().empty()) {
      *out += ",\"where\":[";
      bool first_p = true;
      for (const CPred& pred : tc.cond()) {
        if (!first_p) *out += ',';
        first_p = false;
        *out += "{\"var\":\"";
        json::AppendEscaped(out, pred.lhs_var);
        *out += "\",\"op\":\"";
        *out += CompareOpSymbol(pred.op);
        *out += "\",";
        if (pred.rhs_is_var) {
          *out += "\"var2\":\"";
          json::AppendEscaped(out, pred.rhs_var);
          *out += '"';
        } else {
          *out += "\"value\":";
          AppendRelValue(out, pred.rhs_const);
        }
        *out += '}';
      }
      *out += ']';
    }
    *out += '}';
  }
  *out += ']';
}

Result<CPred> ParsePred(const Value& v) {
  if (!v.is_object()) return WrongType("question[].where[]", "an object");
  CPred pred;
  bool have_var = false, have_op = false, have_rhs = false;
  for (const auto& [key, member] : v.as_object()) {
    if (key == "var") {
      NED_ASSIGN_OR_RETURN(pred.lhs_var, ReadString(member, "where[].var"));
      have_var = true;
    } else if (key == "op") {
      NED_ASSIGN_OR_RETURN(std::string symbol,
                           ReadString(member, "where[].op"));
      NED_ASSIGN_OR_RETURN(pred.op, CompareOpFromSymbol(symbol));
      have_op = true;
    } else if (key == "value") {
      if (have_rhs) {
        return Status::InvalidArgument(
            "where[] must have exactly one of \"value\" / \"var2\"");
      }
      NED_ASSIGN_OR_RETURN(pred.rhs_const,
                           ReadRelValue(member, "where[].value"));
      pred.rhs_is_var = false;
      have_rhs = true;
    } else if (key == "var2") {
      if (have_rhs) {
        return Status::InvalidArgument(
            "where[] must have exactly one of \"value\" / \"var2\"");
      }
      NED_ASSIGN_OR_RETURN(pred.rhs_var, ReadString(member, "where[].var2"));
      pred.rhs_is_var = true;
      have_rhs = true;
    } else {
      return UnknownField("question[].where[]", key);
    }
  }
  if (!have_var || !have_op || !have_rhs) {
    return Status::InvalidArgument(
        "where[] needs \"var\", \"op\" and one of \"value\" / \"var2\"");
  }
  return pred;
}

Result<CTuple> ParseCTuple(const Value& v) {
  if (!v.is_object()) return WrongType("question[]", "an object");
  CTuple tc;
  bool have_fields = false;
  for (const auto& [key, member] : v.as_object()) {
    if (key == "fields") {
      if (!member.is_array()) return WrongType("question[].fields", "an array");
      for (const Value& field : member.as_array()) {
        if (!field.is_object()) {
          return WrongType("question[].fields[]", "an object");
        }
        Attribute attr;
        CValue cv;
        bool have_attr = false, have_value = false;
        for (const auto& [fkey, fmember] : field.as_object()) {
          if (fkey == "attr") {
            NED_ASSIGN_OR_RETURN(std::string dotted,
                                 ReadString(fmember, "fields[].attr"));
            attr = Attribute::Parse(dotted);
            have_attr = true;
          } else if (fkey == "const") {
            if (have_value) {
              return Status::InvalidArgument(
                  "fields[] must have exactly one of \"const\" / \"var\"");
            }
            NED_ASSIGN_OR_RETURN(ned::Value constant,
                                 ReadRelValue(fmember, "fields[].const"));
            cv = CValue::Const(std::move(constant));
            have_value = true;
          } else if (fkey == "var") {
            if (have_value) {
              return Status::InvalidArgument(
                  "fields[] must have exactly one of \"const\" / \"var\"");
            }
            NED_ASSIGN_OR_RETURN(std::string var,
                                 ReadString(fmember, "fields[].var"));
            cv = CValue::Var(std::move(var));
            have_value = true;
          } else {
            return UnknownField("question[].fields[]", fkey);
          }
        }
        if (!have_attr || !have_value) {
          return Status::InvalidArgument(
              "fields[] needs \"attr\" and one of \"const\" / \"var\"");
        }
        tc.AddField(std::move(attr), std::move(cv));
      }
      have_fields = true;
    } else if (key == "where") {
      if (!member.is_array()) return WrongType("question[].where", "an array");
      for (const Value& pred : member.as_array()) {
        NED_ASSIGN_OR_RETURN(CPred p, ParsePred(pred));
        tc.Where(std::move(p));
      }
    } else {
      return UnknownField("question[]", key);
    }
  }
  if (!have_fields || tc.empty()) {
    return Status::InvalidArgument(
        "question[] c-tuple needs a non-empty \"fields\" array");
  }
  return tc;
}

Result<WhyNotQuestion> ParseQuestion(const Value& v) {
  if (!v.is_array()) return WrongType("question", "an array of c-tuples");
  WhyNotQuestion question;
  for (const Value& tc : v.as_array()) {
    NED_ASSIGN_OR_RETURN(CTuple parsed, ParseCTuple(tc));
    question.AddCTuple(std::move(parsed));
  }
  if (question.empty()) {
    return Status::InvalidArgument("question must not be empty");
  }
  return question;
}

// ---------------------------------------------------------------------------
// AnswerSummary codec.
// ---------------------------------------------------------------------------

void AppendAnswer(std::string* out, const AnswerSummary& answer) {
  *out += '{';
  bool first = true;
  AppendStringArrayField(out, "detailed", answer.detailed, &first);
  AppendStringArrayField(out, "condensed", answer.condensed, &first);
  AppendStringArrayField(out, "secondary", answer.secondary, &first);
  AppendUintField(out, "dir_total", answer.dir_total, &first);
  AppendUintField(out, "indir_total", answer.indir_total, &first);
  AppendUintField(out, "survivors_at_root", answer.survivors_at_root, &first);
  AppendBoolField(out, "complete", answer.complete, &first);
  AppendStringField(out, "tripped", StatusCodeName(answer.tripped), &first);
  AppendStringField(out, "completeness", answer.completeness, &first);
  AppendUintField(out, "subtree_cache_hits", answer.subtree_cache_hits,
                  &first);
  AppendUintField(out, "subtree_cache_misses", answer.subtree_cache_misses,
                  &first);
  AppendIntField(out, "degradation_level", answer.degradation_level, &first);
  AppendStringField(out, "degradation", answer.degradation, &first);
  *out += '}';
}

Result<AnswerSummary> ParseAnswer(const Value& v) {
  if (!v.is_object()) return WrongType("answer", "an object");
  AnswerSummary answer;
  for (const auto& [key, member] : v.as_object()) {
    if (key == "detailed") {
      NED_ASSIGN_OR_RETURN(answer.detailed,
                           ReadStringArray(member, "answer.detailed"));
    } else if (key == "condensed") {
      NED_ASSIGN_OR_RETURN(answer.condensed,
                           ReadStringArray(member, "answer.condensed"));
    } else if (key == "secondary") {
      NED_ASSIGN_OR_RETURN(answer.secondary,
                           ReadStringArray(member, "answer.secondary"));
    } else if (key == "dir_total") {
      NED_ASSIGN_OR_RETURN(answer.dir_total,
                           ReadUint(member, "answer.dir_total"));
    } else if (key == "indir_total") {
      NED_ASSIGN_OR_RETURN(answer.indir_total,
                           ReadUint(member, "answer.indir_total"));
    } else if (key == "survivors_at_root") {
      NED_ASSIGN_OR_RETURN(answer.survivors_at_root,
                           ReadUint(member, "answer.survivors_at_root"));
    } else if (key == "complete") {
      NED_ASSIGN_OR_RETURN(answer.complete,
                           ReadBool(member, "answer.complete"));
    } else if (key == "tripped") {
      NED_ASSIGN_OR_RETURN(std::string name,
                           ReadString(member, "answer.tripped"));
      answer.tripped = StatusCodeFromName(name);
    } else if (key == "completeness") {
      NED_ASSIGN_OR_RETURN(answer.completeness,
                           ReadString(member, "answer.completeness"));
    } else if (key == "subtree_cache_hits") {
      NED_ASSIGN_OR_RETURN(answer.subtree_cache_hits,
                           ReadUint(member, "answer.subtree_cache_hits"));
    } else if (key == "subtree_cache_misses") {
      NED_ASSIGN_OR_RETURN(answer.subtree_cache_misses,
                           ReadUint(member, "answer.subtree_cache_misses"));
    } else if (key == "degradation_level") {
      NED_ASSIGN_OR_RETURN(int64_t level,
                           ReadInt(member, "answer.degradation_level"));
      answer.degradation_level = static_cast<int>(level);
    } else if (key == "degradation") {
      NED_ASSIGN_OR_RETURN(answer.degradation,
                           ReadString(member, "answer.degradation"));
    } else {
      return UnknownField("answer", key);
    }
  }
  return answer;
}

}  // namespace

// ---------------------------------------------------------------------------
// Request codec.
// ---------------------------------------------------------------------------

std::string RenderWhyNotRequestJson(const WhyNotRequest& request) {
  std::string out = "{";
  bool first = true;
  AppendStringField(&out, "db", request.db_name, &first);
  AppendStringField(&out, "sql", request.sql, &first);
  AppendKey(&out, "question", &first);
  AppendQuestion(&out, request.question);
  if (!request.key.empty()) AppendStringField(&out, "key", request.key, &first);
  if (!request.client_id.empty()) {
    AppendStringField(&out, "client_id", request.client_id, &first);
  }
  AppendStringField(&out, "priority", PriorityName(request.priority), &first);
  if (request.deadline_ms != 0) {
    AppendIntField(&out, "deadline_ms", request.deadline_ms, &first);
  }
  if (request.row_budget != 0) {
    AppendUintField(&out, "row_budget", request.row_budget, &first);
  }
  if (request.memory_budget != 0) {
    AppendUintField(&out, "memory_budget", request.memory_budget, &first);
  }
  if (request.seed != 0) AppendUintField(&out, "seed", request.seed, &first);
  if (request.bypass_answer_cache) {
    AppendBoolField(&out, "bypass_answer_cache", true, &first);
  }
  if (request.collect_trace) {
    AppendBoolField(&out, "collect_trace", true, &first);
  }
  const NedExplainOptions defaults;
  const NedExplainOptions& eng = request.engine_options;
  if (eng.enable_early_termination != defaults.enable_early_termination ||
      eng.compute_secondary != defaults.compute_secondary ||
      eng.keep_tabq_dump != defaults.keep_tabq_dump) {
    AppendKey(&out, "engine", &first);
    out += '{';
    bool efirst = true;
    AppendBoolField(&out, "early_termination", eng.enable_early_termination,
                    &efirst);
    AppendBoolField(&out, "secondary", eng.compute_secondary, &efirst);
    AppendBoolField(&out, "tabq_dump", eng.keep_tabq_dump, &efirst);
    out += '}';
  }
  out += '}';
  return out;
}

Result<WhyNotRequest> ParseWhyNotRequestJson(std::string_view body) {
  NED_ASSIGN_OR_RETURN(Value doc, json::Parse(body));
  if (!doc.is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  WhyNotRequest request;
  bool have_db = false, have_sql = false, have_question = false;
  for (const auto& [key, member] : doc.as_object()) {
    if (key == "db") {
      NED_ASSIGN_OR_RETURN(request.db_name, ReadString(member, "db"));
      have_db = true;
    } else if (key == "sql") {
      NED_ASSIGN_OR_RETURN(request.sql, ReadString(member, "sql"));
      have_sql = true;
    } else if (key == "question") {
      NED_ASSIGN_OR_RETURN(request.question, ParseQuestion(member));
      have_question = true;
    } else if (key == "key") {
      NED_ASSIGN_OR_RETURN(request.key, ReadString(member, "key"));
    } else if (key == "client_id") {
      NED_ASSIGN_OR_RETURN(request.client_id, ReadString(member, "client_id"));
    } else if (key == "priority") {
      NED_ASSIGN_OR_RETURN(std::string name, ReadString(member, "priority"));
      NED_ASSIGN_OR_RETURN(request.priority, PriorityFromName(name));
    } else if (key == "deadline_ms") {
      NED_ASSIGN_OR_RETURN(request.deadline_ms,
                           ReadInt(member, "deadline_ms"));
      if (request.deadline_ms < 0) {
        return WrongType("deadline_ms", "a non-negative integer");
      }
    } else if (key == "row_budget") {
      NED_ASSIGN_OR_RETURN(uint64_t budget, ReadUint(member, "row_budget"));
      request.row_budget = static_cast<size_t>(budget);
    } else if (key == "memory_budget") {
      NED_ASSIGN_OR_RETURN(uint64_t budget, ReadUint(member, "memory_budget"));
      request.memory_budget = static_cast<size_t>(budget);
    } else if (key == "seed") {
      NED_ASSIGN_OR_RETURN(request.seed, ReadUint(member, "seed"));
    } else if (key == "bypass_answer_cache") {
      NED_ASSIGN_OR_RETURN(request.bypass_answer_cache,
                           ReadBool(member, "bypass_answer_cache"));
    } else if (key == "collect_trace") {
      NED_ASSIGN_OR_RETURN(request.collect_trace,
                           ReadBool(member, "collect_trace"));
    } else if (key == "engine") {
      if (!member.is_object()) return WrongType("engine", "an object");
      for (const auto& [ekey, emember] : member.as_object()) {
        if (ekey == "early_termination") {
          NED_ASSIGN_OR_RETURN(request.engine_options.enable_early_termination,
                               ReadBool(emember, "engine.early_termination"));
        } else if (ekey == "secondary") {
          NED_ASSIGN_OR_RETURN(request.engine_options.compute_secondary,
                               ReadBool(emember, "engine.secondary"));
        } else if (ekey == "tabq_dump") {
          NED_ASSIGN_OR_RETURN(request.engine_options.keep_tabq_dump,
                               ReadBool(emember, "engine.tabq_dump"));
        } else {
          return UnknownField("engine", ekey);
        }
      }
    } else {
      return UnknownField("request", key);
    }
  }
  if (!have_db) return Status::InvalidArgument("missing required field \"db\"");
  if (!have_sql) {
    return Status::InvalidArgument("missing required field \"sql\"");
  }
  if (!have_question) {
    return Status::InvalidArgument("missing required field \"question\"");
  }
  return request;
}

// ---------------------------------------------------------------------------
// Response codec.
// ---------------------------------------------------------------------------

std::string RenderWhyNotResponseJson(const WhyNotResponse& response,
                                     bool deduped) {
  std::string out = "{";
  bool first = true;
  AppendStringField(&out, "key", response.key, &first);
  AppendStringField(&out, "status", StatusCodeName(response.status.code()),
                    &first);
  if (!response.status.message().empty()) {
    AppendStringField(&out, "message", response.status.message(), &first);
  }
  AppendKey(&out, "answer", &first);
  AppendAnswer(&out, response.answer);
  AppendUintField(&out, "snapshot_version", response.snapshot_version, &first);
  AppendIntField(&out, "attempt", response.attempt, &first);
  AppendDoubleField(&out, "queue_ms", response.queue_ms, &first);
  AppendDoubleField(&out, "exec_ms", response.exec_ms, &first);
  if (response.retry_after_ms != 0) {
    AppendIntField(&out, "retry_after_ms", response.retry_after_ms, &first);
  }
  if (response.served_from_answer_cache) {
    AppendBoolField(&out, "served_from_answer_cache", true, &first);
  }
  if (response.served_from_answer_store) {
    AppendBoolField(&out, "served_from_answer_store", true, &first);
  }
  if (response.expired_in_queue) {
    AppendBoolField(&out, "expired_in_queue", true, &first);
  }
  if (deduped) AppendBoolField(&out, "deduped", true, &first);
  if (response.trace != nullptr) {
    AppendStringField(&out, "trace", response.trace->RenderStructure(),
                      &first);
  }
  out += '}';
  return out;
}

std::string RenderSubmissionErrorJson(const Status& status,
                                      int64_t retry_after_ms,
                                      bool breaker_fast_fail) {
  std::string out = "{";
  bool first = true;
  AppendStringField(&out, "status", StatusCodeName(status.code()), &first);
  if (!status.message().empty()) {
    AppendStringField(&out, "message", status.message(), &first);
  }
  if (retry_after_ms != 0) {
    AppendIntField(&out, "retry_after_ms", retry_after_ms, &first);
  }
  if (breaker_fast_fail) {
    AppendBoolField(&out, "breaker_fast_fail", true, &first);
  }
  out += '}';
  return out;
}

Result<WireResponse> ParseWhyNotResponseJson(std::string_view body) {
  NED_ASSIGN_OR_RETURN(Value doc, json::Parse(body));
  if (!doc.is_object()) {
    return Status::InvalidArgument("response body must be a JSON object");
  }
  WireResponse response;
  for (const auto& [key, member] : doc.as_object()) {
    if (key == "key") {
      NED_ASSIGN_OR_RETURN(response.key, ReadString(member, "key"));
    } else if (key == "status") {
      NED_ASSIGN_OR_RETURN(std::string name, ReadString(member, "status"));
      response.code = StatusCodeFromName(name);
    } else if (key == "message") {
      NED_ASSIGN_OR_RETURN(response.message, ReadString(member, "message"));
    } else if (key == "answer") {
      NED_ASSIGN_OR_RETURN(response.answer, ParseAnswer(member));
    } else if (key == "snapshot_version") {
      NED_ASSIGN_OR_RETURN(response.snapshot_version,
                           ReadUint(member, "snapshot_version"));
    } else if (key == "attempt") {
      NED_ASSIGN_OR_RETURN(int64_t attempt, ReadInt(member, "attempt"));
      response.attempt = static_cast<int>(attempt);
    } else if (key == "queue_ms") {
      NED_ASSIGN_OR_RETURN(response.queue_ms, ReadDouble(member, "queue_ms"));
    } else if (key == "exec_ms") {
      NED_ASSIGN_OR_RETURN(response.exec_ms, ReadDouble(member, "exec_ms"));
    } else if (key == "retry_after_ms") {
      NED_ASSIGN_OR_RETURN(response.retry_after_ms,
                           ReadInt(member, "retry_after_ms"));
    } else if (key == "served_from_answer_cache") {
      NED_ASSIGN_OR_RETURN(response.served_from_answer_cache,
                           ReadBool(member, "served_from_answer_cache"));
    } else if (key == "served_from_answer_store") {
      NED_ASSIGN_OR_RETURN(response.served_from_answer_store,
                           ReadBool(member, "served_from_answer_store"));
    } else if (key == "expired_in_queue") {
      NED_ASSIGN_OR_RETURN(response.expired_in_queue,
                           ReadBool(member, "expired_in_queue"));
    } else if (key == "breaker_fast_fail") {
      NED_ASSIGN_OR_RETURN(response.breaker_fast_fail,
                           ReadBool(member, "breaker_fast_fail"));
    } else if (key == "deduped") {
      NED_ASSIGN_OR_RETURN(response.deduped, ReadBool(member, "deduped"));
    } else if (key == "trace") {
      NED_ASSIGN_OR_RETURN(response.trace_structure,
                           ReadString(member, "trace"));
    } else {
      return UnknownField("response", key);
    }
  }
  return response;
}

StatusCode StatusCodeFromName(std::string_view name) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kParseError,
        StatusCode::kTypeError, StatusCode::kUnsupported, StatusCode::kInternal,
        StatusCode::kDeadlineExceeded, StatusCode::kResourceExhausted,
        StatusCode::kCancelled, StatusCode::kUnavailable}) {
    if (name == StatusCodeName(code)) return code;
  }
  return StatusCode::kInternal;
}

int HttpStatusForCode(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kUnavailable:
      return 503;
    case StatusCode::kDeadlineExceeded:
      return 504;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
    case StatusCode::kTypeError:
    case StatusCode::kUnsupported:
      return 400;
    default:
      return 500;
  }
}

}  // namespace ned::net
