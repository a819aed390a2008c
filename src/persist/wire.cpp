#include "persist/wire.h"

#include <cstring>

#include "service/request.h"

namespace ned {

namespace {

constexpr uint8_t kRequestCodecVersion = 1;

}  // namespace

namespace wire {

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

void PutDouble(std::string* out, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutStr(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

bool Reader::Take(size_t n, const char** p) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  *p = data_.data() + pos_;
  pos_ += n;
  return true;
}

bool Reader::GetU8(uint8_t* v) {
  const char* p;
  if (!Take(1, &p)) return false;
  *v = static_cast<uint8_t>(*p);
  return true;
}

bool Reader::GetU32(uint32_t* v) {
  const char* p;
  if (!Take(4, &p)) return false;
  uint32_t r = 0;
  for (int i = 0; i < 4; ++i) {
    r |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  *v = r;
  return true;
}

bool Reader::GetU64(uint64_t* v) {
  const char* p;
  if (!Take(8, &p)) return false;
  uint64_t r = 0;
  for (int i = 0; i < 8; ++i) {
    r |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  *v = r;
  return true;
}

bool Reader::GetI64(int64_t* v) {
  uint64_t u;
  if (!GetU64(&u)) return false;
  *v = static_cast<int64_t>(u);
  return true;
}

bool Reader::GetDouble(double* v) {
  uint64_t bits;
  if (!GetU64(&bits)) return false;
  std::memcpy(v, &bits, sizeof(bits));
  return true;
}

bool Reader::GetStr(std::string* v) {
  uint32_t len;
  if (!GetU32(&len)) return false;
  // A flipped length byte must not trigger a giant allocation.
  if (data_.size() - pos_ < len) {
    ok_ = false;
    return false;
  }
  v->assign(data_.data() + pos_, len);
  pos_ += len;
  return true;
}

}  // namespace wire

namespace {

using wire::PutDouble;
using wire::PutI64;
using wire::PutStr;
using wire::PutU32;
using wire::PutU64;
using wire::PutU8;
using wire::Reader;

void EncodeValue(const Value& v, std::string* out) {
  PutU8(out, static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      PutI64(out, v.as_int());
      break;
    case ValueType::kDouble:
      PutDouble(out, v.as_double());
      break;
    case ValueType::kString:
      PutStr(out, v.as_string());
      break;
  }
}

bool DecodeValue(Reader* r, Value* out) {
  uint8_t tag;
  if (!r->GetU8(&tag)) return false;
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      *out = Value::Null();
      return true;
    case ValueType::kInt: {
      int64_t v;
      if (!r->GetI64(&v)) return false;
      *out = Value::Int(v);
      return true;
    }
    case ValueType::kDouble: {
      double v;
      if (!r->GetDouble(&v)) return false;
      *out = Value::Real(v);
      return true;
    }
    case ValueType::kString: {
      std::string s;
      if (!r->GetStr(&s)) return false;
      *out = Value::Str(std::move(s));
      return true;
    }
  }
  return false;  // unknown tag: corrupt byte, not a crash
}

void EncodeQuestion(const WhyNotQuestion& q, std::string* out) {
  PutU32(out, static_cast<uint32_t>(q.ctuples().size()));
  for (const CTuple& tc : q.ctuples()) {
    PutU32(out, static_cast<uint32_t>(tc.fields().size()));
    for (const auto& [attr, cv] : tc.fields()) {
      PutStr(out, attr.qualifier);
      PutStr(out, attr.name);
      PutU8(out, cv.is_var ? 1 : 0);
      if (cv.is_var) {
        PutStr(out, cv.var);
      } else {
        EncodeValue(cv.constant, out);
      }
    }
    PutU32(out, static_cast<uint32_t>(tc.cond().size()));
    for (const CPred& pred : tc.cond()) {
      PutStr(out, pred.lhs_var);
      PutU8(out, static_cast<uint8_t>(pred.op));
      PutU8(out, pred.rhs_is_var ? 1 : 0);
      if (pred.rhs_is_var) {
        PutStr(out, pred.rhs_var);
      } else {
        EncodeValue(pred.rhs_const, out);
      }
    }
  }
}

bool DecodeQuestion(Reader* r, WhyNotQuestion* out) {
  uint32_t n_ctuples;
  if (!r->GetU32(&n_ctuples)) return false;
  WhyNotQuestion q;
  for (uint32_t i = 0; i < n_ctuples; ++i) {
    CTuple tc;
    uint32_t n_fields;
    if (!r->GetU32(&n_fields)) return false;
    for (uint32_t f = 0; f < n_fields; ++f) {
      std::string qualifier, name;
      uint8_t is_var;
      if (!r->GetStr(&qualifier) || !r->GetStr(&name) || !r->GetU8(&is_var)) {
        return false;
      }
      CValue cv;
      if (is_var != 0) {
        std::string var;
        if (!r->GetStr(&var)) return false;
        cv = CValue::Var(std::move(var));
      } else {
        Value v;
        if (!DecodeValue(r, &v)) return false;
        cv = CValue::Const(std::move(v));
      }
      tc.AddField(Attribute(std::move(qualifier), std::move(name)),
                  std::move(cv));
    }
    uint32_t n_conds;
    if (!r->GetU32(&n_conds)) return false;
    for (uint32_t c = 0; c < n_conds; ++c) {
      std::string lhs;
      uint8_t op, rhs_is_var;
      if (!r->GetStr(&lhs) || !r->GetU8(&op) || !r->GetU8(&rhs_is_var)) {
        return false;
      }
      if (op > static_cast<uint8_t>(CompareOp::kGe)) return false;
      if (rhs_is_var != 0) {
        std::string rhs;
        if (!r->GetStr(&rhs)) return false;
        tc.Where(CPred::VsVar(std::move(lhs), static_cast<CompareOp>(op),
                              std::move(rhs)));
      } else {
        Value v;
        if (!DecodeValue(r, &v)) return false;
        tc.Where(CPred::VsConst(std::move(lhs), static_cast<CompareOp>(op),
                                std::move(v)));
      }
    }
    q.AddCTuple(std::move(tc));
  }
  *out = std::move(q);
  return true;
}

void PutStrings(const std::vector<std::string>& v, std::string* out) {
  PutU32(out, static_cast<uint32_t>(v.size()));
  for (const std::string& s : v) PutStr(out, s);
}

bool GetStrings(Reader* r, std::vector<std::string>* out) {
  uint32_t n;
  if (!r->GetU32(&n)) return false;
  out->clear();
  for (uint32_t i = 0; i < n; ++i) {
    std::string s;
    if (!r->GetStr(&s)) return false;
    out->push_back(std::move(s));
  }
  return true;
}

}  // namespace

std::string EncodeRequest(const WhyNotRequest& request) {
  std::string out;
  PutU8(&out, kRequestCodecVersion);
  PutStr(&out, request.key);
  PutStr(&out, request.db_name);
  PutStr(&out, request.sql);
  EncodeQuestion(request.question, &out);
  PutU8(&out, static_cast<uint8_t>(request.priority));
  PutStr(&out, request.client_id);
  PutI64(&out, request.deadline_ms);
  PutU64(&out, request.row_budget);
  PutU64(&out, request.memory_budget);
  PutU64(&out, request.seed);
  // Reserved: the former per-request thread count. Kept (always 0) so the
  // record layout and kRequestCodecVersion stay unchanged and journals
  // written before it was removed still decode.
  PutI64(&out, 0);
  PutU64(&out, request.inject_fault_at_step);
  PutI64(&out, request.inject_transient_failures);
  const uint8_t flags =
      (request.bypass_answer_cache ? 1u : 0u) |
      (request.engine_options.enable_early_termination ? 2u : 0u) |
      (request.engine_options.compute_secondary ? 4u : 0u) |
      (request.engine_options.keep_tabq_dump ? 8u : 0u);
  PutU8(&out, flags);
  return out;
}

Status DecodeRequest(std::string_view payload, WhyNotRequest* out) {
  Reader r(payload);
  uint8_t version;
  if (!r.GetU8(&version) || version != kRequestCodecVersion) {
    return Status::ParseError("journal request record: bad codec version");
  }
  WhyNotRequest req;
  uint8_t priority = 0, flags = 0;
  // `reserved` is the former thread-count slot: read and discarded, since
  // journals written before its removal may hold any count there.
  int64_t reserved = 0, transients = 0;
  uint64_t row_budget = 0, memory_budget = 0;
  bool ok = r.GetStr(&req.key) && r.GetStr(&req.db_name) && r.GetStr(&req.sql);
  ok = ok && DecodeQuestion(&r, &req.question);
  ok = ok && r.GetU8(&priority) && r.GetStr(&req.client_id) &&
       r.GetI64(&req.deadline_ms) && r.GetU64(&row_budget) &&
       r.GetU64(&memory_budget) && r.GetU64(&req.seed) && r.GetI64(&reserved) &&
       r.GetU64(&req.inject_fault_at_step) && r.GetI64(&transients) &&
       r.GetU8(&flags);
  if (!ok || !r.AtEnd() || priority >= kPriorityClasses) {
    return Status::ParseError("journal request record: truncated or corrupt");
  }
  req.priority = static_cast<Priority>(priority);
  req.row_budget = static_cast<size_t>(row_budget);
  req.memory_budget = static_cast<size_t>(memory_budget);
  req.inject_transient_failures = static_cast<int>(transients);
  req.bypass_answer_cache = (flags & 1u) != 0;
  req.engine_options.enable_early_termination = (flags & 2u) != 0;
  req.engine_options.compute_secondary = (flags & 4u) != 0;
  req.engine_options.keep_tabq_dump = (flags & 8u) != 0;
  *out = std::move(req);
  return Status::OK();
}

void EncodeAnswerSummary(const AnswerSummary& summary, std::string* out) {
  PutStrings(summary.detailed, out);
  PutStrings(summary.condensed, out);
  PutStrings(summary.secondary, out);
  PutU64(out, summary.dir_total);
  PutU64(out, summary.indir_total);
  PutU64(out, summary.survivors_at_root);
  PutU8(out, summary.complete ? 1 : 0);
  PutU8(out, static_cast<uint8_t>(summary.tripped));
  PutStr(out, summary.completeness);
  PutU64(out, summary.subtree_cache_hits);
  PutU64(out, summary.subtree_cache_misses);
  PutI64(out, summary.degradation_level);
  PutStr(out, summary.degradation);
}

Status DecodeAnswerSummary(wire::Reader* r, AnswerSummary* out) {
  AnswerSummary s;
  uint64_t dir = 0, indir = 0, survivors = 0, hits = 0, misses = 0;
  int64_t degradation_level = 0;
  uint8_t complete = 0, tripped = 0;
  bool ok = GetStrings(r, &s.detailed) && GetStrings(r, &s.condensed) &&
            GetStrings(r, &s.secondary) && r->GetU64(&dir) &&
            r->GetU64(&indir) && r->GetU64(&survivors) && r->GetU8(&complete) &&
            r->GetU8(&tripped) && r->GetStr(&s.completeness) &&
            r->GetU64(&hits) && r->GetU64(&misses) &&
            r->GetI64(&degradation_level) && r->GetStr(&s.degradation);
  if (!ok || tripped > static_cast<uint8_t>(StatusCode::kUnavailable)) {
    return Status::ParseError("answer summary: truncated or corrupt");
  }
  s.dir_total = static_cast<size_t>(dir);
  s.indir_total = static_cast<size_t>(indir);
  s.survivors_at_root = static_cast<size_t>(survivors);
  s.complete = complete != 0;
  s.tripped = static_cast<StatusCode>(tripped);
  s.subtree_cache_hits = static_cast<size_t>(hits);
  s.subtree_cache_misses = static_cast<size_t>(misses);
  s.degradation_level = static_cast<int>(degradation_level);
  *out = std::move(s);
  return Status::OK();
}

std::string EncodeComplete(const CompleteRecord& record) {
  std::string out;
  PutStr(&out, record.key);
  PutU8(&out, static_cast<uint8_t>(record.code));
  PutU8(&out, record.stored ? 1 : 0);
  PutStr(&out, record.answer_key);
  return out;
}

Status DecodeComplete(std::string_view payload, CompleteRecord* out) {
  Reader r(payload);
  CompleteRecord record;
  uint8_t code = 0, stored = 0;
  if (!r.GetStr(&record.key) || !r.GetU8(&code) || !r.GetU8(&stored) ||
      !r.GetStr(&record.answer_key) ||
      code > static_cast<uint8_t>(StatusCode::kUnavailable)) {
    return Status::ParseError("journal complete record: truncated or corrupt");
  }
  record.code = static_cast<StatusCode>(code);
  record.stored = stored != 0;
  *out = std::move(record);
  return Status::OK();
}

std::string EncodeShed(std::string_view key) {
  std::string out;
  PutStr(&out, key);
  return out;
}

std::string JournalRecordKey(JournalRecordType type, std::string_view payload) {
  Reader r(payload);
  if (type == JournalRecordType::kAccept) {
    uint8_t version = 0;
    r.GetU8(&version);
  }
  std::string key;
  if (!r.GetStr(&key)) key.clear();
  return key;
}

}  // namespace ned
