/// \file wire.h
/// \brief Binary codecs for the durability layer (journal + answer store).
///
/// Fixed little-endian framing with length-prefixed strings; every decoder
/// is bounds-checked and returns Status instead of crashing, because the
/// journal's recovery path feeds these decoders bytes that may have been
/// torn by a crash or flipped by a bad disk (persist_test fuzzes exactly
/// that). Doubles travel as raw IEEE-754 bit patterns, so a recovered
/// request or answer is byte-identical to what was journaled -- no
/// print/parse round-trip loss.
///
/// Checksums: Crc32 (IEEE, reflected) frames journal records and store
/// entries; Fnv1a64 names store entry files and fingerprints database
/// content. Both are fixed algorithms, stable across compilers and
/// processes -- std::hash is deliberately not used anywhere on disk.

#ifndef NED_PERSIST_WIRE_H_
#define NED_PERSIST_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/hash.h"
#include "common/status.h"
#include "core/report.h"
#include "persist/journal.h"

namespace ned {

struct WhyNotRequest;  // service/request.h; codec only, no layering cycle

namespace wire {

void PutU8(std::string* out, uint8_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
void PutI64(std::string* out, int64_t v);
void PutDouble(std::string* out, double v);
/// u32 length + raw bytes.
void PutStr(std::string* out, std::string_view s);

/// Bounds-checked sequential reader over an encoded buffer. Every Get
/// returns false (and poisons the reader) on truncation; decoders turn
/// that into a ParseError.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool GetU8(uint8_t* v);
  bool GetU32(uint32_t* v);
  bool GetU64(uint64_t* v);
  bool GetI64(int64_t* v);
  bool GetDouble(double* v);
  bool GetStr(std::string* v);

  bool ok() const { return ok_; }
  bool AtEnd() const { return ok_ && pos_ == data_.size(); }

 private:
  bool Take(size_t n, const char** p);

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace wire

/// Full WhyNotRequest codec (key, content, scheduling identity, budgets,
/// chaos knobs, engine options and the structured why-not question). The
/// encoding is versioned; DecodeRequest rejects unknown versions.
std::string EncodeRequest(const WhyNotRequest& request);
Status DecodeRequest(std::string_view payload, WhyNotRequest* out);

/// AnswerSummary codec (used by answer-store entries).
void EncodeAnswerSummary(const AnswerSummary& summary, std::string* out);
Status DecodeAnswerSummary(wire::Reader* reader, AnswerSummary* out);

/// COMPLETE journal record: the final response for `key`. `stored` says
/// the answer is in the durable store under `answer_key`, the answer
/// tier's content key (empty when the request bypassed the tier).
struct CompleteRecord {
  std::string key;
  StatusCode code = StatusCode::kOk;
  bool stored = false;
  std::string answer_key;
};
std::string EncodeComplete(const CompleteRecord& record);
Status DecodeComplete(std::string_view payload, CompleteRecord* out);

/// SHED journal record: the request under `key` was finally failed or
/// shed. The payload is the key alone, so JournalRecordKey decodes it.
std::string EncodeShed(std::string_view key);

/// The request key a journal record names, read without decoding the rest
/// -- so it also recovers the key of an ACCEPT that DecodeRequest rejects.
/// Every record type leads with the key (ACCEPT behind the codec-version
/// byte); empty when the payload is too mangled to yield one.
std::string JournalRecordKey(JournalRecordType type, std::string_view payload);

}  // namespace ned

#endif  // NED_PERSIST_WIRE_H_
