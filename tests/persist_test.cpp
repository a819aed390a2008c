/// \file persist_test.cpp
/// \brief The crash-safe durability layer (src/persist/): wire codecs,
/// atomic file writes, the CRC-framed write-ahead journal, the durable
/// answer store, and the service-level persist/recover round trip.
///
/// The core properties, fuzzed rather than example-tested:
///   - truncating the journal at EVERY byte offset recovers an exact prefix
///     of the appended records -- open never crashes, never fabricates;
///   - flipping any random bit yields a clean prefix too (CRC32 catches all
///     single-bit corruption) and drops every later segment;
///   - decoding any truncated request payload fails with a Status, never a
///     crash (the recovery path feeds decoders torn bytes by design);
///   - a corrupt store entry is deleted and reported kNotFound -- a store
///     hit is always byte-identical to what was put.
///
/// ned_crashtest drives the same layer through injected crash points and
/// real SIGKILL; tests/service_test.cpp pins the Drain-vs-Shutdown contract.

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/atomic_file.h"
#include "common/csv.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/strings.h"
#include "persist/answer_store.h"
#include "persist/journal.h"
#include "persist/wire.h"
#include "relational/catalog.h"
#include "service/service.h"
#include "tests/test_util.h"

namespace ned {
namespace {

using testing::MakeTinyDb;
using testing::RemoveTree;

/// A fresh, empty scratch dir under the test tmp root.
std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "persist_test_" + name;
  RemoveTree(dir);
  NED_CHECK(EnsureDir(dir).ok());
  return dir;
}

WhyNotRequest FullRequest() {
  WhyNotRequest req;
  req.key = "req-key-1";
  req.db_name = "tiny";
  req.sql = "SELECT R.v FROM R, S WHERE R.k = S.k";
  CTuple tc;
  tc.Add("R.v", Value::Str("c"));
  tc.Add("R.k", Value::Int(-42));
  tc.Add("R.x", Value::Real(3.25));
  WhyNotQuestion question(tc);
  CTuple tc2;
  tc2.Add("S.w", Value::Str("x"));
  question.AddCTuple(tc2);
  req.question = question;
  req.priority = Priority::kBatch;
  req.client_id = "client-7";
  req.deadline_ms = 1234;
  req.row_budget = 99;
  req.memory_budget = 1u << 20;
  req.seed = 0xDEADBEEFCAFEull;
  req.inject_fault_at_step = 17;
  req.inject_transient_failures = 2;
  req.bypass_answer_cache = true;
  return req;
}

AnswerSummary FullSummary() {
  AnswerSummary summary;
  summary.detailed = {"(P.id:604, m0)", "(P.id:605, m2)"};
  summary.condensed = {"m0", "m2"};
  summary.secondary = {"m3"};
  summary.dir_total = 2;
  summary.indir_total = 1;
  summary.survivors_at_root = 0;
  summary.complete = true;
  summary.tripped = StatusCode::kOk;
  summary.completeness = "complete";
  summary.subtree_cache_hits = 5;
  summary.subtree_cache_misses = 7;
  summary.degradation_level = 0;
  return summary;
}

std::string EncodedSummary(const AnswerSummary& summary) {
  std::string bytes;
  EncodeAnswerSummary(summary, &bytes);
  return bytes;
}

// ---- wire codecs -----------------------------------------------------------

TEST(Wire, RequestRoundTripsEveryField) {
  const WhyNotRequest req = FullRequest();
  const std::string payload = EncodeRequest(req);
  // The same record as journals that still carried a per-request thread
  // count wrote it: the reserved i64 slot, which sits just before the
  // trailing inject_fault_at_step (u64), inject_transient_failures (i64)
  // and flags (u8), holds 2 (little-endian).
  std::string legacy = payload;
  const size_t reserved_slot = legacy.size() - (8 + 8 + 8 + 1);
  ASSERT_EQ(legacy.substr(reserved_slot, 8), std::string(8, '\0'));
  legacy[reserved_slot] = 2;
  for (const std::string& bytes : {payload, legacy}) {
    WhyNotRequest out;
    NED_EXPECT_OK(DecodeRequest(bytes, &out));
    EXPECT_EQ(out.key, req.key);
    EXPECT_EQ(out.db_name, req.db_name);
    EXPECT_EQ(out.sql, req.sql);
    EXPECT_EQ(out.question.ToString(), req.question.ToString());
    EXPECT_EQ(out.priority, req.priority);
    EXPECT_EQ(out.client_id, req.client_id);
    EXPECT_EQ(out.deadline_ms, req.deadline_ms);
    EXPECT_EQ(out.row_budget, req.row_budget);
    EXPECT_EQ(out.memory_budget, req.memory_budget);
    EXPECT_EQ(out.seed, req.seed);
    EXPECT_EQ(out.inject_fault_at_step, req.inject_fault_at_step);
    EXPECT_EQ(out.inject_transient_failures, req.inject_transient_failures);
    EXPECT_EQ(out.bypass_answer_cache, req.bypass_answer_cache);
    // Re-encoding the decoded request gives the current bytes: doubles
    // travel as raw bits, not through print/parse, and the reserved slot
    // is written as 0.
    EXPECT_EQ(EncodeRequest(out), payload);
  }
}

TEST(Wire, EveryTruncatedRequestPrefixFailsCleanly) {
  const std::string payload = EncodeRequest(FullRequest());
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    WhyNotRequest out;
    const Status st = DecodeRequest(payload.substr(0, cut), &out);
    EXPECT_FALSE(st.ok()) << "prefix of " << cut << " bytes decoded";
  }
}

TEST(Wire, RejectsUnknownVersionAndBadPriority) {
  std::string payload = EncodeRequest(FullRequest());
  std::string bad_version = payload;
  bad_version[0] = static_cast<char>(0x7F);
  WhyNotRequest out;
  EXPECT_FALSE(DecodeRequest(bad_version, &out).ok());
}

TEST(Wire, AnswerSummaryRoundTripsAndRejectsTruncation) {
  const AnswerSummary summary = FullSummary();
  const std::string bytes = EncodedSummary(summary);
  wire::Reader reader(bytes);
  AnswerSummary out;
  NED_EXPECT_OK(DecodeAnswerSummary(&reader, &out));
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(EncodedSummary(out), bytes);
  EXPECT_EQ(out.detailed, summary.detailed);
  EXPECT_EQ(out.complete, summary.complete);
  EXPECT_EQ(out.completeness, summary.completeness);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    wire::Reader torn(std::string_view(bytes).substr(0, cut));
    AnswerSummary ignored;
    EXPECT_FALSE(DecodeAnswerSummary(&torn, &ignored).ok())
        << "prefix of " << cut << " bytes decoded";
  }
}

TEST(Wire, JournalRecordCodecsPinBytesAndRejectTruncation) {
  const std::string complete =
      EncodeComplete({"k", StatusCode::kOk, true, "s"});
  EXPECT_EQ(complete, std::string("\x01\x00\x00\x00k\x00\x01"
                                  "\x01\x00\x00\x00s",
                                  12));
  CompleteRecord decoded;
  NED_EXPECT_OK(DecodeComplete(complete, &decoded));
  EXPECT_EQ(decoded.key, "k");
  EXPECT_EQ(decoded.code, StatusCode::kOk);
  EXPECT_TRUE(decoded.stored);
  EXPECT_EQ(decoded.answer_key, "s");
  const std::string shed = EncodeShed("k");
  EXPECT_EQ(shed, std::string("\x01\x00\x00\x00k", 5));
  EXPECT_EQ(JournalRecordKey(JournalRecordType::kShed, shed), "k");
  for (size_t cut = 0; cut < complete.size(); ++cut) {
    CompleteRecord out;
    EXPECT_FALSE(DecodeComplete(complete.substr(0, cut), &out).ok())
        << "complete prefix of " << cut << " bytes decoded";
  }
  for (size_t cut = 0; cut < shed.size(); ++cut) {
    EXPECT_EQ(JournalRecordKey(JournalRecordType::kShed, shed.substr(0, cut)),
              "")
        << "shed prefix of " << cut << " bytes decoded";
  }
}

TEST(Wire, JournalRecordKeyReadsEveryRecordType) {
  WhyNotRequest req = FullRequest();
  std::string accept = EncodeRequest(req);
  EXPECT_EQ(JournalRecordKey(JournalRecordType::kAccept, accept), req.key);
  // An ACCEPT that DecodeRequest rejects still yields its key.
  accept[0] = static_cast<char>(0x7F);
  WhyNotRequest ignored;
  ASSERT_FALSE(DecodeRequest(accept, &ignored).ok());
  EXPECT_EQ(JournalRecordKey(JournalRecordType::kAccept, accept), req.key);
  EXPECT_EQ(JournalRecordKey(JournalRecordType::kComplete,
                             EncodeComplete({"c", StatusCode::kOk, false, ""})),
            "c");
  EXPECT_EQ(JournalRecordKey(JournalRecordType::kShed, "\x05"), "");
}

// ---- atomic file writes ----------------------------------------------------

TEST(AtomicFile, WritesAndReplacesWithoutTempLeftovers) {
  const std::string dir = FreshDir("atomic");
  const std::string path = dir + "/target.txt";
  NED_EXPECT_OK(AtomicWriteFile(path, "first"));
  auto read = ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "first");
  NED_EXPECT_OK(AtomicWriteFile(path, "second", /*fsync_data=*/true));
  read = ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "second");
  // No temp files left behind.
  DIR* d = ::opendir(dir.c_str());
  ASSERT_NE(d, nullptr);
  int entries = 0;
  while (dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    EXPECT_EQ(name, "target.txt");
    ++entries;
  }
  ::closedir(d);
  EXPECT_EQ(entries, 1);
}

TEST(AtomicFile, EnsureDirCreatesNestedPaths) {
  const std::string dir = FreshDir("ensure");
  NED_EXPECT_OK(EnsureDir(dir + "/a/b/c"));
  struct stat st;
  EXPECT_EQ(::stat((dir + "/a/b/c").c_str(), &st), 0);
  EXPECT_TRUE(S_ISDIR(st.st_mode));
  NED_EXPECT_OK(EnsureDir(dir + "/a/b/c"));  // idempotent
}

// ---- journal ---------------------------------------------------------------

std::vector<std::string> Payloads(const std::vector<JournalRecord>& records) {
  std::vector<std::string> out;
  for (const JournalRecord& r : records) out.push_back(r.payload);
  return out;
}

/// Appends `count` records "payload-0".."payload-N" over `runs` Open/close
/// cycles, so the journal ends with `runs` segments; returns the payloads.
std::vector<std::string> FillJournal(const std::string& dir, int count,
                                     int runs = 1) {
  JournalOptions options;
  options.dir = dir;
  options.fsync = FsyncPolicy::kEveryRecord;
  std::vector<std::string> payloads;
  for (int run = 0; run < runs; ++run) {
    std::vector<JournalRecord> recovered;
    auto journal = Journal::Open(options, &recovered);
    NED_CHECK(journal.ok());
    NED_CHECK(recovered.size() == payloads.size());
    for (int i = run * count / runs; i < (run + 1) * count / runs; ++i) {
      const std::string payload = StrCat("payload-", i);
      NED_CHECK((*journal)->Append(JournalRecordType::kAccept, payload).ok());
      payloads.push_back(payload);
    }
  }
  return payloads;
}

TEST(Journal, RecoversAcrossRunsWithContinuedSeqs) {
  const std::string dir = FreshDir("journal_runs");
  // Four runs of three records: four segments, reopened between appends.
  const std::vector<std::string> payloads = FillJournal(dir, 12, 4);
  JournalOptions options;
  options.dir = dir;
  std::vector<JournalRecord> recovered;
  auto journal = Journal::Open(options, &recovered);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_EQ(Payloads(recovered), payloads);
  for (size_t i = 0; i < recovered.size(); ++i) {
    EXPECT_EQ(recovered[i].seq, i + 1);
  }
  EXPECT_GE((*journal)->stats().recovered_records, 12u);
  // Appends after recovery continue the sequence, and a third open sees
  // old + new in order.
  NED_EXPECT_OK((*journal)->Append(JournalRecordType::kComplete, "tail"));
  journal->reset();
  std::vector<JournalRecord> again;
  auto reopened = Journal::Open(options, &again);
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(again.size(), 13u);
  EXPECT_EQ(again.back().payload, "tail");
  EXPECT_EQ(again.back().seq, 13u);
  EXPECT_EQ(again.back().type, JournalRecordType::kComplete);
}

TEST(Journal, TruncationAtEveryByteOffsetRecoversAnExactPrefix) {
  const std::string fill_dir = FreshDir("journal_trunc_src");
  // One run, so every record lives in seg-000000.wal.
  const std::vector<std::string> payloads = FillJournal(fill_dir, 8);
  auto original = ReadFile(fill_dir + "/" + Journal::SegmentName(0));
  ASSERT_TRUE(original.ok());
  // Record end offsets within the file: magic, then one frame per record.
  std::vector<size_t> record_ends;
  size_t offset = sizeof(Journal::kMagic);
  for (size_t i = 0; i < payloads.size(); ++i) {
    offset += Journal::FrameRecord(JournalRecordType::kAccept, i + 1,
                                   payloads[i])
                  .size();
    record_ends.push_back(offset);
  }
  ASSERT_EQ(offset, original->size());

  const std::string dir = FreshDir("journal_trunc");
  for (size_t cut = 0; cut <= original->size(); ++cut) {
    RemoveTree(dir);
    ASSERT_TRUE(EnsureDir(dir).ok());
    ASSERT_TRUE(
        WriteFile(dir + "/" + Journal::SegmentName(0), original->substr(0, cut))
            .ok());
    JournalOptions options;
    options.dir = dir;
    std::vector<JournalRecord> recovered;
    auto journal = Journal::Open(options, &recovered);
    ASSERT_TRUE(journal.ok())
        << "cut=" << cut << ": " << journal.status().ToString();
    // Expected: every record whose frame lies entirely below the cut.
    size_t expected = 0;
    while (expected < record_ends.size() && record_ends[expected] <= cut) {
      ++expected;
    }
    ASSERT_EQ(recovered.size(), expected) << "cut=" << cut;
    for (size_t i = 0; i < expected; ++i) {
      EXPECT_EQ(recovered[i].payload, payloads[i]) << "cut=" << cut;
    }
  }
}

TEST(Journal, RandomBitFlipsAlwaysYieldACleanPrefix) {
  const std::string fill_dir = FreshDir("journal_flip_src");
  const std::vector<std::string> payloads = FillJournal(fill_dir, 8);
  auto original = ReadFile(fill_dir + "/" + Journal::SegmentName(0));
  ASSERT_TRUE(original.ok());
  Rng rng(20260809);
  const std::string dir = FreshDir("journal_flip");
  for (int trial = 0; trial < 150; ++trial) {
    RemoveTree(dir);
    ASSERT_TRUE(EnsureDir(dir).ok());
    std::string corrupt = *original;
    const size_t pos = static_cast<size_t>(rng.Next() % corrupt.size());
    const int bit = static_cast<int>(rng.Next() % 8);
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1 << bit));
    ASSERT_TRUE(
        WriteFile(dir + "/" + Journal::SegmentName(0), corrupt).ok());
    JournalOptions options;
    options.dir = dir;
    std::vector<JournalRecord> recovered;
    auto journal = Journal::Open(options, &recovered);
    ASSERT_TRUE(journal.ok())
        << "pos=" << pos << ": " << journal.status().ToString();
    // CRC32 catches every single-bit flip, so the flipped record (or the
    // whole segment, for a flipped magic byte) is always dropped: the
    // result is a strict prefix, never a fabrication.
    ASSERT_LT(recovered.size(), payloads.size()) << "pos=" << pos;
    for (size_t i = 0; i < recovered.size(); ++i) {
      EXPECT_EQ(recovered[i].payload, payloads[i]) << "pos=" << pos;
    }
    // A flip inside a frame truncates the segment; a flip in the magic
    // drops it whole. Either way the corruption is counted, not ignored.
    const JournalStats stats = (*journal)->stats();
    EXPECT_GT(stats.truncated_bytes + stats.dropped_segments, 0u)
        << "pos=" << pos;
  }
}

TEST(Journal, CorruptionInAnEarlySegmentDropsAllLaterSegments) {
  const std::string dir = FreshDir("journal_multiseg");
  const std::vector<std::string> payloads = FillJournal(dir, 12, 4);
  // Flip a byte in the middle of the first segment's record area.
  const std::string seg0 = dir + "/" + Journal::SegmentName(0);
  auto data = ReadFile(seg0);
  ASSERT_TRUE(data.ok());
  std::string corrupt = *data;
  corrupt[sizeof(Journal::kMagic) + 2] ^= 0x40;
  ASSERT_TRUE(WriteFile(seg0, corrupt).ok());
  JournalOptions options;
  options.dir = dir;
  std::vector<JournalRecord> recovered;
  auto journal = Journal::Open(options, &recovered);
  ASSERT_TRUE(journal.ok());
  const JournalStats stats = (*journal)->stats();
  EXPECT_GE(stats.dropped_segments, 1u);
  // Nothing past the corruption survives -- even though later segments held
  // valid records, resurrecting them would reorder history.
  EXPECT_EQ(recovered.size(), 0u);
  struct stat st;
  EXPECT_NE(::stat((dir + "/" + Journal::SegmentName(1)).c_str(), &st), 0);
}

TEST(Journal, FsyncPolicies) {
  {
    const std::string dir = FreshDir("journal_fsync_rec");
    JournalOptions options;
    options.dir = dir;
    options.fsync = FsyncPolicy::kEveryRecord;
    std::vector<JournalRecord> recovered;
    auto journal = Journal::Open(options, &recovered);
    ASSERT_TRUE(journal.ok());
    const uint64_t syncs_before = (*journal)->stats().syncs;
    NED_EXPECT_OK((*journal)->Append(JournalRecordType::kAccept, "a"));
    NED_EXPECT_OK((*journal)->Append(JournalRecordType::kAccept, "b"));
    EXPECT_GE((*journal)->stats().syncs, syncs_before + 2);
  }
  {
    const std::string dir = FreshDir("journal_fsync_explicit");
    JournalOptions options;
    options.dir = dir;
    options.fsync = FsyncPolicy::kEveryNMs;
    options.fsync_interval_ms = 60'000;  // the flusher never wakes here
    std::vector<JournalRecord> recovered;
    auto journal = Journal::Open(options, &recovered);
    ASSERT_TRUE(journal.ok());
    const uint64_t syncs_before = (*journal)->stats().syncs;
    NED_EXPECT_OK((*journal)->Append(JournalRecordType::kAccept, "a"));
    NED_EXPECT_OK((*journal)->Append(JournalRecordType::kAccept, "b"));
    // No per-record syncs; an explicit Sync still works.
    EXPECT_EQ((*journal)->stats().syncs, syncs_before);
    NED_EXPECT_OK((*journal)->Sync());
    EXPECT_EQ((*journal)->stats().syncs, syncs_before + 1);
  }
  {
    const std::string dir = FreshDir("journal_fsync_lazy");
    JournalOptions options;
    options.dir = dir;
    options.fsync = FsyncPolicy::kEveryNMs;
    options.fsync_interval_ms = 5;
    std::vector<JournalRecord> recovered;
    auto journal = Journal::Open(options, &recovered);
    ASSERT_TRUE(journal.ok());
    const uint64_t syncs_before = (*journal)->stats().syncs;
    NED_EXPECT_OK((*journal)->Append(JournalRecordType::kAccept, "a"));
    // The background flusher picks it up without any Append-path fsync.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while ((*journal)->stats().syncs <= syncs_before &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_GT((*journal)->stats().syncs, syncs_before);
  }
}

TEST(Journal, DropOldSegmentsKeepsOnlyTheCurrentOne) {
  const std::string dir = FreshDir("journal_drop");
  FillJournal(dir, 12, 4);
  JournalOptions options;
  options.dir = dir;
  std::vector<JournalRecord> recovered;
  auto journal = Journal::Open(options, &recovered);
  ASSERT_TRUE(journal.ok());
  ASSERT_EQ(recovered.size(), 12u);
  NED_EXPECT_OK((*journal)->Append(JournalRecordType::kComplete, "keep"));
  NED_EXPECT_OK((*journal)->DropOldSegments());
  journal->reset();
  std::vector<JournalRecord> after;
  auto reopened = Journal::Open(options, &after);
  ASSERT_TRUE(reopened.ok());
  // Only the fresh segment's record survives the compaction.
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].payload, "keep");
}

TEST(Journal, ZeroPaddedSegmentFromAnOlderBinaryRecoversItsRecords) {
  // Older binaries zero-filled each segment up front, so a SIGKILLed run
  // left its records followed by zeros up to the preallocated size.
  const std::string dir = FreshDir("journal_zero_tail");
  std::string segment(Journal::kMagic, sizeof(Journal::kMagic));
  const std::vector<std::string> payloads = {"first", "second", "third"};
  for (size_t i = 0; i < payloads.size(); ++i) {
    segment += Journal::FrameRecord(JournalRecordType::kAccept, i + 1,
                                    payloads[i]);
  }
  const size_t records_end = segment.size();
  segment.resize(64u << 10, '\0');
  ASSERT_TRUE(WriteFile(dir + "/" + Journal::SegmentName(0), segment).ok());
  JournalOptions options;
  options.dir = dir;
  std::vector<JournalRecord> recovered;
  auto journal = Journal::Open(options, &recovered);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_EQ(Payloads(recovered), payloads);
  EXPECT_EQ((*journal)->stats().truncated_bytes, segment.size() - records_end);
  EXPECT_EQ((*journal)->stats().dropped_segments, 0u);
  NED_EXPECT_OK((*journal)->Append(JournalRecordType::kComplete, "next"));
  journal->reset();
  std::vector<JournalRecord> again;
  auto reopened = Journal::Open(options, &again);
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(again.size(), 4u);
  EXPECT_EQ(again.back().payload, "next");
  EXPECT_EQ(again.back().seq, 4u);
}

TEST(Journal, ExplicitSyncRacesTheFlusherSafely) {
  // Sync() fdatasyncs under the lock while the flusher fdatasyncs the same
  // fd outside it; neither may lose, reorder or break anything.
  const std::string dir = FreshDir("journal_sync_race");
  JournalOptions options;
  options.dir = dir;
  options.fsync = FsyncPolicy::kEveryNMs;
  options.fsync_interval_ms = 1;
  std::vector<JournalRecord> recovered;
  auto journal = Journal::Open(options, &recovered);
  ASSERT_TRUE(journal.ok());
  const uint64_t syncs_before = (*journal)->stats().syncs;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  std::vector<std::string> acked;
  int append_failures = 0;
  std::thread appender([&] {
    for (int i = 0; std::chrono::steady_clock::now() < deadline; ++i) {
      const std::string payload = StrCat("race-", i);
      if ((*journal)->Append(JournalRecordType::kAccept, payload).ok()) {
        acked.push_back(payload);
      } else {
        ++append_failures;
      }
    }
  });
  int sync_failures = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    if (!(*journal)->Sync().ok()) ++sync_failures;
  }
  appender.join();
  EXPECT_EQ(append_failures, 0);
  EXPECT_EQ(sync_failures, 0);
  EXPECT_GT((*journal)->stats().syncs, syncs_before);
  ASSERT_FALSE(acked.empty());
  journal->reset();
  std::vector<JournalRecord> after;
  auto reopened = Journal::Open(options, &after);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(Payloads(after), acked);
}

// ---- answer store ----------------------------------------------------------

TEST(AnswerStore, RoundTripsAcrossReopen) {
  const std::string dir = FreshDir("store_roundtrip");
  AnswerStoreOptions options;
  options.dir = dir;
  auto store = AnswerStore::Open(options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const AnswerSummary summary = FullSummary();
  NED_EXPECT_OK((*store)->Put("key-a", summary));
  // Idempotent re-put.
  NED_EXPECT_OK((*store)->Put("key-a", summary));
  EXPECT_EQ((*store)->entry_count(), 1u);
  store->reset();
  // Older binaries also wrote a MANIFEST; whatever it holds is ignored.
  ASSERT_TRUE(WriteFile(dir + "/MANIFEST", "not a manifest\n\x01\x02").ok());
  auto reopened = AnswerStore::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->stats().entries_on_open, 1u);
  EXPECT_TRUE((*reopened)->Contains("key-a"));
  auto lookup = (*reopened)->Lookup("key-a");
  ASSERT_TRUE(lookup.ok()) << lookup.status().ToString();
  EXPECT_EQ(EncodedSummary(*lookup), EncodedSummary(summary));
  EXPECT_EQ((*reopened)->Lookup("absent").status().code(),
            StatusCode::kNotFound);
}

TEST(AnswerStore, CorruptEntryIsDroppedNeverFabricated) {
  const std::string dir = FreshDir("store_corrupt");
  AnswerStoreOptions options;
  options.dir = dir;
  auto store = AnswerStore::Open(options);
  ASSERT_TRUE(store.ok());
  NED_EXPECT_OK((*store)->Put("key-a", FullSummary()));
  store->reset();
  const std::string entry_path =
      dir + "/entries/" + AnswerStore::EntryFileName("key-a");
  auto data = ReadFile(entry_path);
  ASSERT_TRUE(data.ok());
  std::string corrupt = *data;
  corrupt[corrupt.size() / 2] ^= 0x10;
  ASSERT_TRUE(WriteFile(entry_path, corrupt).ok());
  auto reopened = AnswerStore::Open(options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Lookup("key-a").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ((*reopened)->stats().corrupt_dropped, 1u);
  // The corrupt file is gone: the next lookup is a plain miss and the
  // entry is no longer indexed.
  struct stat st;
  EXPECT_NE(::stat(entry_path.c_str(), &st), 0);
  EXPECT_FALSE((*reopened)->Contains("key-a"));
}

TEST(AnswerStore, FilenameCollisionIsAMissNotAnAnswer) {
  const std::string dir = FreshDir("store_collision");
  AnswerStoreOptions options;
  options.dir = dir;
  auto store = AnswerStore::Open(options);
  ASSERT_TRUE(store.ok());
  NED_EXPECT_OK((*store)->Put("key-a", FullSummary()));
  store->reset();
  // Simulate an FNV collision: key-b's file name holds key-a's bytes.
  auto data = ReadFile(dir + "/entries/" + AnswerStore::EntryFileName("key-a"));
  ASSERT_TRUE(data.ok());
  ASSERT_TRUE(WriteFile(dir + "/entries/" + AnswerStore::EntryFileName("key-b"),
                        *data)
                  .ok());
  auto reopened = AnswerStore::Open(options);
  ASSERT_TRUE(reopened.ok());
  // The embedded key disagrees: a miss, not key-a's answer under key-b.
  EXPECT_EQ((*reopened)->Lookup("key-b").status().code(),
            StatusCode::kNotFound);
  auto lookup = (*reopened)->Lookup("key-a");
  ASSERT_TRUE(lookup.ok());
  EXPECT_EQ(EncodedSummary(*lookup), EncodedSummary(FullSummary()));
}

TEST(AnswerStore, DurableKeysSeparateContentBudgetsAndFingerprints) {
  // The tier's one key. Its bytes are pinned: stores written by earlier
  // binaries must keep hitting.
  EXPECT_EQ(MakeDurableAnswerKey("db", 0x1111, "SELECT  R.v FROM R;", "q", 0,
                                 0, 0),
            "db=2:db|fp=0000000000001111|q=17:select r.v from r|w=1:q|rb=0|"
            "mb=0|o=0");
  const std::string base = MakeDurableAnswerKey(
      "db", 0x1111, "SELECT R.v FROM R", "(R.v:c)", 0, 0, 0);
  EXPECT_EQ(base, MakeDurableAnswerKey("db", 0x1111, "SELECT R.v FROM R",
                                       "(R.v:c)", 0, 0, 0));
  // Spellings of one query share the key.
  EXPECT_EQ(base, MakeDurableAnswerKey("db", 0x1111, "select  r.v  from r;",
                                       "(R.v:c)", 0, 0, 0));
  EXPECT_NE(base, MakeDurableAnswerKey("db2", 0x1111, "SELECT R.v FROM R",
                                       "(R.v:c)", 0, 0, 0));
  EXPECT_NE(base, MakeDurableAnswerKey("db", 0x2222, "SELECT R.v FROM R",
                                       "(R.v:c)", 0, 0, 0));
  EXPECT_NE(base, MakeDurableAnswerKey("db", 0x1111, "SELECT R.k FROM R",
                                       "(R.v:c)", 0, 0, 0));
  EXPECT_NE(base, MakeDurableAnswerKey("db", 0x1111, "SELECT R.v FROM R",
                                       "(R.v:d)", 0, 0, 0));
  EXPECT_NE(base, MakeDurableAnswerKey("db", 0x1111, "SELECT R.v FROM R",
                                       "(R.v:c)", 10, 0, 0));
  EXPECT_NE(base, MakeDurableAnswerKey("db", 0x1111, "SELECT R.v FROM R",
                                       "(R.v:c)", 0, 10, 0));
  EXPECT_NE(base, MakeDurableAnswerKey("db", 0x1111, "SELECT R.v FROM R",
                                       "(R.v:c)", 0, 0, 1));
}

// ---- service round trip ----------------------------------------------------

std::shared_ptr<Catalog> TinyCatalog() {
  auto catalog = std::make_shared<Catalog>();
  NED_CHECK(catalog->Register("tiny", MakeTinyDb()).ok());
  return catalog;
}

WhyNotRequest TinyRequest(const std::string& key) {
  WhyNotRequest req;
  req.key = key;
  req.db_name = "tiny";
  req.sql = "SELECT R.v FROM R, S WHERE R.k = S.k";
  CTuple tc;
  tc.Add("R.v", Value::Str("c"));
  req.question = WhyNotQuestion(tc);
  return req;
}

TEST(ServicePersistence, AnswersSurviveARestartByteIdentically) {
  const std::string dir = FreshDir("service_roundtrip");
  std::string first_bytes;
  {
    ServiceOptions options;
    options.workers = 2;
    options.persist_dir = dir;
    WhyNotService service(TinyCatalog(), options);
    auto sub = service.Submit(TinyRequest("k1"));
    ASSERT_TRUE(sub.status.ok());
    const WhyNotResponse resp = sub.response.get();
    ASSERT_TRUE(resp.status.ok());
    ASSERT_TRUE(resp.answer.complete);
    first_bytes = EncodedSummary(resp.answer);
    const WhyNotService::Stats stats = service.stats();
    EXPECT_EQ(stats.journaled_accepts, 1u);
    EXPECT_EQ(stats.journaled_completes, 1u);
    EXPECT_EQ(stats.answer_store_puts, 1u);
    service.Shutdown();
  }
  {
    ServiceOptions options;
    options.workers = 2;
    options.persist_dir = dir;
    WhyNotService service(TinyCatalog(), options);
    const WhyNotService::RecoveryReport rec = service.Recover();
    EXPECT_GE(rec.replayed_records, 2u);  // the ACCEPT + the COMPLETE
    EXPECT_EQ(rec.restored_completed, 1u);
    EXPECT_EQ(rec.pending_found, 0u);
    // Same key: served from the restored idempotency book, byte-identical.
    auto same_key = service.Submit(TinyRequest("k1"));
    ASSERT_TRUE(same_key.status.ok());
    EXPECT_TRUE(same_key.deduped);
    EXPECT_EQ(EncodedSummary(same_key.response.get().answer), first_bytes);
    // New key, same content: served from the durable store without
    // executing anything.
    const uint64_t accepted_before = service.stats().accepted;
    auto new_key = service.Submit(TinyRequest("k2"));
    ASSERT_TRUE(new_key.status.ok());
    const WhyNotResponse resp = new_key.response.get();
    EXPECT_TRUE(resp.served_from_answer_store);
    EXPECT_EQ(EncodedSummary(resp.answer), first_bytes);
    EXPECT_EQ(service.stats().accepted, accepted_before);
    EXPECT_EQ(service.stats().answer_store_hits, 1u);
    service.Shutdown();
  }
}

TEST(ServicePersistence, JournalOnlyModeRecomputesInsteadOfRestoring) {
  const std::string dir = FreshDir("service_journal_only");
  {
    ServiceOptions options;
    options.workers = 2;
    options.persist_dir = dir;
    options.persist_answers = false;
    WhyNotService service(TinyCatalog(), options);
    auto sub = service.Submit(TinyRequest("k1"));
    ASSERT_TRUE(sub.status.ok());
    ASSERT_TRUE(sub.response.get().status.ok());
    const WhyNotService::Stats stats = service.stats();
    EXPECT_EQ(stats.journaled_accepts, 1u);
    EXPECT_EQ(stats.journaled_completes, 1u);
    EXPECT_EQ(stats.answer_store_puts, 0u);  // no store in this mode
    service.Shutdown();
  }
  {
    ServiceOptions options;
    options.workers = 2;
    options.persist_dir = dir;
    options.persist_answers = false;
    WhyNotService service(TinyCatalog(), options);
    const WhyNotService::RecoveryReport rec = service.Recover();
    EXPECT_GE(rec.replayed_records, 2u);
    // The completion is known but its answer was never spilled: nothing to
    // restore, nothing pending, and a resubmission simply executes again.
    EXPECT_EQ(rec.restored_completed, 0u);
    EXPECT_EQ(rec.pending_found, 0u);
    EXPECT_EQ(rec.dropped, 0u);
    auto again = service.Submit(TinyRequest("k1"));
    ASSERT_TRUE(again.status.ok());
    const WhyNotResponse resp = again.response.get();
    EXPECT_TRUE(resp.status.ok()) << resp.status.ToString();
    EXPECT_FALSE(resp.served_from_answer_store);
    EXPECT_EQ(service.stats().answer_store_hits, 0u);
    service.Shutdown();
  }
}

TEST(ServicePersistence, AbruptShutdownStrandsQueuedWorkForRecovery) {
  const std::string dir = FreshDir("service_pending");
  {
    ServiceOptions options;
    options.workers = 1;
    options.persist_dir = dir;
    // Flood the single worker so one request is still queued at Drain(0),
    // the stop that runs no queued work.
    WhyNotService service(TinyCatalog(), options);
    WhyNotRequest blocker = TinyRequest("blk");
    blocker.inject_fault_at_step = 1;  // runs, returns an honest partial
    auto b = service.Submit(blocker);
    ASSERT_TRUE(b.status.ok());
    auto q = service.Submit(TinyRequest("q1"));
    ASSERT_TRUE(q.status.ok());
    service.Drain(0);
    // The queued request (whichever it was) resolved retryably; its ACCEPT
    // stays open in the journal.
    const WhyNotResponse qr = q.response.get();
    (void)qr;  // resolved either way; recovery below proves the contract
  }
  {
    ServiceOptions options;
    options.workers = 1;
    options.persist_dir = dir;
    WhyNotService service(TinyCatalog(), options);
    const WhyNotService::RecoveryReport rec = service.Recover();
    // At least one of the two was stranded pending (the race decides which,
    // and both may even have finished -- but an abrupt shutdown with a
    // queue cannot complete both AND strand neither unless both ran).
    EXPECT_EQ(rec.pending_found, rec.resubmitted + rec.served_from_store);
    EXPECT_EQ(rec.dropped, 0u);
    // Whatever was stranded: resubmitting its key now yields an answer.
    auto q = service.Submit(TinyRequest("q1"));
    ASSERT_TRUE(q.status.ok());
    const WhyNotResponse resp = q.response.get();
    EXPECT_TRUE(resp.status.ok()) << resp.status.ToString();
    // Second recovery is a no-op: nothing is ever double-enqueued.
    const WhyNotService::RecoveryReport again = service.Recover();
    EXPECT_EQ(again.replayed_records, 0u);
    EXPECT_EQ(again.pending_found, 0u);
    EXPECT_EQ(again.resubmitted, 0u);
    service.Shutdown();
  }
}

}  // namespace
}  // namespace ned
