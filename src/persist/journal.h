/// \file journal.h
/// \brief Append-only, CRC-framed request journal: one segment per Open.
///
/// The journal is the service's write-ahead log: an ACCEPT record is
/// durable before a request is admitted, a COMPLETE or SHED record before
/// its future resolves. Recovery (service.cpp) replays the records and
/// re-enqueues every request that was accepted but neither completed nor
/// shed -- that set is exactly what a crash can strand.
///
/// On-disk layout: `<dir>/seg-NNNNNN.wal`, each segment starting with an
/// 8-byte magic. Records are framed as
///
///   [u8 type][u32 payload_len][u64 seq][payload][u32 crc]
///
/// with the CRC covering header + payload. Every Open starts a fresh
/// segment, created holding only the magic, and appends to it by plain
/// write()s until the journal closes; a segment never rotates, so it holds
/// one run's records. Old segments go only when service recovery compacts
/// them (DropOldSegments). Open() scans segments in order and stops at the
/// FIRST record that fails its frame check -- torn tail, flipped bit,
/// truncated header, the zero tail an older binary's preallocation left,
/// anything -- truncates the segment there and deletes all later segments.
/// Recovered records are therefore always an exact prefix of what was
/// appended: the journal never fabricates and never resurrects bytes past
/// a corruption. Because each Open starts a fresh segment, recovery never
/// appends after a truncation point.
///
/// Fsync policy trades latency for power-loss durability (process death --
/// including SIGKILL -- never loses write()n bytes; see docs/DURABILITY.md):
///   kEveryRecord  fsync before Append returns (group-commit safe default
///                 for tests; slowest)
///   kEveryNMs     background flusher fsyncs on an interval (default)

#ifndef NED_PERSIST_JOURNAL_H_
#define NED_PERSIST_JOURNAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/status.h"
#include "persist/crash_point.h"

namespace ned {

enum class JournalRecordType : uint8_t {
  kAccept = 1,    ///< payload = EncodeRequest(request)
  kComplete = 2,  ///< payload = key, status code, store key (may be empty)
  kShed = 3,      ///< payload = key; request finally failed or was shed
};

enum class FsyncPolicy : uint8_t { kEveryRecord, kEveryNMs };

struct JournalOptions {
  std::string dir;
  FsyncPolicy fsync = FsyncPolicy::kEveryNMs;
  int fsync_interval_ms = 250;
  /// Optional deterministic crash injection (ned_crashtest, persist_test).
  CrashInjector* crash = nullptr;
};

struct JournalRecord {
  JournalRecordType type = JournalRecordType::kAccept;
  uint64_t seq = 0;
  std::string payload;
};

struct JournalStats {
  uint64_t appends = 0;
  uint64_t syncs = 0;
  uint64_t bytes_written = 0;
  // Set by Open():
  uint64_t recovered_records = 0;
  uint64_t truncated_bytes = 0;   ///< bytes cut from the corrupt segment
  uint64_t dropped_segments = 0;  ///< segments after the corruption point
};

class Journal {
 public:
  /// Opens (creating if needed) the journal in `options.dir`, replays every
  /// intact record into `recovered`, repairs the tail as described above,
  /// and starts a fresh segment for new appends. Sequence numbers continue
  /// from the highest recovered one.
  static Result<std::unique_ptr<Journal>> Open(
      const JournalOptions& options, std::vector<JournalRecord>* recovered);

  /// Stops the flusher, then fsyncs and closes the segment. This is the
  /// only place the segment's fd is closed.
  ~Journal();

  /// Appends one record; thread-safe. Durability on return is governed by
  /// the fsync policy. Fails closed: any IO error (or injected crash)
  /// leaves the journal unusable for further appends.
  Status Append(JournalRecordType type, std::string_view payload);

  /// Forces an fdatasync of the segment (drain, shutdown and recovery call
  /// it); safe beside the kEveryNMs flusher's own off-lock fdatasync.
  Status Sync();

  /// Deletes every segment older than the one currently being written.
  /// Callers must first re-journal any state they still need (service
  /// recovery re-journals the completed book and pending requests).
  Status DropOldSegments();

  /// Lock-free thin read: the hot counters are atomics (tools and tests
  /// poll stats() concurrently with Append, which previously required
  /// taking mu_ on every read) and the recovery fields are written only by
  /// Open() before the journal is shared.
  JournalStats stats() const;

  /// Frames a record exactly as Append writes it (exposed for tests that
  /// build corrupt segments byte-by-byte).
  static std::string FrameRecord(JournalRecordType type, uint64_t seq,
                                 std::string_view payload);

  /// Segment magic ("NEDJRNL1").
  static constexpr char kMagic[8] = {'N', 'E', 'D', 'J', 'R', 'N', 'L', '1'};
  static std::string SegmentName(uint64_t index);

 private:
  Journal(const JournalOptions& options);

  Status OpenFreshSegmentLocked(uint64_t index);
  Status SyncLocked();
  Status WriteRawLocked(std::string_view bytes);
  void FlusherMain();

  const JournalOptions options_;

  mutable std::mutex mu_;
  int fd_ = -1;
  uint64_t segment_index_ = 0;
  uint64_t segment_size_ = 0;
  uint64_t synced_size_ = 0;  ///< offset already fsynced (power-loss sim)
  uint64_t next_seq_ = 1;
  bool broken_ = false;  ///< set on first IO error; appends fail after
  /// Hot-path counters, atomic so stats() never takes mu_. Writers hold
  /// mu_ anyway; the atomics exist for the off-lock readers.
  std::atomic<uint64_t> appends_{0};
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> bytes_written_{0};
  /// Recovery-time fields (recovered_records, truncated_bytes,
  /// dropped_segments): written by Open() before any other thread can see
  /// the journal, immutable afterwards.
  JournalStats open_stats_;

  std::thread flusher_;
  std::condition_variable flusher_cv_;
  bool stop_flusher_ = false;
};

}  // namespace ned

#endif  // NED_PERSIST_JOURNAL_H_
