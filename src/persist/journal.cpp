#include "persist/journal.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/atomic_file.h"
#include "persist/wire.h"

namespace ned {

namespace {

// [u8 type][u32 payload_len][u64 seq] before the payload, u32 crc after.
constexpr size_t kHeaderBytes = 1 + 4 + 8;
constexpr size_t kCrcBytes = 4;
// A payload longer than this cannot be legitimate (the largest record is an
// ACCEPT carrying one encoded request); treat the length field as corrupt
// rather than trusting a flipped bit to demand a 3 GB allocation.
constexpr uint32_t kMaxPayloadBytes = 64u << 20;

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::Internal(what + " " + path + ": " + std::strerror(errno));
}

Status CrashStatus(const char* where) {
  return Status::Unavailable(std::string("crash injected: ") + where);
}

bool ParseSegmentIndex(const std::string& name, uint64_t* index) {
  // seg-NNNNNN.wal (index may outgrow six digits; parse whatever is there).
  if (name.size() < 9 || name.compare(0, 4, "seg-") != 0) return false;
  if (name.compare(name.size() - 4, 4, ".wal") != 0) return false;
  const std::string digits = name.substr(4, name.size() - 8);
  if (digits.empty()) return false;
  uint64_t v = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *index = v;
  return true;
}

Result<std::vector<uint64_t>> ListSegments(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return ErrnoStatus("cannot open journal dir", dir);
  std::vector<uint64_t> indices;
  while (dirent* entry = ::readdir(d)) {
    uint64_t index = 0;
    if (ParseSegmentIndex(entry->d_name, &index)) indices.push_back(index);
  }
  ::closedir(d);
  std::sort(indices.begin(), indices.end());
  return indices;
}

Result<std::string> ReadWholeFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoStatus("cannot open", path);
  // A segment holds a whole run's records: size the buffer once rather
  // than regrow it chunk by chunk.
  std::string data;
  struct stat st;
  if (::fstat(fd, &st) == 0) data.reserve(static_cast<size_t>(st.st_size));
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return ErrnoStatus("read failed for", path);
    }
    if (n == 0) break;
    data.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return data;
}

}  // namespace

constexpr char Journal::kMagic[8];

std::string Journal::SegmentName(uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "seg-%06llu.wal",
                static_cast<unsigned long long>(index));
  return buf;
}

std::string Journal::FrameRecord(JournalRecordType type, uint64_t seq,
                                 std::string_view payload) {
  std::string frame;
  frame.reserve(kHeaderBytes + payload.size() + kCrcBytes);
  wire::PutU8(&frame, static_cast<uint8_t>(type));
  wire::PutU32(&frame, static_cast<uint32_t>(payload.size()));
  wire::PutU64(&frame, seq);
  frame.append(payload.data(), payload.size());
  wire::PutU32(&frame, Crc32(frame));
  return frame;
}

Journal::Journal(const JournalOptions& options) : options_(options) {}

Result<std::unique_ptr<Journal>> Journal::Open(
    const JournalOptions& options, std::vector<JournalRecord>* recovered) {
  NED_CHECK(recovered != nullptr);
  recovered->clear();
  NED_RETURN_NOT_OK(EnsureDir(options.dir));
  NED_ASSIGN_OR_RETURN(std::vector<uint64_t> segments,
                       ListSegments(options.dir));

  std::unique_ptr<Journal> journal(new Journal(options));
  JournalStats& stats = journal->open_stats_;
  uint64_t max_seq = 0;
  bool corrupted = false;  // once set, every later segment is deleted

  for (size_t si = 0; si < segments.size(); ++si) {
    const std::string path =
        options.dir + "/" + SegmentName(segments[si]);
    if (corrupted) {
      // A valid record after a corruption point could fabricate history
      // out of order; drop the whole segment instead.
      (void)::unlink(path.c_str());
      ++stats.dropped_segments;
      continue;
    }
    NED_ASSIGN_OR_RETURN(std::string data, ReadWholeFile(path));
    size_t pos = 0;
    if (data.size() < sizeof(kMagic) ||
        std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
      // Header never made it (crash between create and magic) or is
      // corrupt: nothing in this segment is trustworthy.
      corrupted = true;
      stats.truncated_bytes += data.size();
      (void)::unlink(path.c_str());
      ++stats.dropped_segments;
      continue;
    }
    pos = sizeof(kMagic);
    while (pos < data.size()) {
      const size_t start = pos;
      bool valid = false;
      if (data.size() - start >= kHeaderBytes + kCrcBytes) {
        wire::Reader header(
            std::string_view(data).substr(start, kHeaderBytes));
        uint8_t type = 0;
        uint32_t len = 0;
        uint64_t seq = 0;
        header.GetU8(&type);
        header.GetU32(&len);
        header.GetU64(&seq);
        if (header.ok() && type >= 1 && type <= 3 &&
            len <= kMaxPayloadBytes &&
            data.size() - start >= kHeaderBytes + len + kCrcBytes) {
          const std::string_view framed =
              std::string_view(data).substr(start, kHeaderBytes + len);
          wire::Reader crc_reader(std::string_view(data).substr(
              start + kHeaderBytes + len, kCrcBytes));
          uint32_t stored_crc = 0;
          crc_reader.GetU32(&stored_crc);
          if (Crc32(framed) == stored_crc) {
            JournalRecord record;
            record.type = static_cast<JournalRecordType>(type);
            record.seq = seq;
            record.payload = std::string(framed.substr(kHeaderBytes));
            max_seq = std::max(max_seq, seq);
            recovered->push_back(std::move(record));
            ++stats.recovered_records;
            pos = start + kHeaderBytes + len + kCrcBytes;
            valid = true;
          }
        }
      }
      if (!valid) {
        // First bad frame: truncate here. Everything before is an exact
        // prefix of the append history; everything after is untrusted.
        corrupted = true;
        stats.truncated_bytes += data.size() - start;
        if (::truncate(path.c_str(), static_cast<off_t>(start)) != 0) {
          return ErrnoStatus("cannot truncate corrupt segment", path);
        }
        break;
      }
    }
  }

  journal->next_seq_ = max_seq + 1;
  const uint64_t fresh_index = segments.empty() ? 0 : segments.back() + 1;
  {
    std::lock_guard<std::mutex> lock(journal->mu_);
    NED_RETURN_NOT_OK(journal->OpenFreshSegmentLocked(fresh_index));
  }
  if (options.fsync == FsyncPolicy::kEveryNMs) {
    journal->flusher_ = std::thread([j = journal.get()] { j->FlusherMain(); });
  }
  return journal;
}

Journal::~Journal() {
  if (flusher_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_flusher_ = true;
    }
    flusher_cv_.notify_all();
    flusher_.join();
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    (void)SyncLocked();
    ::close(fd_);
    fd_ = -1;
  }
}

Status Journal::OpenFreshSegmentLocked(uint64_t index) {
  const std::string path = options_.dir + "/" + SegmentName(index);
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0666);
  if (fd < 0) return ErrnoStatus("cannot create segment", path);
  fd_ = fd;
  segment_index_ = index;
  if (options_.crash != nullptr &&
      options_.crash->ShouldCrash(CrashPoint::kJournalBeforeSegmentMagic)) {
    broken_ = true;
    return CrashStatus("before segment magic");
  }
  NED_RETURN_NOT_OK(WriteRawLocked(std::string_view(kMagic, sizeof(kMagic))));
  // The magic and the file's very existence must survive before any record
  // is acknowledged out of this segment.
  NED_RETURN_NOT_OK(SyncLocked());
  (void)FsyncParentDir(path);
  return Status::OK();
}

Status Journal::WriteRawLocked(std::string_view bytes) {
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd_, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      broken_ = true;
      return ErrnoStatus("write failed for segment",
                         SegmentName(segment_index_));
    }
    written += static_cast<size_t>(n);
  }
  segment_size_ += bytes.size();
  bytes_written_.fetch_add(bytes.size(), std::memory_order_relaxed);
  return Status::OK();
}

Status Journal::SyncLocked() {
  if (synced_size_ == segment_size_) return Status::OK();
  // fdatasync, not fsync: an append-only log needs the data and the file
  // size durable (both covered), not the inode's timestamps -- and skipping
  // the metadata commit is markedly cheaper on ext4.
  if (::fdatasync(fd_) != 0) {
    broken_ = true;
    return ErrnoStatus("fdatasync failed for segment",
                       SegmentName(segment_index_));
  }
  synced_size_ = segment_size_;
  syncs_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Journal::Append(JournalRecordType type, std::string_view payload) {
  std::lock_guard<std::mutex> lock(mu_);
  if (broken_) return Status::Unavailable("journal broken by earlier failure");
  CrashInjector* crash = options_.crash;

  if (crash != nullptr && crash->ShouldCrash(CrashPoint::kJournalBeforeAppend)) {
    broken_ = true;
    return CrashStatus("before append");
  }
  const std::string frame = FrameRecord(type, next_seq_, payload);
  if (crash != nullptr && crash->ShouldCrash(CrashPoint::kJournalTornAppend)) {
    // Write a strict prefix of the frame: exactly what a crash mid-write
    // leaves behind. Recovery must truncate it away.
    const size_t torn = std::max<size_t>(1, frame.size() / 2);
    (void)WriteRawLocked(std::string_view(frame).substr(0, torn));
    broken_ = true;
    return CrashStatus("torn append");
  }
  NED_RETURN_NOT_OK(WriteRawLocked(frame));
  if (crash != nullptr &&
      crash->ShouldCrash(CrashPoint::kJournalUnsyncedAppend)) {
    // Simulate power loss: bytes written but never fsynced vanish. Roll the
    // file back to the last synced offset.
    (void)::ftruncate(fd_, static_cast<off_t>(synced_size_));
    broken_ = true;
    return CrashStatus("unsynced append lost to power loss");
  }
  ++next_seq_;
  appends_.fetch_add(1, std::memory_order_relaxed);
  if (options_.fsync == FsyncPolicy::kEveryRecord) {
    NED_RETURN_NOT_OK(SyncLocked());
  }
  return Status::OK();
}

Status Journal::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (broken_) return Status::Unavailable("journal broken by earlier failure");
  // The flusher may be in an off-lock fdatasync of the same fd; a second
  // fdatasync beside it is safe, and both only ever raise synced_size_.
  return SyncLocked();
}

Status Journal::DropOldSegments() {
  uint64_t current = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    current = segment_index_;
  }
  NED_ASSIGN_OR_RETURN(std::vector<uint64_t> segments,
                       ListSegments(options_.dir));
  for (uint64_t index : segments) {
    if (index >= current) continue;
    const std::string path = options_.dir + "/" + SegmentName(index);
    if (::unlink(path.c_str()) != 0) {
      return ErrnoStatus("cannot delete old segment", path);
    }
  }
  return Status::OK();
}

JournalStats Journal::stats() const {
  JournalStats out = open_stats_;
  out.appends = appends_.load(std::memory_order_relaxed);
  out.syncs = syncs_.load(std::memory_order_relaxed);
  out.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  return out;
}

void Journal::FlusherMain() {
  std::unique_lock<std::mutex> lock(mu_);
  const auto interval =
      std::chrono::milliseconds(std::max(1, options_.fsync_interval_ms));
  while (!stop_flusher_) {
    flusher_cv_.wait_for(lock, interval,
                         [this] { return stop_flusher_; });
    if (stop_flusher_) break;
    if (broken_ || synced_size_ == segment_size_) continue;
    // fsync with the lock RELEASED: a lazy-mode flush must never stall
    // Append (the service's Submit path holds its own lock across Append,
    // so a blocked Append here becomes a blocked client). Capture the
    // target offset, sync, re-lock, publish. The fd stays open for this
    // thread's whole life: only the destructor closes it, after the join.
    const int fd = fd_;
    const uint64_t target = segment_size_;
    lock.unlock();
    const int rc = ::fdatasync(fd);
    lock.lock();
    if (rc != 0) {
      broken_ = true;
      continue;
    }
    synced_size_ = std::max(synced_size_, target);
    syncs_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace ned
