/// \file answer_store.h
/// \brief The answer tier: complete why-not answers by content key, a
/// byte-budget memory LRU in front of an optional durable directory.
///
/// A NedExplain answer depends only on the query, the why-not question and
/// the input instance (Defs. 2.12-2.14), so the tier keys answers by
/// content: MakeDurableAnswerKey embeds DatabaseContentFingerprint, the
/// normalized SQL, the question text, the resolved budgets and the engine
/// option bits. A reload that changed the data stops producing the old
/// keys (stale entries age out of the LRU); a reload that restored already
/// answered content hits again; and the key is stable across restarts, so
/// the disk half serves answers computed by an earlier process.
///
/// Only COMPLETE answers are ever put -- never partial (tripped) results --
/// so a hit is always byte-identical to an uninterrupted recomputation.
///
/// A permanent error of the content (a bind or type error: not transient,
/// not a resource limit) depends on nothing else either, so the memory half
/// also remembers it under the same key, and Get returns it in place of an
/// answer. Errors never reach the disk half: a restart forgets them, and a
/// reload that changes the data stops producing their keys.
///
/// The memory half (`memory_bytes`, cache/lru.h) holds shared immutable
/// summaries; Get hands out the tier's own pointer, and a disk hit is
/// promoted into memory. The disk half (`dir`) is optional. Layout:
/// `<dir>/entries/<fnv64-hex>.ans`, each entry a CRC-framed file carrying
/// its full key (hash collisions detected by key comparison, not trusted to
/// the file name) and the encoded AnswerSummary. Entries are written via
/// temp-file + atomic rename, so a crash at any instant leaves either no
/// entry or a complete entry; a torn or bit-flipped entry fails its CRC on
/// read and is deleted, reported as a miss. Anything else under `<dir>`
/// (such as the `MANIFEST` older binaries wrote) is ignored.

#ifndef NED_PERSIST_ANSWER_STORE_H_
#define NED_PERSIST_ANSWER_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "cache/lru.h"
#include "common/status.h"
#include "common/strings.h"
#include "core/report.h"
#include "obs/trace.h"
#include "persist/crash_point.h"

namespace ned {

/// The tier's content key, stable across restarts. `question_text` is
/// WhyNotQuestion::ToString(); `option_bits` packs the engine options that
/// change the answer. Budgets are the *resolved* per-request values --
/// requests in different budget classes never share an entry, because a
/// larger budget can turn a partial answer into a complete one.
std::string MakeDurableAnswerKey(const std::string& db_name,
                                 uint64_t content_fingerprint,
                                 const NormalizedSql& sql,
                                 const std::string& question_text,
                                 size_t row_budget, size_t memory_budget,
                                 uint64_t option_bits);

struct AnswerStoreOptions {
  /// Byte budget of the memory half; 0 = no memory half.
  size_t memory_bytes = 0;
  /// Directory of the disk half; empty = no disk half.
  std::string dir;
  /// fsync entry files (power-loss durability; process death alone never
  /// needs it).
  bool fsync = false;
  CrashInjector* crash = nullptr;
};

/// Disk-half counters (all zero without a directory).
struct AnswerStoreStats {
  uint64_t puts = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t corrupt_dropped = 0;   ///< entries deleted on failed CRC/decode
  uint64_t entries_on_open = 0;   ///< intact-looking entries found by Open
};

/// Thread-safe. The two halves lock separately, so a memory hit never
/// waits behind entry-file IO.
class AnswerStore {
 public:
  using Ptr = std::shared_ptr<const AnswerSummary>;

  /// Opens the tier. With a directory, creates it if needed, indexes
  /// existing entries and sweeps leftover temp files from interrupted
  /// writes.
  static Result<std::unique_ptr<AnswerStore>> Open(
      const AnswerStoreOptions& options);

  /// The tier lookup: the memory half, then the disk half, whose hit is
  /// promoted into memory. Returns the tier's own pointer (nullptr on a
  /// miss), or the permanent error the memory half remembers for `key`;
  /// `*from_disk` tells which half answered. The entry-file read is traced
  /// as "store_lookup".
  Result<Ptr> Get(const std::string& key, obs::Trace* trace, bool* from_disk);

  /// Reads `key`'s entry file (the disk half alone: no memory lookup, no
  /// promotion), or kNotFound. A corrupt entry is deleted and reported as
  /// kNotFound -- the store never fabricates.
  Result<AnswerSummary> Lookup(const std::string& key);

  /// Cheap index-only probe of the disk half (no file read). May return
  /// true for an entry that Lookup subsequently drops as corrupt.
  bool Contains(const std::string& key) const;

  /// Inserts `answer` into the memory half and, with a directory, writes
  /// its entry file; the status is the disk write's. Idempotent: re-putting
  /// a key rewrites the same bytes.
  Status Put(const std::string& key, Ptr answer);
  Status Put(const std::string& key, const AnswerSummary& summary) {
    return Put(key, std::make_shared<const AnswerSummary>(summary));
  }

  /// Remembers `error`, a permanent error of `key`'s content, in the memory
  /// half (a no-op without one); Get then returns it until it is evicted.
  void PutError(const std::string& key, const Status& error);

  bool has_memory() const { return options_.memory_bytes > 0; }
  bool durable() const { return !options_.dir.empty(); }

  /// Memory-half occupancy and hit counters.
  LruStats memory_stats() const;
  AnswerStoreStats stats() const;
  /// Entry files indexed by the disk half.
  size_t entry_count() const;

  static std::string EntryFileName(const std::string& key);

 private:
  explicit AnswerStore(const AnswerStoreOptions& options);

  void Remember(const std::string& key, Result<Ptr> entry, size_t bytes);
  std::string EntryPath(const std::string& key) const;

  const AnswerStoreOptions options_;

  mutable std::mutex memory_mu_;
  /// An answer or a remembered permanent error per key.
  ByteBudgetLru<Result<Ptr>> memory_;  ///< guarded by memory_mu_

  /// Guards the disk half's index and counters.
  mutable std::mutex mu_;
  /// Indexed entry file names (no dir) -> put generation. The generation
  /// bumps on every Put of that name; Lookup reads the entry file with mu_
  /// released and refuses to corrupt-drop a name whose generation moved
  /// during the read -- the stale bytes it saw belong to a file a
  /// concurrent Put has since replaced with a fresh valid entry.
  std::unordered_map<std::string, uint64_t> entry_files_;
  AnswerStoreStats stats_;
};

}  // namespace ned

#endif  // NED_PERSIST_ANSWER_STORE_H_
