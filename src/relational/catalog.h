/// \file catalog.h
/// \brief Snapshot-isolated catalog of named database instances.
///
/// The single-request tools hold a Database by reference for their whole
/// lifetime; a concurrent service cannot, because a CSV reload or dataset
/// swap arriving mid-request would mutate relations under a running
/// evaluation. The Catalog makes Database reachable only through immutable
/// `shared_ptr<const Database>` snapshots: a request pins the snapshot it
/// was admitted under and keeps it alive until it finishes, while reloads
/// build a *copy* off-lock (copy-on-write) and atomically publish it with a
/// bumped version. In-flight requests keep reading their pinned instance;
/// the old Database is freed when the last pinned snapshot drops.
///
/// Concurrent reloads of the same database are last-writer-wins (each copies
/// the snapshot current when it started); versions still increase
/// monotonically, so readers can detect that they raced.

#ifndef NED_RELATIONAL_CATALOG_H_
#define NED_RELATIONAL_CATALOG_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "relational/database.h"

namespace ned {

/// Thread-safe registry of named, versioned, immutable database snapshots.
class Catalog {
 public:
  /// One pinned view of a database: the instance plus the version it was
  /// published under. Copyable; keeps the instance alive while held.
  struct Snapshot {
    std::shared_ptr<const Database> db;
    uint64_t version = 0;
    /// Stable content fingerprint (DatabaseContentFingerprint), filled only
    /// by GetSnapshotWithFingerprint; 0 from plain GetSnapshot. Unlike
    /// `version`, it survives process restarts and reloads to identical
    /// content, so it is what the answer tier's keys embed.
    uint64_t content_fingerprint = 0;
  };

  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Registers a new database under `name` at version 1; error if the name
  /// already exists (use SwapDatabase to replace).
  Status Register(const std::string& name, Database db);

  /// The current snapshot of `name`; error when absent.
  Result<Snapshot> GetSnapshot(const std::string& name) const;

  /// GetSnapshot plus a filled `content_fingerprint`. The fingerprint is
  /// computed off-lock on first demand per published version and cached on
  /// the entry, so steady-state calls cost one map lookup; only the first
  /// request after a reload pays the O(data) hash. Used by the answer
  /// tier, whose keys embed it; requests that bypass the tier never pay for
  /// it.
  Result<Snapshot> GetSnapshotWithFingerprint(const std::string& name) const;

  /// Replaces the whole instance under `name` with `db`, bumping the
  /// version. In-flight snapshot holders are unaffected.
  Status SwapDatabase(const std::string& name, Database db);

  /// Copy-on-write CSV reload: copies the current snapshot of `name`,
  /// replaces (or creates) `relation` from `csv_text` on the copy, and
  /// publishes the copy under a bumped version. Atomic on failure by
  /// construction: all mutation happens on the private copy, so a parse
  /// error discards the copy and leaves both the published snapshot and
  /// the version counter untouched -- readers admitted before, during or
  /// after a failed reload all see the last good database. Asserted by
  /// relational_test and exercised concurrently by ned_stress's reloader.
  Status ReloadCsv(const std::string& name, const std::string& relation,
                   const std::string& csv_text);

  bool Has(const std::string& name) const;
  /// Current version of `name` (0 when absent).
  uint64_t VersionOf(const std::string& name) const;
  /// Registered database names in sorted order.
  std::vector<std::string> Names() const;

 private:
  struct Entry {
    std::shared_ptr<const Database> db;
    uint64_t version = 0;
    /// Cached DatabaseContentFingerprint of `db`, valid only when
    /// `fingerprint_version == version` (reloads invalidate by bumping
    /// the version, never by clearing this field). Mutable: filling the
    /// cache is logically const (guarded by mu_ like everything else).
    mutable uint64_t fingerprint = 0;
    mutable uint64_t fingerprint_version = 0;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

}  // namespace ned

#endif  // NED_RELATIONAL_CATALOG_H_
