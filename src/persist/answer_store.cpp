#include "persist/answer_store.h"

#include <dirent.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/atomic_file.h"
#include "common/csv.h"
#include "common/hash.h"
#include "common/strings.h"
#include "persist/wire.h"

namespace ned {

namespace {

constexpr char kEntryMagic[8] = {'N', 'E', 'D', 'A', 'N', 'S', 'W', '1'};
constexpr char kManifestHeader[] = "NEDSTORE-MANIFEST v1";

Status CrashStatus(const char* where) {
  return Status::Unavailable(std::string("crash injected: ") + where);
}

size_t ApproxStringsBytes(const std::vector<std::string>& v) {
  size_t bytes = sizeof(v) + v.size() * sizeof(std::string);
  for (const std::string& s : v) bytes += s.size();
  return bytes;
}

/// What the memory half charges for one answer.
size_t ApproxAnswerBytes(const AnswerSummary& a) {
  return sizeof(AnswerSummary) + ApproxStringsBytes(a.detailed) +
         ApproxStringsBytes(a.condensed) + ApproxStringsBytes(a.secondary) +
         a.completeness.size() + a.degradation.size();
}

std::string HexU64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Temp-file + rename with crash injection at the store's IO boundaries.
/// `torn` leaves a half-written temp file behind (Open sweeps those);
/// `before_rename` leaves a complete temp file that was never published.
Status WriteFileWithCrash(const std::string& path, const std::string& content,
                          bool fsync, CrashInjector* crash, CrashPoint torn,
                          CrashPoint before_rename) {
  const std::string tmp = path + ".tmp";
  if (crash != nullptr && crash->ShouldCrash(torn)) {
    // Emulate the torn temp write: a prefix of the bytes under the temp
    // name, never renamed. Open() sweeps it on the next start.
    (void)AtomicWriteFile(tmp, content.substr(0, content.size() / 2), false);
    return CrashStatus("torn temp write");
  }
  NED_RETURN_NOT_OK(AtomicWriteFile(tmp, content, fsync));
  if (crash != nullptr && crash->ShouldCrash(before_rename)) {
    return CrashStatus("before rename");
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    (void)::unlink(tmp.c_str());
    return Status::Internal("rename failed onto " + path);
  }
  if (fsync) (void)FsyncParentDir(path);
  return Status::OK();
}

}  // namespace

std::string MakeDurableAnswerKey(const std::string& db_name,
                                 uint64_t content_fingerprint,
                                 const NormalizedSql& sql,
                                 const std::string& question_text,
                                 size_t row_budget, size_t memory_budget,
                                 uint64_t option_bits) {
  // Every variable-length field is length-prefixed, so no crafted SQL or
  // question text can alias another key.
  const std::string& norm = sql.text();
  return StrCat("db=", db_name.size(), ":", db_name, "|fp=",
                HexU64(content_fingerprint), "|q=", norm.size(), ":", norm,
                "|w=", question_text.size(), ":", question_text, "|rb=",
                row_budget, "|mb=", memory_budget, "|o=", option_bits);
}

AnswerStore::AnswerStore(const AnswerStoreOptions& options)
    : options_(options), memory_(options.memory_bytes) {}

std::string AnswerStore::EntryFileName(const std::string& key) {
  return HexU64(Fnv1a64(key)) + ".ans";
}

std::string AnswerStore::EntryPath(const std::string& key) const {
  return options_.dir + "/entries/" + EntryFileName(key);
}

Result<std::unique_ptr<AnswerStore>> AnswerStore::Open(
    const AnswerStoreOptions& options) {
  std::unique_ptr<AnswerStore> store(new AnswerStore(options));
  if (!store->durable()) return store;
  NED_RETURN_NOT_OK(EnsureDir(options.dir + "/entries"));

  const std::string entries_dir = options.dir + "/entries";
  DIR* d = ::opendir(entries_dir.c_str());
  if (d == nullptr) {
    return Status::Internal("cannot open store dir " + entries_dir);
  }
  while (dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".ans") == 0) {
      store->entry_files_.emplace(name, 0);
      ++store->stats_.entries_on_open;
    } else {
      // Leftover temp/marker from an interrupted write: never published,
      // safe to sweep.
      (void)::unlink((entries_dir + "/" + name).c_str());
    }
  }
  ::closedir(d);

  // The manifest is advisory provenance; parse leniently and drop
  // anything malformed rather than failing the open.
  auto manifest_text = ReadFile(options.dir + "/MANIFEST");
  if (manifest_text.ok()) {
    std::istringstream in(*manifest_text);
    std::string line;
    StoreManifestEntry current;
    bool have_db = false;
    while (std::getline(in, line)) {
      std::istringstream fields(line);
      std::string tag;
      fields >> tag;
      if (tag == "db") {
        if (have_db) store->manifest_[current.db_name] = current;
        current = StoreManifestEntry();
        std::string fp_hex;
        fields >> current.db_name >> fp_hex;
        current.content_fingerprint =
            std::strtoull(fp_hex.c_str(), nullptr, 16);
        have_db = !current.db_name.empty();
      } else if (tag == "rel" && have_db) {
        StoreManifestEntry::RelationPin pin;
        fields >> pin.name >> pin.data_version >> pin.rows;
        if (!pin.name.empty()) current.relations.push_back(std::move(pin));
      }
    }
    if (have_db) store->manifest_[current.db_name] = current;
  }
  return store;
}

AnswerStore::Ptr AnswerStore::Get(const std::string& key, obs::Trace* trace,
                                  bool* from_disk) {
  *from_disk = false;
  if (has_memory()) {
    std::lock_guard<std::mutex> lock(memory_mu_);
    if (auto hit = memory_.Get(key)) return *hit;
  }
  if (!durable()) return nullptr;
  auto stored = [&] {
    obs::SpanScope span(trace, "store_lookup");
    return Lookup(key);
  }();
  if (!stored.ok()) return nullptr;
  auto answer = std::make_shared<const AnswerSummary>(std::move(*stored));
  Remember(key, answer);
  *from_disk = true;
  return answer;
}

void AnswerStore::Remember(const std::string& key, Ptr answer) {
  if (!has_memory()) return;
  const size_t bytes = ApproxAnswerBytes(*answer);
  std::lock_guard<std::mutex> lock(memory_mu_);
  memory_.Put(key, std::move(answer), bytes);
}

LruStats AnswerStore::memory_stats() const {
  if (!has_memory()) return LruStats{};
  std::lock_guard<std::mutex> lock(memory_mu_);
  return memory_.stats();
}

Result<AnswerSummary> AnswerStore::Lookup(const std::string& key) {
  const std::string file_name = EntryFileName(key);
  uint64_t read_gen = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entry_files_.find(file_name);
    if (it == entry_files_.end()) {
      ++stats_.misses;
      return Status::NotFound("no stored answer");
    }
    read_gen = it->second;
  }
  const std::string path = options_.dir + "/entries/" + file_name;
  auto content = ReadFile(path);
  std::lock_guard<std::mutex> lock(mu_);
  bool corrupt = false;
  if (content.ok() && content->size() > sizeof(kEntryMagic) + 4 &&
      content->compare(0, sizeof(kEntryMagic),
                       std::string(kEntryMagic, sizeof(kEntryMagic))) == 0) {
    const std::string_view body =
        std::string_view(*content).substr(sizeof(kEntryMagic));
    wire::Reader crc_reader(body.substr(0, 4));
    uint32_t stored_crc = 0;
    crc_reader.GetU32(&stored_crc);
    const std::string_view payload = body.substr(4);
    if (Crc32(payload) == stored_crc) {
      wire::Reader reader(payload);
      std::string stored_key;
      AnswerSummary summary;
      if (reader.GetStr(&stored_key) &&
          DecodeAnswerSummary(&reader, &summary).ok() && reader.AtEnd()) {
        if (stored_key == key) {
          ++stats_.hits;
          return summary;
        }
        // Intact entry for a different key (FNV name collision): a miss,
        // not corruption -- leave the other key's answer alone.
        ++stats_.misses;
        return Status::NotFound("hash collision with different key");
      }
    }
    corrupt = true;
  } else {
    corrupt = true;
  }
  if (corrupt) {
    // Failed CRC or decode: what was read cannot be served. Delete the
    // entry (the answer is recomputable by construction) -- unless its put
    // generation moved while the file was being read with mu_ released:
    // then the unreadable bytes were a snapshot of a name a concurrent Put
    // has since atomically replaced with a valid entry, and dropping it
    // would destroy that freshly-written durable answer.
    auto it = entry_files_.find(file_name);
    if (it != entry_files_.end() && it->second == read_gen) {
      (void)::unlink(path.c_str());
      entry_files_.erase(it);
      ++stats_.corrupt_dropped;
    }
  }
  ++stats_.misses;
  return Status::NotFound("stored answer unreadable");
}

bool AnswerStore::Contains(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entry_files_.count(EntryFileName(key)) > 0;
}

Status AnswerStore::Put(const std::string& key, Ptr answer,
                        const StoreManifestEntry& manifest) {
  Remember(key, answer);
  if (!durable()) return Status::OK();
  std::string payload;
  wire::PutStr(&payload, key);
  EncodeAnswerSummary(*answer, &payload);
  std::string content(kEntryMagic, sizeof(kEntryMagic));
  wire::PutU32(&content, Crc32(payload));
  content += payload;

  std::lock_guard<std::mutex> lock(mu_);
  CrashInjector* crash = options_.crash;
  if (crash != nullptr && crash->ShouldCrash(CrashPoint::kStoreBeforeTemp)) {
    return CrashStatus("before temp write");
  }
  NED_RETURN_NOT_OK(WriteFileWithCrash(
      EntryPath(key), content, options_.fsync, crash,
      CrashPoint::kStoreTornTemp, CrashPoint::kStoreBeforeRename));
  ++entry_files_[EntryFileName(key)];  // index + bump the put generation
  ++stats_.puts;
  manifest_[manifest.db_name] = manifest;
  if (crash != nullptr &&
      crash->ShouldCrash(CrashPoint::kStoreBeforeManifest)) {
    // Entry is durable and indexed; only the advisory manifest is stale.
    return CrashStatus("before manifest write");
  }
  return WriteManifestLocked();
}

Status AnswerStore::WriteManifestLocked() {
  std::string text(kManifestHeader);
  text += '\n';
  for (const auto& [db_name, entry] : manifest_) {
    text += StrCat("db ", db_name, " ", HexU64(entry.content_fingerprint),
                   "\n");
    for (const auto& pin : entry.relations) {
      text += StrCat("rel ", pin.name, " ", pin.data_version, " ", pin.rows,
                     "\n");
    }
  }
  return WriteFileWithCrash(options_.dir + "/MANIFEST", text, options_.fsync,
                            options_.crash, CrashPoint::kStoreTornTemp,
                            CrashPoint::kStoreBeforeManifestRename);
}

AnswerStoreStats AnswerStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t AnswerStore::entry_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entry_files_.size();
}

}  // namespace ned
