#include "persist/answer_store.h"

#include <dirent.h>
#include <unistd.h>

#include <cstdio>

#include "common/atomic_file.h"
#include "common/csv.h"
#include "common/hash.h"
#include "common/strings.h"
#include "persist/wire.h"

namespace ned {

namespace {

constexpr char kEntryMagic[8] = {'N', 'E', 'D', 'A', 'N', 'S', 'W', '1'};

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
  return store;
}

Result<AnswerStore::Ptr> AnswerStore::Get(const std::string& key,
                                          obs::Trace* trace, bool* from_disk) {
  *from_disk = false;
  if (has_memory()) {
    std::lock_guard<std::mutex> lock(memory_mu_);
    if (auto hit = memory_.Get(key)) return std::move(*hit);
  }
  if (!durable()) return Ptr();
  auto stored = [&] {
    obs::SpanScope span(trace, "store_lookup");
    return Lookup(key);
  }();
  if (!stored.ok()) return Ptr();
  *from_disk = true;
  return std::make_shared<const AnswerSummary>(std::move(*stored));
}

void AnswerStore::Promote(const std::string& key, Ptr answer) {
  const size_t bytes = ApproxAnswerBytes(*answer);
  Remember(key, std::move(answer), bytes);
}

void AnswerStore::Remember(const std::string& key, Result<Ptr> entry,
                           size_t bytes) {
  if (!has_memory()) return;
  std::lock_guard<std::mutex> lock(memory_mu_);
  memory_.Put(key, std::move(entry), bytes);
}

void AnswerStore::PutError(const std::string& key, const Status& error) {
  Remember(key, error, sizeof(Status) + error.message().size());
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

Status AnswerStore::Put(const std::string& key, Ptr answer) {
  Remember(key, answer, ApproxAnswerBytes(*answer));
  if (!durable()) return Status::OK();
  std::string payload;
  wire::PutStr(&payload, key);
  EncodeAnswerSummary(*answer, &payload);
  std::string content(kEntryMagic, sizeof(kEntryMagic));
  wire::PutU32(&content, Crc32(payload));
  content += payload;

  // Temp file + rename, with crash injection at each IO boundary.
  std::lock_guard<std::mutex> lock(mu_);
  CrashInjector* crash = options_.crash;
  if (crash != nullptr && crash->ShouldCrash(CrashPoint::kStoreBeforeTemp)) {
    return CrashStatus("before temp write");
  }
  const std::string path = EntryPath(key);
  const std::string tmp = path + ".tmp";
  if (crash != nullptr && crash->ShouldCrash(CrashPoint::kStoreTornTemp)) {
    // Emulate the torn temp write: a prefix of the bytes under the temp
    // name, never renamed. Open() sweeps it on the next start.
    (void)AtomicWriteFile(tmp, content.substr(0, content.size() / 2), false);
    return CrashStatus("torn temp write");
  }
  NED_RETURN_NOT_OK(AtomicWriteFile(tmp, content, options_.fsync));
  if (crash != nullptr && crash->ShouldCrash(CrashPoint::kStoreBeforeRename)) {
    return CrashStatus("before rename");
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    (void)::unlink(tmp.c_str());
    return Status::Internal("rename failed onto " + path);
  }
  if (options_.fsync) (void)FsyncParentDir(path);
  ++entry_files_[EntryFileName(key)];  // index + bump the put generation
  ++stats_.puts;
  return Status::OK();
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
