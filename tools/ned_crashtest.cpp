/// \file ned_crashtest.cpp
/// \brief Kill-and-recover harness: proves the durability layer's
/// exactly-once contract across process crashes (docs/DURABILITY.md).
///
/// Two batteries, both over the paper's use cases:
///
/// 1. Simulated crash points. Drives the Journal and AnswerStore through
///    every CrashPoint (persist/crash_point.h) with a CrashInjector and
///    re-opens the directory as a fresh process would, asserting:
///      - journal recovery always yields the *exact prefix* of acked
///        (Append-returned-OK) records -- never a lost acked record, never
///        a fabricated or resurrected one, for torn tails, unsynced
///        rollbacks and a re-Open that dies before its fresh segment's
///        magic alike;
///      - the journal fails closed after an IO crash (no silent appends);
///      - an interrupted store Put leaves either no entry or a complete
///        byte-identical entry -- never a torn or fabricated answer -- and
///        entries acked before the crash always survive it.
///
/// 2. Real SIGKILL. Each cycle forks this binary in `--child-serve` mode:
///    the child runs a persistent WhyNotService over the shared directory,
///    recovers whatever earlier cycles left, serves the case list in a loop
///    and appends an fsynced ack line (key, case index, FNV-64 of the
///    encoded AnswerSummary) for every completed full-fidelity answer a
///    client actually received. The parent SIGKILLs it at a varying point
///    mid-serving, then recovers in-process and asserts, for every acked
///    request:
///      - zero lost acks: resubmitting the acked key yields an answer
///        again (restored idempotency book or durable store);
///      - byte-identical: the recovered encoded AnswerSummary hashes to
///        exactly the acked hash, and its content matches an uninterrupted
///        baseline run;
///      - zero duplicate client-visible executions: verifying every acked
///        key accepts no new work (stats.accepted is unchanged), so no
///        acked request ever re-executes after the crash.
///    Cycles share one directory, so recovery is also proven to compose:
///    every restart replays, compacts and re-journals the previous ones'
///    surviving state. Default 50 cycles; `--smoke` is the CI-sized run.
///
/// SIGTERM/SIGINT ask the harness to stop: the parent finishes the current
/// cycle, and a serving child drains gracefully (finish in-flight, journal
/// the rest) instead of dying mid-request.
///
/// Exit code 0 on success, 1 on any violated invariant, 2 on usage errors.

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/atomic_file.h"
#include "common/csv.h"
#include "common/signal_drain.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/strings.h"
#include "datasets/use_cases.h"
#include "persist/answer_store.h"
#include "persist/crash_point.h"
#include "persist/journal.h"
#include "persist/wire.h"
#include "relational/catalog.h"
#include "service/service.h"

namespace {

using ned::AnswerStore;
using ned::AnswerStoreOptions;
using ned::AnswerSummary;
using ned::Catalog;
using ned::CrashInjector;
using ned::CrashPoint;
using ned::Journal;
using ned::JournalOptions;
using ned::JournalRecord;
using ned::JournalRecordType;
using ned::ServiceOptions;
using ned::Status;
using ned::StatusCode;
using ned::WhyNotRequest;
using ned::WhyNotResponse;
using ned::WhyNotService;

/// SIGTERM/SIGINT via the shared common/signal_drain.h helper; checked at
/// cycle boundaries (parent) and in the serve loop (child, which then
/// drains instead of dying).
bool StopRequested() { return ned::DrainRequested(); }

struct Args {
  int cycles = 50;
  bool smoke = false;
  bool keep = false;         ///< keep the work dir for post-mortem
  std::string dir;           ///< work dir (default: a fresh /tmp dir)
  // Child mode (internal): serve the shared dir until killed.
  bool child_serve = false;
  std::string child_dir;
  int child_cycle = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--cycles" && i + 1 < argc) {
      args->cycles = std::atoi(argv[++i]);
    } else if (arg == "--dir" && i + 1 < argc) {
      args->dir = argv[++i];
    } else if (arg == "--smoke") {
      args->smoke = true;
      args->cycles = 6;
    } else if (arg == "--keep") {
      args->keep = true;
    } else if (arg == "--child-serve" && i + 2 < argc) {
      args->child_serve = true;
      args->child_dir = argv[++i];
      args->child_cycle = std::atoi(argv[++i]);
    } else {
      std::cerr << "unknown argument: " << arg << "\n"
                << "usage: ned_crashtest [--cycles N] [--dir D] [--keep] "
                   "[--smoke]\n";
      return false;
    }
  }
  return true;
}

/// Recursive rm -rf via dirent (the repo avoids <filesystem>).
void RemoveTree(const std::string& path) {
  DIR* dir = ::opendir(path.c_str());
  if (dir != nullptr) {
    while (dirent* entry = ::readdir(dir)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      const std::string child = path + "/" + name;
      struct stat st;
      if (::lstat(child.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
        RemoveTree(child);
      } else {
        ::unlink(child.c_str());
      }
    }
    ::closedir(dir);
  }
  ::rmdir(path.c_str());
}

/// FNV-64 of the full encoded AnswerSummary: the byte-identity fingerprint
/// a child acks and the verifier must reproduce after recovery.
uint64_t FullHash(const AnswerSummary& summary) {
  std::string bytes;
  ned::EncodeAnswerSummary(summary, &bytes);
  return ned::Fnv1a64(bytes);
}

/// Hash of the answer *content* only: excludes the subtree-cache counters,
/// which describe the computation (and legitimately differ between a cold
/// baseline run and a recovery that replayed part of the work), not the
/// answer. Used to compare recovered answers against the uninterrupted
/// baseline; FullHash covers the stricter acked-vs-recovered identity.
uint64_t ContentHash(const AnswerSummary& summary) {
  std::string bytes;
  for (const std::string& s : summary.detailed) ned::wire::PutStr(&bytes, s);
  for (const std::string& s : summary.condensed) ned::wire::PutStr(&bytes, s);
  for (const std::string& s : summary.secondary) ned::wire::PutStr(&bytes, s);
  ned::wire::PutU64(&bytes, summary.dir_total);
  ned::wire::PutU64(&bytes, summary.indir_total);
  ned::wire::PutU64(&bytes, summary.survivors_at_root);
  ned::wire::PutU8(&bytes, summary.complete ? 1 : 0);
  ned::wire::PutU8(&bytes, static_cast<uint8_t>(summary.tripped));
  ned::wire::PutStr(&bytes, summary.completeness);
  return ned::Fnv1a64(bytes);
}

std::string HexU64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// Shared workload: the first kCases paper use cases, driven identically by
// the baseline, every child and every verifier.
// ---------------------------------------------------------------------------

constexpr size_t kCases = 6;

struct Workload {
  std::shared_ptr<Catalog> catalog;
  std::vector<ned::UseCase> cases;
};

bool BuildWorkload(Workload* out) {
  auto registry = ned::UseCaseRegistry::Build(/*scale=*/1);
  if (!registry.ok()) {
    std::cerr << "failed to build use cases: " << registry.status().ToString()
              << "\n";
    return false;
  }
  out->catalog = std::make_shared<Catalog>();
  for (const char* name : {"crime", "imdb", "gov"}) {
    ned::Database copy = registry->database(name);
    NED_CHECK(out->catalog->Register(name, std::move(copy)).ok());
  }
  const auto& all = registry->use_cases();
  for (size_t i = 0; i < all.size() && i < kCases; ++i) {
    out->cases.push_back(all[i]);
  }
  return !out->cases.empty();
}

WhyNotRequest CaseRequest(const Workload& wl, size_t case_idx,
                          std::string key) {
  const ned::UseCase& uc = wl.cases[case_idx];
  WhyNotRequest req;
  req.key = std::move(key);
  req.db_name = uc.db_name;
  req.sql = uc.sql;
  req.question = uc.question;
  req.deadline_ms = 5000;
  req.seed = ned::MixSeed(1, static_cast<uint64_t>(case_idx));
  return req;
}

ServiceOptions PersistentOptions(const std::string& dir) {
  ServiceOptions options;
  options.workers = 2;
  options.queue_capacity = 32;
  options.default_deadline_ms = 5000;
  options.persist_dir = dir;
  return options;
}

// ---------------------------------------------------------------------------
// Child mode: serve the shared directory until SIGKILLed (or drained).
// ---------------------------------------------------------------------------

int RunChildServe(const std::string& dir, int cycle) {
  ned::InstallDrainSignalHandlers();
  Workload wl;
  if (!BuildWorkload(&wl)) return 2;
  WhyNotService service(wl.catalog, PersistentOptions(dir));
  (void)service.Recover();
  // O_APPEND + fsync per line: an ack is on disk before the next request is
  // even submitted, so the parent can trust every line it reads back.
  const std::string acks_path = ned::StrCat(dir, "/acks-", cycle);
  const int fd = ::open(acks_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                        0644);
  if (fd < 0) return 2;
  for (uint64_t j = 0; !StopRequested(); ++j) {
    for (size_t i = 0; i < wl.cases.size() && !StopRequested(); ++i) {
      const std::string key = ned::StrCat("c", cycle, "-i", i, "-j", j);
      WhyNotService::Submission sub =
          service.Submit(CaseRequest(wl, i, key));
      if (!sub.status.ok()) continue;
      const WhyNotResponse resp = sub.response.get();
      if (!resp.status.ok() || !resp.answer.complete) continue;
      // The client has the answer in hand: this is the ack the crash must
      // not lose and recovery must reproduce byte-identically.
      const std::string line =
          ned::StrCat(key, " ", i, " ", HexU64(FullHash(resp.answer)), "\n");
      if (::write(fd, line.data(), line.size()) !=
          static_cast<ssize_t>(line.size())) {
        return 2;
      }
      ::fsync(fd);
    }
  }
  ::close(fd);
  // Signal-requested stop: drain instead of dying -- in-flight work
  // finishes, queued work is journaled as recoverable.
  service.Drain(2000);
  return 0;
}

// ---------------------------------------------------------------------------
// Simulated crash-point battery.
// ---------------------------------------------------------------------------

struct FailCounter {
  int failures = 0;
  void operator()(const std::string& what) {
    std::cerr << "CRASHTEST VIOLATION: " << what << "\n";
    ++failures;
  }
};

/// One journal leg: append six acked records, crash at `point` -- inside
/// the next Append, or, for before-magic, inside a re-Open -- then re-open
/// as a fresh process would and assert exactly the acked records come
/// back, in order with seqs 1..6, and that the next append continues them.
void RunJournalCrashLeg(const std::string& base, CrashPoint point,
                        const char* name, FailCounter* fail) {
  const std::string dir = ned::StrCat(base, "/sim-journal-", name);
  RemoveTree(dir);
  CrashInjector injector;
  JournalOptions options;
  options.dir = dir;
  options.fsync = ned::FsyncPolicy::kEveryRecord;
  options.crash = &injector;
  std::vector<JournalRecord> recovered;
  auto journal = Journal::Open(options, &recovered);
  if (!journal.ok() || !recovered.empty()) {
    (*fail)(ned::StrCat(name, ": fresh open failed or recovered records"));
    return;
  }
  std::vector<std::string> acked;
  for (int i = 0; i < 6; ++i) {
    acked.push_back(ned::StrCat("record-", i));
    if (!(*journal)->Append(JournalRecordType::kAccept, acked.back()).ok()) {
      (*fail)(ned::StrCat(name, ": clean append failed"));
      return;
    }
  }
  injector.Arm(point, 1);
  uint64_t dropped = 0;
  if (point == CrashPoint::kJournalBeforeSegmentMagic) {
    journal->reset();
    if (Journal::Open(options, &recovered).ok() || !injector.fired()) {
      (*fail)(ned::StrCat(name, ": armed Open did not crash"));
      return;
    }
    dropped = 1;  // the fresh segment that never got its magic
  } else {
    if ((*journal)->Append(JournalRecordType::kAccept, "record-6").ok() ||
        !injector.fired()) {
      (*fail)(ned::StrCat(name, ": armed crash never fired"));
      return;
    }
    // Fail-closed: the journal must refuse appends after the crash, so a
    // half-written log can never silently grow.
    if ((*journal)->Append(JournalRecordType::kShed, "late").ok()) {
      (*fail)(ned::StrCat(name, ": journal accepted an append after a crash"));
    }
    journal->reset();  // close as much as a dying process would
  }
  options.crash = nullptr;
  // No point leaves a durable record behind (a torn prefix is truncated,
  // an unsynced one rolled back, a magic-less segment dropped), so exactly
  // the acked records come back: one more would be a fabrication.
  std::vector<JournalRecord> after;
  auto reopened = Journal::Open(options, &after);
  if (!reopened.ok()) {
    (*fail)(ned::StrCat(name, ": re-open failed: ",
                        reopened.status().ToString()));
    return;
  }
  if (after.size() != acked.size()) {
    (*fail)(ned::StrCat(name, ": recovered ", after.size(),
                        " records for ", acked.size(), " acked"));
    return;
  }
  for (size_t i = 0; i < acked.size(); ++i) {
    if (after[i].payload != acked[i] || after[i].seq != i + 1) {
      (*fail)(ned::StrCat(name, ": record ", i, " has seq ", after[i].seq,
                          " and payload ", after[i].payload));
      return;
    }
  }
  if ((*reopened)->stats().dropped_segments != dropped) {
    (*fail)(ned::StrCat(name, ": dropped ",
                        (*reopened)->stats().dropped_segments,
                        " segments, expected ", dropped));
  }
  // And the journal is usable again: the post-crash epoch extends cleanly.
  if (!(*reopened)->Append(JournalRecordType::kComplete, "post").ok()) {
    (*fail)(ned::StrCat(name, ": append after recovery failed"));
    return;
  }
  reopened->reset();
  auto last = Journal::Open(options, &after);
  if (!last.ok() || after.size() != acked.size() + 1 ||
      after.back().seq != acked.size() + 1) {
    (*fail)(ned::StrCat(name, ": the post-recovery append did not continue "
                        "the seqs"));
  }
}

AnswerSummary MakeSummary(int salt) {
  AnswerSummary summary;
  summary.detailed = {ned::StrCat("(P.id:", salt, ", m0)"),
                      ned::StrCat("(P.id:", salt + 1, ", m2)")};
  summary.condensed = {"m0"};
  summary.secondary = {"m3"};
  summary.dir_total = static_cast<size_t>(salt);
  summary.indir_total = 2;
  summary.survivors_at_root = 1;
  summary.complete = true;
  summary.completeness = "complete";
  return summary;
}

/// One store leg: a clean Put, then a Put interrupted at the armed point;
/// re-open must keep the first entry byte-identical and show the second
/// either absent or complete -- never torn, never fabricated.
void RunStoreCrashLeg(const std::string& base, CrashPoint point,
                      const char* name, FailCounter* fail) {
  const std::string dir = ned::StrCat(base, "/sim-store-", name);
  RemoveTree(dir);
  CrashInjector injector;
  AnswerStoreOptions options;
  options.dir = dir;
  options.crash = &injector;
  auto store = AnswerStore::Open(options);
  if (!store.ok()) {
    (*fail)(ned::StrCat(name, ": open failed: ", store.status().ToString()));
    return;
  }
  const AnswerSummary first = MakeSummary(100);
  const AnswerSummary second = MakeSummary(200);
  if (!(*store)->Put("key-one", first).ok()) {
    (*fail)(ned::StrCat(name, ": clean Put failed"));
    return;
  }
  injector.Arm(point, 1);
  if ((*store)->Put("key-two", second).ok() || !injector.fired()) {
    (*fail)(ned::StrCat(name, ": armed Put did not crash"));
    return;
  }
  store->reset();
  injector.Disarm();
  options.crash = nullptr;
  auto reopened = AnswerStore::Open(options);
  if (!reopened.ok()) {
    (*fail)(ned::StrCat(name, ": re-open failed: ",
                        reopened.status().ToString()));
    return;
  }
  auto lookup_one = (*reopened)->Lookup("key-one");
  std::string want, got;
  ned::EncodeAnswerSummary(first, &want);
  if (lookup_one.ok()) ned::EncodeAnswerSummary(*lookup_one, &got);
  if (!lookup_one.ok() || got != want) {
    (*fail)(ned::StrCat(name, ": acked entry lost or altered by the crash"));
  }
  auto lookup_two = (*reopened)->Lookup("key-two");
  if (lookup_two.ok()) {
    want.clear();
    got.clear();
    ned::EncodeAnswerSummary(second, &want);
    ned::EncodeAnswerSummary(*lookup_two, &got);
    // Absent or complete are both honest outcomes; altered bytes never are.
    if (got != want) {
      (*fail)(ned::StrCat(name, ": interrupted Put surfaced altered bytes"));
    }
  } else if (lookup_two.status().code() != StatusCode::kNotFound) {
    (*fail)(ned::StrCat(name, ": interrupted Put lookup errored: ",
                        lookup_two.status().ToString()));
  }
}

int RunSimulatedBattery(const std::string& base, FailCounter* fail) {
  struct Leg {
    CrashPoint point;
    const char* name;
  };
  const Leg journal_legs[] = {
      {CrashPoint::kJournalBeforeAppend, "before-append"},
      {CrashPoint::kJournalTornAppend, "torn-append"},
      {CrashPoint::kJournalUnsyncedAppend, "unsynced-append"},
      {CrashPoint::kJournalBeforeSegmentMagic, "before-magic"},
  };
  for (const Leg& leg : journal_legs) {
    RunJournalCrashLeg(base, leg.point, leg.name, fail);
  }
  const Leg store_legs[] = {
      {CrashPoint::kStoreBeforeTemp, "before-temp"},
      {CrashPoint::kStoreTornTemp, "torn-temp"},
      {CrashPoint::kStoreBeforeRename, "before-rename"},
  };
  for (const Leg& leg : store_legs) {
    RunStoreCrashLeg(base, leg.point, leg.name, fail);
  }
  std::cout << "ned_crashtest: simulated battery done (4 journal + 3 store "
               "crash points)\n";
  return fail->failures;
}

// ---------------------------------------------------------------------------
// Real SIGKILL battery.
// ---------------------------------------------------------------------------

struct AckLine {
  std::string key;
  size_t case_idx = 0;
  uint64_t hash = 0;
};

std::vector<AckLine> ReadAcks(const std::string& path) {
  std::vector<AckLine> acks;
  auto content = ned::ReadFile(path);
  if (!content.ok()) return acks;  // killed before the first ack: fine
  std::istringstream in(*content);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    AckLine ack;
    std::string hex;
    if (!(fields >> ack.key >> ack.case_idx >> hex) || hex.size() != 16) {
      continue;  // a torn trailing line is not an ack
    }
    ack.hash = std::strtoull(hex.c_str(), nullptr, 16);
    acks.push_back(ack);
  }
  return acks;
}

/// Totals across the battery, reported at the end.
struct KillTotals {
  uint64_t acked = 0;
  uint64_t verified = 0;
  uint64_t pending_recovered = 0;
  uint64_t served_from_store = 0;
  uint64_t restored_completed = 0;
};

/// Forks a serving child on `dir`, SIGKILLs it mid-serving, recovers
/// in-process and verifies every acked request. Returns false on setup
/// failure (invariant violations go through `fail`).
bool RunKillCycle(const std::string& exe, const std::string& dir, int cycle,
                  const Workload& wl,
                  const std::map<size_t, uint64_t>& baseline,
                  KillTotals* totals, FailCounter* fail) {
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::cerr << "fork failed\n";
    return false;
  }
  if (pid == 0) {
    const std::string cycle_str = std::to_string(cycle);
    ::execl(exe.c_str(), exe.c_str(), "--child-serve", dir.c_str(),
            cycle_str.c_str(), static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }
  // Wait until the child has produced at least one ack (it must finish
  // recovery and its first case first), then kill it at a cycle-varying
  // offset mid-serving.
  const std::string acks_path = ned::StrCat(dir, "/acks-", cycle);
  const auto wait_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  bool saw_ack = false;
  while (std::chrono::steady_clock::now() < wait_deadline) {
    struct stat st;
    if (::stat(acks_path.c_str(), &st) == 0 && st.st_size > 0) {
      saw_ack = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (!saw_ack) {
    (*fail)(ned::StrCat("cycle ", cycle,
                        ": child produced no ack within 30s"));
  }
  const int delay_ms = 5 + (cycle * 37) % 116;
  std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  ::kill(pid, SIGKILL);
  int wstatus = 0;
  ::waitpid(pid, &wstatus, 0);
  if (WIFEXITED(wstatus)) {
    (*fail)(ned::StrCat("cycle ", cycle, ": child exited with code ",
                        WEXITSTATUS(wstatus), " instead of dying by signal"));
  }

  // Recover in-process, as the next serving process would.
  WhyNotService service(wl.catalog, PersistentOptions(dir));
  const WhyNotService::RecoveryReport rec = service.Recover();
  totals->pending_recovered += rec.pending_found;
  totals->served_from_store += rec.served_from_store;
  totals->restored_completed += rec.restored_completed;
  if (rec.dropped != 0) {
    (*fail)(ned::StrCat("cycle ", cycle, ": recovery dropped ", rec.dropped,
                        " journaled requests"));
  }
  const std::vector<AckLine> acks = ReadAcks(acks_path);
  totals->acked += acks.size();
  const uint64_t accepted_before = service.stats().accepted;
  for (const AckLine& ack : acks) {
    if (ack.case_idx >= wl.cases.size()) {
      (*fail)(ned::StrCat("cycle ", cycle, ": ack with bad case index"));
      continue;
    }
    WhyNotService::Submission sub =
        service.Submit(CaseRequest(wl, ack.case_idx, ack.key));
    if (!sub.status.ok()) {
      (*fail)(ned::StrCat("cycle ", cycle, ": acked key ", ack.key,
                          " lost: ", sub.status.ToString()));
      continue;
    }
    const WhyNotResponse resp = sub.response.get();
    if (!resp.status.ok() || !resp.answer.complete) {
      (*fail)(ned::StrCat("cycle ", cycle, ": acked key ", ack.key,
                          " recovered partial or failed"));
      continue;
    }
    if (FullHash(resp.answer) != ack.hash) {
      (*fail)(ned::StrCat("cycle ", cycle, ": acked key ", ack.key,
                          " recovered with different bytes"));
      continue;
    }
    const auto base_it = baseline.find(ack.case_idx);
    if (base_it != baseline.end() &&
        ContentHash(resp.answer) != base_it->second) {
      (*fail)(ned::StrCat("cycle ", cycle, ": acked key ", ack.key,
                          " differs from the uninterrupted baseline"));
      continue;
    }
    ++totals->verified;
  }
  // Exactly-once: replaying every ack accepted zero new work -- each was
  // served from the restored idempotency book or the durable store, so no
  // acked request ever executes twice across the crash.
  const uint64_t accepted_after = service.stats().accepted;
  if (accepted_after != accepted_before) {
    (*fail)(ned::StrCat("cycle ", cycle, ": verifying ", acks.size(),
                        " acks re-executed ",
                        accepted_after - accepted_before, " of them"));
  }
  service.Shutdown(/*drain=*/true);
  return true;
}

int RunKillBattery(const Args& args, const std::string& exe,
                   const std::string& base, FailCounter* fail) {
  Workload wl;
  if (!BuildWorkload(&wl)) return ++fail->failures;
  // Uninterrupted baseline: one cold, persistence-off service, the same
  // submission order every child uses. Content hashes only -- computation
  // counters may differ once recovery interleaves.
  std::map<size_t, uint64_t> baseline;
  {
    ServiceOptions options;
    options.workers = 2;
    options.default_deadline_ms = 5000;
    WhyNotService service(wl.catalog, options);
    for (size_t i = 0; i < wl.cases.size(); ++i) {
      WhyNotService::Submission sub =
          service.Submit(CaseRequest(wl, i, ned::StrCat("baseline-", i)));
      if (!sub.status.ok()) {
        (*fail)(ned::StrCat("baseline submit ", i, " failed"));
        continue;
      }
      const WhyNotResponse resp = sub.response.get();
      if (!resp.status.ok() || !resp.answer.complete) {
        (*fail)(ned::StrCat("baseline case ", i, " did not complete"));
        continue;
      }
      baseline[i] = ContentHash(resp.answer);
    }
    service.Shutdown(/*drain=*/true);
  }
  const std::string dir = base + "/kill";
  RemoveTree(dir);
  NED_CHECK(ned::EnsureDir(dir).ok());
  KillTotals totals;
  int cycles_run = 0;
  for (int cycle = 0; cycle < args.cycles && !StopRequested(); ++cycle) {
    if (!RunKillCycle(exe, dir, cycle, wl, baseline, &totals, fail)) break;
    ++cycles_run;
  }
  if (totals.acked == 0) {
    (*fail)("kill battery acked nothing: the test proved nothing");
  }
  std::cout << "ned_crashtest: kill battery done (" << cycles_run
            << " SIGKILL cycles, " << totals.acked << " acked, "
            << totals.verified << " verified byte-identical, "
            << totals.pending_recovered << " pending recovered, "
            << totals.restored_completed << " completed restored, "
            << totals.served_from_store << " served from store)\n";
  return fail->failures;
}

int RunParent(const Args& args) {
  ned::InstallDrainSignalHandlers();
  char exe_buf[4096];
  const ssize_t exe_len =
      ::readlink("/proc/self/exe", exe_buf, sizeof(exe_buf) - 1);
  if (exe_len <= 0) {
    std::cerr << "cannot resolve /proc/self/exe\n";
    return 2;
  }
  const std::string exe(exe_buf, static_cast<size_t>(exe_len));
  std::string base = args.dir;
  if (base.empty()) {
    char tmpl[] = "/tmp/ned_crashtest.XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) {
      std::cerr << "mkdtemp failed\n";
      return 2;
    }
    base = tmpl;
  } else {
    NED_CHECK(ned::EnsureDir(base).ok());
  }
  std::cout << "ned_crashtest: " << args.cycles << " cycles, dir " << base
            << "\n";
  FailCounter fail;
  RunSimulatedBattery(base, &fail);
  RunKillBattery(args, exe, base, &fail);
  if (!args.keep) RemoveTree(base);
  if (StopRequested()) {
    std::cout << "ned_crashtest: INTERRUPTED (signal; stopped after the "
                 "current cycle)\n";
  }
  if (fail.failures == 0) {
    std::cout << "ned_crashtest: PASS (zero lost acks, zero duplicate "
                 "executions, byte-identical recovery at every crash "
                 "point)\n";
    return 0;
  }
  std::cerr << "ned_crashtest: FAIL (" << fail.failures << " violations)\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  if (args.child_serve) return RunChildServe(args.child_dir, args.child_cycle);
  return RunParent(args);
}
