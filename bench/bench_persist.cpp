/// \file bench_persist.cpp
/// \brief Durability-layer cost: what the write-ahead journal adds to a
/// served request, and how long recovery takes as the journal grows.
///
/// Leg 1 -- Submit latency. The gated pair, measured interleaved (one
/// request per configuration per rep, so drift hits both equally): journal
/// off (no persist_dir) versus the journal alone in its default fsync-lazy
/// mode (kEveryNMs, persist_answers off). Every request uses a unique key
/// with bypass_answer_cache set, so each one executes and pays the full
/// ACCEPT + COMPLETE journal path -- nothing is served from a cache. The
/// gate: fsync-lazy journal p99 must stay within 5% of journal-off p99.
/// Two more configurations are then measured for the report, not gated:
/// lazy_store (journal + answer store, the full default persistence) and
/// every_record (power-loss durability per record; expected to cost real
/// fsyncs -- process death alone never needs any; see docs/DURABILITY.md).
///
/// Leg 2 -- recovery time vs journal size. Populate a journal with N
/// executed requests (2N records), restart, and time Recover(): replay,
/// per-key classification, and the completed-book restore.
///
/// Emits BENCH_persist.json. `--smoke` is the CI-sized run and the exit
/// code is the gate either way.
///
/// Usage: bench_persist [--reps N] [--smoke] [--out path.json]

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "datasets/use_cases.h"
#include "persist/journal.h"
#include "relational/catalog.h"
#include "service/service.h"

namespace {

using ned::Catalog;
using ned::Database;
using ned::FsyncPolicy;
using ned::ServiceOptions;
using ned::UseCase;
using ned::UseCaseRegistry;
using ned::WhyNotRequest;
using ned::WhyNotResponse;
using ned::WhyNotService;

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

double PercentileMs(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t idx = std::min(
      values.size() - 1,
      static_cast<size_t>(std::ceil(p * static_cast<double>(values.size()))) -
          1);
  return values[idx];
}

/// One timed end-to-end request (Submit + future.get) with a unique key.
double TimedSubmitMs(WhyNotService& service, const UseCase& uc,
                     const std::string& key) {
  WhyNotRequest req;
  req.key = key;
  req.db_name = uc.db_name;
  req.sql = uc.sql;
  req.question = uc.question;
  req.bypass_answer_cache = true;  // every rep executes and journals
  const auto start = std::chrono::steady_clock::now();
  auto sub = service.Submit(std::move(req));
  NED_CHECK_MSG(sub.status.ok(), sub.status.ToString());
  WhyNotResponse resp = sub.response.get();
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  NED_CHECK_MSG(resp.status.ok(), resp.status.ToString());
  return ms;
}

uint64_t JournalDirBytes(const std::string& dir) {
  uint64_t total = 0;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  while (dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    struct stat st;
    if (::stat((dir + "/" + name).c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
      total += static_cast<uint64_t>(st.st_size);
    }
  }
  ::closedir(d);
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 540;
  int lazy_interval_ms = 0;  // 0 = service default
  bool smoke = false;
  std::string out_path = "BENCH_persist.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--reps" && i + 1 < argc) {
      reps = std::stoi(argv[++i]);
    } else if (arg == "--lazy-interval-ms" && i + 1 < argc) {
      lazy_interval_ms = std::stoi(argv[++i]);
    } else if (arg == "--smoke") {
      // Smoke keeps the full rep count -- the submit leg is seconds, and
      // the gate needs the statistical power -- and shrinks the recovery
      // leg, which is where the real time goes.
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr
          << "usage: bench_persist [--reps N] [--smoke] [--out path.json]\n";
      return 2;
    }
  }

  char base_template[] = "/tmp/bench_persist.XXXXXX";
  const char* base_c = ::mkdtemp(base_template);
  NED_CHECK_MSG(base_c != nullptr, "mkdtemp failed");
  const std::string base = base_c;

  auto registry = UseCaseRegistry::Build();
  if (!registry.ok()) {
    std::cerr << registry.status().ToString() << "\n";
    return 1;
  }
  // Leg 1 cycles the same mixed workload as bench_service (all 19 Fig. 6
  // use cases), so its p99 is the serving mix's p99 and the journal's fixed
  // per-record cost is weighed the way production traffic would weigh it.
  // Leg 2 uses the cheapest case: it measures recovery, not execution.
  const std::vector<UseCase>& cases = registry->use_cases();
  const UseCase& uc = cases.front();

  auto make_catalog = [&registry] {
    auto catalog = std::make_shared<Catalog>();
    for (const char* name : {"crime", "imdb", "gov"}) {
      Database copy = registry->database(name);
      NED_CHECK(catalog->Register(name, std::move(copy)).ok());
    }
    return catalog;
  };

  int failures = 0;

  // ---- leg 1: Submit latency --------------------------------------------
  // Two measurement loops. The GATE loop interleaves only journal-off and
  // fsync-lazy: pairing them per rep cancels machine drift, and keeping the
  // sync-heavy configurations OUT of that loop matters on one filesystem --
  // fsync-every-record issues a synchronous fdatasync per submit, and every
  // jbd2 commit it triggers stalls whichever off/lazy sample happens to be
  // in flight (their answer-store temp+rename needs a transaction handle,
  // and starting one blocks during a running commit). The REFERENCE loop
  // then measures lazy_store and every_record against each other for the
  // report; they are not gated.
  struct Config {
    const char* name;
    std::string persist_dir;             // empty = journal off
    FsyncPolicy fsync = FsyncPolicy::kEveryNMs;
    bool persist_answers = true;
  };
  std::vector<Config> configs = {
      {"off", "", FsyncPolicy::kEveryNMs, true},
      // The gated configuration: the journal alone (persist_answers off),
      // because the gate is on what the JOURNAL adds to Submit p99. The
      // answer store's temp-file+rename runs inside the completion path and
      // is the bulk of full persistence's cost; it is measured separately
      // below as lazy_store.
      {"lazy", base + "/submit-lazy", FsyncPolicy::kEveryNMs, false},
      {"lazy_store", base + "/submit-lazystore", FsyncPolicy::kEveryNMs, true},
      {"every_record", base + "/submit-every", FsyncPolicy::kEveryRecord, true},
  };
  std::vector<std::unique_ptr<WhyNotService>> services;
  for (const Config& config : configs) {
    ServiceOptions options;
    options.workers = 1;
    options.queue_capacity = 64;
    options.default_deadline_ms = 60'000;
    options.persist_dir = config.persist_dir;
    options.journal_fsync = config.fsync;
    options.persist_answers = config.persist_answers;
    if (lazy_interval_ms > 0) {
      options.journal_fsync_interval_ms = lazy_interval_ms;
    }
    services.push_back(
        std::make_unique<WhyNotService>(make_catalog(), options));
  }
  // Warm each service (first-touch of the data and code paths), then time.
  // Within a rep the paired configurations serve the SAME use case back to
  // back, so machine-wide noise epochs hit them equally.
  for (size_t c = 0; c < configs.size(); ++c) {
    for (size_t i = 0; i < cases.size(); ++i) {
      (void)TimedSubmitMs(*services[c], cases[i], ned::StrCat("warm-", c, "-", i));
    }
  }
  std::vector<std::vector<double>> samples(configs.size());
  for (int rep = 0; rep < reps; ++rep) {  // gate loop: off vs lazy only
    const UseCase& rep_case = cases[static_cast<size_t>(rep) % cases.size()];
    for (size_t c = 0; c < 2; ++c) {
      samples[c].push_back(
          TimedSubmitMs(*services[c], rep_case, ned::StrCat("r", rep, "-", c)));
    }
  }
  const int ref_reps = std::max(1, reps / 3);
  for (int rep = 0; rep < ref_reps; ++rep) {  // reference loop, report-only
    const UseCase& rep_case = cases[static_cast<size_t>(rep) % cases.size()];
    for (size_t c = 2; c < configs.size(); ++c) {
      samples[c].push_back(
          TimedSubmitMs(*services[c], rep_case, ned::StrCat("x", rep, "-", c)));
    }
  }
  std::cout << "bench_persist: Submit latency, " << cases.size()
            << "-case service mix, " << reps << " reps per gated config\n";
  std::cout << "config        p50_ms    p99_ms\n";
  std::vector<double> p50(configs.size()), p99(configs.size());
  for (size_t c = 0; c < configs.size(); ++c) {
    p50[c] = PercentileMs(samples[c], 0.50);
    p99[c] = PercentileMs(samples[c], 0.99);
    std::printf("%-12s %8.3f %9.3f\n", configs[c].name, p50[c], p99[c]);
    services[c]->Shutdown(/*drain=*/true);
  }
  // The gated statistic. A single p99 is an extreme order statistic -- on a
  // shared box its run-to-run spread is far wider than the 5% being tested
  // for -- so the overhead is estimated as the median over independent
  // interleaved batches of the per-batch p99 ratio (same medians-of-batches
  // idiom as the other benches). Samples stay paired: within each rep every
  // configuration served the same case back to back.
  const size_t batches = 9;
  const size_t per_batch = samples[0].size() / batches;
  std::vector<double> batch_overheads;
  for (size_t b = 0; b < batches; ++b) {
    auto batch_p99 = [&](size_t c) {
      std::vector<double> slice(
          samples[c].begin() + static_cast<long>(b * per_batch),
          samples[c].begin() + static_cast<long>((b + 1) * per_batch));
      return PercentileMs(std::move(slice), 0.99);
    };
    const double off_p99 = batch_p99(0);
    if (off_p99 > 0) batch_overheads.push_back(batch_p99(1) / off_p99 - 1.0);
  }
  std::sort(batch_overheads.begin(), batch_overheads.end());
  const double lazy_overhead =
      batch_overheads.empty() ? 0 : batch_overheads[batch_overheads.size() / 2];
  std::cout << "fsync-lazy p99 overhead vs journal-off (median of "
            << batches << " batches): " << 100.0 * lazy_overhead << "%\n";
  if (lazy_overhead >= 0.05) {
    std::cerr << "FAIL: fsync-lazy p99 overhead " << 100.0 * lazy_overhead
              << "% >= 5%\n";
    ++failures;
  }

  // ---- leg 2: recovery time vs journal size -------------------------------
  struct RecoveryPoint {
    int requests = 0;
    uint64_t journal_bytes = 0;
    uint64_t replayed = 0;
    double recover_ms = 0;
  };
  std::vector<int> sizes = smoke ? std::vector<int>{200}
                                 : std::vector<int>{200, 1000, 4000};
  std::vector<RecoveryPoint> recovery;
  for (int n : sizes) {
    const std::string dir = base + "/recover-" + std::to_string(n);
    {
      ServiceOptions options;
      options.workers = 2;
      options.queue_capacity = 64;
      options.default_deadline_ms = 60'000;
      options.persist_dir = dir;
      WhyNotService service(make_catalog(), options);
      std::vector<std::shared_future<WhyNotResponse>> futures;
      for (int i = 0; i < n; ++i) {
        WhyNotRequest req;
        req.key = ned::StrCat("rec-", i);
        req.db_name = uc.db_name;
        req.sql = uc.sql;
        req.question = uc.question;
        req.bypass_answer_cache = true;  // force 2 journal records apiece
        auto sub = service.Submit(std::move(req));
        NED_CHECK_MSG(sub.status.ok(), sub.status.ToString());
        futures.push_back(sub.response);
        // Keep the queue bounded: the point is journal growth, not overload.
        if (futures.size() >= 32) {
          futures.front().get();
          futures.erase(futures.begin());
        }
      }
      for (auto& f : futures) (void)f.get();
      service.Shutdown(/*drain=*/true);
    }
    RecoveryPoint point;
    point.requests = n;
    point.journal_bytes = JournalDirBytes(dir + "/journal");
    {
      ServiceOptions options;
      options.workers = 2;
      options.persist_dir = dir;
      WhyNotService service(make_catalog(), options);
      const auto start = std::chrono::steady_clock::now();
      const WhyNotService::RecoveryReport rec = service.Recover();
      point.recover_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
      point.replayed = rec.replayed_records;
      if (rec.replayed_records < static_cast<uint64_t>(2 * n)) {
        std::cerr << "FAIL: recovery replayed " << rec.replayed_records
                  << " records, expected >= " << 2 * n << "\n";
        ++failures;
      }
      if (rec.pending_found != 0 || rec.dropped != 0) {
        std::cerr << "FAIL: clean shutdown left pending=" << rec.pending_found
                  << " dropped=" << rec.dropped << "\n";
        ++failures;
      }
      service.Shutdown(/*drain=*/true);
    }
    recovery.push_back(point);
    std::printf("recover %5d requests: %8llu journal bytes, %6llu records, "
                "%8.2f ms\n",
                point.requests,
                static_cast<unsigned long long>(point.journal_bytes),
                static_cast<unsigned long long>(point.replayed),
                point.recover_ms);
  }

  RemoveTree(base);

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << "{\n  \"benchmark\": \"persist\",\n  \"reps\": " << reps
      << ",\n  \"cores\": " << std::thread::hardware_concurrency()
      << ",\n  \"smoke\": " << (smoke ? "true" : "false")
      << ",\n  \"workload\": \"" << cases.size()
      << "-case service mix\",\n  \"submit\": {\n";
  for (size_t c = 0; c < configs.size(); ++c) {
    out << "    \"" << configs[c].name << "\": {\"p50_ms\": " << p50[c]
        << ", \"p99_ms\": " << p99[c] << "}"
        << (c + 1 < configs.size() ? "," : "") << "\n";
  }
  out << "  },\n  \"lazy_p99_overhead\": " << lazy_overhead
      << ",\n  \"meets_target\": " << (lazy_overhead < 0.05 ? "true" : "false")
      << ",\n  \"recovery\": [\n";
  for (size_t i = 0; i < recovery.size(); ++i) {
    const RecoveryPoint& point = recovery[i];
    out << "    {\"requests\": " << point.requests
        << ", \"journal_bytes\": " << point.journal_bytes
        << ", \"replayed_records\": " << point.replayed
        << ", \"recover_ms\": " << point.recover_ms << "}"
        << (i + 1 < recovery.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << out_path << "\n";

  if (failures > 0) {
    std::cerr << "bench_persist: FAIL (" << failures << " violations)\n";
    return 1;
  }
  std::cout << "bench_persist: PASS\n";
  return 0;
}
