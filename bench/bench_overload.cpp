/// \file bench_overload.cpp
/// \brief Overload resilience: per-class goodput and admitted-latency tails
/// under 1x/2x/4x load.
///
/// The workload is built for head-of-line pain: interactive clients submit a
/// cheap question against a small database, batch and background clients
/// submit a heavy cross-join that occupies a worker for tens of
/// milliseconds. Each load level runs one closed-loop client mix against a
/// small worker pool and queue, with priority scheduling and fair-share
/// quotas on, and measures per class:
///
///   - goodput: OK answers (complete or honestly partial) per second,
///   - p50/p99 of admitted requests (queue wait + execution),
///   - sheds and retry exhaustions (the work overload refused).
///
/// No answer is cut down to relieve load: overload is bounded by what the
/// service refuses, delays or expires. Writes BENCH_overload.json.
/// `--smoke` is the CI-sized run: shorter cells, 1x/2x only, and no
/// expectations beyond "interactive work still completes" -- single-core CI
/// runners make real goodput claims meaningless there.
///
/// Usage: bench_overload [--seconds S] [--out path.json] [--smoke]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "relational/catalog.h"
#include "service/retry.h"
#include "service/service.h"

namespace {

using ned::Catalog;
using ned::CTuple;
using ned::Database;
using ned::Priority;
using ned::PriorityName;
using ned::RetryOutcome;
using ned::RetryPolicy;
using ned::ServiceOptions;
using ned::Value;
using ned::WhyNotQuestion;
using ned::WhyNotRequest;
using ned::WhyNotService;

constexpr int kWorkers = 2;
constexpr size_t kQueue = 8;

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(values.size() - 1));
  return values[idx];
}

/// Cheap database: a five-row join, answered in well under a millisecond.
Database MakeCheapDb() {
  Database db;
  NED_CHECK(db.LoadCsv("R", "id,k,v\n1,10,a\n2,10,b\n3,20,c\n4,30,d\n5,40,e\n")
                .ok());
  NED_CHECK(db.LoadCsv("S", "id,k,w\n1,10,x\n2,30,y\n3,50,z\n").ok());
  return db;
}

/// Heavy database: an n x n cross join whose full materialization occupies a
/// worker for on the order of a hundred milliseconds -- the head-of-line
/// blocker.
Database MakeHeavyDb(int n) {
  Database db;
  std::string r = "a,ra\n", s = "b,sb\n";
  for (int i = 0; i < n; ++i) {
    r += std::to_string(i) + "," + std::to_string(i % 7) + "\n";
    s += std::to_string(i) + "," + std::to_string(i % 5) + "\n";
  }
  NED_CHECK(db.LoadCsv("R", r).ok());
  NED_CHECK(db.LoadCsv("S", s).ok());
  return db;
}

WhyNotRequest CheapRequest() {
  WhyNotRequest req;
  req.db_name = "cheap";
  req.sql = "SELECT R.v FROM R, S WHERE R.k = S.k";
  CTuple tc;
  tc.Add("R.v", Value::Str("c"));
  req.question = WhyNotQuestion(tc);
  req.priority = Priority::kInteractive;
  req.deadline_ms = 250;
  return req;
}

WhyNotRequest HeavyRequest(Priority priority) {
  WhyNotRequest req;
  req.db_name = "heavy";
  req.sql = "SELECT R.a FROM R, S WHERE R.a >= 0";
  CTuple tc;
  tc.Add("R.a", Value::Int(0));  // compatible: the join must materialise
  req.question = WhyNotQuestion(tc);
  req.priority = priority;
  req.deadline_ms = priority == Priority::kBatch ? 1500 : 2000;
  return req;
}

/// One client thread's tally; merged per (load, class) cell.
struct Tally {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t sheds = 0;
  uint64_t exhausted = 0;
  std::vector<double> latencies_ms;
};

void ClientLoop(Priority priority, int client_idx, uint64_t seed,
                WhyNotService* service,
                std::chrono::steady_clock::time_point horizon, Tally* tally) {
  RetryPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff_ms = 1;
  policy.max_backoff_ms = 20;
  policy.priority_aware_backoff = true;
  uint64_t n = 0;
  while (std::chrono::steady_clock::now() < horizon) {
    WhyNotRequest req = priority == Priority::kInteractive
                            ? CheapRequest()
                            : HeavyRequest(priority);
    req.client_id = ned::StrCat(PriorityName(priority), client_idx);
    req.key = ned::StrCat(req.client_id, "-r", n++);
    req.seed = ned::MixSeed(seed, ned::HashSeed(req.key));
    RetryOutcome outcome = ned::SubmitWithRetry(*service, req, policy);
    ++tally->attempted;
    tally->sheds += static_cast<uint64_t>(outcome.sheds);
    if (outcome.exhausted) {
      ++tally->exhausted;  // overload refused this work: not goodput
      continue;
    }
    if (!outcome.response.status.ok()) continue;  // queue expiry etc.
    ++tally->ok;
    tally->latencies_ms.push_back(outcome.response.queue_ms +
                                  outcome.response.exec_ms);
  }
}

struct CellResult {
  int load = 0;
  Priority priority = Priority::kInteractive;
  Tally tally;
  double goodput_rps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

}  // namespace

int main(int argc, char** argv) {
  double seconds = 2.0;
  std::string out_path = "BENCH_overload.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--seconds" && i + 1 < argc) {
      seconds = std::stod(argv[++i]);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--smoke") {
      smoke = true;
      seconds = 0.4;
    } else {
      std::cerr
          << "usage: bench_overload [--seconds S] [--out path.json] [--smoke]\n";
      return 2;
    }
  }

  auto catalog = std::make_shared<Catalog>();
  NED_CHECK(catalog->Register("cheap", MakeCheapDb()).ok());
  NED_CHECK(catalog->Register("heavy", MakeHeavyDb(300)).ok());

  // Load multiplier m = clients per class; capacity is fixed at kWorkers
  // workers and a kQueue-deep queue, so 1x is contended and 4x is brutal.
  const std::vector<int> loads = smoke ? std::vector<int>{1, 2}
                                       : std::vector<int>{1, 2, 4};
  const unsigned cores = std::thread::hardware_concurrency();
  std::cout << "bench_overload: " << kWorkers << " workers, queue " << kQueue
            << ", " << seconds << "s per cell, " << cores << " cores"
            << (smoke ? " (smoke)" : "") << "\n";
  std::cout << "load  class        goodput/s  p50_ms   p99_ms  sheds  lost\n";

  std::vector<CellResult> results;
  for (int load : loads) {
    ServiceOptions options;
    options.workers = kWorkers;
    options.queue_capacity = kQueue;
    options.per_client_limit = 2;
    options.default_deadline_ms = 2000;
    // Caches off: repeat questions would otherwise be served at Submit
    // and the cell would measure the cache, not overload behaviour.
    options.answer_cache_bytes = 0;
    options.subtree_cache_bytes = 0;
    WhyNotService service(catalog, options);

    const auto horizon =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(static_cast<int64_t>(seconds * 1000));
    const Priority classes[] = {Priority::kInteractive, Priority::kBatch,
                                Priority::kBackground};
    std::vector<std::vector<Tally>> tallies(3);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < 3; ++c) {
      tallies[c].resize(static_cast<size_t>(load));
      for (int i = 0; i < load; ++i) {
        threads.emplace_back(ClientLoop, classes[c], i,
                             static_cast<uint64_t>(load * 16 + i), &service,
                             horizon, &tallies[c][static_cast<size_t>(i)]);
      }
    }
    for (auto& t : threads) t.join();
    service.Shutdown();

    for (size_t c = 0; c < 3; ++c) {
      CellResult cell;
      cell.load = load;
      cell.priority = classes[c];
      std::vector<double> latencies;
      for (const Tally& t : tallies[c]) {
        cell.tally.attempted += t.attempted;
        cell.tally.ok += t.ok;
        cell.tally.sheds += t.sheds;
        cell.tally.exhausted += t.exhausted;
        latencies.insert(latencies.end(), t.latencies_ms.begin(),
                         t.latencies_ms.end());
      }
      cell.goodput_rps = static_cast<double>(cell.tally.ok) / seconds;
      cell.p50_ms = Percentile(latencies, 0.50);
      cell.p99_ms = Percentile(latencies, 0.99);
      results.push_back(cell);
      std::printf("%4dx  %-11s  %9.1f  %6.2f  %7.2f  %5llu  %4llu\n",
                  cell.load, PriorityName(cell.priority), cell.goodput_rps,
                  cell.p50_ms, cell.p99_ms,
                  static_cast<unsigned long long>(cell.tally.sheds),
                  static_cast<unsigned long long>(cell.tally.exhausted));
    }
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << "{\n  \"benchmark\": \"overload\",\n  \"workers\": " << kWorkers
      << ",\n  \"queue\": " << kQueue << ",\n  \"seconds\": " << seconds
      << ",\n  \"cores\": " << cores
      << ",\n  \"smoke\": " << (smoke ? "true" : "false")
      << ",\n  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const CellResult& c = results[i];
    out << "    {\"load\": " << c.load << ", \"class\": \""
        << PriorityName(c.priority) << "\", \"attempted\": "
        << c.tally.attempted << ", \"ok\": " << c.tally.ok
        << ", \"goodput_rps\": " << c.goodput_rps
        << ", \"p50_ms\": " << c.p50_ms << ", \"p99_ms\": " << c.p99_ms
        << ", \"sheds\": " << c.tally.sheds
        << ", \"exhausted\": " << c.tally.exhausted << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << out_path << "\n";

  // Structural sanity only: interactive work must complete in every cell.
  // Goodput *claims* stay out of CI -- single-core runners invert them.
  for (const CellResult& c : results) {
    if (c.priority == Priority::kInteractive && c.tally.ok == 0) {
      std::cerr << "FAIL: no interactive goodput at " << c.load
                << "x load\n";
      return 1;
    }
  }
  return 0;
}
