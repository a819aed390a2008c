/// \file ned_stress.cpp
/// \brief Chaos stress harness for the concurrent why-not service.
///
/// Drives N concurrent clients over the paper's 19 use cases plus generated
/// differential workloads while injecting faults at every layer: engine
/// checkpoint faults (deterministic InjectFailureAt), service transient
/// faults (retryable kUnavailable), tight deadlines and budgets, admission
/// sheds under a deliberately small queue, concurrent copy-on-write catalog
/// reloads, mixed priority classes (client i gets class i%3 with per-class
/// deadline regimes; three clients share one "hot" fair-share id above its
/// quota) and a dedicated sequential poison injector firing uncompilable
/// queries at the answer tier's memory of permanent errors. Asserts, at the
/// end of the run:
///
///   - zero crashes (reaching the final report at all),
///   - zero lost or duplicated responses: every submitted logical request
///     produced exactly one final outcome, and the service's own books
///     agree (accepted == completed + transient failures re-keyed; queue
///     expiries count as completed),
///   - every shed or transiently-failed request eventually succeeded via
///     the retry policy (clients stop submitting new work at the horizon,
///     so retries always find capacity),
///   - bounded p99 latency: queue wait + execution of executed requests
///     stays within the largest request deadline plus scheduling slack,
///   - honest caching: answer-cache hits seen by clients equal the hits the
///     service recorded, the exactly-once books still balance with the
///     caches on (hits are neither accepted nor completed), and every run
///     actually exercises the cached path (~half the traffic bypasses the
///     answer cache so the execute path stays under chaos too),
///   - bounded poison: a query that can never compile executes once per
///     content key while the tier remembers its error, so at most
///     (poison kinds + answer-tier evictions) times -- everything else
///     fails fast with the remembered error,
///   - no starvation: every client, of every priority class, completed at
///     least one answered request despite quotas and poison,
///   - reconciled expiry: queue-expired finals seen by clients equal the
///     service's expired_in_queue count.
///
/// Exit code 0 on success, 1 on any violated invariant. `--smoke` is the
/// CI-sized run.
///
/// Durability hooks (see docs/DURABILITY.md): `--persist DIR` runs the
/// service with the write-ahead journal + durable answer store rooted at
/// DIR and recovers from it on startup; SIGTERM/SIGINT trigger a graceful
/// Drain (finish in-flight, journal the rest as recoverable) instead of the
/// normal shutdown; `--crash-after-ms N` SIGKILLs the process mid-chaos so
/// ned_crashtest can prove kill-and-recover exactly-once on a real process.

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/atomic_file.h"
#include "common/signal_drain.h"
#include "common/rng.h"
#include "common/strings.h"
#include "datasets/use_cases.h"
#include "obs/expose.h"
#include "relational/catalog.h"
#include "service/retry.h"
#include "service/service.h"
#include "testing/workload.h"

namespace {

using ned::Catalog;
using ned::CTuple;
using ned::Database;
using ned::Priority;
using ned::RetryOutcome;
using ned::RetryPolicy;
using ned::Rng;
using ned::ServiceOptions;
using ned::Status;
using ned::StatusCode;
using ned::Value;
using ned::WhyNotQuestion;
using ned::WhyNotRequest;
using ned::WhyNotService;

/// Three blocking clients plus the open-loop hog share this fair-share id
/// against a quota of one, so any in-flight overlap on "hot" is a quota
/// shed. The quota is this tight because answers are sub-millisecond here:
/// on a single core, blocking clients almost never overlap at all, and the
/// hog's back-to-back bursts are what make fair-share sheds deterministic.
/// Unique-id clients are unaffected (they block on their own requests).
constexpr int kHotClients = 3;
constexpr size_t kPerClientLimit = 1;

/// SIGTERM/SIGINT -> graceful drain: the shared helper in
/// common/signal_drain.h owns the handler; loops poll it alongside the
/// horizon so an operator signal stops new submissions promptly, and the
/// main thread then runs a graceful Drain (finish in-flight, journal the
/// rest as recoverable) instead of the full-drain Shutdown.
bool StopRequested() { return ned::DrainRequested(); }

struct Args {
  int clients = 8;
  int seconds = 10;
  int workers = 4;
  // Deliberately smaller than the default client count: clients block on
  // their own requests, so sheds only happen when workers + queue < clients.
  size_t queue = 3;
  std::string inject = "all";  // all | none | engine | service
  uint64_t seed = 1;
  int scale = 1;
  /// When non-empty, the service runs with the write-ahead journal and
  /// durable answer store rooted here (and recovers from it on startup).
  std::string persist_dir;
  /// When > 0, a detached thread SIGKILLs this process after N ms -- the
  /// kill-and-recover harness (ned_crashtest) uses this to crash a real
  /// serving process at an uncontrolled point and then prove recovery.
  int64_t crash_after_ms = 0;
  /// When non-empty, the service's metrics registry is dumped here
  /// (Prometheus text exposition) after the run -- a chaos run's worth of
  /// live series for eyeballing or scraping offline.
  std::string metrics_out;
};

/// One drivable scenario: a database name in the catalog + SQL + question.
struct StressCase {
  std::string name;
  std::string db_name;
  std::string sql;
  WhyNotQuestion question;
};

/// Per-client tally, merged at the end.
struct ClientTally {
  uint64_t requests = 0;
  uint64_t ok_complete = 0;
  uint64_t ok_partial = 0;
  uint64_t permanent_errors = 0;
  uint64_t exhausted = 0;
  uint64_t sheds_seen = 0;
  uint64_t transients_seen = 0;
  uint64_t retried_to_success = 0;
  uint64_t duplicate_finals = 0;
  /// Final kDeadlineExceeded responses whose deadline passed in the queue
  /// (never dispatched). Not permanent errors: the load, not the request,
  /// was at fault.
  uint64_t expired = 0;
  /// Responses replayed from the content-addressed answer cache at Submit.
  uint64_t cache_served = 0;
  /// Requests that explicitly bypassed the answer cache (~half the traffic,
  /// so both the cached and the executed path stay under chaos).
  uint64_t cache_bypassed = 0;
  /// Queue + exec of final responses that a worker executed: tier hits are
  /// served at Submit and would only dilute the tail with zeros.
  std::vector<double> latencies_ms;
  /// Permanent-error diagnosis: "<case>: <status>" -> count. Printed on
  /// failure so a violated zero-permanent-errors invariant names the culprit.
  std::map<std::string, uint64_t> error_kinds;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](int64_t* out) {
      if (i + 1 >= argc) return false;
      *out = std::stoll(argv[++i]);
      return true;
    };
    int64_t v = 0;
    if (arg == "--clients" && next(&v)) {
      args->clients = static_cast<int>(v);
    } else if (arg == "--seconds" && next(&v)) {
      args->seconds = static_cast<int>(v);
    } else if (arg == "--workers" && next(&v)) {
      args->workers = static_cast<int>(v);
    } else if (arg == "--queue" && next(&v)) {
      args->queue = static_cast<size_t>(v);
    } else if (arg == "--seed" && next(&v)) {
      args->seed = static_cast<uint64_t>(v);
    } else if (arg == "--scale" && next(&v)) {
      args->scale = static_cast<int>(v);
    } else if (arg == "--inject") {
      if (i + 1 >= argc) return false;
      args->inject = argv[++i];
    } else if (arg == "--persist") {
      if (i + 1 >= argc) return false;
      args->persist_dir = argv[++i];
    } else if (arg == "--crash-after-ms" && next(&v)) {
      args->crash_after_ms = v;
    } else if (arg == "--metrics-out") {
      if (i + 1 >= argc) return false;
      args->metrics_out = argv[++i];
    } else if (arg == "--smoke") {
      args->clients = 4;
      args->seconds = 2;
      args->workers = 2;
      args->queue = 1;  // keep workers + queue < clients so sheds happen
    } else {
      std::cerr << "unknown argument: " << arg << "\n"
                << "usage: ned_stress [--clients N] [--seconds S] "
                   "[--workers W] [--queue Q] "
                   "[--inject all|none|engine|service] [--seed S] "
                   "[--scale K] [--persist DIR] [--crash-after-ms N] "
                   "[--metrics-out FILE] [--smoke]\n";
      return false;
    }
  }
  return true;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(values.size() - 1));
  return values[idx];
}

/// A client thread: submits randomized requests with per-request seeds and
/// chaos knobs until the horizon, retrying each one to completion.
void ClientLoop(int client_id, const Args& args, WhyNotService* service,
                const std::vector<StressCase>* cases,
                std::chrono::steady_clock::time_point horizon,
                ClientTally* tally, std::map<std::string, int>* finals,
                std::mutex* finals_mu) {
  Rng rng(ned::MixSeed(args.seed, static_cast<uint64_t>(client_id) + 1));
  const bool inject_engine = args.inject == "all" || args.inject == "engine";
  const bool inject_service = args.inject == "all" || args.inject == "service";
  // This client's fixed scheduling identity: priority class by index, and
  // the first kHotClients share one fair-share id that exceeds the quota.
  const Priority priority = static_cast<Priority>(client_id % 3);
  const std::string fair_share_id = client_id < kHotClients
                                        ? std::string("hot")
                                        : ned::StrCat("c", client_id);
  RetryPolicy policy;
  // Effectively unbounded: queue and quota sheds last as long as the
  // overload does, so convergence must be allowed to wait for the
  // post-horizon drain. The exhausted==0 invariant still bites.
  policy.max_attempts = 500;
  policy.initial_backoff_ms = 1;
  policy.max_backoff_ms = 50;
  policy.priority_aware_backoff = true;
  uint64_t n = 0;
  while (!StopRequested() && std::chrono::steady_clock::now() < horizon) {
    const StressCase& c =
        (*cases)[static_cast<size_t>(rng.Next() % cases->size())];
    WhyNotRequest req;
    req.key = ned::StrCat("c", client_id, "-r", n++);
    req.db_name = c.db_name;
    req.sql = c.sql;
    req.question = c.question;
    req.priority = priority;
    req.client_id = fair_share_id;
    req.seed = ned::MixSeed(args.seed, ned::HashSeed(req.key));
    // Per-class deadline regimes. Interactive mixes in deadlines tight
    // enough that only a flagged partial (or a queue expiry) can come back
    // in time; weaker classes expect to wait out the priority queue.
    switch (priority) {
      case Priority::kInteractive:
        req.deadline_ms = rng.Chance(0.2) ? rng.UniformInt(5, 30)
                                          : rng.UniformInt(200, 1000);
        break;
      case Priority::kBatch:
        req.deadline_ms = rng.UniformInt(300, 1200);
        break;
      case Priority::kBackground:
        req.deadline_ms = rng.UniformInt(500, 2000);
        break;
    }
    if (rng.Chance(0.15)) req.row_budget = static_cast<size_t>(
        rng.UniformInt(10, 500));
    if (inject_engine && rng.Chance(0.25)) {
      req.inject_fault_at_step = static_cast<uint64_t>(rng.UniformInt(1, 200));
    }
    if (inject_service && rng.Chance(0.25)) {
      req.inject_transient_failures = static_cast<int>(rng.UniformInt(1, 3));
    }
    // Half the traffic skips the answer cache so repeated questions keep
    // exercising the execute path (and its chaos) instead of collapsing
    // into Submit-time replays; the other half proves cached serving stays
    // exactly-once under the same load.
    if (rng.Chance(0.5)) {
      req.bypass_answer_cache = true;
      ++tally->cache_bypassed;
    }

    RetryOutcome outcome = ned::SubmitWithRetry(*service, req, policy);
    ++tally->requests;
    tally->sheds_seen += static_cast<uint64_t>(outcome.sheds);
    tally->transients_seen += static_cast<uint64_t>(outcome.transients);
    {
      // Exactly-once bookkeeping: one final outcome per key, globally.
      std::lock_guard<std::mutex> lock(*finals_mu);
      int& count = (*finals)[req.key];
      ++count;
      if (count > 1) ++tally->duplicate_finals;
    }
    if (outcome.exhausted) {
      ++tally->exhausted;
      continue;
    }
    if ((outcome.sheds > 0 || outcome.transients > 0) &&
        outcome.response.status.ok()) {
      ++tally->retried_to_success;
    }
    if (!outcome.response.status.ok()) {
      if (outcome.response.expired_in_queue) {
        ++tally->expired;  // overload outcome, not a request defect
        continue;
      }
      ++tally->permanent_errors;
      ++tally->error_kinds[ned::StrCat(c.name, ": ",
                                       outcome.response.status.ToString())];
      continue;
    }
    if (outcome.response.served_from_answer_cache) ++tally->cache_served;
    if (outcome.response.answer.complete) {
      ++tally->ok_complete;
    } else {
      ++tally->ok_partial;
    }
    if (!outcome.response.served_from_answer_cache &&
        !outcome.response.served_from_answer_store) {
      tally->latencies_ms.push_back(outcome.response.queue_ms +
                                    outcome.response.exec_ms);
    }
  }
}

/// An open-loop hot client: each burst fires two back-to-back submissions
/// under the shared "hot" fair-share id without waiting for the first to
/// resolve, so the second finds the first still holding the quota slot
/// (limit 1) and is shed as kClientQuota -- quota-first in TryAdmit, even
/// at moments the queue is also full. Shed bursts are simply dropped (open
/// loop, no retry); accepted ones are tracked with the same exactly-once
/// bookkeeping as the blocking clients.
void HogLoop(const Args& args, WhyNotService* service,
             const std::vector<StressCase>* cases,
             std::chrono::steady_clock::time_point horizon,
             ClientTally* tally, std::map<std::string, int>* finals,
             std::mutex* finals_mu) {
  Rng rng(ned::MixSeed(args.seed, 0x407C0DEULL));
  uint64_t n = 0;
  while (!StopRequested() && std::chrono::steady_clock::now() < horizon) {
    const StressCase& c =
        (*cases)[static_cast<size_t>(rng.Next() % cases->size())];
    WhyNotService::Submission subs[2];
    for (auto& sub : subs) {
      WhyNotRequest req;
      req.key = ned::StrCat("hog-r", n++);
      req.db_name = c.db_name;
      req.sql = c.sql;
      req.question = c.question;
      req.priority = Priority::kInteractive;
      req.client_id = "hot";
      req.deadline_ms = 500;
      req.seed = ned::MixSeed(args.seed, ned::HashSeed(req.key));
      sub = service->Submit(std::move(req));
    }
    for (auto& sub : subs) {
      if (!sub.status.ok()) {
        ++tally->sheds_seen;
        continue;
      }
      ++tally->requests;
      const ned::WhyNotResponse resp = sub.response.get();
      {
        std::lock_guard<std::mutex> lock(*finals_mu);
        int& count = (*finals)[resp.key];
        ++count;
        if (count > 1) ++tally->duplicate_finals;
      }
      if (!resp.status.ok()) {
        if (resp.expired_in_queue) {
          ++tally->expired;
        } else if (resp.retryable()) {
          ++tally->transients_seen;  // injected-transient-free, but honest
        } else {
          ++tally->permanent_errors;
          ++tally->error_kinds[ned::StrCat(c.name, ": ",
                                           resp.status.ToString())];
        }
        continue;
      }
      if (resp.served_from_answer_cache) ++tally->cache_served;
      if (resp.answer.complete) {
        ++tally->ok_complete;
      } else {
        ++tally->ok_partial;
      }
      if (!resp.served_from_answer_cache && !resp.served_from_answer_store) {
        tally->latencies_ms.push_back(resp.queue_ms + resp.exec_ms);
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// What the poison injector saw. Executions are finals that actually ran
/// (and failed to compile); fast-fails were rejected at Submit with the
/// remembered error; expired never reached a worker.
struct PoisonTally {
  uint64_t finals = 0;
  uint64_t executions = 0;
  uint64_t fast_fails = 0;
  uint64_t expired = 0;
  uint64_t exhausted = 0;
  uint64_t unexpected_ok = 0;
};

/// Number of distinct poison content keys the injector cycles through.
constexpr uint64_t kPoisonKinds = 3;

/// The poison injector: a sequential thread firing queries that can never
/// compile (unknown relation) at the service, one at a time, each under a
/// fresh idempotency key but one of kPoisonKinds content keys. Sequential
/// on purpose: the execution bound (once per key while its error is
/// remembered) is only claimed for non-concurrent duplicates -- concurrent
/// duplicates of content that has not failed yet all execute. Deliberately
/// NO transient injection here: chaos knobs bypass the answer tier, so
/// those requests would execute every time.
void PoisonLoop(const Args& args, WhyNotService* service,
                std::chrono::steady_clock::time_point horizon,
                PoisonTally* tally) {
  RetryPolicy policy;
  policy.max_attempts = 500;  // sheds must converge; errors return at once
  policy.initial_backoff_ms = 1;
  policy.max_backoff_ms = 50;
  uint64_t n = 0;
  while (!StopRequested() && std::chrono::steady_clock::now() < horizon) {
    const uint64_t kind = n % kPoisonKinds;
    WhyNotRequest req;
    req.key = ned::StrCat("poison-", n++);
    req.db_name = "crime";
    req.sql = ned::StrCat("SELECT ZZZ", kind, ".v FROM ZZZ", kind);
    CTuple tc;
    tc.Add(ned::StrCat("ZZZ", kind, ".v"), Value::Str("x"));
    req.question = WhyNotQuestion(tc);
    req.client_id = "poison";
    req.seed = ned::MixSeed(args.seed, ned::HashSeed(req.key));
    RetryOutcome outcome = ned::SubmitWithRetry(*service, req, policy);
    ++tally->finals;
    if (outcome.exhausted) {
      ++tally->exhausted;
    } else if (outcome.breaker_fast_fail) {
      ++tally->fast_fails;
    } else if (outcome.response.expired_in_queue) {
      ++tally->expired;
    } else if (outcome.response.status.ok()) {
      ++tally->unexpected_ok;
    } else {
      ++tally->executions;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

/// A reloader thread: exercises copy-on-write reloads + swaps against the
/// generated-workload databases while clients hammer them.
void ReloaderLoop(Catalog* catalog, const std::vector<uint64_t>* wl_seeds,
                  uint64_t seed,
                  std::chrono::steady_clock::time_point horizon,
                  std::atomic<uint64_t>* reloads) {
  Rng rng(ned::MixSeed(seed, 0xC0FFEEULL));
  while (!StopRequested() && std::chrono::steady_clock::now() < horizon) {
    const uint64_t wl_seed = rng.Pick(*wl_seeds);
    const std::string db_name = ned::StrCat("wl", wl_seed);
    // Rebuild the same workload instance and swap it in: contents are
    // equivalent, so any pinned snapshot stays a valid view.
    ned::GenWorkload w = ned::MakeDiffWorkload(wl_seed);
    Database db;
    bool ok = true;
    for (const auto& rel : w.relations) {
      if (!db.AddRelation(rel).ok()) ok = false;
    }
    if (ok && catalog->SwapDatabase(db_name, std::move(db)).ok()) {
      reloads->fetch_add(1, std::memory_order_relaxed);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

int Run(const Args& args) {
  // ---- build the catalog and the case list ---------------------------------
  auto registry = ned::UseCaseRegistry::Build(args.scale);
  if (!registry.ok()) {
    std::cerr << "failed to build use cases: " << registry.status().ToString()
              << "\n";
    return 1;
  }
  auto catalog = std::make_shared<Catalog>();
  for (const char* name : {"crime", "imdb", "gov"}) {
    Database copy = registry->database(name);
    NED_CHECK(catalog->Register(name, std::move(copy)).ok());
  }
  std::vector<StressCase> cases;
  for (const ned::UseCase& uc : registry->use_cases()) {
    cases.push_back({uc.name, uc.db_name, uc.sql, uc.question});
  }
  // Generated workloads widen the shape coverage beyond Table 4.
  std::vector<uint64_t> wl_seeds;
  for (uint64_t s = args.seed * 100 + 1; wl_seeds.size() < 8; ++s) {
    ned::GenWorkload w = ned::MakeDiffWorkload(s);
    const std::string sql = ned::SpecToSql(w.spec);
    if (sql.empty()) continue;
    Database db;
    bool ok = true;
    for (const auto& rel : w.relations) {
      if (!db.AddRelation(rel).ok()) ok = false;
    }
    if (!ok) continue;
    const std::string db_name = ned::StrCat("wl", s);
    if (!catalog->Register(db_name, std::move(db)).ok()) continue;
    cases.push_back({db_name, db_name, sql, w.question});
    wl_seeds.push_back(s);
  }
  std::cout << "ned_stress: " << cases.size() << " cases ("
            << registry->use_cases().size() << " paper use cases + "
            << wl_seeds.size() << " generated), " << args.clients
            << " clients, " << args.workers << " workers, queue "
            << args.queue << ", " << args.seconds << "s, inject="
            << args.inject << ", seed=" << args.seed << "\n";

  // ---- spin up the service and the chaos -----------------------------------
  ServiceOptions options;
  options.workers = args.workers;
  options.queue_capacity = args.queue;
  options.per_client_limit = kPerClientLimit;
  options.default_deadline_ms = 2000;
  options.default_memory_budget = 64u << 20;
  options.memory_watermark_bytes =
      static_cast<size_t>(args.workers + static_cast<int>(args.queue)) *
      (64u << 20);
  if (!args.persist_dir.empty()) options.persist_dir = args.persist_dir;
  WhyNotService service(catalog, options);
  if (service.persistence_enabled()) {
    // Replay whatever a previous (possibly crashed) run left behind before
    // admitting new chaos: restored answers dedupe, pending work re-enqueues.
    const ned::WhyNotService::RecoveryReport rec = service.Recover();
    std::cout << "recovery          : replayed=" << rec.replayed_records
              << " restored=" << rec.restored_completed
              << " pending=" << rec.pending_found
              << " from_store=" << rec.served_from_store
              << " resubmitted=" << rec.resubmitted
              << " deferred=" << rec.deferred
              << " dropped=" << rec.dropped << "\n";
  }

  // Operator signals request a graceful drain instead of a hard stop; the
  // loops poll the shared drain flag and the main thread picks the shutdown
  // flavor below.
  ned::InstallDrainSignalHandlers();
  if (args.crash_after_ms > 0) {
    // A real, uncatchable crash at an arbitrary point mid-chaos. Detached:
    // if the run outlives the timer something went wrong anyway.
    std::thread([ms = args.crash_after_ms] {
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
      ::kill(::getpid(), SIGKILL);
    }).detach();
  }

  const auto horizon = std::chrono::steady_clock::now() +
                       std::chrono::seconds(args.seconds);
  std::vector<ClientTally> tallies(static_cast<size_t>(args.clients));
  std::map<std::string, int> finals;
  std::mutex finals_mu;
  std::atomic<uint64_t> reloads{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < args.clients; ++c) {
    threads.emplace_back(ClientLoop, c, std::cref(args), &service, &cases,
                         horizon, &tallies[static_cast<size_t>(c)], &finals,
                         &finals_mu);
  }
  std::thread reloader(ReloaderLoop, catalog.get(), &wl_seeds, args.seed,
                       horizon, &reloads);
  PoisonTally poison;
  std::thread poisoner(PoisonLoop, std::cref(args), &service, horizon,
                       &poison);
  ClientTally hog;
  std::thread hogger(HogLoop, std::cref(args), &service, &cases, horizon,
                     &hog, &finals, &finals_mu);
  for (auto& t : threads) t.join();
  reloader.join();
  poisoner.join();
  hogger.join();
  if (StopRequested()) {
    // Signal-requested stop: graceful drain. By this point the blocking
    // clients have all joined (their loops observed the flag), so the drain
    // mostly finishes stragglers; anything still queued is journaled as
    // recoverable for the next run to pick up.
    const ned::WhyNotService::DrainReport drain = service.Drain(2000);
    std::cout << "drain             : completed_inflight="
              << drain.completed_inflight
              << " journaled_queued=" << drain.journaled_queued
              << " cancelled=" << drain.cancelled << "\n";
  } else {
    service.Shutdown(/*drain=*/true);
  }

  if (!args.metrics_out.empty()) {
    const std::string text =
        ned::obs::FormatPrometheus(service.metrics()->Collect());
    const ned::Status write = ned::AtomicWriteFile(args.metrics_out, text);
    if (!write.ok()) {
      std::cerr << "metrics dump failed: " << write.ToString() << "\n";
    } else {
      std::cout << "metrics           : wrote " << args.metrics_out << " ("
                << text.size() << " bytes)\n";
    }
  }

  // ---- merge + check invariants --------------------------------------------
  ClientTally total;
  std::vector<double> latencies;
  // The hog merges into the totals exactly like a client (its accepted
  // requests are in the finals map); only the per-client starvation check
  // below is limited to the blocking clients.
  std::vector<ClientTally> merged(tallies);
  merged.push_back(hog);
  for (const ClientTally& t : merged) {
    total.requests += t.requests;
    total.ok_complete += t.ok_complete;
    total.ok_partial += t.ok_partial;
    total.permanent_errors += t.permanent_errors;
    total.exhausted += t.exhausted;
    total.sheds_seen += t.sheds_seen;
    total.transients_seen += t.transients_seen;
    total.retried_to_success += t.retried_to_success;
    total.duplicate_finals += t.duplicate_finals;
    total.expired += t.expired;
    total.cache_served += t.cache_served;
    total.cache_bypassed += t.cache_bypassed;
    for (const auto& [kind, count] : t.error_kinds) {
      total.error_kinds[kind] += count;
    }
    latencies.insert(latencies.end(), t.latencies_ms.begin(),
                     t.latencies_ms.end());
  }
  const WhyNotService::Stats stats = service.stats();
  const double p50 = Percentile(latencies, 0.50);
  const double p99 = Percentile(latencies, 0.99);

  std::cout << "requests          : " << total.requests << "\n"
            << "  complete answers: " << total.ok_complete << "\n"
            << "  partial answers : " << total.ok_partial << "\n"
            << "  expired in queue: " << total.expired << "\n"
            << "  permanent errors: " << total.permanent_errors << "\n"
            << "  retried->success: " << total.retried_to_success << "\n"
            << "sheds encountered : " << total.sheds_seen << "\n"
            << "transients        : " << total.transients_seen << "\n"
            << "catalog reloads   : " << reloads.load() << "\n"
            << "poison            : finals=" << poison.finals
            << " executions=" << poison.executions
            << " fast_fails=" << poison.fast_fails
            << " expired=" << poison.expired << "\n"
            << "service: submitted=" << stats.submitted
            << " accepted=" << stats.accepted
            << " shed_queue=" << stats.shed_queue_full
            << " shed_mem=" << stats.shed_memory
            << " shed_quota=" << stats.shed_client_quota
            << " expired=" << stats.expired_in_queue
            << " completed=" << stats.completed
            << " transient_injected=" << stats.transient_failures << "\n"
            << "answer cache      : hits=" << stats.answer_cache_hits
            << " misses=" << stats.answer_cache_misses
            << " inserts=" << stats.answer_cache_inserts
            << " bypass=" << stats.answer_cache_bypass
            << " partial_not_cached=" << stats.partial_not_cached
            << " served=" << total.cache_served
            << " client_bypassed=" << total.cache_bypassed << "\n"
            << "subtree cache     : hits=" << service.subtree_cache_stats().hits
            << " misses=" << service.subtree_cache_stats().misses
            << " entries=" << service.subtree_cache_stats().entries
            << " bytes=" << service.subtree_cache_stats().bytes << "\n"
            << "latency ms        : p50=" << p50 << " p99=" << p99 << "\n";
  if (service.persistence_enabled()) {
    const ned::JournalStats js = service.journal_stats();
    const ned::AnswerStoreStats ss = service.answer_store_stats();
    std::cout << "journal           : appends=" << js.appends
              << " syncs=" << js.syncs << " bytes=" << js.bytes_written
              << " accepts=" << stats.journaled_accepts
              << " completes=" << stats.journaled_completes
              << " sheds=" << stats.journaled_sheds << "\n"
              << "answer store      : hits=" << stats.answer_store_hits
              << " misses=" << stats.answer_store_misses
              << " puts=" << stats.answer_store_puts
              << " entries_on_open=" << ss.entries_on_open
              << " corrupt_dropped=" << ss.corrupt_dropped << "\n";
  }
  if (StopRequested()) {
    // Interrupted run: the invariant battery assumes the chaos ran to its
    // horizon (e.g. "queue sheds must have happened"), which a signal at an
    // arbitrary point can't guarantee. The drain itself already asserted
    // what matters for an interrupt: in-flight finished, queued journaled.
    std::cout << "ned_stress: DRAINED (signal-interrupted; invariant battery "
                 "skipped)\n";
    return 0;
  }

  int failures = 0;
  auto fail = [&failures](const std::string& what) {
    std::cerr << "INVARIANT VIOLATED: " << what << "\n";
    ++failures;
  };
  if (total.duplicate_finals != 0) {
    fail(ned::StrCat(total.duplicate_finals,
                     " keys produced more than one final outcome"));
  }
  // No lost responses: every logical request got exactly one final outcome.
  {
    std::lock_guard<std::mutex> lock(finals_mu);
    if (finals.size() != total.requests) {
      fail(ned::StrCat("finals map has ", finals.size(), " keys for ",
                       total.requests, " requests"));
    }
  }
  // Every shed/transient request eventually succeeded through retry:
  // exhaustion means the backoff contract failed.
  if (total.exhausted != 0) {
    fail(ned::StrCat(total.exhausted, " requests exhausted their retries"));
  }
  // Admission control must actually be exercised: clients block on their own
  // requests, so whenever more clients than service capacity exist the queue
  // has to overflow at some point during the run.
  if (static_cast<size_t>(args.clients) >
          static_cast<size_t>(args.workers) + args.queue &&
      stats.shed_queue_full == 0) {
    fail(ned::StrCat("no queue sheds despite ", args.clients,
                     " clients against capacity ",
                     static_cast<size_t>(args.workers) + args.queue));
  }
  // Permanent errors should not occur: every case compiles by construction.
  if (total.permanent_errors != 0) {
    fail(ned::StrCat(total.permanent_errors, " permanent request errors"));
    for (const auto& [kind, count] : total.error_kinds) {
      std::cerr << "  " << count << "x " << kind << "\n";
    }
  }
  // Service books must balance: accepted requests all completed or failed
  // transiently (each transient is a separate accepted execution). Answer
  // cache hits are served at Submit without being accepted, so this holds
  // with the cache on -- exactly what this invariant now also audits.
  if (stats.accepted != stats.completed + stats.transient_failures) {
    fail(ned::StrCat("accepted=", stats.accepted, " != completed=",
                     stats.completed, " + transients=",
                     stats.transient_failures));
  }
  // Cache-served responses must be consistent between the service's books
  // and what the clients actually observed.
  if (total.cache_served != stats.answer_cache_hits) {
    fail(ned::StrCat("clients saw ", total.cache_served,
                     " cache-served responses but the service recorded ",
                     stats.answer_cache_hits, " answer-cache hits"));
  }
  // Every run must actually exercise the cached path: with half the
  // traffic cache-eligible and the case list repeating, zero hits means the
  // answer cache silently stopped serving.
  if (service.options().answer_cache_bytes > 0 &&
      stats.answer_cache_hits == 0) {
    fail("no answer-cache hits over the run");
  }
  // Bounded tail latency: an accepted request's end-to-end time is capped
  // by its deadline (queue wait included; background deadlines go to 2s);
  // allow scheduling + checkpoint overshoot slack. Tier hits never reach a
  // worker, so the samples are executed requests only.
  const double latency_bound_ms = 2000 + 500;
  if (p99 > latency_bound_ms) {
    fail(ned::StrCat("p99 latency ", p99, " ms exceeds bound ",
                     latency_bound_ms, " ms"));
  }
  if (total.requests == 0) fail("no requests completed");
  // No starvation: quotas and the priority queue may delay any
  // one client, but every client of every class must land answers.
  for (size_t i = 0; i < tallies.size(); ++i) {
    if (tallies[i].ok_complete + tallies[i].ok_partial == 0) {
      fail(ned::StrCat("client ", i, " (",
                       ned::PriorityName(static_cast<Priority>(i % 3)),
                       ") starved: zero answered requests"));
    }
  }
  // The hog's two-submission bursts guarantee in-flight overlap on the
  // "hot" id, so quota sheds must actually have fired (and the blocking
  // hot clients converged through them via retry).
  if (stats.shed_client_quota == 0) {
    fail("hot client was never quota-shed");
  }
  // Queue-expiry reconciliation: every expired final the service recorded
  // was observed by exactly one client (or the poison injector).
  if (total.expired + poison.expired != stats.expired_in_queue) {
    fail(ned::StrCat("clients saw ", total.expired + poison.expired,
                     " queue expiries but the service recorded ",
                     stats.expired_in_queue));
  }
  // The tier remembers each poison kind's error after its first execution,
  // so only an eviction from the memory half lets a kind execute again; the
  // rest fail fast.
  const uint64_t poison_execution_bound =
      kPoisonKinds + service.answer_cache_stats().evictions;
  if (poison.executions > poison_execution_bound) {
    fail(ned::StrCat("poison executed ", poison.executions,
                     " times, above the bound ", poison_execution_bound,
                     " (poison kinds + answer-tier evictions)"));
  }
  if (poison.unexpected_ok != 0) {
    fail(ned::StrCat(poison.unexpected_ok, " poison requests returned OK"));
  }
  if (poison.exhausted != 0) {
    fail(ned::StrCat(poison.exhausted, " poison requests exhausted retries"));
  }
  // Clients never fail permanently (their cases compile; transients and
  // resource limits are never remembered), so the service's fast-fail count
  // must reconcile exactly with what the poison injector saw.
  if (stats.breaker_fast_fails != poison.fast_fails) {
    fail(ned::StrCat("service recorded ", stats.breaker_fast_fails,
                     " remembered-error fast-fails but the poison injector "
                     "saw ", poison.fast_fails));
  }

  if (failures == 0) {
    std::cout << "ned_stress: PASS (zero crashes, exactly-once responses, "
                 "all retries converged, p99 bounded, no starvation, "
                 "answer tier served, poison bounded)\n";
    return 0;
  }
  std::cerr << "ned_stress: FAIL (" << failures << " violations)\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  return Run(args);
}
