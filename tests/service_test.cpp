/// \file service_test.cpp
/// \brief The concurrent why-not service: admission control, priority
/// scheduling with fair-share quotas, queue expiry, snapshot isolation,
/// deadline cancellation, retry/backoff, exactly-once responses and the
/// compiled-plan memo.
///
/// Time-driven behaviour (queue expiry, deadlines) is tested against an
/// injected ManualClock, so those tests assert on exact instants instead of
/// sleeping.
///
/// Built with -DNED_TSAN=ON these tests double as the ThreadSanitizer audit
/// of the shared ExecContext state (atomic cancellation/step counters) and
/// the service's queue/watchdog/catalog locking.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/atomic_file.h"
#include "common/rng.h"
#include "common/strings.h"
#include "obs/expose.h"
#include "relational/catalog.h"
#include "service/retry.h"
#include "service/service.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "tests/test_util.h"

namespace ned {
namespace {

using testing::MakeTinyDb;
using testing::RemoveTree;

/// Two `n`-row relations whose cross join is the service's slow request:
/// n*n joined rows, every row compatible, so early termination cannot help.
Database MakeCrossJoinDb(int n) {
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

std::shared_ptr<Catalog> MakeCatalog() {
  auto catalog = std::make_shared<Catalog>();
  NED_CHECK(catalog->Register("tiny", MakeTinyDb()).ok());
  NED_CHECK(catalog->Register("big", MakeCrossJoinDb(1500)).ok());
  return catalog;
}

WhyNotRequest TinyRequest(const std::string& key) {
  WhyNotRequest req;
  req.key = key;
  req.db_name = "tiny";
  req.sql = "SELECT R.v FROM R, S WHERE R.k = S.k";
  CTuple tc;
  tc.Add("R.v", Value::Str("c"));
  req.question = WhyNotQuestion(tc);
  return req;
}

/// A request that cannot finish inside its deadline: the service must come
/// back with a flagged partial answer instead.
WhyNotRequest SlowRequest(const std::string& key, int64_t deadline_ms) {
  WhyNotRequest req;
  req.key = key;
  req.db_name = "big";
  req.sql = "SELECT R.a FROM R, S WHERE R.a >= 0";
  CTuple tc;
  tc.Add("R.a", Value::Int(0));  // compatible: the join must materialise
  req.question = WhyNotQuestion(tc);
  req.deadline_ms = deadline_ms;
  return req;
}

// ---- ExecContext under concurrency (the TSan audit target) -----------------

TEST(ExecContextConcurrency, CancelAndCountersRaceFree) {
  ExecContext ctx;
  std::atomic<bool> done{false};
  // A monitoring thread reads counters and eventually cancels, as Drain
  // does; the main thread hammers the hot checkpoint path.
  std::thread watchdog([&] {
    while (!done.load()) {
      (void)ctx.steps();
      (void)ctx.rows_charged();
      (void)ctx.bytes_charged();
      if (ctx.steps() > 50) ctx.RequestCancel();
      std::this_thread::yield();
    }
  });
  Status st = Status::OK();
  for (int i = 0; i < 5'000'000 && st.ok(); ++i) {
    ctx.ChargeRows(1);
    ctx.ChargeBytes(8);
    st = ctx.CheckEvery();
  }
  done.store(true);
  watchdog.join();
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
}

// ---- basic serving ---------------------------------------------------------

TEST(Service, ServesASimpleRequest) {
  ServiceOptions options;
  options.workers = 2;
  WhyNotService service(MakeCatalog(), options);
  auto sub = service.Submit(TinyRequest("r1"));
  ASSERT_TRUE(sub.status.ok()) << sub.status.ToString();
  WhyNotResponse resp = sub.response.get();
  EXPECT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_TRUE(resp.answer.complete);
  EXPECT_FALSE(resp.answer.condensed.empty());
  EXPECT_EQ(resp.key, "r1");
  EXPECT_EQ(resp.snapshot_version, 1u);
  EXPECT_EQ(resp.attempt, 1);
  service.Shutdown();
  EXPECT_EQ(service.stats().completed, 1u);
}

TEST(Service, BadSqlAndUnknownDbAreContainedPerRequest) {
  WhyNotService service(MakeCatalog(), {});
  // Unknown database: permanent rejection at admission.
  WhyNotRequest bad_db = TinyRequest("bad-db");
  bad_db.db_name = "nope";
  auto sub = service.Submit(bad_db);
  EXPECT_EQ(sub.status.code(), StatusCode::kNotFound);
  // Broken SQL: contained failure response; the worker survives.
  WhyNotRequest bad_sql = TinyRequest("bad-sql");
  bad_sql.sql = "SELEC nonsense FROM";
  auto sub2 = service.Submit(bad_sql);
  ASSERT_TRUE(sub2.status.ok());
  WhyNotResponse resp = sub2.response.get();
  EXPECT_FALSE(resp.status.ok());
  EXPECT_FALSE(resp.retryable());
  // The same service still serves good requests afterwards.
  auto sub3 = service.Submit(TinyRequest("good"));
  ASSERT_TRUE(sub3.status.ok());
  EXPECT_TRUE(sub3.response.get().status.ok());
}

// ---- deadline enforcement --------------------------------------------------

TEST(Service, DeadlineCancelsMidEvaluation) {
  ServiceOptions options;
  options.workers = 1;
  WhyNotService service(MakeCatalog(), options);
  auto start = std::chrono::steady_clock::now();
  auto sub = service.Submit(SlowRequest("slow", 50));
  ASSERT_TRUE(sub.status.ok());
  WhyNotResponse resp = sub.response.get();
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_FALSE(resp.answer.complete);
  EXPECT_EQ(resp.answer.tripped, StatusCode::kDeadlineExceeded)
      << StatusCodeName(resp.answer.tripped);
  EXPECT_LT(elapsed.count(), 2000);
}

// ---- admission control -----------------------------------------------------

TEST(Service, OverloadShedsAtPinnedQueueWatermark) {
  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 2;
  WhyNotService service(MakeCatalog(), options);
  // One running + two queued slow requests pin the service at capacity.
  std::vector<std::shared_future<WhyNotResponse>> futures;
  std::vector<WhyNotService::Submission> accepted;
  for (int i = 0; i < 8; ++i) {
    auto sub = service.Submit(SlowRequest(StrCat("blk", i), 300));
    if (sub.status.ok()) futures.push_back(sub.response);
    accepted.push_back(std::move(sub));
  }
  // With 1 worker and queue 2, at most 3 can be in flight; the rest must be
  // shed with a retryable status and a positive suggested backoff.
  size_t shed = 0;
  for (const auto& sub : accepted) {
    if (sub.status.ok()) continue;
    ++shed;
    EXPECT_EQ(sub.status.code(), StatusCode::kUnavailable);
    EXPECT_GT(sub.retry_after_ms, 0);
  }
  EXPECT_GE(shed, 5u);
  EXPECT_LE(service.queue_depth(), options.queue_capacity);
  for (auto& f : futures) f.get();
  service.Shutdown();
  const auto stats = service.stats();
  EXPECT_EQ(stats.shed_queue_full, shed);
  EXPECT_EQ(stats.accepted, futures.size());
  EXPECT_EQ(stats.completed, futures.size());
}

// ---- snapshot isolation ----------------------------------------------------

TEST(Service, SnapshotIsolationAcrossConcurrentReload) {
  auto catalog = MakeCatalog();
  ServiceOptions options;
  options.workers = 1;
  WhyNotService service(catalog, options);
  // Occupy the single worker so the target request sits queued across the
  // reload; its snapshot was pinned at admission.
  auto blocker = service.Submit(SlowRequest("blocker", 150));
  ASSERT_TRUE(blocker.status.ok());
  auto target = service.Submit(TinyRequest("target"));
  ASSERT_TRUE(target.status.ok());
  // Reload R so that the question's value exists: under the *new* snapshot
  // the why-not answer would change shape entirely.
  NED_CHECK(catalog
                ->ReloadCsv("tiny", "R",
                            "id,k,v\n1,10,c\n2,10,c\n3,10,c\n")
                .ok());
  EXPECT_EQ(catalog->VersionOf("tiny"), 2u);
  WhyNotResponse resp = target.response.get();
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  // Ran after the reload, against the version-1 snapshot.
  EXPECT_EQ(resp.snapshot_version, 1u);
  EXPECT_FALSE(resp.answer.condensed.empty());
  // A fresh submission sees version 2, where R.v = 'c' rows flow to the
  // join: the selection-free query now yields survivors, answered by data.
  auto post = service.Submit(TinyRequest("post-reload"));
  ASSERT_TRUE(post.status.ok());
  WhyNotResponse resp2 = post.response.get();
  ASSERT_TRUE(resp2.status.ok()) << resp2.status.ToString();
  EXPECT_EQ(resp2.snapshot_version, 2u);
  EXPECT_NE(resp.answer.ToString(), resp2.answer.ToString());
}

// ---- retry / idempotency ---------------------------------------------------

TEST(Service, RetryUntilSuccessUnderInjectedTransientFaults) {
  WhyNotService service(MakeCatalog(), {});
  WhyNotRequest req = TinyRequest("flaky");
  req.inject_transient_failures = 3;
  req.seed = 42;
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.initial_backoff_ms = 1;
  RetryOutcome outcome = SubmitWithRetry(service, req, policy);
  EXPECT_FALSE(outcome.exhausted);
  EXPECT_TRUE(outcome.response.status.ok())
      << outcome.response.status.ToString();
  EXPECT_EQ(outcome.transients, 3);
  EXPECT_EQ(outcome.attempts, 4);
  EXPECT_EQ(outcome.response.attempt, 4);  // attempts span retries, per key
  EXPECT_TRUE(outcome.response.answer.complete);
  service.Shutdown();
  EXPECT_EQ(service.stats().transient_failures, 3u);
}

TEST(Service, RetryGivesUpAfterMaxAttempts) {
  WhyNotService service(MakeCatalog(), {});
  WhyNotRequest req = TinyRequest("always-flaky");
  req.inject_transient_failures = 100;
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 1;
  policy.max_backoff_ms = 2;
  RetryOutcome outcome = SubmitWithRetry(service, req, policy);
  EXPECT_TRUE(outcome.exhausted);
  EXPECT_EQ(outcome.attempts, 3);
  EXPECT_EQ(outcome.response.status.code(), StatusCode::kUnavailable);
}

TEST(Service, RetryJitterIsDeterministicPerRequestSeed) {
  RetryPolicy policy;
  Rng a(MixSeed(7, HashSeed("key-1")));
  Rng b(MixSeed(7, HashSeed("key-1")));
  Rng c(MixSeed(7, HashSeed("key-2")));
  bool differs = false;
  for (int attempt = 1; attempt <= 5; ++attempt) {
    const int64_t ba = BackoffMs(policy, attempt, 0, a);
    const int64_t bb = BackoffMs(policy, attempt, 0, b);
    EXPECT_EQ(ba, bb);  // same request -> same schedule
    if (ba != BackoffMs(policy, attempt, 0, c)) differs = true;
  }
  EXPECT_TRUE(differs);  // different keys de-synchronize
}

TEST(Service, IdempotentKeysDedupAndServeFromCache) {
  ServiceOptions options;
  options.workers = 1;
  WhyNotService service(MakeCatalog(), options);
  // Concurrent duplicates coalesce onto one execution.
  auto blocker = service.Submit(SlowRequest("blocker", 120));
  auto first = service.Submit(TinyRequest("dup"));
  auto second = service.Submit(TinyRequest("dup"));
  ASSERT_TRUE(first.status.ok());
  ASSERT_TRUE(second.status.ok());
  EXPECT_FALSE(first.deduped);
  EXPECT_TRUE(second.deduped);
  WhyNotResponse r1 = first.response.get();
  WhyNotResponse r2 = second.response.get();
  EXPECT_EQ(r1.answer.ToString(), r2.answer.ToString());
  // A duplicate after completion re-serves from cache without executing.
  const uint64_t completed_before = service.stats().completed;
  auto third = service.Submit(TinyRequest("dup"));
  ASSERT_TRUE(third.status.ok());
  EXPECT_TRUE(third.deduped);
  EXPECT_EQ(third.response.get().answer.ToString(), r1.answer.ToString());
  blocker.response.get();
  service.Shutdown();
  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, completed_before);
  EXPECT_EQ(stats.deduped_inflight, 1u);
  EXPECT_EQ(stats.served_from_cache, 1u);
}

TEST(Service, KnownKeyIsServedBeforeItsSnapshotIsPinned) {
  ServiceOptions options;
  options.workers = 1;
  WhyNotService service(MakeCatalog(), options);
  WhyNotRequest fresh = TinyRequest("fresh");
  fresh.db_name = "no-such-db";
  EXPECT_EQ(service.Submit(fresh).status.code(), StatusCode::kNotFound);

  // A completed key re-serves its response even when the resubmission
  // names a database that does not exist: the known key wins over the pin.
  const WhyNotResponse original =
      service.Submit(TinyRequest("k")).response.get();
  ASSERT_TRUE(original.status.ok()) << original.status.ToString();
  const auto before = service.stats();
  WhyNotRequest lost = TinyRequest("k");
  lost.db_name = "no-such-db";
  auto again = service.Submit(lost);
  ASSERT_TRUE(again.status.ok()) << again.status.ToString();
  EXPECT_TRUE(again.deduped);
  const WhyNotResponse replay = again.response.get();
  EXPECT_EQ(replay.key, "k");
  EXPECT_EQ(replay.attempt, original.attempt);
  EXPECT_EQ(replay.snapshot_version, original.snapshot_version);
  EXPECT_EQ(replay.answer.ToString(), original.answer.ToString());
  EXPECT_EQ(service.stats().accepted, before.accepted);
  EXPECT_EQ(service.stats().completed, before.completed);

  // An in-flight key attaches to the running job the same way.
  auto slow = service.Submit(SlowRequest("slow", 300));
  ASSERT_TRUE(slow.status.ok()) << slow.status.ToString();
  while (service.queue_depth() != 0) std::this_thread::yield();
  WhyNotRequest lost_slow = SlowRequest("slow", 300);
  lost_slow.db_name = "no-such-db";
  auto attached = service.Submit(lost_slow);
  ASSERT_TRUE(attached.status.ok()) << attached.status.ToString();
  EXPECT_TRUE(attached.deduped);
  const WhyNotResponse ran = slow.response.get();
  const WhyNotResponse shared = attached.response.get();
  EXPECT_EQ(shared.key, "slow");
  EXPECT_EQ(shared.attempt, ran.attempt);
  EXPECT_EQ(shared.snapshot_version, ran.snapshot_version);
  EXPECT_EQ(shared.answer.ToString(), ran.answer.ToString());
  service.Shutdown();
  const auto stats = service.stats();
  EXPECT_EQ(stats.accepted, before.accepted + 1);
  EXPECT_EQ(stats.deduped_inflight, 1u);
  EXPECT_EQ(stats.served_from_cache, 1u);
}

// ---- shutdown --------------------------------------------------------------

TEST(Service, ShutdownWithInFlightRequestsLosesNothing) {
  ServiceOptions options;
  options.workers = 2;
  options.queue_capacity = 32;
  WhyNotService service(MakeCatalog(), options);
  std::vector<std::shared_future<WhyNotResponse>> futures;
  for (int i = 0; i < 10; ++i) {
    auto sub = service.Submit(SlowRequest(StrCat("s", i), 5000));
    ASSERT_TRUE(sub.status.ok());
    futures.push_back(sub.response);
  }
  // Give the workers a moment to pick some up, then stop without running
  // the queue: Drain(0) cancels running requests at once and fails queued
  // ones.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  service.Drain(0);
  size_t answered = 0, failed = 0;
  for (auto& f : futures) {
    WhyNotResponse resp = f.get();  // must never hang: nothing is lost
    if (resp.status.ok()) {
      ++answered;
      EXPECT_FALSE(resp.answer.complete);  // cancelled mid-run -> partial
    } else {
      EXPECT_EQ(resp.status.code(), StatusCode::kUnavailable);
      ++failed;
    }
  }
  EXPECT_EQ(answered + failed, futures.size());
  // Post-shutdown submissions are rejected, not lost.
  auto late = service.Submit(TinyRequest("late"));
  EXPECT_EQ(late.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.stats().rejected_shutdown, 1u);
}

TEST(Service, DrainShutdownCompletesQueuedWork) {
  ServiceOptions options;
  options.workers = 1;
  // The point is that every queued request *executes* at drain; with the
  // answer cache on, identical requests behind a fast first completion
  // could legitimately be served at Submit instead of queuing.
  options.answer_cache_bytes = 0;
  WhyNotService service(MakeCatalog(), options);
  std::vector<std::shared_future<WhyNotResponse>> futures;
  for (int i = 0; i < 4; ++i) {
    auto sub = service.Submit(TinyRequest(StrCat("d", i)));
    ASSERT_TRUE(sub.status.ok());
    futures.push_back(sub.response);
  }
  service.Shutdown();
  for (auto& f : futures) {
    WhyNotResponse resp = f.get();
    EXPECT_TRUE(resp.status.ok()) << resp.status.ToString();
    EXPECT_TRUE(resp.answer.complete);
  }
  EXPECT_EQ(service.stats().completed, 4u);
}

// ---- exactly-once under concurrent chaos -----------------------------------

TEST(Service, ConcurrentMixedLoadDeliversExactlyOnce) {
  ServiceOptions options;
  options.workers = 4;
  options.queue_capacity = 8;
  WhyNotService service(MakeCatalog(), options);
  constexpr int kClients = 6;
  constexpr int kPerClient = 20;
  std::atomic<uint64_t> finals{0}, failures{0}, exhausted{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(MixSeed(99, static_cast<uint64_t>(c)));
      RetryPolicy policy;
      policy.max_attempts = 50;
      policy.initial_backoff_ms = 1;
      policy.max_backoff_ms = 20;
      for (int i = 0; i < kPerClient; ++i) {
        WhyNotRequest req = TinyRequest(StrCat("x", c, "-", i));
        req.seed = rng.Next();
        if (rng.Chance(0.3)) {
          req.inject_fault_at_step =
              static_cast<uint64_t>(rng.UniformInt(1, 50));
        }
        if (rng.Chance(0.3)) {
          req.inject_transient_failures =
              static_cast<int>(rng.UniformInt(1, 2));
        }
        RetryOutcome outcome = SubmitWithRetry(service, req, policy);
        finals.fetch_add(1);
        if (outcome.exhausted) exhausted.fetch_add(1);
        if (!outcome.exhausted && !outcome.response.status.ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  service.Shutdown();
  EXPECT_EQ(finals.load(), static_cast<uint64_t>(kClients * kPerClient));
  EXPECT_EQ(exhausted.load(), 0u);
  EXPECT_EQ(failures.load(), 0u);
  const auto stats = service.stats();
  EXPECT_EQ(stats.accepted, stats.completed + stats.transient_failures);
}

// ---- priority scheduling / fair share --------------------------------------

/// Blocks until the worker pool has popped everything queued, so requests
/// submitted afterwards deterministically queue behind the running blocker
/// instead of racing it for a worker.
void WaitForEmptyQueue(const WhyNotService& service) {
  while (service.queue_depth() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(Scheduling, InteractiveOvertakesBatchOvertakesBackground) {
  ServiceOptions options;
  options.workers = 1;
  WhyNotService service(MakeCatalog(), options);
  // Pin the single worker, then enqueue in *reverse* priority order: FIFO
  // would serve background first, the priority scheduler must not.
  auto blocker = service.Submit(SlowRequest("blk", 300));
  ASSERT_TRUE(blocker.status.ok());
  WaitForEmptyQueue(service);
  WhyNotRequest bg = TinyRequest("bg");
  bg.priority = Priority::kBackground;
  WhyNotRequest bt = TinyRequest("bt");
  bt.priority = Priority::kBatch;
  WhyNotRequest it = TinyRequest("it");
  it.priority = Priority::kInteractive;
  auto sub_bg = service.Submit(std::move(bg));
  auto sub_bt = service.Submit(std::move(bt));
  auto sub_it = service.Submit(std::move(it));
  ASSERT_TRUE(sub_bg.status.ok());
  ASSERT_TRUE(sub_bt.status.ok());
  ASSERT_TRUE(sub_it.status.ok());
  WhyNotResponse r_bg = sub_bg.response.get();
  WhyNotResponse r_bt = sub_bt.response.get();
  WhyNotResponse r_it = sub_it.response.get();
  ASSERT_TRUE(r_bg.status.ok());
  ASSERT_TRUE(r_bt.status.ok());
  ASSERT_TRUE(r_it.status.ok());
  // Dispatch order is execution-start order, and queue_ms measures exactly
  // submit -> dispatch: strict class priority must invert submission order.
  EXPECT_LT(r_it.queue_ms, r_bt.queue_ms);
  EXPECT_LT(r_bt.queue_ms, r_bg.queue_ms);
  blocker.response.get();
  service.Shutdown();
}

TEST(Scheduling, FairShareQuotaShedsOnlyTheHotClient) {
  ServiceOptions options;
  options.workers = 1;
  options.per_client_limit = 2;
  WhyNotService service(MakeCatalog(), options);
  WhyNotRequest blocker = SlowRequest("blk", 300);
  blocker.client_id = "hot";
  auto blk = service.Submit(std::move(blocker));
  ASSERT_TRUE(blk.status.ok());
  WaitForEmptyQueue(service);
  WhyNotRequest h1 = TinyRequest("h1");
  h1.client_id = "hot";
  auto sub_h1 = service.Submit(std::move(h1));
  ASSERT_TRUE(sub_h1.status.ok());
  EXPECT_EQ(service.client_occupancy("hot"), 2u);
  // Third admitted-but-unfinished request from "hot" breaches its quota:
  // shed retryably, while a cold client still gets in.
  WhyNotRequest h2 = TinyRequest("h2");
  h2.client_id = "hot";
  auto sub_h2 = service.Submit(std::move(h2));
  EXPECT_EQ(sub_h2.status.code(), StatusCode::kUnavailable);
  EXPECT_GT(sub_h2.retry_after_ms, 0);
  WhyNotRequest c1 = TinyRequest("c1");
  c1.client_id = "cold";
  auto sub_c1 = service.Submit(std::move(c1));
  ASSERT_TRUE(sub_c1.status.ok());
  EXPECT_EQ(service.client_occupancy("cold"), 1u);
  blk.response.get();
  sub_h1.response.get();
  sub_c1.response.get();
  service.Shutdown();
  EXPECT_EQ(service.client_occupancy("hot"), 0u);
  EXPECT_EQ(service.client_occupancy("cold"), 0u);
  const auto stats = service.stats();
  EXPECT_EQ(stats.shed_client_quota, 1u);
  EXPECT_EQ(stats.accepted, stats.completed);
}

// ---- queue expiry under an injected clock ----------------------------------

TEST(Scheduling, QueueExpiryFailsFastAtTheExactInjectedInstant) {
  ManualClock clock;
  ServiceOptions options;
  options.workers = 1;
  options.clock = &clock;
  WhyNotService service(MakeCatalog(), options);
  // The blocker's 500ms deadline is *manual* time: it cannot trip until the
  // clock is advanced, so the worker stays pinned.
  auto blk = service.Submit(SlowRequest("blk", 500));
  ASSERT_TRUE(blk.status.ok());
  WaitForEmptyQueue(service);
  WhyNotRequest target = TinyRequest("target");
  target.deadline_ms = 20;
  auto sub = service.Submit(std::move(target));
  ASSERT_TRUE(sub.status.ok());
  // 30ms of manual time pass: the target's deadline has now expired in the
  // queue and the watchdog must fail it fast -- no worker ever ran it.
  clock.AdvanceMs(30);
  WhyNotResponse resp = sub.response.get();
  EXPECT_EQ(resp.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(resp.expired_in_queue);
  EXPECT_EQ(resp.attempt, 0);  // never dispatched
  EXPECT_GE(resp.queue_ms, 20.0);
  // Now let the blocker's own deadline pass; its next checkpoint trips and
  // it resolves as an honest partial.
  clock.AdvanceMs(500);
  WhyNotResponse blocked = blk.response.get();
  ASSERT_TRUE(blocked.status.ok()) << blocked.status.ToString();
  service.Shutdown();
  const auto stats = service.stats();
  EXPECT_EQ(stats.expired_in_queue, 1u);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.completed, 2u);  // expiry is final: the books balance
}

// ---- retry: cross-attempt budget + priority-aware backoff ------------------

TEST(Retry, OverallDeadlineBoundsTheWholeRetrySession) {
  WhyNotService service(MakeCatalog(), {});
  WhyNotRequest req = TinyRequest("budget");
  req.inject_transient_failures = 100;  // never succeeds
  RetryPolicy policy;
  policy.max_attempts = 50;
  policy.initial_backoff_ms = 5;
  policy.max_backoff_ms = 10;
  policy.jitter = 0;
  policy.overall_deadline_ms = 60;
  const auto start = std::chrono::steady_clock::now();
  RetryOutcome outcome = SubmitWithRetry(service, req, policy);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  // The budget, not max_attempts, ended the session -- with a clean
  // kDeadlineExceeded, not a retry-me kUnavailable.
  EXPECT_TRUE(outcome.deadline_exhausted);
  EXPECT_FALSE(outcome.exhausted);
  EXPECT_EQ(outcome.response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(outcome.attempts, 2);
  EXPECT_LT(outcome.attempts, 50);
  EXPECT_LT(elapsed.count(), 2000);
  service.Shutdown();
}

TEST(Retry, PriorityAwareBackoffStretchesWeakerClasses) {
  WhyNotService service(MakeCatalog(), {});
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 8;
  policy.multiplier = 1.0;
  policy.max_backoff_ms = 8;
  policy.jitter = 0;
  policy.priority_aware_backoff = true;
  WhyNotRequest interactive = TinyRequest("pb-i");
  interactive.inject_transient_failures = 100;
  WhyNotRequest background = TinyRequest("pb-bg");
  background.priority = Priority::kBackground;
  background.inject_transient_failures = 100;
  RetryOutcome oi = SubmitWithRetry(service, interactive, policy);
  RetryOutcome obg = SubmitWithRetry(service, background, policy);
  EXPECT_TRUE(oi.exhausted);
  EXPECT_TRUE(obg.exhausted);
  // Two sleeps of 8ms each, deterministic (jitter 0, multiplier 1):
  // background pays exactly the 4x class factor.
  EXPECT_EQ(oi.backoff_total_ms, 16);
  EXPECT_EQ(obg.backoff_total_ms, 64);
  service.Shutdown();
}

// ---- catalog reload atomicity, as seen from the service --------------------

TEST(Service, KeepsServingIdenticallyAcrossAFailedReload) {
  auto catalog = MakeCatalog();
  WhyNotService service(catalog, {});
  WhyNotRequest before = TinyRequest("before");
  before.bypass_answer_cache = true;
  auto sub1 = service.Submit(std::move(before));
  ASSERT_TRUE(sub1.status.ok());
  WhyNotResponse r1 = sub1.response.get();
  ASSERT_TRUE(r1.status.ok());
  EXPECT_EQ(r1.snapshot_version, 1u);
  // A reload that fails mid-parse must be a no-op: ReloadCsv builds the new
  // snapshot off to the side and publishes only on success.
  Status bad = catalog->ReloadCsv("tiny", "R", "id,k,v\n1,\"open\n");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(catalog->VersionOf("tiny"), 1u);
  WhyNotRequest after = TinyRequest("after");
  after.bypass_answer_cache = true;
  auto sub2 = service.Submit(std::move(after));
  ASSERT_TRUE(sub2.status.ok());
  WhyNotResponse r2 = sub2.response.get();
  ASSERT_TRUE(r2.status.ok());
  EXPECT_EQ(r2.snapshot_version, 1u);
  EXPECT_EQ(r2.answer.ToString(), r1.answer.ToString());
  service.Shutdown();
}

// ---- the compiled-plan memo -------------------------------------------------

/// TinyRequest's SQL asking why R.v = `value` is missing, past the answer
/// tier, so that every submission executes.
WhyNotRequest TinyQuestion(const std::string& key, const std::string& value) {
  WhyNotRequest req = TinyRequest(key);
  CTuple tc;
  tc.Add("R.v", Value::Str(value));
  req.question = WhyNotQuestion(tc);
  req.bypass_answer_cache = true;
  return req;
}

WhyNotResponse Await(WhyNotService* service, WhyNotRequest req) {
  auto sub = service->Submit(std::move(req));
  NED_CHECK(sub.status.ok());
  return sub.response.get();
}

std::string AnswerOf(WhyNotService* service, WhyNotRequest req) {
  WhyNotResponse resp = Await(service, std::move(req));
  EXPECT_TRUE(resp.status.ok()) << resp.status.ToString();
  return resp.answer.ToString();
}

TEST(PlanCache, RepeatedSqlOnOneSnapshotCompilesOnce) {
  WhyNotService service(MakeCatalog(), {});
  const std::vector<std::string> values = {"c", "d", "c", "d"};
  std::vector<std::string> answers;
  for (size_t i = 0; i < values.size(); ++i) {
    answers.push_back(
        AnswerOf(&service, TinyQuestion(StrCat("q", i), values[i])));
    EXPECT_EQ(service.stats().plan_cache_misses, 1u);
    EXPECT_EQ(service.stats().plan_cache_hits, i);
  }
  EXPECT_NE(answers[0], answers[1]);
  // Each answer equals one from a service that compiled for it alone.
  for (size_t i = 0; i < values.size(); ++i) {
    WhyNotService fresh(MakeCatalog(), {});
    EXPECT_EQ(AnswerOf(&fresh, TinyQuestion("fresh", values[i])), answers[i]);
    EXPECT_EQ(fresh.stats().plan_cache_hits, 0u);
  }
}

TEST(PlanCache, ReloadThatChangesASchemaRecompiles) {
  auto catalog = MakeCatalog();
  WhyNotService service(catalog, {});
  ASSERT_FALSE(AnswerOf(&service, TinyQuestion("v1", "c")).empty());
  // R loses column v and gains column u.
  ASSERT_TRUE(
      catalog->ReloadCsv("tiny", "R", "id,k,u\n1,10,a\n2,10,b\n3,20,c\n")
          .ok());
  // The text names the dropped column: it fails with the binder's error
  // against the new schema, not with the plan compiled for version 1.
  WhyNotResponse dropped = Await(&service, TinyQuestion("v2", "c"));
  EXPECT_EQ(dropped.snapshot_version, 2u);
  auto ast = ParseSql(TinyRequest("x").sql);
  ASSERT_TRUE(ast.ok());
  const Status bind = BindSql(*ast, *catalog->GetSnapshot("tiny")->db).status();
  ASSERT_FALSE(bind.ok());
  EXPECT_EQ(dropped.status.ToString(), bind.ToString());
  // A text naming the new column compiles and is answered.
  WhyNotRequest added = TinyRequest("u");
  added.sql = "SELECT R.u FROM R, S WHERE R.k = S.k";
  CTuple tc;
  tc.Add("R.u", Value::Str("c"));
  added.question = WhyNotQuestion(tc);
  added.bypass_answer_cache = true;
  WhyNotResponse answered = Await(&service, std::move(added));
  EXPECT_TRUE(answered.status.ok()) << answered.status.ToString();
  EXPECT_EQ(answered.snapshot_version, 2u);
  EXPECT_EQ(service.stats().plan_cache_misses, 3u);
  EXPECT_EQ(service.stats().plan_cache_hits, 0u);
}

TEST(PlanCache, FailedCompilesAreNotRemembered) {
  WhyNotService service(MakeCatalog(), {});
  std::vector<std::string> errors;
  for (int i = 0; i < 2; ++i) {
    WhyNotRequest bad = TinyQuestion(StrCat("bad", i), "c");
    bad.sql = "SELECT R.nope FROM R";
    WhyNotResponse resp = Await(&service, std::move(bad));
    EXPECT_FALSE(resp.status.ok());
    errors.push_back(resp.status.ToString());
    EXPECT_EQ(service.stats().plan_cache_misses, static_cast<uint64_t>(i + 1));
  }
  EXPECT_EQ(errors[0], errors[1]);
  EXPECT_EQ(service.stats().plan_cache_hits, 0u);
}

TEST(PlanCache, OlderPinnedSnapshotCompilesWithoutEvictingNewerPlans) {
  auto catalog = MakeCatalog();
  ServiceOptions options;
  options.workers = 1;
  WhyNotService service(catalog, options);
  // The one worker is busy while `old` (pinned to version 1, background
  // priority) and `current` (version 2, interactive) queue up, so the
  // version-2 plan is compiled first.
  auto blocker = service.Submit(SlowRequest("blocker", 150));
  ASSERT_TRUE(blocker.status.ok());
  WhyNotRequest old_req = TinyQuestion("old", "c");
  old_req.priority = Priority::kBackground;
  auto old_sub = service.Submit(std::move(old_req));
  ASSERT_TRUE(old_sub.status.ok());
  ASSERT_TRUE(
      catalog->ReloadCsv("tiny", "S", "id,k,w\n1,10,x\n2,20,y\n").ok());
  auto current = service.Submit(TinyQuestion("current", "c"));
  ASSERT_TRUE(current.status.ok());
  EXPECT_EQ(current.response.get().snapshot_version, 2u);
  WhyNotResponse old_resp = old_sub.response.get();
  ASSERT_TRUE(old_resp.status.ok()) << old_resp.status.ToString();
  EXPECT_EQ(old_resp.snapshot_version, 1u);
  (void)blocker.response.get();
  // blocker, current and old each missed; the version-2 plan survived old's
  // compile, so a second version-2 request hits it.
  EXPECT_EQ(service.stats().plan_cache_misses, 3u);
  EXPECT_EQ(AnswerOf(&service, TinyQuestion("again", "c")),
            current.response.get().answer.ToString());
  EXPECT_EQ(service.stats().plan_cache_hits, 1u);
}

TEST(PlanCache, ConcurrentSubmitsShareOnePlanSafely) {
  std::string reference;
  {
    WhyNotService fresh(MakeCatalog(), {});
    reference = AnswerOf(&fresh, TinyQuestion("reference", "c"));
  }
  WhyNotService service(MakeCatalog(), {});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        WhyNotResponse resp =
            Await(&service, TinyQuestion(StrCat("c", t, "-", i), "c"));
        if (!resp.status.ok() || resp.answer.ToString() != reference) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Concurrent misses may each compile, so only the total is exact.
  const auto stats = service.stats();
  EXPECT_GE(stats.plan_cache_misses, 1u);
  EXPECT_EQ(stats.plan_cache_hits + stats.plan_cache_misses,
            static_cast<uint64_t>(kThreads * kPerThread));
  service.Shutdown();
}

// ---- drain-vs-shutdown contract (the durable half lives in persist_test) ---

TEST(Durability, DrainContractAndIdempotentRecover) {
  const std::string dir = ::testing::TempDir() + "service_test_drain";
  RemoveTree(dir);
  ASSERT_TRUE(EnsureDir(dir).ok());

  // Phase 1: a pinned worker (blocker on manual time) plus one queued
  // request, then Drain. The contract: the running request is allowed to
  // finish (cancelled at the deadline into an honest partial, COMPLETE-
  // journaled), the queued one resolves retryably with its journal ACCEPT
  // left open for the next start.
  {
    ManualClock clock;
    ServiceOptions options;
    options.workers = 1;
    options.clock = &clock;
    options.persist_dir = dir;
    WhyNotService service(MakeCatalog(), options);
    auto blk = service.Submit(SlowRequest("blk", 500));
    ASSERT_TRUE(blk.status.ok());
    WaitForEmptyQueue(service);
    auto q = service.Submit(TinyRequest("q1"));
    ASSERT_TRUE(q.status.ok());
    EXPECT_EQ(service.stats().journaled_accepts, 2u);

    // Drain polls on real time but reads its deadline from the injected
    // clock: advance manual time from the side until the cancel rung fires.
    std::atomic<bool> drained{false};
    std::thread advancer([&] {
      while (!drained.load()) {
        clock.AdvanceMs(5);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    const WhyNotService::DrainReport report = service.Drain(/*deadline_ms=*/40);
    drained.store(true);
    advancer.join();

    EXPECT_EQ(report.completed_inflight, 1u);  // the blocker was running
    EXPECT_EQ(report.journaled_queued, 1u);    // q1 never reached a worker
    EXPECT_EQ(report.cancelled, 1u);  // the deadline rung stopped the blocker

    WhyNotResponse qr = q.response.get();
    EXPECT_EQ(qr.status.code(), StatusCode::kUnavailable);
    WhyNotResponse br = blk.response.get();
    ASSERT_TRUE(br.status.ok()) << br.status.ToString();
    EXPECT_FALSE(br.answer.complete);  // honest partial, not a fabrication

    // The books: both ACCEPTs journaled, only the blocker COMPLETEd. q1's
    // open ACCEPT is exactly what Recover() looks for.
    const auto stats = service.stats();
    EXPECT_EQ(stats.journaled_accepts, 2u);
    EXPECT_EQ(stats.journaled_completes, 1u);
    EXPECT_EQ(stats.journaled_sheds, 0u);
  }

  // Phase 2: a fresh service over the same directory recovers exactly the
  // stranded request -- once. The second Recover is a no-op by contract
  // (never double-enqueue), not merely empty by coincidence.
  {
    ServiceOptions options;
    options.workers = 1;
    options.persist_dir = dir;
    WhyNotService service(MakeCatalog(), options);
    const WhyNotService::RecoveryReport rec = service.Recover();
    EXPECT_EQ(rec.replayed_records, 3u);  // ACCEPT blk, ACCEPT q1, COMPLETE blk
    EXPECT_EQ(rec.pending_found, 1u);
    EXPECT_EQ(rec.resubmitted, 1u);
    EXPECT_EQ(rec.served_from_store, 0u);  // a partial is never stored
    EXPECT_EQ(rec.restored_completed, 0u);
    EXPECT_EQ(rec.dropped, 0u);

    const WhyNotService::RecoveryReport again = service.Recover();
    EXPECT_EQ(again.replayed_records, 0u);
    EXPECT_EQ(again.pending_found, 0u);
    EXPECT_EQ(again.resubmitted, 0u);

    // The client retries its drained key: it attaches to the re-enqueued
    // job (or its completion) instead of spawning a second execution.
    auto retry = service.Submit(TinyRequest("q1"));
    ASSERT_TRUE(retry.status.ok());
    WhyNotResponse resp = retry.response.get();
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
    EXPECT_TRUE(resp.answer.complete);
    service.Shutdown();
    // Exactly-once across the restart: one execution for q1, total.
    EXPECT_EQ(service.stats().accepted, 1u);
  }
  RemoveTree(dir);
}

TEST(Durability, AutoKeysStayUniqueAcrossRestart) {
  const std::string dir = ::testing::TempDir() + "service_test_autokey";
  RemoveTree(dir);
  ASSERT_TRUE(EnsureDir(dir).ok());

  // Phase 1: an empty-key request gets the first auto key of this
  // incarnation and completes (full answer, so the store spills it and the
  // COMPLETE record makes it restorable).
  std::string first_key;
  {
    ServiceOptions options;
    options.workers = 1;
    options.persist_dir = dir;
    WhyNotService service(MakeCatalog(), options);
    auto sub = service.Submit(TinyRequest(""));
    ASSERT_TRUE(sub.status.ok()) << sub.status.ToString();
    WhyNotResponse r = sub.response.get();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    first_key = r.key;
    EXPECT_EQ(first_key, "auto-1");
    service.Shutdown();
  }

  // Phase 2: after recovery restores "auto-1" into the completed book, a
  // fresh empty-key submission must mint a key the previous incarnation
  // never used. A counter restarting at 0 would hand out "auto-1" again
  // and dedupe this *different* request onto the recovered answer.
  {
    ServiceOptions options;
    options.workers = 1;
    options.persist_dir = dir;
    WhyNotService service(MakeCatalog(), options);
    const WhyNotService::RecoveryReport rec = service.Recover();
    EXPECT_EQ(rec.restored_completed, 1u);

    WhyNotRequest other = TinyRequest("");
    CTuple tc;
    tc.Add("R.v", Value::Str("nonexistent"));  // not the phase-1 question
    other.question = WhyNotQuestion(tc);
    auto sub = service.Submit(std::move(other));
    ASSERT_TRUE(sub.status.ok()) << sub.status.ToString();
    EXPECT_FALSE(sub.deduped);
    WhyNotResponse r = sub.response.get();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_NE(r.key, first_key);
    EXPECT_FALSE(r.served_from_answer_store);
    service.Shutdown();
    // The new request really executed -- it did not ride the old key's
    // cached response.
    EXPECT_EQ(service.stats().accepted, 1u);
  }
  RemoveTree(dir);
}

// ---- observability: per-request traces + the unified metrics registry ------

/// Rendered span structure of a delivered trace ("" when absent).
std::string Structure(const std::shared_ptr<const obs::Trace>& trace) {
  return trace != nullptr ? trace->RenderStructure() : std::string();
}

bool HasSpan(const std::string& structure, const std::string& name) {
  return structure.find(name) != std::string::npos;
}

TEST(Observability, TraceCoversTheFullRequestLifecycle) {
  ServiceOptions options;
  options.workers = 1;
  WhyNotService service(MakeCatalog(), options);
  WhyNotRequest req = TinyRequest("t1");
  req.collect_trace = true;
  auto sub = service.Submit(std::move(req));
  ASSERT_TRUE(sub.status.ok());
  WhyNotResponse resp = sub.response.get();
  ASSERT_TRUE(resp.status.ok());
  const std::string structure = Structure(resp.trace);
  // Serving phases in order: admission -> queue_wait -> execute -> finalize,
  // with the engine's Fig. 5 phases nested under execute/engine.
  for (const char* span :
       {"admission", "snapshot_pin", "queue_wait", "execute", "compile",
        "engine", "Initialization", "CompatibleFinder", "render",
        "finalize"}) {
    EXPECT_TRUE(HasSpan(structure, span)) << span << " missing:\n"
                                          << structure;
  }
  // Nesting: the engine phases sit under execute, not at the root.
  EXPECT_NE(structure.find("  engine\n"), std::string::npos) << structure;
  service.Shutdown();
}

TEST(Observability, UntracedRequestsCarryNoTrace) {
  WhyNotService service(MakeCatalog(), {});
  auto sub = service.Submit(TinyRequest("plain"));
  ASSERT_TRUE(sub.status.ok());
  EXPECT_EQ(sub.trace, nullptr);
  EXPECT_EQ(sub.response.get().trace, nullptr);
  service.Shutdown();
}

TEST(Observability, AnswerCacheHitTraceIsDeliveredSynchronously) {
  WhyNotService service(MakeCatalog(), {});
  ASSERT_TRUE(service.Submit(TinyRequest("warm")).response.get().status.ok());
  // Same content, different idempotency key: served from the answer cache
  // at Submit. The trace arrives on the Submission (admission-side only).
  WhyNotRequest req = TinyRequest("hit");
  req.collect_trace = true;
  auto sub = service.Submit(std::move(req));
  ASSERT_TRUE(sub.status.ok());
  WhyNotResponse resp = sub.response.get();
  EXPECT_TRUE(resp.served_from_answer_cache);
  const std::string structure = Structure(sub.trace);
  EXPECT_TRUE(HasSpan(structure, "admission")) << structure;
  EXPECT_TRUE(HasSpan(structure, "answer_cache_lookup")) << structure;
  EXPECT_FALSE(HasSpan(structure, "queue_wait")) << structure;
  EXPECT_FALSE(HasSpan(structure, "execute")) << structure;
  service.Shutdown();
}

TEST(Observability, ShedTraceIsDeliveredOnTheSubmission) {
  ManualClock clock;
  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.clock = &clock;
  WhyNotService service(MakeCatalog(), options);
  auto blk = service.Submit(SlowRequest("blk", 500));
  ASSERT_TRUE(blk.status.ok());
  WaitForEmptyQueue(service);
  ASSERT_TRUE(service.Submit(TinyRequest("fill")).status.ok());
  WhyNotRequest req = TinyRequest("shed-me");
  req.collect_trace = true;
  auto sub = service.Submit(std::move(req));
  EXPECT_EQ(sub.status.code(), StatusCode::kUnavailable);
  const std::string structure = Structure(sub.trace);
  EXPECT_TRUE(HasSpan(structure, "admission")) << structure;
  EXPECT_FALSE(HasSpan(structure, "queue_wait")) << structure;
  clock.AdvanceMs(600);  // let the blocker's deadline trip
  service.Shutdown();
}

TEST(Observability, QueueWaitSpanIsExactUnderManualClock) {
  ManualClock clock;
  ServiceOptions options;
  options.workers = 1;
  options.clock = &clock;
  WhyNotService service(MakeCatalog(), options);
  // The blocker's deadline *is* the release instant: it runs on the only
  // worker until manual time reaches 7ms, when its next checkpoint trips
  // and the worker dispatches the queued target. Every instant in between is
  // frozen, so the target's queue_wait span is exactly 7ms.
  auto blk = service.Submit(SlowRequest("blk", 7));
  ASSERT_TRUE(blk.status.ok());
  WaitForEmptyQueue(service);
  WhyNotRequest req = TinyRequest("timed");
  req.collect_trace = true;
  auto sub = service.Submit(std::move(req));
  ASSERT_TRUE(sub.status.ok());
  clock.AdvanceMs(7);
  WhyNotResponse resp = sub.response.get();
  ASSERT_TRUE(resp.status.ok());
  ASSERT_NE(resp.trace, nullptr);
  EXPECT_EQ(resp.trace->PhaseNanos("queue_wait"), 7'000'000)
      << resp.trace->Render();
  service.Shutdown();
}

TEST(Observability, ExpiredInQueueTraceHasNoExecuteSpan) {
  ManualClock clock;
  ServiceOptions options;
  options.workers = 1;
  options.clock = &clock;
  WhyNotService service(MakeCatalog(), options);
  auto blk = service.Submit(SlowRequest("blk", 500));
  ASSERT_TRUE(blk.status.ok());
  WaitForEmptyQueue(service);
  WhyNotRequest req = TinyRequest("expire-me");
  req.deadline_ms = 20;
  req.collect_trace = true;
  auto sub = service.Submit(std::move(req));
  ASSERT_TRUE(sub.status.ok());
  clock.AdvanceMs(30);
  WhyNotResponse resp = sub.response.get();
  EXPECT_TRUE(resp.expired_in_queue);
  const std::string structure = Structure(resp.trace);
  EXPECT_TRUE(HasSpan(structure, "admission")) << structure;
  EXPECT_TRUE(HasSpan(structure, "queue_wait")) << structure;
  EXPECT_TRUE(HasSpan(structure, "finalize")) << structure;
  EXPECT_FALSE(HasSpan(structure, "execute")) << structure;
  // The defensive close in Finalize sealed the span: nothing is left open.
  for (const obs::Span& span : resp.trace->spans()) {
    EXPECT_GE(span.end_ns, 0) << span.name << " left open";
  }
  clock.AdvanceMs(500);
  service.Shutdown();
}

TEST(Observability, RememberedErrorTraceShowsTheTierLookup) {
  WhyNotService service(MakeCatalog(), {});
  auto poison = [](const std::string& key) {
    WhyNotRequest req = TinyRequest(key);
    req.sql = "SELECT X.v FROM X, S WHERE X.k = S.k";  // X does not exist
    return req;
  };
  EXPECT_FALSE(service.Submit(poison("p1")).response.get().status.ok());
  // The tier remembers the bind error: the same content under a fresh key
  // fails at the lookup, and the trace arrives on the Submission.
  WhyNotRequest req = poison("p2");
  req.collect_trace = true;
  auto sub = service.Submit(std::move(req));
  EXPECT_FALSE(sub.status.ok());
  EXPECT_TRUE(sub.breaker_fast_fail);
  const std::string structure = Structure(sub.trace);
  EXPECT_TRUE(HasSpan(structure, "admission")) << structure;
  EXPECT_TRUE(HasSpan(structure, "answer_cache_lookup")) << structure;
  EXPECT_FALSE(HasSpan(structure, "queue_wait")) << structure;
  EXPECT_FALSE(HasSpan(structure, "execute")) << structure;
  service.Shutdown();
}

TEST(Observability, StoreHitTraceShowsTheDurableLookup) {
  const std::string dir = ::testing::TempDir() + "service_test_obs_store";
  RemoveTree(dir);
  ASSERT_TRUE(EnsureDir(dir).ok());
  {
    ServiceOptions options;
    options.persist_dir = dir;
    WhyNotService service(MakeCatalog(), options);
    ASSERT_TRUE(
        service.Submit(TinyRequest("seed")).response.get().status.ok());
    service.Shutdown();
  }
  {
    // Fresh process incarnation, identical database content: the answer is
    // replayed from the durable store at Submit, and the trace records the
    // off-lock store lookup.
    ServiceOptions options;
    options.persist_dir = dir;
    WhyNotService service(MakeCatalog(), options);
    WhyNotRequest req = TinyRequest("recovered");
    req.collect_trace = true;
    auto sub = service.Submit(std::move(req));
    ASSERT_TRUE(sub.status.ok());
    WhyNotResponse resp = sub.response.get();
    EXPECT_TRUE(resp.served_from_answer_store);
    const std::string structure = Structure(sub.trace);
    EXPECT_TRUE(HasSpan(structure, "store_lookup")) << structure;
    EXPECT_FALSE(HasSpan(structure, "execute")) << structure;
    service.Shutdown();
  }
  RemoveTree(dir);
}

TEST(Observability, RegistryExposesServiceCountersAndHistograms) {
  ServiceOptions options;
  options.workers = 2;
  WhyNotService service(MakeCatalog(), options);
  // m1 executes; m2 has identical content under a fresh key, so it is
  // served from the content-addressed answer cache at Submit.
  ASSERT_TRUE(service.Submit(TinyRequest("m1")).response.get().status.ok());
  ASSERT_TRUE(service.Submit(TinyRequest("m2")).response.get().status.ok());
  const std::string text =
      obs::FormatPrometheus(service.metrics()->Collect());
  EXPECT_NE(
      text.find("ned_service_requests_total{event=\"submitted\"} 2"),
      std::string::npos)
      << text;
  EXPECT_NE(
      text.find("ned_service_requests_total{event=\"accepted\"} 1"),
      std::string::npos)
      << text;
  EXPECT_NE(
      text.find("ned_service_requests_total{event=\"completed\"} 1"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("ned_answer_cache_total{event=\"hit\"} 1"),
            std::string::npos)
      << text;
  // Only m1 executed, so the compiled-plan memo saw one compile.
  EXPECT_NE(text.find("ned_plan_cache_total{event=\"miss\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE ned_request_total_us histogram"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ned_request_total_us_count 1"), std::string::npos)
      << text;
  // Mirror gauges refreshed by the collector.
  EXPECT_NE(text.find("ned_queue_depth 0"), std::string::npos) << text;
  EXPECT_NE(text.find("ned_cache_hits{cache=\"answer\"} 1"),
            std::string::npos)
      << text;
  service.Shutdown();
}

// The counter-race regression (previously: plain uint64 fields written under
// mu_ but read off-lock by tools): stats(), the registry and the exposition
// path are hammered concurrently with a submit storm. Meaningful under TSan,
// which CI runs over this binary.
TEST(Observability, StatsReadsRaceASubmitStormWithoutTearing) {
  ServiceOptions options;
  options.workers = 4;
  WhyNotService service(MakeCatalog(), options);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    // Relaxed counters give no cross-field ordering mid-race, so the loop
    // only exercises the read paths (the TSan target); exact totals are
    // asserted below once the writers have joined.
    while (!stop.load(std::memory_order_relaxed)) {
      (void)service.stats();
      (void)obs::FormatPrometheus(service.metrics()->Collect());
      (void)service.journal_stats();
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        auto sub = service.Submit(
            TinyRequest(StrCat("storm-", t, "-", i)));
        if (sub.status.ok()) (void)sub.response.get();
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 200u);
  service.Shutdown();
}

}  // namespace
}  // namespace ned
