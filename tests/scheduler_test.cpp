/// \file scheduler_test.cpp
/// \brief Units for the overload-resilience building blocks: the priority/
/// EDF scheduler with fair-share quotas and the per-key circuit breaker
/// state machine. All time-driven behaviour runs against a ManualClock, so
/// every expiry/probe assertion is on an exact instant -- no sleeps, no
/// flakes.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "common/timer.h"
#include "service/breaker.h"
#include "service/scheduler.h"

namespace ned {
namespace {

using std::chrono::milliseconds;

// ---- PriorityScheduler ------------------------------------------------------

using IntScheduler = PriorityScheduler<int>;

IntScheduler::Entry Entry(int item, Priority priority,
                          Clock::TimePoint deadline,
                          const std::string& client = "") {
  IntScheduler::Entry entry;
  entry.item = item;
  entry.priority = priority;
  entry.deadline = deadline;
  entry.client = client;
  return entry;
}

TEST(PriorityScheduler, StrictClassPriorityThenEdfThenFifo) {
  ManualClock clock;
  const Clock::TimePoint now = clock.Now();
  IntScheduler sched(SchedulerOptions{16, 0});
  // Admission order scrambles classes and deadlines on purpose.
  ASSERT_EQ(sched.TryAdmit(Entry(1, Priority::kBackground, now + milliseconds(10))),
            IntScheduler::Admit::kOk);
  ASSERT_EQ(sched.TryAdmit(Entry(2, Priority::kBatch, now + milliseconds(500))),
            IntScheduler::Admit::kOk);
  ASSERT_EQ(sched.TryAdmit(Entry(3, Priority::kInteractive, now + milliseconds(900))),
            IntScheduler::Admit::kOk);
  ASSERT_EQ(sched.TryAdmit(Entry(4, Priority::kInteractive, now + milliseconds(100))),
            IntScheduler::Admit::kOk);
  ASSERT_EQ(sched.TryAdmit(Entry(5, Priority::kBatch, now + milliseconds(100))),
            IntScheduler::Admit::kOk);
  // FIFO tiebreak: same class, same deadline as #4.
  ASSERT_EQ(sched.TryAdmit(Entry(6, Priority::kInteractive, now + milliseconds(100))),
            IntScheduler::Admit::kOk);
  std::vector<int> order;
  while (auto e = sched.Pop()) order.push_back(e->item);
  // Interactive (EDF: 4 before 6 by FIFO, then 3) > batch (5 then 2) >
  // background -- an earlier background deadline never beats a stronger
  // class.
  EXPECT_EQ(order, (std::vector<int>{4, 6, 3, 5, 2, 1}));
  EXPECT_TRUE(sched.empty());
}

TEST(PriorityScheduler, QueueCapacityAndPerClientQuota) {
  ManualClock clock;
  const Clock::TimePoint deadline = clock.Now() + milliseconds(100);
  IntScheduler sched(SchedulerOptions{3, 2});
  EXPECT_EQ(sched.TryAdmit(Entry(1, Priority::kInteractive, deadline, "hot")),
            IntScheduler::Admit::kOk);
  EXPECT_EQ(sched.TryAdmit(Entry(2, Priority::kInteractive, deadline, "hot")),
            IntScheduler::Admit::kOk);
  // Third from the same client: quota, not capacity.
  EXPECT_EQ(sched.TryAdmit(Entry(3, Priority::kInteractive, deadline, "hot")),
            IntScheduler::Admit::kClientQuota);
  EXPECT_EQ(sched.occupancy("hot"), 2u);
  // A different client still fits.
  EXPECT_EQ(sched.TryAdmit(Entry(4, Priority::kInteractive, deadline, "cold")),
            IntScheduler::Admit::kOk);
  // Now the queue itself is full for everyone.
  EXPECT_EQ(sched.TryAdmit(Entry(5, Priority::kInteractive, deadline, "other")),
            IntScheduler::Admit::kQueueFull);
  // The occupancy slot outlives Pop (queued + running) and frees on
  // Release, re-opening the quota.
  (void)sched.Pop();
  EXPECT_EQ(sched.occupancy("hot"), 2u);
  sched.Release("hot");
  EXPECT_EQ(sched.occupancy("hot"), 1u);
  EXPECT_EQ(sched.TryAdmit(Entry(6, Priority::kInteractive, deadline, "hot")),
            IntScheduler::Admit::kOk);
}

TEST(PriorityScheduler, TakeExpiredExtractsExactlyTheExpired) {
  ManualClock clock;
  const Clock::TimePoint now = clock.Now();
  IntScheduler sched(SchedulerOptions{16, 0});
  ASSERT_EQ(sched.TryAdmit(Entry(1, Priority::kInteractive, now + milliseconds(5))),
            IntScheduler::Admit::kOk);
  ASSERT_EQ(sched.TryAdmit(Entry(2, Priority::kInteractive, now + milliseconds(50))),
            IntScheduler::Admit::kOk);
  ASSERT_EQ(sched.TryAdmit(Entry(3, Priority::kBackground, now + milliseconds(5))),
            IntScheduler::Admit::kOk);
  EXPECT_TRUE(sched.TakeExpired(clock.Now()).empty());
  clock.AdvanceMs(10);
  std::vector<int> expired;
  for (auto& e : sched.TakeExpired(clock.Now())) expired.push_back(e.item);
  // Both 5ms entries, across classes; the 50ms one stays.
  EXPECT_EQ(expired, (std::vector<int>{1, 3}));
  EXPECT_EQ(sched.size(), 1u);
  auto next = sched.Pop();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->item, 2);
}

TEST(PriorityScheduler, DrainAllEmptiesEveryLane) {
  ManualClock clock;
  const Clock::TimePoint deadline = clock.Now() + milliseconds(100);
  IntScheduler sched(SchedulerOptions{16, 0});
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(sched.TryAdmit(Entry(i, static_cast<Priority>(i % 3), deadline)),
              IntScheduler::Admit::kOk);
  }
  EXPECT_EQ(sched.DrainAll().size(), 6u);
  EXPECT_TRUE(sched.empty());
  EXPECT_EQ(sched.depth(Priority::kInteractive), 0u);
}

// ---- CircuitBreaker ---------------------------------------------------------

BreakerOptions TestBreaker() {
  BreakerOptions options;
  options.failure_threshold = 3;
  options.probe_interval_ms = 100;
  return options;
}

/// Runs one full execute-and-fail cycle through the breaker.
void FailOnce(CircuitBreaker& breaker, const std::string& key) {
  const auto decision = breaker.TryBegin(key);
  ASSERT_NE(decision.gate, CircuitBreaker::Gate::kFastFail);
  breaker.End(key, Status::InvalidArgument("poison"));
}

TEST(CircuitBreaker, OpensAfterThresholdAndFastFailsWithCachedError) {
  ManualClock clock;
  CircuitBreaker breaker(TestBreaker(), &clock);
  for (int i = 0; i < 3; ++i) FailOnce(breaker, "k");
  EXPECT_EQ(breaker.stats().opens, 1u);
  // Both gates fast-fail with the recorded error, no execution admitted.
  const auto check = breaker.Check("k");
  EXPECT_EQ(check.gate, CircuitBreaker::Gate::kFastFail);
  EXPECT_EQ(check.cached_error.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(breaker.TryBegin("k").gate, CircuitBreaker::Gate::kFastFail);
  EXPECT_EQ(breaker.stats().fast_fails, 2u);
  // Unrelated keys are untouched.
  EXPECT_EQ(breaker.Check("other").gate, CircuitBreaker::Gate::kAllow);
}

TEST(CircuitBreaker, HalfOpenProbeClosesOnSuccess) {
  ManualClock clock;
  CircuitBreaker breaker(TestBreaker(), &clock);
  for (int i = 0; i < 3; ++i) FailOnce(breaker, "k");
  clock.AdvanceMs(99);
  EXPECT_EQ(breaker.TryBegin("k").gate, CircuitBreaker::Gate::kFastFail);
  clock.AdvanceMs(1);
  // Probe due: exactly one execution is admitted; a concurrent duplicate
  // still fast-fails while the probe is in flight.
  const auto probe = breaker.TryBegin("k");
  EXPECT_EQ(probe.gate, CircuitBreaker::Gate::kProbe);
  EXPECT_EQ(breaker.TryBegin("k").gate, CircuitBreaker::Gate::kFastFail);
  breaker.End("k", Status::OK());
  // Healed: the key is forgotten entirely.
  EXPECT_EQ(breaker.TryBegin("k").gate, CircuitBreaker::Gate::kAllow);
  breaker.End("k", Status::OK());
  const auto stats = breaker.stats();
  EXPECT_EQ(stats.probes, 1u);
  EXPECT_EQ(stats.reopens, 0u);
  EXPECT_EQ(stats.tracked_keys, 0u);
}

TEST(CircuitBreaker, FailedProbeReArmsTheOpenBreaker) {
  ManualClock clock;
  CircuitBreaker breaker(TestBreaker(), &clock);
  for (int i = 0; i < 3; ++i) FailOnce(breaker, "k");
  clock.AdvanceMs(100);
  const auto probe = breaker.TryBegin("k");
  ASSERT_EQ(probe.gate, CircuitBreaker::Gate::kProbe);
  breaker.End("k", Status::InvalidArgument("still poison"));
  EXPECT_EQ(breaker.stats().reopens, 1u);
  // Still open: the probe timer restarted from the failed probe.
  EXPECT_EQ(breaker.TryBegin("k").gate, CircuitBreaker::Gate::kFastFail);
  clock.AdvanceMs(100);
  EXPECT_EQ(breaker.TryBegin("k").gate, CircuitBreaker::Gate::kProbe);
  breaker.End("k", Status::OK());
  EXPECT_EQ(breaker.Check("k").gate, CircuitBreaker::Gate::kAllow);
}

TEST(CircuitBreaker, SuspectSerializationBoundsConcurrentPoison) {
  ManualClock clock;
  CircuitBreaker breaker(TestBreaker(), &clock);
  // One recorded failure turns the key into a suspect: only a single
  // execution may be in flight, so the consecutive-failure count -- and the
  // "poison costs at most threshold + probes" bound -- stays exact even
  // when many workers hold duplicates of the key.
  FailOnce(breaker, "k");
  const auto first = breaker.TryBegin("k");
  EXPECT_EQ(first.gate, CircuitBreaker::Gate::kAllow);
  EXPECT_EQ(breaker.TryBegin("k").gate, CircuitBreaker::Gate::kFastFail);
  EXPECT_EQ(breaker.Check("k").gate, CircuitBreaker::Gate::kFastFail);
  breaker.End("k", Status::InvalidArgument("poison"));
  // Healthy keys run fully parallel: no failure recorded, no tracking.
  EXPECT_EQ(breaker.TryBegin("fresh").gate, CircuitBreaker::Gate::kAllow);
  EXPECT_EQ(breaker.TryBegin("fresh").gate, CircuitBreaker::Gate::kAllow);
}

TEST(CircuitBreaker, TransientsAndResourceLimitsAreNotPoison) {
  EXPECT_FALSE(IsBreakerFailure(Status::OK()));
  EXPECT_FALSE(IsBreakerFailure(Status::Unavailable("shed")));
  EXPECT_FALSE(IsBreakerFailure(Status::DeadlineExceeded("late")));
  EXPECT_FALSE(IsBreakerFailure(Status::ResourceExhausted("budget")));
  EXPECT_FALSE(IsBreakerFailure(Status::Cancelled("watchdog")));
  EXPECT_TRUE(IsBreakerFailure(Status::InvalidArgument("bad sql")));
  EXPECT_TRUE(IsBreakerFailure(Status::NotFound("no relation")));
  ManualClock clock;
  CircuitBreaker breaker(TestBreaker(), &clock);
  // Two failures then a transient: the transient proves the key executes,
  // resetting the streak -- the breaker never opens.
  FailOnce(breaker, "k");
  FailOnce(breaker, "k");
  ASSERT_NE(breaker.TryBegin("k").gate, CircuitBreaker::Gate::kFastFail);
  breaker.End("k", Status::Unavailable("transient"));
  FailOnce(breaker, "k");
  FailOnce(breaker, "k");
  EXPECT_EQ(breaker.stats().opens, 0u);
  EXPECT_EQ(breaker.Check("k").gate, CircuitBreaker::Gate::kAllow);
}

TEST(CircuitBreaker, KeyIsContentNotRequestIdentity) {
  // Same db + SQL (modulo whitespace/case normalization) + question -> same
  // breaker key; any content difference -> different key.
  const std::string base = MakeBreakerKey("db", "SELECT R.v FROM R", "(R.v:c)");
  EXPECT_EQ(MakeBreakerKey("db", "select   r.v  from r", "(R.v:c)"), base);
  EXPECT_NE(MakeBreakerKey("db2", "SELECT R.v FROM R", "(R.v:c)"), base);
  EXPECT_NE(MakeBreakerKey("db", "SELECT R.w FROM R", "(R.v:c)"), base);
  EXPECT_NE(MakeBreakerKey("db", "SELECT R.v FROM R", "(R.v:d)"), base);
}

}  // namespace
}  // namespace ned
