/// \file scheduler_test.cpp
/// \brief Units for the priority/EDF scheduler with fair-share quotas. All
/// time-driven behaviour runs against a ManualClock, so every expiry
/// assertion is on an exact instant -- no sleeps, no flakes.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "common/timer.h"
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

}  // namespace
}  // namespace ned
