/// \file perfbench_test.cpp
/// \brief Tests of the benchmark itself: the seeded request and reload
/// sequence, the answer check, the scale-up generator and span self time.

#include <gtest/gtest.h>

#include "common/hash.h"
#include "perfbench.h"
#include "runner.h"
#include "spans.h"

namespace ned::perfbench {
namespace {

constexpr Workload kWorkloads[] = {Workload::kPaper19, Workload::kScaled16,
                                   Workload::kRepeatReload};

bool Same(const Schedule& a, const Schedule& b) {
  if (a.size() != b.size()) return false;
  for (size_t c = 0; c < a.size(); ++c) {
    if (a[c].size() != b[c].size()) return false;
    for (size_t i = 0; i < a[c].size(); ++i) {
      if (a[c][i].question != b[c][i].question ||
          a[c][i].reload_before != b[c][i].reload_before) {
        return false;
      }
    }
  }
  return true;
}

TEST(Schedule, SameSeedGivesSameRequestsAndReloads) {
  for (Workload workload : kWorkloads) {
    const Schedule a = BuildSchedule(workload, 7, 500, 19);
    ASSERT_EQ(a.size(), static_cast<size_t>(kConnections));
    for (const std::vector<Step>& steps : a) EXPECT_EQ(steps.size(), 500u);
    EXPECT_TRUE(Same(a, BuildSchedule(workload, 7, 500, 19)))
        << WorkloadName(workload);
    EXPECT_FALSE(Same(a, BuildSchedule(workload, 8, 500, 19)))
        << WorkloadName(workload);
  }
}

TEST(Schedule, ReloadsAlternateAtFixedPositionsOnConnectionZero) {
  const Schedule schedule = BuildSchedule(Workload::kRepeatReload, 7, 500, 19);
  int expected = 1;
  for (size_t i = 0; i < schedule[0].size(); ++i) {
    if (i % kReloadEvery == kReloadEvery - 1) {
      EXPECT_EQ(schedule[0][i].reload_before, expected) << i;
      expected = 1 - expected;
    } else {
      EXPECT_EQ(schedule[0][i].reload_before, -1) << i;
    }
  }
  for (const Step& step : schedule[1]) EXPECT_EQ(step.reload_before, -1);
  // Registration publishes content 0 at version 1; each reload flips it.
  EXPECT_EQ(ContentOfVersion(1), 0);
  EXPECT_EQ(ContentOfVersion(2), 1);
  EXPECT_EQ(ContentOfVersion(3), 0);
}

TEST(Judge, CorruptedAnswerCountsAsFailed) {
  AnswerSummary answer;
  answer.detailed = {"(C.id:100, m6)"};
  answer.condensed = {"m6"};
  answer.dir_total = 3;
  References refs;
  refs.hashes = {{Fnv1a64(AnswerPrint(answer))}};
  net::WireResponse good;
  good.answer = answer;
  good.snapshot_version = 1;
  EXPECT_EQ(Judge(Observe(0, 200, good), refs, false), "");

  net::WireResponse corrupted = good;
  corrupted.answer.condensed = {"m5"};
  EXPECT_NE(Judge(Observe(0, 200, corrupted), refs, false), "");
  net::WireResponse partial = good;
  partial.answer.complete = false;
  EXPECT_NE(Judge(Observe(0, 200, partial), refs, false), "");
  net::WireResponse degraded = good;
  degraded.answer.degradation_level = 1;
  EXPECT_NE(Judge(Observe(0, 200, degraded), refs, false), "");
  net::WireResponse shed = good;
  shed.code = StatusCode::kUnavailable;
  EXPECT_NE(Judge(Observe(0, 503, shed), refs, false), "");
  EXPECT_NE(Judge(Observe(0, 0, Status::Unavailable("connection closed")),
                  refs, false),
            "");
  // Subtree-cache counters describe the computation, not the answer.
  net::WireResponse warm = good;
  warm.answer.subtree_cache_hits = 5;
  EXPECT_EQ(Judge(Observe(0, 200, warm), refs, false), "");
}

TEST(Judge, ReloadedAnswersAreCheckedAgainstTheirSnapshotsContent) {
  AnswerSummary before;
  before.condensed = {"m6"};
  AnswerSummary after;
  after.condensed = {"m4"};
  References refs;
  refs.hashes = {{Fnv1a64(AnswerPrint(before)), Fnv1a64(AnswerPrint(after))}};
  net::WireResponse response;
  response.answer = after;
  response.snapshot_version = 2;
  EXPECT_EQ(Judge(Observe(0, 200, response), refs, true), "");
  response.snapshot_version = 3;  // content 0 again: a stale answer
  EXPECT_NE(Judge(Observe(0, 200, response), refs, true), "");
}

TEST(Design, BrokenThresholdsFailTheTracedRun) {
  constexpr size_t kMB = size_t{1} << 20;
  EXPECT_TRUE(DesignProblems(Workload::kScaled16, 0.95, 0.3, 141 * kMB,
                             32 * kMB)
                  .empty());
  EXPECT_EQ(DesignProblems(Workload::kScaled16, 0.8, 0.3, 141 * kMB, 32 * kMB)
                .size(),
            1u);
  EXPECT_EQ(DesignProblems(Workload::kScaled16, 0.95, 0.3, 9 * kMB, 32 * kMB)
                .size(),
            1u);
  EXPECT_TRUE(
      DesignProblems(Workload::kRepeatReload, 0.0, 0.0, 9 * kMB, 32 * kMB)
          .empty());
  EXPECT_EQ(DesignProblems(Workload::kRepeatReload, 0.3, 0.0, 9 * kMB, 32 * kMB)
                .size(),
            1u);
  EXPECT_TRUE(
      DesignProblems(Workload::kPaper19, 0.5, 1.0, 9 * kMB, 32 * kMB).empty());
  EXPECT_EQ(
      DesignProblems(Workload::kPaper19, 0.5, 0.5, 9 * kMB, 32 * kMB).size(),
      1u);
}

TEST(ScaleUp, TuplesProducedStayInTheLinearBandAtSmallScale) {
  auto questions = LoadQuestions();
  ASSERT_TRUE(questions.ok());
  auto x1 = BuildDataset(Workload::kPaper19, kDefaultSeed);
  auto x4 = BuildDataset(Workload::kScaled16, kDefaultSeed, 4);
  ASSERT_TRUE(x1.ok() && x4.ok());
  auto rows = MeasureScaling(*questions, x1->dbs, x4->dbs);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), questions->size());
  EXPECT_EQ(CheckLinearity(*rows, 4), "");
}

TEST(ScaleUp, SameSeedGivesSameInput) {
  auto a = BuildDataset(Workload::kScaled16, 3, 2);
  auto b = BuildDataset(Workload::kScaled16, 3, 2);
  auto c = BuildDataset(Workload::kScaled16, 4, 2);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(a->input_digest, b->input_digest);
  EXPECT_NE(a->input_digest, c->input_digest);
}

TEST(Spans, SelfTimeSubtractsWhatChildrenCover) {
  SpanLog log;
  const int32_t parent = log.Add("parent", 0, 100, -1, 1);
  log.Add("a", 10, 30, parent, 1);
  log.Add("b", 20, 50, parent, 1);   // overlaps a
  log.Add("c", 90, 120, parent, 1);  // reaches past the parent's end
  const std::vector<int64_t> self = SelfTimes(log.spans());
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20);
}

}  // namespace
}  // namespace ned::perfbench
