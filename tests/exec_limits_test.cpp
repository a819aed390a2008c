/// \file exec_limits_test.cpp
/// \brief Resource-governed execution: deadlines, budgets, cancellation,
/// deterministic fault injection and graceful partial answers.
///
/// The fault-injection sweep is the core of the robustness story: it probes how
/// many checkpoints a full run passes, then re-runs the engine failing each
/// checkpoint in turn, asserting every run still returns a sound (if
/// partial) result. Built with -DNED_SANITIZE=ON, ASan additionally proves
/// that no interruption point leaks.

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>

#include "baseline/whynot_baseline.h"
#include "core/nedexplain.h"
#include "core/report.h"
#include "core/suggest.h"
#include "datasets/running_example.h"
#include "exec/exec_context.h"
#include "datasets/use_cases.h"
#include "tests/test_util.h"

namespace ned {
namespace {

using testing::MakeTinyDb;
using testing::MustCompile;

// ---- ExecContext unit behaviour --------------------------------------------

TEST(ExecContext, UnconfiguredContextNeverTrips) {
  ExecContext ctx;
  for (int i = 0; i < 1000; ++i) NED_EXPECT_OK(ctx.CheckPoint());
  EXPECT_EQ(ctx.steps(), 1000u);
}

TEST(ExecContext, ExpiredDeadlineTrips) {
  ExecContext ctx;
  ctx.set_deadline(std::chrono::steady_clock::now() -
                   std::chrono::milliseconds(1));
  Status st = ctx.CheckPoint();
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(IsResourceLimit(st));
}

TEST(ExecContext, RowBudgetTrips) {
  ExecContext ctx;
  ctx.set_row_budget(10);
  ctx.ChargeRows(10);
  NED_EXPECT_OK(ctx.CheckPoint());  // at the budget is still fine
  ctx.ChargeRows(1);
  Status st = ctx.CheckPoint();
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(st.message().find("row"), std::string::npos);
}

TEST(ExecContext, MemoryBudgetTrips) {
  ExecContext ctx;
  ctx.set_memory_budget(1024);
  ctx.ChargeBytes(2048);
  Status st = ctx.CheckPoint();
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(st.message().find("memory"), std::string::npos);
}

TEST(ExecContext, CancellationTrips) {
  ExecContext ctx;
  NED_EXPECT_OK(ctx.CheckPoint());
  ctx.RequestCancel();
  EXPECT_TRUE(ctx.cancel_requested());
  EXPECT_EQ(ctx.CheckPoint().code(), StatusCode::kCancelled);
}

TEST(ExecContext, InjectionIsDeterministic) {
  ExecContext ctx;
  ctx.InjectFailureAt(3);
  for (int round = 0; round < 2; ++round) {
    NED_EXPECT_OK(ctx.CheckPoint());
    NED_EXPECT_OK(ctx.CheckPoint());
    EXPECT_EQ(ctx.CheckPoint().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(ctx.steps(), 3u);
    ctx.ResetCounters();
  }
}

TEST(ExecContext, CheckEveryAmortizesTheFullCheck) {
  ExecContext ctx;
  ctx.RequestCancel();
  // The tick path only runs the full check every kCheckInterval calls, so
  // the pending cancellation is noticed exactly at the interval boundary.
  for (uint64_t i = 1; i < kCheckInterval; ++i) NED_EXPECT_OK(ctx.CheckEvery());
  EXPECT_EQ(ctx.CheckEvery().code(), StatusCode::kCancelled);
}

TEST(ExecContext, IsResourceLimitClassification) {
  EXPECT_TRUE(IsResourceLimit(Status::DeadlineExceeded("x")));
  EXPECT_TRUE(IsResourceLimit(Status::ResourceExhausted("x")));
  EXPECT_TRUE(IsResourceLimit(Status::Cancelled("x")));
  EXPECT_FALSE(IsResourceLimit(Status::OK()));
  EXPECT_FALSE(IsResourceLimit(Status::InvalidArgument("x")));
  EXPECT_FALSE(IsResourceLimit(Status::Internal("x")));
}

// ---- governed evaluation ---------------------------------------------------

/// Two `n`-row relations whose cross join has n*n rows: the pathological
/// workload early termination cannot save (every row is compatible).
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

TEST(ExecLimits, EvaluatorPropagatesDeadline) {
  Database db = MakeCrossJoinDb(200);
  QueryTree tree = MustCompile("SELECT R.a FROM R, S WHERE R.a >= 0", db);
  ExecContext ctx;
  ctx.set_deadline(std::chrono::steady_clock::now());
  auto input = QueryInput::Build(tree, db, &ctx);
  if (input.ok()) {
    Evaluator evaluator(&tree, &*input, &ctx);
    auto out = evaluator.EvalAll();
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kDeadlineExceeded);
  } else {
    EXPECT_EQ(input.status().code(), StatusCode::kDeadlineExceeded);
  }
}

TEST(ExecLimits, PathologicalCrossJoinMeetsDeadline) {
  // 2000 x 2000 = 4M joined rows: far more work than 50 ms allows. The
  // governed run must come back quickly with a flagged partial answer, not
  // an error and not a multi-second stall.
  Database db = MakeCrossJoinDb(2000);
  QueryTree tree = MustCompile("SELECT R.a FROM R, S WHERE R.a >= 0", db);
  auto engine = NedExplainEngine::Create(&tree, &db);
  ASSERT_TRUE(engine.ok());
  CTuple tc;
  // A compatible tuple exists, so early termination cannot skip the join:
  // the traversal has to materialise it -- until the deadline stops it.
  tc.Add("R.a", Value::Int(0));

  ExecContext ctx;
  ctx.set_deadline_after_ms(50);
  auto start = std::chrono::steady_clock::now();
  auto result = engine->Explain(WhyNotQuestion(tc), &ctx);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);

  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->completeness.complete);
  EXPECT_EQ(result->completeness.tripped, StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(result->completeness.detail.empty());
  // Well under a second: the deadline plus at most kCheckInterval rows of
  // overshoot per loop (generous slack for sanitizer builds).
  EXPECT_LT(elapsed.count(), 1000);
}

TEST(ExecLimits, RowBudgetOnAggregateGivesPartial) {
  Database db;
  NED_ASSERT_OK_AND_MOVE(db, BuildRunningExampleDb());
  QueryTree tree;
  NED_ASSERT_OK_AND_MOVE(tree, BuildRunningExampleTree(db));
  auto engine = NedExplainEngine::Create(&tree, &db);
  ASSERT_TRUE(engine.ok());

  ExecContext ctx;
  ctx.set_row_budget(5);  // the instance alone has 9 tuples
  auto result = engine->Explain(RunningExampleQuestionHomer(), &ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->completeness.complete);
  EXPECT_EQ(result->completeness.tripped, StatusCode::kResourceExhausted);
  EXPECT_EQ(result->completeness.ctuples_finished, 0u);
}

TEST(ExecLimits, MemoryBudgetGivesPartial) {
  Database db;
  NED_ASSERT_OK_AND_MOVE(db, BuildRunningExampleDb());
  QueryTree tree;
  NED_ASSERT_OK_AND_MOVE(tree, BuildRunningExampleTree(db));
  auto engine = NedExplainEngine::Create(&tree, &db);
  ASSERT_TRUE(engine.ok());

  ExecContext ctx;
  ctx.set_memory_budget(64);  // a single tuple estimate exceeds this
  auto result = engine->Explain(RunningExampleQuestionHomer(), &ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->completeness.complete);
  EXPECT_EQ(result->completeness.tripped, StatusCode::kResourceExhausted);
}

TEST(ExecLimits, PreCancelledRunFinishesNothing) {
  Database db;
  NED_ASSERT_OK_AND_MOVE(db, BuildRunningExampleDb());
  QueryTree tree;
  NED_ASSERT_OK_AND_MOVE(tree, BuildRunningExampleTree(db));
  auto engine = NedExplainEngine::Create(&tree, &db);
  ASSERT_TRUE(engine.ok());

  ExecContext ctx;
  ctx.RequestCancel();
  auto result = engine->Explain(RunningExampleQuestion(), &ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->completeness.complete);
  EXPECT_EQ(result->completeness.tripped, StatusCode::kCancelled);
  EXPECT_EQ(result->completeness.ctuples_finished, 0u);
  EXPECT_TRUE(result->answer.empty());
}

TEST(ExecLimits, UngovernedAndUnlimitedRunsAgree) {
  Database db;
  NED_ASSERT_OK_AND_MOVE(db, BuildRunningExampleDb());
  QueryTree tree;
  NED_ASSERT_OK_AND_MOVE(tree, BuildRunningExampleTree(db));
  auto engine = NedExplainEngine::Create(&tree, &db);
  ASSERT_TRUE(engine.ok());

  auto plain = engine->Explain(RunningExampleQuestion());
  ASSERT_TRUE(plain.ok());
  ExecContext ctx;  // installed but unlimited: must not change the answer
  auto governed = engine->Explain(RunningExampleQuestion(), &ctx);
  ASSERT_TRUE(governed.ok());

  EXPECT_TRUE(governed->completeness.complete);
  EXPECT_EQ(governed->completeness.ctuples_finished,
            governed->completeness.ctuples_total);
  EXPECT_EQ(governed->answer.ToString(engine->last_input()),
            plain->answer.ToString(engine->last_input()));
  EXPECT_GT(ctx.steps(), 0u);
  EXPECT_GT(ctx.rows_charged(), 0u);
}

TEST(ExecLimits, PartialReportRendersDegradation) {
  Database db = MakeCrossJoinDb(400);
  QueryTree tree = MustCompile("SELECT R.a FROM R, S WHERE R.a >= 0", db);
  auto engine = NedExplainEngine::Create(&tree, &db);
  ASSERT_TRUE(engine.ok());
  CTuple tc;
  tc.Add("R.a", Value::Int(-1));
  WhyNotQuestion question{tc};

  // A complete run first, so the engine holds a previous input.
  auto complete = engine->Explain(question);
  ASSERT_TRUE(complete.ok());
  ASSERT_GT(engine->last_input().TotalTuples(), 0u);

  // The 50-row budget trips at the second scan's check while the input
  // instance is built.
  ExecContext ctx;
  ctx.set_row_budget(50);
  auto result = engine->Explain(question, &ctx);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->completeness.complete);
  // The renderers read this run's (empty) input, never the previous one.
  EXPECT_EQ(engine->last_input().TotalTuples(), 0u);
  std::string report = RenderExplainReport(*engine, question, *result);
  EXPECT_NE(report.find("PARTIAL RESULT"), std::string::npos);
  EXPECT_NE(report.find("Answer (partial):"), std::string::npos);
  std::string summary = result->completeness.ToString();
  EXPECT_NE(summary.find("partial"), std::string::npos);
  EXPECT_NE(summary.find("ResourceExhausted"), std::string::npos);
  const AnswerSummary answer = SummarizeResult(*engine, *result);
  EXPECT_FALSE(answer.complete);
  auto hints = SuggestModifications(*engine, *result);
  ASSERT_TRUE(hints.ok()) << hints.status().ToString();
  EXPECT_TRUE(hints->empty());
}

TEST(ExecLimits, BaselineHonoursLimits) {
  Database db = MakeTinyDb();
  QueryTree tree = MustCompile("SELECT R.v FROM R, S WHERE R.k = S.k", db);
  auto baseline = WhyNotBaseline::Create(&tree, &db);
  ASSERT_TRUE(baseline.ok());
  CTuple tc;
  tc.Add("R.v", Value::Str("zzz"));

  ExecContext ctx;
  ctx.RequestCancel();
  auto result = baseline->Explain(WhyNotQuestion(tc), &ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->complete);
  EXPECT_EQ(result->limit_status.code(), StatusCode::kCancelled);

  // Without limits the same context-carrying call completes normally.
  ExecContext free_ctx;
  auto full = baseline->Explain(WhyNotQuestion(tc), &free_ctx);
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(full->complete);
}

// ---- deterministic fault-injection sweep -----------------------------------

/// Runs the engine with a failure injected at every checkpoint a clean run
/// passes, proving (a) no interruption point crashes or corrupts the result,
/// (b) partial answers are always subsets of the complete answer, and -- in
/// sanitizer builds -- (c) no interruption point leaks memory.
TEST(ExecLimits, FaultInjectionSweepNeverCorrupts) {
  Database db;
  NED_ASSERT_OK_AND_MOVE(db, BuildRunningExampleDb());
  QueryTree tree;
  NED_ASSERT_OK_AND_MOVE(tree, BuildRunningExampleTree(db));
  auto engine = NedExplainEngine::Create(&tree, &db);
  ASSERT_TRUE(engine.ok());
  WhyNotQuestion question = RunningExampleQuestion();

  // Probe: learn the step space and the golden answer of a clean run.
  ExecContext probe;
  auto golden = engine->Explain(question, &probe);
  ASSERT_TRUE(golden.ok());
  ASSERT_TRUE(golden->completeness.complete);
  const uint64_t total_steps = probe.steps();
  ASSERT_GT(total_steps, 0u);
  std::set<std::string> golden_condensed;
  for (const OperatorNode* node : golden->answer.condensed) {
    golden_condensed.insert(node->name);
  }

  for (uint64_t step = 1; step <= total_steps; ++step) {
    SCOPED_TRACE("injected failure at checkpoint " + std::to_string(step));
    ExecContext ctx;
    ctx.InjectFailureAt(step);
    auto result = engine->Explain(question, &ctx);
    // Graceful degradation everywhere: an injected limit must never surface
    // as an error or crash.
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_FALSE(result->completeness.complete);
    EXPECT_EQ(result->completeness.tripped, StatusCode::kResourceExhausted);
    EXPECT_NE(result->completeness.detail.find("injected"),
              std::string::npos);
    EXPECT_LE(result->completeness.ctuples_finished,
              result->completeness.ctuples_total);
    // Soundness: everything reported was genuinely established -- condensed
    // entries must be a subset of the complete run's, and every pointer must
    // be a live node of the tree.
    for (const OperatorNode* node : result->answer.condensed) {
      ASSERT_NE(node, nullptr);
      EXPECT_EQ(golden_condensed.count(node->name), 1u)
          << "partial answer invented subquery " << node->name;
    }
    for (const auto& entry : result->answer.detailed) {
      ASSERT_NE(entry.subquery, nullptr);
    }
    for (const auto& part : result->per_ctuple) {
      if (!part.complete) {
        EXPECT_TRUE(IsResourceLimit(part.limit_status));
      }
    }
  }

  // Determinism: the same injection point yields the same partial answer.
  const uint64_t mid = (total_steps + 1) / 2;
  ExecContext a, b;
  a.InjectFailureAt(mid);
  b.InjectFailureAt(mid);
  auto ra = engine->Explain(question, &a);
  auto rb = engine->Explain(question, &b);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->answer.detailed.size(), rb->answer.detailed.size());
  EXPECT_EQ(ra->completeness.ToString(), rb->completeness.ToString());
  EXPECT_EQ(a.steps(), b.steps());
}

// ---- row-budget sweep over the paper's use cases ---------------------------

/// Condensed answer of `result` by subquery name.
std::set<std::string> CondensedNames(const NedExplainResult& result) {
  std::set<std::string> names;
  for (const OperatorNode* node : result.answer.condensed) {
    names.insert(node->name);
  }
  return names;
}

/// Every use case at x1 under row budgets of k/40 of a clean run's charged
/// rows (k = 1..39). The walk evaluates each subquery just before it
/// maintains TabQ for it (Alg. 1 line 8), so a budget that trips keeps what
/// the walk established below the stop point: a partial answer never names
/// a subquery outside the complete answer.
TEST(ExecLimits, RowBudgetSweepKeepsPartialAnswersSound) {
  auto registry = UseCaseRegistry::Build();
  ASSERT_TRUE(registry.ok()) << registry.status().ToString();
  ASSERT_EQ(registry->use_cases().size(), 19u);
  constexpr size_t kSteps = 40;
  size_t partial_runs = 0;
  for (const UseCase& uc : registry->use_cases()) {
    SCOPED_TRACE(uc.name);
    auto tree = registry->BuildTree(uc);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    auto engine =
        NedExplainEngine::Create(&*tree, &registry->database(uc.db_name));
    ASSERT_TRUE(engine.ok());
    ExecContext probe;
    auto complete = engine->Explain(uc.question, &probe);
    ASSERT_TRUE(complete.ok()) << complete.status().ToString();
    ASSERT_TRUE(complete->completeness.complete);
    const std::set<std::string> complete_condensed = CondensedNames(*complete);
    for (size_t k = 1; k < kSteps; ++k) {
      const size_t budget = probe.rows_charged() * k / kSteps;
      SCOPED_TRACE("row budget " + std::to_string(budget));
      ExecContext ctx;
      ctx.set_row_budget(budget);
      auto result = engine->Explain(uc.question, &ctx);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      if (result->completeness.complete) continue;
      ++partial_runs;
      EXPECT_EQ(result->completeness.tripped, StatusCode::kResourceExhausted);
      for (const std::string& name : CondensedNames(*result)) {
        EXPECT_EQ(complete_condensed.count(name), 1u)
            << "partial answer invented subquery " << name;
      }
    }
  }
  EXPECT_GT(partial_runs, 0u);
}

// Imdb1 under a 1,802-row budget: the three scans charge 1,583 rows and
// m2 (the selection over M) 123 more, so the budget trips when m3 (the
// selection over R, 132 rows) is evaluated. By then the walk has maintained
// m2 and found it picky, so the partial answer keeps m2 and names m3 as the
// stop point.
TEST(ExecLimits, RowBudgetTripKeepsWhatTheWalkEstablished) {
  auto registry = UseCaseRegistry::Build();
  ASSERT_TRUE(registry.ok()) << registry.status().ToString();
  auto uc = registry->Find("Imdb1");
  ASSERT_TRUE(uc.ok());
  auto tree = registry->BuildTree(**uc);
  ASSERT_TRUE(tree.ok());
  auto engine =
      NedExplainEngine::Create(&*tree, &registry->database((*uc)->db_name));
  ASSERT_TRUE(engine.ok());
  ExecContext ctx;
  ctx.set_row_budget(1802);
  auto result = engine->Explain((*uc)->question, &ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->completeness.complete);
  EXPECT_EQ(result->completeness.tripped, StatusCode::kResourceExhausted);
  EXPECT_EQ(result->completeness.stopped_at, "m3");
  EXPECT_EQ(CondensedNames(*result), std::set<std::string>{"m2"});
}

}  // namespace
}  // namespace ned
