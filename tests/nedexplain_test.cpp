/// \file nedexplain_test.cpp
/// \brief End-to-end tests of the NedExplain engine against the paper's
/// worked examples (Ex. 1.1, 2.6, 2.7, 3.2) plus engine-level invariants.

#include <gtest/gtest.h>

#include "core/nedexplain.h"
#include "core/report.h"
#include "datasets/running_example.h"
#include "datasets/use_cases.h"
#include "tests/test_util.h"

#include <map>
#include <set>

namespace ned {
namespace {

using testing::MustCompile;
using testing::MustExplain;

struct RunningExample {
  Database db;
  QueryTree tree;
};

RunningExample MakeRunningExample() {
  auto db = BuildRunningExampleDb();
  NED_CHECK(db.ok());
  auto tree = BuildRunningExampleTree(*db);
  NED_CHECK(tree.ok());
  return {std::move(db).value(), std::move(tree).value()};
}

// ---- the paper's running example -----------------------------------------------

TEST(NedExplain, Example26HomerBlamedOnTheSelection) {
  RunningExample ex = MakeRunningExample();
  auto engine = NedExplainEngine::Create(&ex.tree, &ex.db);
  ASSERT_TRUE(engine.ok());
  auto result = engine->Explain(RunningExampleQuestionHomer());
  ASSERT_TRUE(result.ok());

  // Ex. 2.6: the detailed answer is {(t4, Q3)} where Q3 is the dob
  // selection; no (⊥, ...) entry is reported because the concrete pair
  // subsumes it.
  ASSERT_EQ(result->answer.detailed.size(), 1u);
  const DetailedEntry& entry = result->answer.detailed[0];
  EXPECT_FALSE(entry.is_bottom());
  EXPECT_EQ(engine->last_input().DisplayTuple(entry.dir_tuple), "A.aid:a1");
  EXPECT_EQ(entry.subquery->kind, OpKind::kSelect);
  EXPECT_EQ(result->answer.condensed.size(), 1u);
  EXPECT_TRUE(result->answer.secondary.empty());
}

TEST(NedExplain, Example11SecondCTupleBlamesTheAidJoin) {
  // "the join between A and AB prunes the only author with name different
  // than Homer or Sophocles" (Euripides has no books).
  RunningExample ex = MakeRunningExample();
  auto result = MustExplain(ex.tree, ex.db, RunningExampleQuestion());
  ASSERT_EQ(result.per_ctuple.size(), 2u);
  const WhyNotAnswer& second = result.per_ctuple[1].answer;
  ASSERT_EQ(second.detailed.size(), 1u);
  EXPECT_EQ(second.detailed[0].subquery->kind, OpKind::kJoin);
  // The blamed join is the deeper one (A with AB).
  EXPECT_EQ(second.detailed[0].subquery->renaming.triples()[0].anew, "aid");
}

TEST(NedExplain, Example32EarlyTermination) {
  RunningExample ex = MakeRunningExample();
  auto result = MustExplain(ex.tree, ex.db, RunningExampleQuestionHomer());
  ASSERT_EQ(result.per_ctuple.size(), 1u);
  EXPECT_TRUE(result.per_ctuple[0].early_terminated);
  // Termination happens at the root (the aggregate), as in Ex. 3.2.
  ASSERT_NE(result.per_ctuple[0].terminated_at, nullptr);
  EXPECT_EQ(result.per_ctuple[0].terminated_at->kind, OpKind::kAggregate);
}

TEST(NedExplain, EarlyTerminationOffGivesSameAnswer) {
  RunningExample ex = MakeRunningExample();
  NedExplainOptions off;
  off.enable_early_termination = false;
  auto with = MustExplain(ex.tree, ex.db, RunningExampleQuestion());
  auto without = MustExplain(ex.tree, ex.db, RunningExampleQuestion(), off);
  ASSERT_EQ(with.answer.detailed.size(), without.answer.detailed.size());
  for (size_t i = 0; i < with.answer.detailed.size(); ++i) {
    EXPECT_EQ(with.answer.detailed[i].dir_tuple,
              without.answer.detailed[i].dir_tuple);
    EXPECT_EQ(with.answer.detailed[i].subquery->name,
              without.answer.detailed[i].subquery->name);
  }
}

TEST(NedExplain, QuestionMatchingExistingTupleSurvives) {
  // (Sophocles, 49) is in the result: no picky subquery, survivors > 0.
  RunningExample ex = MakeRunningExample();
  CTuple tc;
  tc.Add("A.name", Value::Str("Sophocles"));
  auto result = MustExplain(ex.tree, ex.db, WhyNotQuestion(tc));
  EXPECT_TRUE(result.answer.detailed.empty());
  ASSERT_EQ(result.per_ctuple.size(), 1u);
  EXPECT_GT(result.per_ctuple[0].survivors_at_root, 0u);
}

TEST(NedExplain, Example27SecondaryAnswer) {
  // Replace B with B join TOC where TOC is empty: the detailed answer blames
  // the top join for t4, and the secondary answer surfaces the join that
  // emptied the B side (Q1' in Ex. 2.7).
  Database db;
  NED_CHECK(db.LoadCsv("A", "aid,name,dob\na1,Homer,-800\n").ok());
  NED_CHECK(db.LoadCsv("AB", "aid,bid\na1,b1\n").ok());
  NED_CHECK(db.LoadCsv("B", "bid,title,price\nb1,Odyssey,15\n").ok());
  NED_CHECK(db.LoadCsv("TOC", "bid,chapter\n").ok());  // empty
  QueryTree tree = MustCompile(
      "SELECT A.name, B.title FROM A, AB, B, TOC "
      "WHERE A.aid = AB.aid AND B.bid = AB.bid AND TOC.bid = B.bid",
      db);
  CTuple tc;
  tc.Add("A.name", Value::Str("Homer"));
  auto result = MustExplain(tree, db, WhyNotQuestion(tc));
  // Homer is blamed on some join (his chain dies when TOC's emptiness
  // propagates), and the secondary answer contains the join with TOC.
  ASSERT_FALSE(result.answer.detailed.empty());
  EXPECT_EQ(result.answer.detailed[0].subquery->kind, OpKind::kJoin);
  ASSERT_FALSE(result.answer.secondary.empty());
  bool toc_join = false;
  for (const OperatorNode* node : result.answer.secondary) {
    if (node->kind == OpKind::kJoin) toc_join = true;
  }
  EXPECT_TRUE(toc_join);
}

TEST(NedExplain, CondAlphaFlipYieldsBottomEntry) {
  // Crime9/Gov6 analogue: the question constrains the group attribute (in P)
  // and the aggregate; the filtered rows live in X (indirect compatibles),
  // so the flip at the selection above V yields a (⊥, sigma) entry -- the
  // compatible P tuple itself keeps valid successors.
  Database db;
  NED_CHECK(db.LoadCsv("P", "id,name\n1,x\n2,y\n").ok());
  NED_CHECK(db.LoadCsv("X", "pid,stage,v\n1,ok,10\n1,bad,5\n2,ok,1\n").ok());
  QueryTree tree = MustCompile(
      "SELECT P.name, sum(X.v) AS s FROM P, X "
      "WHERE P.id = X.pid AND X.stage = 'ok' GROUP BY P.name",
      db);
  CTuple tc;
  tc.Add("P.name", Value::Str("x"))
      .AddVar("s", "z")
      .Where("z", CompareOp::kEq, Value::Int(15));
  auto result = MustExplain(tree, db, WhyNotQuestion(tc));
  ASSERT_EQ(result.answer.detailed.size(), 1u);
  EXPECT_TRUE(result.answer.detailed[0].is_bottom());
  EXPECT_EQ(result.answer.detailed[0].subquery->kind, OpKind::kSelect);
}

TEST(NedExplain, CondAlphaFlipWithBlockedDirTupleEmitsConcretePair) {
  // When the blocked row is itself directly compatible (the question names
  // its group attribute in the same relation), the concrete pair subsumes
  // the ⊥ entry (Alg. 3 / Ex. 2.6).
  Database db;
  NED_CHECK(db.LoadCsv("T", "g,stage,v\nx,ok,10\nx,bad,5\ny,ok,1\n").ok());
  QueryTree tree = MustCompile(
      "SELECT T.g, sum(T.v) AS s FROM T WHERE T.stage = 'ok' GROUP BY T.g",
      db);
  CTuple tc;
  tc.Add("T.g", Value::Str("x"))
      .AddVar("s", "z")
      .Where("z", CompareOp::kEq, Value::Int(15));
  auto result = MustExplain(tree, db, WhyNotQuestion(tc));
  ASSERT_EQ(result.answer.detailed.size(), 1u);
  EXPECT_FALSE(result.answer.detailed[0].is_bottom());
  EXPECT_EQ(result.answer.detailed[0].subquery->kind, OpKind::kSelect);
}

TEST(NedExplain, NoCondAlphaFlipWhenValueNeverReachable) {
  // The sum never equals 100 anywhere: no flip, no answer, survivors exist.
  Database db;
  NED_CHECK(db.LoadCsv("T", "g,stage,v\nx,ok,10\n").ok());
  QueryTree tree = MustCompile(
      "SELECT T.g, sum(T.v) AS s FROM T WHERE T.stage = 'ok' GROUP BY T.g",
      db);
  CTuple tc;
  tc.Add("T.g", Value::Str("x"))
      .AddVar("s", "z")
      .Where("z", CompareOp::kEq, Value::Int(100));
  auto result = MustExplain(tree, db, WhyNotQuestion(tc));
  EXPECT_TRUE(result.answer.detailed.empty());
}

TEST(NedExplain, CondAlphaOnTheAskedGroupKeepsOtherGroupsTypeErrors) {
  // cond-alpha aggregates only the asked group (g = x), whose arguments are
  // all NULL, but must fail like the aggregation of every group: the sum over
  // y's string fails. The selection above V removes the asked group, so
  // early termination stops before alpha itself is evaluated, and only the
  // cond-alpha check at the selection can raise the error.
  Database db;
  NED_CHECK(db.LoadCsv("T", "g,stage,v\nx,bad,\ny,ok,abc\n").ok());
  QueryTree tree = MustCompile(
      "SELECT T.g, sum(T.v) AS s FROM T WHERE T.stage = 'ok' GROUP BY T.g",
      db);
  CTuple tc;
  tc.Add("T.g", Value::Str("x"))
      .AddVar("s", "z")
      .Where("z", CompareOp::kGt, Value::Int(0));
  auto engine = NedExplainEngine::Create(&tree, &db);
  ASSERT_TRUE(engine.ok());
  auto result = engine->Explain(WhyNotQuestion(tc));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTypeError)
      << result.status().ToString();
}

TEST(NedExplain, BlockedBelowVIsReportedWithTupleId) {
  // Crime10 analogue: the compatible tuple dies inside V (a join), so the
  // detailed answer carries its id rather than ⊥.
  Database db;
  NED_CHECK(db.LoadCsv("P", "id,name\n1,Roger\n2,Anna\n").ok());
  NED_CHECK(db.LoadCsv("X", "pid,v\n2,5\n").ok());
  QueryTree tree = MustCompile(
      "SELECT P.name, sum(X.v) AS s FROM P, X WHERE P.id = X.pid "
      "GROUP BY P.name",
      db);
  CTuple tc;
  tc.Add("P.name", Value::Str("Roger"));
  auto result = MustExplain(tree, db, WhyNotQuestion(tc));
  ASSERT_EQ(result.answer.detailed.size(), 1u);
  EXPECT_FALSE(result.answer.detailed[0].is_bottom());
  EXPECT_EQ(result.answer.detailed[0].subquery->kind, OpKind::kJoin);
}

TEST(NedExplain, DisjunctionUnionsAnswers) {
  RunningExample ex = MakeRunningExample();
  auto result = MustExplain(ex.tree, ex.db, RunningExampleQuestion());
  // Two c-tuples, two distinct picky subqueries (Ex. 1.1): union of both.
  EXPECT_EQ(result.answer.condensed.size(), 2u);
  EXPECT_EQ(result.unrenamed.ctuples().size(), 2u);
  EXPECT_EQ(result.dir_total, 2u);  // t4 and t6
}

TEST(NedExplain, EmptyDirYieldsEmptyAnswer) {
  RunningExample ex = MakeRunningExample();
  CTuple tc;
  tc.Add("A.name", Value::Str("Nobody"));
  auto result = MustExplain(ex.tree, ex.db, WhyNotQuestion(tc));
  EXPECT_TRUE(result.answer.detailed.empty());
  EXPECT_TRUE(result.answer.condensed.empty());
  EXPECT_EQ(result.dir_total, 0u);
}

TEST(NedExplain, PhasesAreAllCharged) {
  RunningExample ex = MakeRunningExample();
  auto result = MustExplain(ex.tree, ex.db, RunningExampleQuestionHomer());
  EXPECT_GT(result.phases.Nanos(phase::kInitialization), 0);
  EXPECT_GT(result.phases.Nanos(phase::kCompatibleFinder), 0);
  EXPECT_GT(result.phases.Nanos(phase::kSuccessorsFinder), 0);
  EXPECT_GT(result.phases.Nanos(phase::kBottomUp), 0);
}

TEST(NedExplain, TabQDumpRendersWhenRequested) {
  RunningExample ex = MakeRunningExample();
  NedExplainOptions options;
  options.keep_tabq_dump = true;
  auto result =
      MustExplain(ex.tree, ex.db, RunningExampleQuestionHomer(), options);
  ASSERT_EQ(result.per_ctuple.size(), 1u);
  EXPECT_NE(result.per_ctuple[0].tabq_dump.find("Compatibles"),
            std::string::npos);
  // Default: no dump.
  auto plain = MustExplain(ex.tree, ex.db, RunningExampleQuestionHomer());
  EXPECT_TRUE(plain.per_ctuple[0].tabq_dump.empty());
}

TEST(NedExplain, ReportRendering) {
  RunningExample ex = MakeRunningExample();
  auto engine = NedExplainEngine::Create(&ex.tree, &ex.db);
  ASSERT_TRUE(engine.ok());
  WhyNotQuestion question = RunningExampleQuestionHomer();
  auto result = engine->Explain(question);
  ASSERT_TRUE(result.ok());
  std::string report = RenderExplainReport(*engine, question, *result);
  EXPECT_NE(report.find("Homer"), std::string::npos);
  EXPECT_NE(report.find("Breakpoint view"), std::string::npos);
  EXPECT_NE(report.find("detailed"), std::string::npos);
  // The one-line summary: condensed names, detailed count, secondary names
  // and the completeness tag, with nothing after it.
  EXPECT_EQ(SummarizeResult(*engine, *result).ToString(),
            "condensed=[m5] detailed=1 secondary=[] (complete)");
  std::string phases = RenderPhaseBreakdown(result->phases);
  EXPECT_NE(phases.find("Initialization"), std::string::npos);
}

TEST(WhyNotAnswer, MergeKeepsFirstSeenOrderAndDropsRepeats) {
  // Detailed answers reach thousands of entries at scale (Gov5 at x16), so
  // the merge must stay linear while keeping set semantics and the
  // first-seen order the renderings depend on.
  RunningExample ex = MakeRunningExample();
  const auto& nodes = ex.tree.bottom_up();
  auto entry = [&](size_t i) {
    return DetailedEntry{MakeTupleId(0, i % 1500), nodes[i % nodes.size()]};
  };
  WhyNotAnswer first, second;
  for (size_t i = 0; i < 4000; ++i) first.detailed.push_back(entry(i));
  for (size_t i = 2000; i < 9000; ++i) second.detailed.push_back(entry(i));

  std::vector<DetailedEntry> expected;
  std::set<std::pair<TupleId, const OperatorNode*>> seen;
  for (const WhyNotAnswer* part : {&first, &second}) {
    for (const DetailedEntry& e : part->detailed) {
      if (seen.emplace(e.dir_tuple, e.subquery).second) expected.push_back(e);
    }
  }

  WhyNotAnswer merged;
  merged.MergeFrom(first);
  merged.MergeFrom(second);
  merged.MergeFrom(first);  // a repeat merge adds nothing
  EXPECT_EQ(merged.detailed, expected);
  EXPECT_EQ(merged.detailed.size(), seen.size());
  EXPECT_LT(merged.detailed.size(), first.detailed.size() +
                                        second.detailed.size());
}

TEST(NedExplain, MultipleAggregatesRejected) {
  Database db;
  NED_CHECK(db.LoadCsv("T", "g,v\nx,1\n").ok());
  // Build a union of two aggregate blocks; the engine (not the tree) rejects.
  QueryTree tree = MustCompile(
      "SELECT T.g, sum(T.v) AS s FROM T GROUP BY T.g "
      "UNION SELECT T2.g, sum(T2.v) AS s2 FROM T T2 GROUP BY T2.g",
      db);
  auto engine = NedExplainEngine::Create(&tree, &db);
  EXPECT_FALSE(engine.ok());
}

// ---- engine invariants over every use case (Property 2.1 etc.) -----------------

class UseCaseInvariants : public ::testing::TestWithParam<std::string> {
 protected:
  static const UseCaseRegistry& Registry() {
    static const UseCaseRegistry* registry = [] {
      auto r = UseCaseRegistry::Build();
      NED_CHECK(r.ok());
      return new UseCaseRegistry(std::move(r).value());
    }();
    return *registry;
  }
};

TEST_P(UseCaseInvariants, Property21AtMostOnePickySubqueryPerDirTuple) {
  auto uc = Registry().Find(GetParam());
  ASSERT_TRUE(uc.ok());
  auto tree = Registry().BuildTree(**uc);
  ASSERT_TRUE(tree.ok());
  auto result =
      MustExplain(*tree, Registry().database((*uc)->db_name), (*uc)->question);
  for (const auto& part : result.per_ctuple) {
    std::map<TupleId, const OperatorNode*> blamed;
    for (const auto& entry : part.answer.detailed) {
      if (entry.is_bottom()) continue;
      auto [it, inserted] = blamed.emplace(entry.dir_tuple, entry.subquery);
      EXPECT_TRUE(inserted || it->second == entry.subquery)
          << "Dir tuple blamed at two subqueries (violates Property 2.1)";
    }
  }
}

TEST_P(UseCaseInvariants, DetailedEntriesReferenceDirTuplesAndTreeNodes) {
  auto uc = Registry().Find(GetParam());
  ASSERT_TRUE(uc.ok());
  auto tree = Registry().BuildTree(**uc);
  ASSERT_TRUE(tree.ok());
  auto engine =
      NedExplainEngine::Create(&*tree, &Registry().database((*uc)->db_name));
  ASSERT_TRUE(engine.ok());
  auto result = engine->Explain((*uc)->question);
  ASSERT_TRUE(result.ok());
  for (const auto& part : result->per_ctuple) {
    for (const auto& entry : part.answer.detailed) {
      // Every blamed subquery is a node of this tree.
      bool in_tree = false;
      for (const OperatorNode* node : tree->bottom_up()) {
        if (node == entry.subquery) in_tree = true;
      }
      EXPECT_TRUE(in_tree);
      if (!entry.is_bottom()) {
        EXPECT_TRUE(part.compat.dir.contains(entry.dir_tuple))
            << "detailed entry references a non-compatible tuple";
      }
    }
    // Condensed is exactly the distinct subqueries of detailed.
    std::set<const OperatorNode*> distinct;
    for (const auto& entry : part.answer.detailed) distinct.insert(entry.subquery);
    EXPECT_EQ(part.answer.condensed.size(), distinct.size());
  }
}

TEST_P(UseCaseInvariants, EveryDirTupleIsBlamedOrSurvivesOrStarves) {
  auto uc = Registry().Find(GetParam());
  ASSERT_TRUE(uc.ok());
  auto tree = Registry().BuildTree(**uc);
  ASSERT_TRUE(tree.ok());
  auto result =
      MustExplain(*tree, Registry().database((*uc)->db_name), (*uc)->question);
  for (const auto& part : result.per_ctuple) {
    if (!part.compat.cond_alpha.empty()) continue;  // ⊥-entries allowed
    // Without aggregation: if nothing survives to the root, every compatible
    // Dir tuple must be accounted for by some detailed pair.
    if (part.survivors_at_root > 0) continue;
    std::set<TupleId> blamed;
    for (const auto& entry : part.answer.detailed) {
      blamed.insert(entry.dir_tuple);
    }
    for (const auto& [alias, ids] : part.compat.dir_by_alias) {
      for (TupleId id : ids) {
        EXPECT_EQ(blamed.count(id), 1u)
            << "Dir tuple " << alias << " row neither blamed nor surviving";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllUseCases, UseCaseInvariants,
    ::testing::Values("Crime1", "Crime2", "Crime3", "Crime4", "Crime5",
                      "Crime6", "Crime7", "Crime8", "Crime9", "Crime10",
                      "Imdb1", "Imdb2", "Gov1", "Gov2", "Gov3", "Gov4", "Gov5",
                      "Gov6", "Gov7"));

}  // namespace
}  // namespace ned
