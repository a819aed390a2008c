/// \file difference_test.cpp
/// \brief Tests for the set-difference extension (the paper's Sec. 5 future
/// work): evaluation semantics, unrenaming through the left operand,
/// NedExplain pickiness at the difference node, and baseline gating.

#include <gtest/gtest.h>

#include "baseline/whynot_baseline.h"
#include "core/nedexplain.h"
#include "tests/test_util.h"
#include "whynot/unrenaming.h"

namespace ned {
namespace {

using testing::MustCompile;
using testing::MustEvaluate;
using testing::MustExplain;

Database MakeMembershipDb() {
  Database db;
  // All registered users vs banned users.
  NED_CHECK(db.LoadCsv("Users", "name\nalice\nbob\ncarol\n").ok());
  NED_CHECK(db.LoadCsv("Banned", "who\nbob\n").ok());
  return db;
}

TEST(Difference, EvaluatesAntiSemantics) {
  Database db = MakeMembershipDb();
  QueryTree tree = MustCompile(
      "SELECT Users.name FROM Users EXCEPT SELECT Banned.who FROM Banned", db);
  EXPECT_EQ(tree.root()->kind, OpKind::kDifference);
  auto out = MustEvaluate(tree, db);
  EXPECT_EQ(testing::Column(out, tree.target_type(), "name"),
            (std::vector<std::string>{"alice", "carol"}));
}

TEST(Difference, OutputLineageComesFromTheLeft) {
  Database db = MakeMembershipDb();
  QueryTree tree = MustCompile(
      "SELECT Users.name FROM Users EXCEPT SELECT Banned.who FROM Banned", db);
  auto input = QueryInput::Build(tree, db);
  ASSERT_TRUE(input.ok());
  Evaluator evaluator(&tree, &*input);
  auto out = evaluator.EvalAll();
  ASSERT_TRUE(out.ok());
  for (const BlockRow& t : **out) {
    ASSERT_EQ(t.lineage.size(), 1u);
    EXPECT_EQ(input->AliasOfId(t.lineage[0]), "Users");
  }
}

TEST(Difference, ValueEqualLeftTuplesMerge) {
  Database db;
  NED_CHECK(db.LoadCsv("L", "v\nx\nx\ny\n").ok());
  NED_CHECK(db.LoadCsv("R", "v\ny\n").ok());
  QueryTree tree = MustCompile(
      "SELECT L.v FROM L EXCEPT SELECT R.v FROM R", db);
  auto out = MustEvaluate(tree, db);
  ASSERT_EQ(out.size(), 1u);  // both x rows merge; y eliminated
  EXPECT_EQ(out[0].lineage.size(), 2u);
}

TEST(Difference, SchemaRequiresAlignedTypes) {
  Database db;
  NED_CHECK(db.LoadCsv("L", "a,b\n1,2\n").ok());
  NED_CHECK(db.LoadCsv("R", "c\n1\n").ok());
  EXPECT_FALSE(
      CompileSql("SELECT L.a, L.b FROM L EXCEPT SELECT R.c FROM R", db).ok());
}

TEST(Difference, UnrenamingDescendsLeftOnly) {
  Database db = MakeMembershipDb();
  QueryTree tree = MustCompile(
      "SELECT Users.name FROM Users EXCEPT SELECT Banned.who FROM Banned", db);
  CTuple tc;
  tc.Add("name", Value::Str("bob"));
  auto out = UnrenameCTuple(tree, tc);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_NE((*out)[0].Find(Attribute::Parse("Users.name")), nullptr);
  EXPECT_EQ((*out)[0].Find(Attribute::Parse("Banned.who")), nullptr);
}

TEST(Difference, NedExplainBlamesTheDifferenceNode) {
  // Why is bob not in the result? He exists in Users but is eliminated by a
  // Banned counterpart: the difference node is picky for him.
  Database db = MakeMembershipDb();
  QueryTree tree = MustCompile(
      "SELECT Users.name FROM Users EXCEPT SELECT Banned.who FROM Banned", db);
  CTuple tc;
  tc.Add("name", Value::Str("bob"));
  auto result = MustExplain(tree, db, WhyNotQuestion(tc));
  ASSERT_EQ(result.answer.detailed.size(), 1u);
  EXPECT_EQ(result.answer.detailed[0].subquery->kind, OpKind::kDifference);
  EXPECT_FALSE(result.answer.detailed[0].is_bottom());
}

TEST(Difference, SurvivingQuestionYieldsNoAnswer) {
  Database db = MakeMembershipDb();
  QueryTree tree = MustCompile(
      "SELECT Users.name FROM Users EXCEPT SELECT Banned.who FROM Banned", db);
  CTuple tc;
  tc.Add("name", Value::Str("alice"));
  auto result = MustExplain(tree, db, WhyNotQuestion(tc));
  EXPECT_TRUE(result.answer.detailed.empty());
  EXPECT_GT(result.per_ctuple[0].survivors_at_root, 0u);
}

TEST(Difference, BlockedBelowTheDifferenceIsStillLocalised) {
  // bob is filtered on the left side before the difference: the selection is
  // blamed, not the difference.
  Database db = MakeMembershipDb();
  QueryTree tree = MustCompile(
      "SELECT Users.name FROM Users WHERE Users.name != 'bob' "
      "EXCEPT SELECT Banned.who FROM Banned",
      db);
  CTuple tc;
  tc.Add("name", Value::Str("bob"));
  auto result = MustExplain(tree, db, WhyNotQuestion(tc));
  ASSERT_EQ(result.answer.detailed.size(), 1u);
  EXPECT_EQ(result.answer.detailed[0].subquery->kind, OpKind::kSelect);
}

TEST(Difference, RightOperandIsNotASecondaryTerminator) {
  // The Banned data "dies" at the difference node by design; that must not
  // surface as a secondary answer.
  Database db = MakeMembershipDb();
  QueryTree tree = MustCompile(
      "SELECT Users.name FROM Users EXCEPT SELECT Banned.who FROM Banned", db);
  CTuple tc;
  tc.Add("name", Value::Str("bob"));
  auto result = MustExplain(tree, db, WhyNotQuestion(tc));
  EXPECT_TRUE(result.answer.secondary.empty());
}

TEST(Difference, BaselineReportsUnsupported) {
  Database db = MakeMembershipDb();
  QueryTree tree = MustCompile(
      "SELECT Users.name FROM Users EXCEPT SELECT Banned.who FROM Banned", db);
  auto baseline = WhyNotBaseline::Create(&tree, &db);
  ASSERT_TRUE(baseline.ok());
  CTuple tc;
  tc.Add("name", Value::Str("bob"));
  auto result = baseline->Explain(WhyNotQuestion(tc));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->supported);
  EXPECT_EQ(result->AnswerToString(), "n.a.");
}

TEST(Difference, ChainedSetOperations) {
  Database db;
  NED_CHECK(db.LoadCsv("A", "v\n1\n2\n").ok());
  NED_CHECK(db.LoadCsv("B", "w\n3\n").ok());
  NED_CHECK(db.LoadCsv("C", "u\n2\n3\n").ok());
  // (A union B) except C = {1}.
  QueryTree tree = MustCompile(
      "SELECT A.v FROM A UNION SELECT B.w FROM B EXCEPT SELECT C.u FROM C",
      db);
  auto out = MustEvaluate(tree, db);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].values.at(0).as_int(), 1);
  // Why-not for 2: the difference eliminated it.
  CTuple tc;
  tc.Add("v", Value::Int(2));
  auto result = MustExplain(tree, db, WhyNotQuestion(tc));
  ASSERT_FALSE(result.answer.detailed.empty());
  EXPECT_EQ(result.answer.detailed[0].subquery->kind, OpKind::kDifference);
}

}  // namespace
}  // namespace ned
