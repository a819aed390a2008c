/// \file whynot_test.cpp
/// \brief Tests for the Why-Not question model: c-tuples, unrenaming
/// (Def. 2.7) and compatibility / CompatibleFinder (Def. 2.8, Sec. 3.1 2a).

#include <gtest/gtest.h>

#include <algorithm>

#include "datasets/running_example.h"
#include "tests/test_util.h"
#include "whynot/compatible_finder.h"
#include "whynot/ctuple.h"
#include "whynot/unrenaming.h"

namespace ned {
namespace {

using testing::MakeTinyDb;
using testing::MustCompile;

// ---- c-tuples -----------------------------------------------------------------

TEST(CTuple, BuilderAndToString) {
  CTuple tc;
  tc.Add("A.name", Value::Str("Homer"))
      .AddVar("ap", "x1")
      .Where("x1", CompareOp::kGt, Value::Int(25));
  EXPECT_EQ(tc.ToString(), "((A.name:Homer, ap:x1), x1 > 25)");
  EXPECT_EQ(tc.fields().size(), 2u);
  EXPECT_EQ(tc.Type().ToString(), "{A.name, ap}");
  const CValue* field = tc.Find(Attribute::Parse("ap"));
  ASSERT_NE(field, nullptr);
  EXPECT_TRUE(field->is_var);
  EXPECT_EQ(tc.Find(Attribute::Parse("zzz")), nullptr);
}

TEST(WhyNotQuestion, DisjunctionToString) {
  WhyNotQuestion q = RunningExampleQuestion();
  EXPECT_EQ(q.ctuples().size(), 2u);
  EXPECT_NE(q.ToString().find(" OR "), std::string::npos);
}

// ---- unrenaming -----------------------------------------------------------------

TEST(Unrenaming, QualifiedFieldsPassThrough) {
  Database db = MakeTinyDb();
  QueryTree tree = MustCompile("SELECT R.v FROM R WHERE R.k > 5", db);
  CTuple tc;
  tc.Add("R.v", Value::Str("a"));
  auto out = UnrenameCTuple(tree, tc);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0].ToString(), tc.ToString());
}

TEST(Unrenaming, JoinExpandsIntoBothOrigins) {
  // Ex. 2.2 analogue: the renamed attribute unfolds into both qualified
  // attributes inside the *same* c-tuple.
  Database db = MakeTinyDb();
  QueryTree tree = MustCompile("SELECT k FROM R, S WHERE R.k = S.k", db);
  CTuple tc;
  tc.Add("k", Value::Int(10));
  auto out = UnrenameCTuple(tree, tc);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  const CTuple& u = (*out)[0];
  EXPECT_EQ(u.fields().size(), 2u);
  EXPECT_NE(u.Find(Attribute::Parse("R.k")), nullptr);
  EXPECT_NE(u.Find(Attribute::Parse("S.k")), nullptr);
}

TEST(Unrenaming, ChainedRenamingsUnfoldTransitively) {
  Database db;
  NED_CHECK(db.LoadCsv("A", "k\n1\n").ok());
  NED_CHECK(db.LoadCsv("B", "k\n1\n").ok());
  NED_CHECK(db.LoadCsv("C", "k\n1\n").ok());
  QueryTree tree = MustCompile(
      "SELECT k_2 FROM A, B, C WHERE A.k = B.k AND B.k = C.k", db);
  CTuple tc;
  tc.Add("k_2", Value::Int(1));
  auto out = UnrenameCTuple(tree, tc);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  // k_2 -> {k, C.k} -> {A.k, B.k, C.k}.
  EXPECT_EQ((*out)[0].fields().size(), 3u);
  EXPECT_NE((*out)[0].Find(Attribute::Parse("A.k")), nullptr);
  EXPECT_NE((*out)[0].Find(Attribute::Parse("B.k")), nullptr);
  EXPECT_NE((*out)[0].Find(Attribute::Parse("C.k")), nullptr);
}

TEST(Unrenaming, UnionForksIntoDisjunction) {
  Database db;
  NED_CHECK(db.LoadCsv("A", "x\n1\n").ok());
  NED_CHECK(db.LoadCsv("B", "y\n2\n").ok());
  QueryTree tree = MustCompile("SELECT A.x FROM A UNION SELECT B.y FROM B", db);
  CTuple tc;
  tc.Add("x", Value::Int(7));  // the union output attribute
  auto out = UnrenameCTuple(tree, tc);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);
  EXPECT_NE((*out)[0].Find(Attribute::Parse("A.x")), nullptr);
  EXPECT_NE((*out)[1].Find(Attribute::Parse("B.y")), nullptr);
}

TEST(Unrenaming, AggregateOutputsStayUntouched) {
  auto db = BuildRunningExampleDb();
  ASSERT_TRUE(db.ok());
  auto tree = BuildRunningExampleTree(*db);
  ASSERT_TRUE(tree.ok());
  CTuple tc;
  tc.Add("A.name", Value::Str("Homer")).AddVar("ap", "x1");
  auto out = UnrenameCTuple(*tree, tc);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_NE((*out)[0].Find(Attribute::Parse("ap")), nullptr);
  EXPECT_NE((*out)[0].Find(Attribute::Parse("A.name")), nullptr);
}

TEST(Unrenaming, ConditionsAreCarried) {
  Database db = MakeTinyDb();
  QueryTree tree = MustCompile("SELECT k FROM R, S WHERE R.k = S.k", db);
  CTuple tc;
  tc.AddVar("k", "x").Where("x", CompareOp::kGt, Value::Int(5));
  auto out = UnrenameCTuple(tree, tc);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ((*out)[0].cond().size(), 1u);
}

// ---- compatibility (Def. 2.8) -------------------------------------------------------

Schema ASchema() { return Schema({{"A", "aid"}, {"A", "name"}, {"A", "dob"}}); }

TEST(Compatibility, ConstantFieldMustMatch) {
  CTuple tc;
  tc.Add("A.name", Value::Str("Homer"));
  Tuple homer({Value::Str("a1"), Value::Str("Homer"), Value::Int(-800)});
  Tuple sophocles({Value::Str("a2"), Value::Str("Sophocles"), Value::Int(-400)});
  EXPECT_TRUE(IsCompatible(tc, homer, ASchema()));
  EXPECT_FALSE(IsCompatible(tc, sophocles, ASchema()));
}

TEST(Compatibility, VariableFieldBindsAndChecksCondition) {
  // Ex. 2.1's second c-tuple: name x2 with x2 != Homer, x2 != Sophocles.
  CTuple tc;
  tc.AddVar("A.name", "x2")
      .Where("x2", CompareOp::kNe, Value::Str("Homer"))
      .Where("x2", CompareOp::kNe, Value::Str("Sophocles"));
  Tuple homer({Value::Str("a1"), Value::Str("Homer"), Value::Int(-800)});
  Tuple euripides({Value::Str("a3"), Value::Str("Euripides"), Value::Int(-400)});
  EXPECT_FALSE(IsCompatible(tc, homer, ASchema()));
  EXPECT_TRUE(IsCompatible(tc, euripides, ASchema()));
}

TEST(Compatibility, FreeVariablesStayExistential) {
  // Ex. 2.3: t4 is compatible with ((Homer, x1), x1 > 25): x1 is free.
  CTuple tc;
  tc.Add("A.name", Value::Str("Homer"))
      .AddVar("ap", "x1")
      .Where("x1", CompareOp::kGt, Value::Int(25));
  Tuple homer({Value::Str("a1"), Value::Str("Homer"), Value::Int(-800)});
  EXPECT_TRUE(IsCompatible(tc, homer, ASchema()));
}

TEST(Compatibility, RequiresSharedType) {
  CTuple tc;
  tc.Add("B.price", Value::Int(49));
  Tuple homer({Value::Str("a1"), Value::Str("Homer"), Value::Int(-800)});
  EXPECT_FALSE(IsCompatible(tc, homer, ASchema()));  // no shared attribute
}

TEST(Compatibility, AllFieldsOfTheRelationMustCoOccur) {
  // Sec. 3.1 (2a): fields referencing the same relation must co-occur in the
  // same tuple.
  CTuple tc;
  tc.Add("A.name", Value::Str("Homer")).Add("A.dob", Value::Int(-400));
  Tuple homer({Value::Str("a1"), Value::Str("Homer"), Value::Int(-800)});
  EXPECT_FALSE(IsCompatible(tc, homer, ASchema()));
}

TEST(Compatibility, SameVariableTwiceMustAgree) {
  Schema schema({{"R", "a"}, {"R", "b"}});
  CTuple tc;
  tc.AddVar("R.a", "x").AddVar("R.b", "x");
  EXPECT_TRUE(IsCompatible(tc, Tuple({Value::Int(1), Value::Int(1)}), schema));
  EXPECT_FALSE(IsCompatible(tc, Tuple({Value::Int(1), Value::Int(2)}), schema));
}

// ---- CompatibleFinder -----------------------------------------------------------------

TEST(CompatibleFinder, PartitionsDirAndInDir) {
  // Ex. 2.4 analogue on the running example: Dir = {t4}, InDir = AB u B.
  auto db = BuildRunningExampleDb();
  ASSERT_TRUE(db.ok());
  auto tree = BuildRunningExampleTree(*db);
  ASSERT_TRUE(tree.ok());
  auto input = QueryInput::Build(*tree, *db);
  ASSERT_TRUE(input.ok());

  CTuple tc;
  tc.Add("A.name", Value::Str("Homer"))
      .AddVar("ap", "x1")
      .Where("x1", CompareOp::kGt, Value::Int(25));
  auto sets = FindCompatibles(tc, *input, {"ap"});
  ASSERT_TRUE(sets.ok());
  EXPECT_EQ(sets->dir.size(), 1u);  // t4 only
  EXPECT_EQ(sets->indir.size(), 6u);  // 3 AB rows + 3 B rows
  size_t in_d = 0;  // D = Dir u InDir
  for (const std::string& alias : input->aliases()) {
    for (const BlockRow& t : **input->AliasBlock(alias)) {
      in_d += sets->dir.contains(t.rid) || sets->indir.contains(t.rid);
    }
  }
  EXPECT_EQ(in_d, 7u);
  ASSERT_EQ(sets->dir_by_alias.count("A"), 1u);
  EXPECT_EQ(sets->dir_by_alias.at("A").size(), 1u);
  EXPECT_EQ(sets->indir_aliases.size(), 2u);
  // Dir and InDir are disjoint (Def. 2.8).
  for (TupleId id : sets->dir) EXPECT_FALSE(sets->indir.contains(id));
  // cond-alpha captured the aggregate field.
  EXPECT_EQ(sets->cond_alpha.agg_fields.size(), 1u);
  EXPECT_FALSE(sets->cond_alpha.empty());
}

TEST(CompatibleFinder, ReferencedAliasWithNoMatchYieldsEmptyDir) {
  auto db = BuildRunningExampleDb();
  ASSERT_TRUE(db.ok());
  auto tree = BuildRunningExampleTree(*db);
  ASSERT_TRUE(tree.ok());
  auto input = QueryInput::Build(*tree, *db);
  ASSERT_TRUE(input.ok());
  CTuple tc;
  tc.Add("A.name", Value::Str("Nobody"));
  auto sets = FindCompatibles(tc, *input, {"ap"});
  ASSERT_TRUE(sets.ok());
  EXPECT_TRUE(sets->dir.empty());
  // A is still "referenced": it is not part of InDir.
  EXPECT_EQ(sets->indir_aliases.size(), 2u);
}

TEST(CompatibleFinder, UnknownUnqualifiedFieldRejected) {
  auto db = BuildRunningExampleDb();
  ASSERT_TRUE(db.ok());
  auto tree = BuildRunningExampleTree(*db);
  ASSERT_TRUE(tree.ok());
  auto input = QueryInput::Build(*tree, *db);
  ASSERT_TRUE(input.ok());
  CTuple tc;
  tc.Add("mystery", Value::Int(1));  // neither qualified nor an agg output
  EXPECT_FALSE(FindCompatibles(tc, *input, {"ap"}).ok());
}

TEST(CompatibleFinder, SelfJoinPlacesDirInTheRightAliasOnly) {
  // The core fix over the baseline: a qualified question field selects
  // compatible tuples only in the matching alias of a self-joined relation.
  Database db = MakeTinyDb();
  QueryTree tree = MustCompile(
      "SELECT R2.v FROM R R1, R R2 WHERE R1.k = R2.k", db);
  auto input = QueryInput::Build(tree, db);
  ASSERT_TRUE(input.ok());
  CTuple tc;
  tc.Add("R2.v", Value::Str("a"));
  auto sets = FindCompatibles(tc, *input, {});
  ASSERT_TRUE(sets.ok());
  ASSERT_EQ(sets->dir_by_alias.size(), 1u);
  EXPECT_EQ(sets->dir_by_alias.begin()->first, "R2");
  EXPECT_EQ(sets->indir_aliases, (std::vector<std::string>{"R1"}));
}

TEST(CompatibleFinder, UnreferencedAliasIsOneWholeAliasRecord) {
  // R is not named by the question: InDir holds all of its rows through one
  // whole-alias record. E is named but has no rows: it keeps its S_tc
  // membership with an empty Dir list.
  Database db;
  Relation r("R", Schema({{"R", "k"}, {"R", "v"}}));
  for (int i = 0; i < 3; ++i) r.AddRow({Value::Int(i), Value::Str("r")});
  NED_CHECK(db.AddRelation(std::move(r)).ok());
  NED_CHECK(db.AddRelation(Relation("E", Schema({{"E", "k"}, {"E", "w"}}))).ok());
  QueryTree tree =
      MustCompile("SELECT R.v, E.w FROM R, E WHERE R.k = E.k", db);
  auto input = QueryInput::Build(tree, db);
  ASSERT_TRUE(input.ok());
  const std::vector<std::string>& aliases = input->aliases();
  const auto r_ordinal = static_cast<uint32_t>(
      std::find(aliases.begin(), aliases.end(), "R") - aliases.begin());
  ASSERT_LT(r_ordinal, aliases.size());

  CTuple tc;
  tc.Add("E.w", Value::Str("x"));
  auto sets = FindCompatibles(tc, *input, {});
  ASSERT_TRUE(sets.ok());
  EXPECT_TRUE(sets->dir.empty());
  ASSERT_EQ(sets->dir_by_alias.count("E"), 1u);
  EXPECT_TRUE(sets->dir_by_alias.at("E").empty());
  EXPECT_EQ(sets->indir_aliases, (std::vector<std::string>{"R"}));

  EXPECT_EQ(sets->indir.size(), 3u);
  EXPECT_EQ(std::vector<TupleId>(sets->indir.begin(), sets->indir.end()),
            (std::vector<TupleId>{MakeTupleId(r_ordinal, 0),
                                  MakeTupleId(r_ordinal, 1),
                                  MakeTupleId(r_ordinal, 2)}));
  EXPECT_TRUE(sets->indir.contains(MakeTupleId(r_ordinal, 2)));
  EXPECT_FALSE(sets->indir.contains(kInvalidTupleId));
  EXPECT_FALSE(sets->indir.contains(MakeTupleId(r_ordinal, 3)));
  const auto past = static_cast<uint32_t>(aliases.size());
  EXPECT_FALSE(sets->indir.contains(MakeTupleId(past, 0)));
  EXPECT_FALSE(sets->dir.contains(kInvalidTupleId));
  EXPECT_FALSE(sets->dir.contains(MakeTupleId(past, 0)));
}

}  // namespace
}  // namespace ned
