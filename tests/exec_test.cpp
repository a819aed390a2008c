/// \file exec_test.cpp
/// \brief Unit + property tests for the lineage-tracking evaluator.

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "exec/evaluator.h"
#include "tests/test_util.h"

namespace ned {
namespace {

using testing::Column;
using testing::MakeTinyDb;
using testing::MustCompile;
using testing::MustEvaluate;

// ---- BaseSet helpers --------------------------------------------------------------

TEST(BaseSet, UnionMergesSorted) {
  BaseSet a = {1, 3, 5}, b = {2, 3, 6};
  BlockBuilder builder(0, kIntermediateRidBase, 0);
  builder.AddLineageUnion(a, b);
  builder.EndRow();
  builder.AddLineageUnion(BaseSet{}, b);
  builder.EndRow();
  Block block = std::move(builder).Finish();
  EXPECT_TRUE(block.lineage(0) == IdSpan(BaseSet{1, 2, 3, 5, 6}));
  EXPECT_TRUE(block.lineage(1) == IdSpan(b));
}

TEST(TupleIdSet, WholeAliasesAndRowBitmapsMergeAndIterateAscending) {
  TupleIdSet set;
  EXPECT_TRUE(set.insert(MakeTupleId(2, 70)));
  EXPECT_TRUE(set.insert(MakeTupleId(2, 3)));
  EXPECT_FALSE(set.insert(MakeTupleId(2, 70)));
  set.InsertAlias(0, 2);
  EXPECT_EQ(set.size(), 4u);
  EXPECT_TRUE(set.contains(MakeTupleId(0, 1)));
  EXPECT_FALSE(set.contains(MakeTupleId(0, 2)));  // past the alias's rows
  EXPECT_FALSE(set.contains(MakeTupleId(1, 0)));
  EXPECT_FALSE(set.contains(MakeTupleId(2, 4)));
  EXPECT_FALSE(set.insert(MakeTupleId(0, 1)));  // inside a whole alias

  TupleIdSet other;
  other.insert(MakeTupleId(2, 3));
  other.insert(MakeTupleId(2, 200));
  other.InsertAlias(1, 1);
  set.InsertAll(other);
  EXPECT_EQ(set.size(), 6u);
  EXPECT_EQ(std::vector<TupleId>(set.begin(), set.end()),
            (std::vector<TupleId>{MakeTupleId(0, 0), MakeTupleId(0, 1),
                                  MakeTupleId(1, 0), MakeTupleId(2, 3),
                                  MakeTupleId(2, 70), MakeTupleId(2, 200)}));
}

// ---- QueryInput ----------------------------------------------------------------------

TEST(QueryInput, AssignsDistinctIdsPerAlias) {
  Database db = MakeTinyDb();
  QueryTree tree = MustCompile(
      "SELECT R1.v FROM R R1, R R2 WHERE R1.k = R2.k", db);
  auto input = QueryInput::Build(tree, db);
  ASSERT_TRUE(input.ok());
  auto r1 = input->AliasBlock("R1");
  auto r2 = input->AliasBlock("R2");
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ((*r1)->size(), (*r2)->size());
  // Same stored rows, distinct ids: the formal device for self-joins.
  std::unordered_set<TupleId> ids;
  for (const auto& t : **r1) ids.insert(t.rid);
  for (const auto& t : **r2) EXPECT_EQ(ids.count(t.rid), 0u);
}

TEST(QueryInput, FindByIdAndDisplay) {
  Database db = MakeTinyDb();
  QueryTree tree = MustCompile("SELECT R.v FROM R", db);
  auto input = QueryInput::Build(tree, db);
  ASSERT_TRUE(input.ok());
  auto tuples = input->AliasBlock("R");
  ASSERT_TRUE(tuples.ok());
  TupleId id = (*tuples)->rid(1);
  const Tuple* found = input->FindById(id);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->at(0).as_int(), 2);
  EXPECT_EQ(input->AliasOfId(id), "R");
  EXPECT_EQ(input->DisplayTuple(id), "R.id:2");
  EXPECT_EQ(input->FindById(MakeTupleId(9, 9)), nullptr);
}

// ---- operator semantics ---------------------------------------------------------------

TEST(Evaluator, SelectFiltersAndLinksPreds) {
  Database db = MakeTinyDb();
  QueryTree tree = MustCompile("SELECT R.id, R.k, R.v FROM R WHERE R.k = 10", db);
  auto out = MustEvaluate(tree, db);
  EXPECT_EQ(Column(out, tree.target_type(), "R.id"),
            (std::vector<std::string>{"1", "2"}));
  for (const auto& t : out) {
    EXPECT_EQ(t.preds.size(), 1u);
    EXPECT_EQ(t.lineage.size(), 1u);
  }
}

TEST(Evaluator, ProjectMergesDuplicatesAndUnionsLineage) {
  Database db = MakeTinyDb();
  QueryTree tree = MustCompile("SELECT R.k FROM R", db);
  auto out = MustEvaluate(tree, db);
  // k values 10, 10, 20 -> two output tuples; the merged one carries both
  // contributing base tuples in its lineage (Cui & Widom projection lineage).
  ASSERT_EQ(out.size(), 2u);
  size_t merged = out[0].values.at(0).as_int() == 10 ? 0 : 1;
  EXPECT_EQ(out[merged].lineage.size(), 2u);
  EXPECT_EQ(out[merged].preds.size(), 2u);
  EXPECT_EQ(out[1 - merged].lineage.size(), 1u);
}

TEST(Evaluator, HashJoinMatchesAndCombinesLineage) {
  Database db = MakeTinyDb();
  QueryTree tree = MustCompile(
      "SELECT R.id, S.id FROM R, S WHERE R.k = S.k", db);
  auto out = MustEvaluate(tree, db);
  // k=10: R rows 1,2 join S row 1. k=20/30: no partner. (The root is the
  // projection; lineage flows through it unchanged.)
  ASSERT_EQ(out.size(), 2u);
  for (const auto& t : out) {
    EXPECT_EQ(t.lineage.size(), 2u);
  }
  EXPECT_EQ(Column(out, tree.target_type(), "R.id"),
            (std::vector<std::string>{"1", "2"}));
  // The join node itself links both children as immediate predecessors.
  const OperatorNode* join = nullptr;
  for (const OperatorNode* node : tree.bottom_up()) {
    if (node->kind == OpKind::kJoin) join = node;
  }
  ASSERT_NE(join, nullptr);
  auto input = QueryInput::Build(tree, db);
  ASSERT_TRUE(input.ok());
  Evaluator evaluator(&tree, &*input);
  auto join_out = evaluator.EvalNode(join);
  ASSERT_TRUE(join_out.ok());
  for (const auto& t : **join_out) EXPECT_EQ(t.preds.size(), 2u);
}

TEST(Evaluator, JoinSkipsNullKeys) {
  Database db;
  NED_CHECK(db.LoadCsv("R", "id,k\n1,10\n2,\n").ok());
  NED_CHECK(db.LoadCsv("S", "id,k\n7,10\n8,\n").ok());
  QueryTree tree = MustCompile("SELECT R.id, S.id FROM R, S WHERE R.k = S.k", db);
  auto out = MustEvaluate(tree, db);
  // NULL keys never join, including NULL = NULL.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].values.at(0).as_int(), 1);
}

TEST(Evaluator, JoinWithNumericCoercedKeys) {
  Database db;
  NED_CHECK(db.LoadCsv("R", "id,k\n1,10\n").ok());
  Relation s("S", Schema({{"S", "id"}, {"S", "k"}}));
  s.AddRow({Value::Int(7), Value::Real(10.0)});  // double key
  NED_CHECK(db.AddRelation(std::move(s)).ok());
  QueryTree tree = MustCompile("SELECT R.id, S.id FROM R, S WHERE R.k = S.k", db);
  auto out = MustEvaluate(tree, db);
  EXPECT_EQ(out.size(), 1u);  // int 10 joins double 10.0
}

TEST(Evaluator, SelfJoinProducesDistinctLineages) {
  Database db = MakeTinyDb();
  QueryTree tree = MustCompile(
      "SELECT R1.id, R2.id FROM R R1, R R2 WHERE R1.k = R2.k", db);
  auto out = MustEvaluate(tree, db);
  // k=10 pairs: (1,1) (1,2) (2,1) (2,2); k=20: (3,3) -> 5 tuples.
  ASSERT_EQ(out.size(), 5u);
  for (const auto& t : out) {
    // Even the (1,1) pair has two lineage entries: the R1 copy and the R2
    // copy of the same stored row are distinct tuples of I_Q.
    EXPECT_EQ(t.lineage.size(), 2u);
    EXPECT_NE(TupleIdAlias(t.lineage[0]), TupleIdAlias(t.lineage[1]));
  }
}

TEST(Evaluator, UnionDeduplicatesAcrossSides) {
  Database db;
  NED_CHECK(db.LoadCsv("R", "v\nx\ny\n").ok());
  NED_CHECK(db.LoadCsv("S", "w\ny\nz\n").ok());
  QueryTree tree = MustCompile("SELECT R.v FROM R UNION SELECT S.w FROM S", db);
  auto out = MustEvaluate(tree, db);
  ASSERT_EQ(out.size(), 3u);  // x, y, z with y merged
  for (const auto& t : out) {
    if (t.values.at(0).as_string() == "y") {
      EXPECT_EQ(t.lineage.size(), 2u);  // both sides contribute
      EXPECT_EQ(t.preds.size(), 2u);
    } else {
      EXPECT_EQ(t.lineage.size(), 1u);
    }
  }
}

TEST(Evaluator, AggregateGroupsAndComputes) {
  Database db = MakeTinyDb();
  QueryTree tree = MustCompile(
      "SELECT R.k, count(R.id) AS c, sum(R.id) AS s, avg(R.id) AS a, "
      "min(R.id) AS lo, max(R.id) AS hi FROM R GROUP BY R.k",
      db);
  auto out = MustEvaluate(tree, db);
  ASSERT_EQ(out.size(), 2u);
  const Schema& type = tree.target_type();
  for (const auto& t : out) {
    int64_t k = t.values.at(*type.IndexOf(Attribute::Parse("R.k"))).as_int();
    auto get = [&](const char* attr) {
      return t.values.at(*type.IndexOf(Attribute::Parse(attr)));
    };
    if (k == 10) {  // rows id 1 and 2
      EXPECT_EQ(get("c").as_int(), 2);
      EXPECT_DOUBLE_EQ(get("s").as_double(), 3.0);
      EXPECT_DOUBLE_EQ(get("a").as_double(), 1.5);
      EXPECT_EQ(get("lo").as_int(), 1);
      EXPECT_EQ(get("hi").as_int(), 2);
      EXPECT_EQ(t.lineage.size(), 2u);
    } else {
      EXPECT_EQ(get("c").as_int(), 1);
      EXPECT_EQ(t.lineage.size(), 1u);
    }
  }
}

TEST(Evaluator, AggregateSkipsNulls) {
  Database db;
  NED_CHECK(db.LoadCsv("R", "k,v\n1,10\n1,\n2,\n").ok());
  QueryTree tree = MustCompile(
      "SELECT R.k, count(R.v) AS c, sum(R.v) AS s FROM R GROUP BY R.k", db);
  auto out = MustEvaluate(tree, db);
  ASSERT_EQ(out.size(), 2u);
  const Schema& type = tree.target_type();
  for (const auto& t : out) {
    int64_t k = t.values.at(0).as_int();
    const Value& c = t.values.at(*type.IndexOf(Attribute::Parse("c")));
    const Value& s = t.values.at(*type.IndexOf(Attribute::Parse("s")));
    if (k == 1) {
      EXPECT_EQ(c.as_int(), 1);  // NULL not counted
      EXPECT_DOUBLE_EQ(s.as_double(), 10.0);
    } else {
      EXPECT_EQ(c.as_int(), 0);
      EXPECT_TRUE(s.is_null());  // sum over empty = NULL
    }
  }
}

TEST(Evaluator, SumOverStringsErrors) {
  Database db;
  NED_CHECK(db.LoadCsv("R", "k,v\n1,abc\n").ok());
  QueryTree tree = MustCompile(
      "SELECT R.k, sum(R.v) AS s FROM R GROUP BY R.k", db);
  auto input = QueryInput::Build(tree, db);
  ASSERT_TRUE(input.ok());
  Evaluator evaluator(&tree, &*input);
  EXPECT_FALSE(evaluator.EvalAll().ok());
}

TEST(Evaluator, EmptyInputYieldsEmptyAggregate) {
  Database db;
  NED_CHECK(db.LoadCsv("R", "k,v\n").ok());
  QueryTree tree = MustCompile(
      "SELECT R.k, sum(R.v) AS s FROM R GROUP BY R.k", db);
  auto out = MustEvaluate(tree, db);
  EXPECT_TRUE(out.empty());
}

TEST(Evaluator, MemoizationReturnsSamePointer) {
  Database db = MakeTinyDb();
  QueryTree tree = MustCompile("SELECT R.v FROM R WHERE R.k = 10", db);
  auto input = QueryInput::Build(tree, db);
  ASSERT_TRUE(input.ok());
  Evaluator evaluator(&tree, &*input);
  auto first = evaluator.EvalAll();
  auto second = evaluator.EvalAll();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
  EXPECT_NE(evaluator.TryGetOutput(tree.root()), nullptr);
}

TEST(Evaluator, HowProvenanceRendersLineageProducts) {
  Database db = MakeTinyDb();
  QueryTree tree = MustCompile(
      "SELECT R.id, S.id FROM R, S WHERE R.k = S.k", db);
  auto input = QueryInput::Build(tree, db);
  ASSERT_TRUE(input.ok());
  Evaluator evaluator(&tree, &*input);
  auto out = evaluator.EvalAll();
  ASSERT_TRUE(out.ok());
  for (const BlockRow& t : **out) {
    std::string how = HowProvenance(t.lineage, *input);
    EXPECT_NE(how.find("R.id:"), std::string::npos);
    EXPECT_NE(how.find(" * S.id:"), std::string::npos);
  }
}

// ---- whole-tree lineage invariants ----------------------------------------------------

TEST(Evaluator, LineageInvariantsHoldEverywhere) {
  Database db = MakeTinyDb();
  QueryTree tree = MustCompile(
      "SELECT R.k, count(S.w) AS c FROM R, S WHERE R.k = S.k GROUP BY R.k", db);
  auto input = QueryInput::Build(tree, db);
  ASSERT_TRUE(input.ok());
  Evaluator evaluator(&tree, &*input);
  ASSERT_TRUE(evaluator.EvalAll().ok());

  std::unordered_set<TupleId> base_ids;
  for (const auto& alias : input->aliases()) {
    for (const auto& t : **input->AliasBlock(alias)) base_ids.insert(t.rid);
  }
  for (const OperatorNode* node : tree.bottom_up()) {
    const Block* out = evaluator.TryGetOutput(node);
    ASSERT_NE(out, nullptr);
    for (const BlockRow& t : *out) {
      EXPECT_FALSE(t.lineage.empty());
      EXPECT_TRUE(std::is_sorted(t.lineage.begin(), t.lineage.end()));
      EXPECT_TRUE(std::all_of(t.lineage.begin(), t.lineage.end(),
                              [&](TupleId id) { return base_ids.count(id); }));
      if (!node->is_leaf()) {
        EXPECT_FALSE(t.preds.empty());
        EXPECT_TRUE(IsBaseRid(t.lineage.front()));
      }
    }
  }
}

}  // namespace
}  // namespace ned
