/// \file property_test.cpp
/// \brief Randomized property tests: random chain/star queries over random
/// databases with random why-not questions, checking the framework's
/// invariants (Property 2.1, answer well-formedness, Alg. 2 neutrality,
/// evaluator lineage laws) across many seeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>

#include "common/rng.h"
#include "core/nedexplain.h"
#include "tests/test_util.h"

namespace ned {
namespace {

using testing::MustExplain;

/// A randomly generated workload: database, query tree, question.
struct Workload {
  std::shared_ptr<Database> db;
  std::shared_ptr<QueryTree> tree;
  WhyNotQuestion question;
};

/// Builds a random chain query R0 -> R1 -> ... with random selections and an
/// optional aggregation, plus a random why-not question over the output.
Workload MakeWorkload(uint64_t seed) {
  Rng rng(seed);
  Workload w;
  w.db = std::make_shared<Database>();

  int n_relations = static_cast<int>(rng.UniformInt(1, 4));
  int rows = static_cast<int>(rng.UniformInt(5, 40));
  int domain = static_cast<int>(rng.UniformInt(2, 8));

  QueryBlock block;
  for (int i = 0; i < n_relations; ++i) {
    std::string name = "T" + std::to_string(i);
    Relation rel(name, Schema({{name, "id"},
                               {name, "k" + std::to_string(i)},
                               {name, "k" + std::to_string(i + 1)},
                               {name, "v"}}));
    for (int r = 0; r < rows; ++r) {
      rel.AddRow({Value::Int(r), Value::Int(rng.UniformInt(0, domain)),
                  Value::Int(rng.UniformInt(0, domain)),
                  Value::Int(rng.UniformInt(0, 5))});
    }
    NED_CHECK(w.db->AddRelation(std::move(rel)).ok());
    block.tables.push_back({name, name});
    if (i > 0) {
      std::string prev = "T" + std::to_string(i - 1);
      std::string key = "k" + std::to_string(i);
      block.joins.push_back(
          {Attribute(prev, key), Attribute(name, key), key + "j"});
    }
    if (rng.Chance(0.5)) {
      block.selections.push_back(
          Cmp(Col(name, "v"), rng.Chance(0.5) ? CompareOp::kGt : CompareOp::kLe,
              Lit(rng.UniformInt(0, 4))));
    }
  }
  std::string last = "T" + std::to_string(n_relations - 1);
  bool aggregate = rng.Chance(0.3);
  if (aggregate) {
    AggSpec agg;
    agg.group_by = {Attribute("T0", "v")};
    agg.calls.push_back({AggFn::kCount, Attribute(last, "id"), "cnt"});
    block.agg = agg;
    block.projection = {Attribute("T0", "v"), Attribute::Unqualified("cnt")};
  } else {
    block.projection = {Attribute("T0", "v"), Attribute(last, "id")};
  }
  auto tree = Canonicalize(QuerySpec{{block}, {}, {}}, *w.db);
  NED_CHECK_MSG(tree.ok(), tree.status().ToString());
  w.tree = std::make_shared<QueryTree>(std::move(tree).value());

  // Random question over the target type.
  CTuple tc;
  tc.Add("T0.v", Value::Int(rng.UniformInt(0, 5)));
  if (aggregate && rng.Chance(0.5)) {
    tc.AddVar("cnt", "x").Where("x", CompareOp::kGt,
                                Value::Int(rng.UniformInt(0, 3)));
  } else if (!aggregate && rng.Chance(0.5)) {
    tc.Add(last + ".id", Value::Int(rng.UniformInt(0, rows)));
  }
  w.question = WhyNotQuestion(std::move(tc));
  return w;
}

/// Every property failure must name its seed and how to rerun exactly that
/// workload (the gtest param suffix is the Range index, i.e. seed - 1).
std::string ReproNote(uint64_t seed) {
  std::ostringstream os;
  os << "failing seed " << seed
     << "; rerun only this workload with: build/tests/property_test "
        "--gtest_filter='Seeds/RandomWorkload.*/"
     << (seed - 1) << "'";
  return os.str();
}

class RandomWorkload : public ::testing::TestWithParam<uint64_t> {
 protected:
  RandomWorkload() { repro_trace_ = std::make_unique<::testing::ScopedTrace>(
      __FILE__, __LINE__, ReproNote(GetParam())); }

 private:
  std::unique_ptr<::testing::ScopedTrace> repro_trace_;
};

TEST_P(RandomWorkload, Property21EachDirTupleBlamedAtMostOnce) {
  Workload w = MakeWorkload(GetParam());
  auto result = MustExplain(*w.tree, *w.db, w.question);
  for (const auto& part : result.per_ctuple) {
    std::map<TupleId, const OperatorNode*> blamed;
    for (const auto& entry : part.answer.detailed) {
      if (entry.is_bottom()) continue;
      auto [it, inserted] = blamed.emplace(entry.dir_tuple, entry.subquery);
      EXPECT_TRUE(inserted || it->second == entry.subquery);
    }
  }
}

TEST_P(RandomWorkload, BlamedTuplesAreCompatibleAndNodesInTree) {
  Workload w = MakeWorkload(GetParam());
  auto result = MustExplain(*w.tree, *w.db, w.question);
  std::set<const OperatorNode*> nodes(w.tree->bottom_up().begin(),
                                      w.tree->bottom_up().end());
  for (const auto& part : result.per_ctuple) {
    for (const auto& entry : part.answer.detailed) {
      EXPECT_EQ(nodes.count(entry.subquery), 1u);
      if (!entry.is_bottom()) {
        EXPECT_TRUE(part.compat.dir.contains(entry.dir_tuple));
      }
    }
    for (const OperatorNode* node : part.answer.secondary) {
      EXPECT_EQ(nodes.count(node), 1u);
    }
  }
}

TEST_P(RandomWorkload, EarlyTerminationDoesNotChangeAnswers) {
  Workload w = MakeWorkload(GetParam());
  NedExplainOptions off;
  off.enable_early_termination = false;
  auto with = MustExplain(*w.tree, *w.db, w.question);
  auto without = MustExplain(*w.tree, *w.db, w.question, off);
  // Compare detailed answers as sets of (tuple, node-name) pairs.
  auto as_set = [](const NedExplainResult& r) {
    std::set<std::pair<TupleId, std::string>> out;
    for (const auto& e : r.answer.detailed) {
      out.emplace(e.dir_tuple, e.subquery->name);
    }
    return out;
  };
  EXPECT_EQ(as_set(with), as_set(without));
}

TEST_P(RandomWorkload, SurvivorsIffQuestionDataPresent) {
  // If compatible successors reach the root, the question's data must be
  // derivable -- i.e. there is a result tuple compatible with the c-tuple.
  Workload w = MakeWorkload(GetParam());
  auto engine = NedExplainEngine::Create(w.tree.get(), w.db.get());
  ASSERT_TRUE(engine.ok());
  auto result = engine->Explain(w.question);
  ASSERT_TRUE(result.ok());

  auto input = QueryInput::Build(*w.tree, *w.db);
  ASSERT_TRUE(input.ok());
  Evaluator evaluator(w.tree.get(), &*input);
  auto out = evaluator.EvalAll();
  ASSERT_TRUE(out.ok());

  for (const auto& part : result->per_ctuple) {
    if (part.survivors_at_root == 0) continue;
    // Some root tuple must carry only compatible lineage.
    bool found = false;
    for (const BlockRow& t : **out) {
      const auto in_dir = [&](TupleId id) { return part.compat.dir.contains(id); };
      const auto in_d = [&](TupleId id) {
        return in_dir(id) || part.compat.indir.contains(id);
      };
      if (std::all_of(t.lineage.begin(), t.lineage.end(), in_d) &&
          std::any_of(t.lineage.begin(), t.lineage.end(), in_dir)) {
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST_P(RandomWorkload, EvaluatorLineageLaws) {
  Workload w = MakeWorkload(GetParam());
  auto input = QueryInput::Build(*w.tree, *w.db);
  ASSERT_TRUE(input.ok());
  Evaluator evaluator(w.tree.get(), &*input);
  ASSERT_TRUE(evaluator.EvalAll().ok());
  for (const OperatorNode* node : w.tree->bottom_up()) {
    const Block* out = evaluator.TryGetOutput(node);
    ASSERT_NE(out, nullptr);
    // Collect child rids for predecessor validation.
    std::unordered_set<Rid> child_rids;
    if (node->is_leaf()) {
      for (const BlockRow& t : **input->AliasBlock(node->alias)) {
        child_rids.insert(t.rid);
      }
    } else {
      for (const auto& child : node->children) {
        for (const BlockRow& t : *evaluator.TryGetOutput(child.get())) {
          child_rids.insert(t.rid);
        }
      }
    }
    std::unordered_set<Rid> seen_rids;
    for (const BlockRow& t : *out) {
      EXPECT_TRUE(seen_rids.insert(t.rid).second) << "duplicate rid";
      EXPECT_FALSE(t.lineage.empty());
      EXPECT_TRUE(std::is_sorted(t.lineage.begin(), t.lineage.end()));
      if (!node->is_leaf()) {
        EXPECT_FALSE(t.preds.empty());
        for (Rid pred : t.preds) {
          EXPECT_EQ(child_rids.count(pred), 1u)
              << "predecessor not in child output";
        }
      }
      EXPECT_EQ(t.values.size(), node->output_schema.size());
    }
  }
}

TEST_P(RandomWorkload, UnrenamedQuestionsAreFullyQualified) {
  Workload w = MakeWorkload(GetParam());
  auto unrenamed = UnrenameQuestion(*w.tree, w.question);
  ASSERT_TRUE(unrenamed.ok());
  for (const CTuple& tc : unrenamed->ctuples()) {
    for (const auto& [attr, _] : tc.fields()) {
      // After unrenaming, every field is qualified or an aggregate output.
      if (!attr.qualified()) {
        EXPECT_EQ(attr.name, "cnt");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWorkload,
                         ::testing::Range<uint64_t>(1, 26));

}  // namespace
}  // namespace ned
