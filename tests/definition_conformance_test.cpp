/// \file definition_conformance_test.cpp
/// \brief Cross-validates the NedExplain engine against an independent,
/// brute-force implementation of the paper's definitions.
///
/// The oracle recomputes, for each compatible (Dir) tuple t_I, the sets
/// S_m(t_I) = { o in m.Output : t_I in lineage(o), lineage(o) subseteq D }
/// for every subquery m, directly from a full evaluation -- no TabQ, no
/// early termination, no successor bookkeeping. Per Defs. 2.9-2.11, the
/// picky subquery of t_I is the unique node whose *input* still carries a
/// valid successor of t_I while its output does not. The engine's detailed
/// answer must coincide with the oracle on every use case and on randomized
/// workloads.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/rng.h"
#include "common/strings.h"
#include "core/nedexplain.h"
#include "datasets/use_cases.h"
#include "tests/test_util.h"

namespace ned {
namespace {

using testing::MustExplain;

/// Oracle: (Dir tuple -> picky node) computed from first principles.
/// `nullptr` value means the tuple's valid successors reach the root.
std::map<TupleId, const OperatorNode*> OraclePickyNodes(
    const QueryTree& tree, const Database& db, const CompatibleSets& compat) {
  auto input = QueryInput::Build(tree, db);
  NED_CHECK(input.ok());
  Evaluator evaluator(&tree, &*input);
  NED_CHECK(evaluator.EvalAll().ok());

  // S_m(t): valid successors of t in m's output.
  auto valid_successors_at = [&](const OperatorNode* m, TupleId t)
      -> size_t {
    size_t n = 0;
    for (const BlockRow& o : *evaluator.TryGetOutput(m)) {
      bool contains_t = false;
      for (TupleId id : o.lineage) {
        if (id == t) contains_t = true;
      }
      const auto in_d = [&](TupleId id) {
        return compat.dir.contains(id) || compat.indir.contains(id);
      };
      if (contains_t && std::all_of(o.lineage.begin(), o.lineage.end(), in_d)) {
        ++n;
      }
    }
    return n;
  };

  std::map<TupleId, const OperatorNode*> picky;
  for (TupleId t : compat.dir) {
    // Walk every node bottom-up; the picky node is where the count drops to
    // zero while some child (or the tuple's own scan) still carried it.
    const OperatorNode* blamed = nullptr;
    for (const OperatorNode* m : tree.bottom_up()) {
      if (m->is_leaf()) continue;
      size_t at_m = valid_successors_at(m, t);
      if (at_m > 0) continue;
      size_t feeding = 0;
      for (const auto& child : m->children) {
        feeding += valid_successors_at(child.get(), t);
      }
      if (feeding > 0) {
        // Def. 2.11: every valid successor of t dies at m.
        NED_CHECK_MSG(blamed == nullptr,
                      "oracle found two picky nodes (Property 2.1 violated)");
        blamed = m;
      }
    }
    if (blamed == nullptr) {
      // Either the tuple survives to the root or it never had a valid
      // successor anywhere above its scan (leaf-level starvation cannot
      // happen: scans are identity).
      blamed = nullptr;
    }
    picky[t] = blamed;
  }
  return picky;
}

/// Compares engine answer vs oracle for one (tree, question) pair. Only the
/// (t_I, Q') pairs are compared (the ⊥ entries cover cond-alpha, which the
/// oracle does not model); use cases without aggregation are exact.
void ExpectConformance(const QueryTree& tree, const Database& db,
                       const WhyNotQuestion& question,
                       const std::string& label) {
  auto engine = NedExplainEngine::Create(&tree, &db);
  ASSERT_TRUE(engine.ok());
  auto result = engine->Explain(question);
  ASSERT_TRUE(result.ok()) << label;

  for (const auto& part : result->per_ctuple) {
    std::map<TupleId, const OperatorNode*> oracle =
        OraclePickyNodes(tree, db, part.compat);

    std::map<TupleId, const OperatorNode*> engine_answer;
    for (const auto& entry : part.answer.detailed) {
      if (!entry.is_bottom()) {
        engine_answer[entry.dir_tuple] = entry.subquery;
      }
    }
    for (const auto& [t, blamed] : oracle) {
      auto it = engine_answer.find(t);
      if (blamed == nullptr) {
        EXPECT_EQ(it, engine_answer.end())
            << label << ": engine blames a surviving tuple";
      } else {
        ASSERT_NE(it, engine_answer.end())
            << label << ": engine misses a picked tuple (completeness)";
        EXPECT_EQ(it->second, blamed)
            << label << ": engine blames " << it->second->name
            << " but the definitions give " << blamed->name;
      }
    }
    for (const auto& [t, node] : engine_answer) {
      EXPECT_EQ(oracle.count(t), 1u) << label;
    }
  }
}

// ---- over the paper's use cases -------------------------------------------------

class DefinitionConformance : public ::testing::TestWithParam<std::string> {
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

TEST_P(DefinitionConformance, EngineMatchesBruteForceDefinitions) {
  auto uc = Registry().Find(GetParam());
  ASSERT_TRUE(uc.ok());
  auto tree = Registry().BuildTree(**uc);
  ASSERT_TRUE(tree.ok());
  ExpectConformance(*tree, Registry().database((*uc)->db_name),
                    (*uc)->question, GetParam());
}

// SPJ(U) use cases: exact conformance. (SPJA cases add the cond-alpha layer
// above the definitions the oracle models; their tuple-level pairs are
// covered by Crime10/Gov4-style cases below where blocking happens inside V.)
INSTANTIATE_TEST_SUITE_P(SpjUseCases, DefinitionConformance,
                         ::testing::Values("Crime1", "Crime2", "Crime3",
                                           "Crime4", "Crime5", "Crime6",
                                           "Crime7", "Crime8", "Imdb1",
                                           "Imdb2", "Gov1", "Gov2", "Gov3",
                                           "Gov4", "Gov5", "Gov7"));

// ---- over randomized workloads ----------------------------------------------------

class RandomConformance : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomConformance, EngineMatchesBruteForceDefinitions) {
  Rng rng(GetParam() * 7919 + 3);
  Database db;
  int rows = static_cast<int>(rng.UniformInt(5, 30));
  int domain = static_cast<int>(rng.UniformInt(2, 6));
  Relation r("R", Schema({{"R", "id"}, {"R", "k"}, {"R", "v"}}));
  Relation s("S", Schema({{"S", "id"}, {"S", "k"}, {"S", "w"}}));
  for (int i = 0; i < rows; ++i) {
    r.AddRow({Value::Int(i), Value::Int(rng.UniformInt(0, domain)),
              Value::Int(rng.UniformInt(0, 4))});
    s.AddRow({Value::Int(i), Value::Int(rng.UniformInt(0, domain)),
              Value::Int(rng.UniformInt(0, 4))});
  }
  NED_CHECK(db.AddRelation(std::move(r)).ok());
  NED_CHECK(db.AddRelation(std::move(s)).ok());

  QueryTree tree = testing::MustCompile(
      StrCat("SELECT R.id, S.id FROM R, S WHERE R.k = S.k AND R.v > ",
             rng.UniformInt(0, 3), " AND S.w <= ", rng.UniformInt(1, 4)),
      db);
  CTuple tc;
  tc.Add("R.id", Value::Int(rng.UniformInt(0, rows - 1)));
  if (rng.Chance(0.5)) {
    tc.Add("S.id", Value::Int(rng.UniformInt(0, rows - 1)));
  }
  ExpectConformance(tree, db, WhyNotQuestion(tc),
                    "seed=" + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomConformance,
                         ::testing::Range<uint64_t>(1, 31));

}  // namespace
}  // namespace ned
