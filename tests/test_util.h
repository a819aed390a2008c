/// \file test_util.h
/// \brief Shared fixtures for the test suite: tiny databases, query-building
/// shortcuts and result-inspection helpers.

#ifndef NED_TESTS_TEST_UTIL_H_
#define NED_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "canonical/canonicalizer.h"
#include "core/nedexplain.h"
#include "exec/evaluator.h"
#include "relational/database.h"
#include "sql/binder.h"

namespace ned {
namespace testing {

/// Asserts that a Result<T> is OK and returns its value.
#define NED_ASSERT_OK_AND_MOVE(lhs, expr)                 \
  auto NED_CONCAT_(_r_, __LINE__) = (expr);               \
  ASSERT_TRUE(NED_CONCAT_(_r_, __LINE__).ok())            \
      << NED_CONCAT_(_r_, __LINE__).status().ToString(); \
  lhs = std::move(NED_CONCAT_(_r_, __LINE__)).value()

#define NED_EXPECT_OK(expr)                                       \
  do {                                                            \
    auto _st = (expr);                                            \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                      \
  } while (0)

/// Two-relation test database:
///   R(id, k, v): (1,10,a) (2,10,b) (3,20,c)
///   S(id, k, w): (1,10,x) (2,30,y)
inline Database MakeTinyDb() {
  Database db;
  Relation r("R", Schema({{"R", "id"}, {"R", "k"}, {"R", "v"}}));
  r.AddRow({Value::Int(1), Value::Int(10), Value::Str("a")});
  r.AddRow({Value::Int(2), Value::Int(10), Value::Str("b")});
  r.AddRow({Value::Int(3), Value::Int(20), Value::Str("c")});
  NED_CHECK(db.AddRelation(std::move(r)).ok());
  Relation s("S", Schema({{"S", "id"}, {"S", "k"}, {"S", "w"}}));
  s.AddRow({Value::Int(1), Value::Int(10), Value::Str("x")});
  s.AddRow({Value::Int(2), Value::Int(30), Value::Str("y")});
  NED_CHECK(db.AddRelation(std::move(s)).ok());
  return db;
}

/// Recursive rm -rf via dirent (the repo avoids <filesystem>).
inline void RemoveTree(const std::string& path) {
  DIR* dir = ::opendir(path.c_str());
  if (dir != nullptr) {
    while (dirent* entry = ::readdir(dir)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      const std::string child = path + "/" + name;
      struct stat st;
      if (::lstat(child.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
        RemoveTree(child);
      } else {
        ::unlink(child.c_str());
      }
    }
    ::closedir(dir);
  }
  ::rmdir(path.c_str());
}

/// Compiles SQL against `db`, asserting success.
inline QueryTree MustCompile(const std::string& sql, const Database& db,
                             const CanonicalizeOptions& options = {}) {
  auto tree = CompileSql(sql, db, options);
  NED_CHECK_MSG(tree.ok(), tree.status().ToString());
  return std::move(tree).value();
}

/// Evaluates the full tree, asserting success; returns a copy of the root
/// output block (a scan root still views `db`'s rows).
inline Block MustEvaluate(const QueryTree& tree, const Database& db) {
  auto input = QueryInput::Build(tree, db);
  NED_CHECK_MSG(input.ok(), input.status().ToString());
  Evaluator evaluator(&tree, &*input);
  auto out = evaluator.EvalAll();
  NED_CHECK_MSG(out.ok(), out.status().ToString());
  return **out;
}

/// The values of one attribute across an output, as strings (sorted).
inline std::vector<std::string> Column(const Block& tuples,
                                       const Schema& schema,
                                       const std::string& dotted_attr) {
  auto idx = schema.IndexOf(Attribute::Parse(dotted_attr));
  NED_CHECK_MSG(idx.has_value(), "no attribute " + dotted_attr);
  std::vector<std::string> out;
  for (const auto& t : tuples) out.push_back(t.values.at(*idx).ToString());
  std::sort(out.begin(), out.end());
  return out;
}

/// Runs NedExplain end to end, asserting success.
inline NedExplainResult MustExplain(const QueryTree& tree, const Database& db,
                                    const WhyNotQuestion& question,
                                    NedExplainOptions options = {}) {
  auto engine = NedExplainEngine::Create(&tree, &db, options);
  NED_CHECK_MSG(engine.ok(), engine.status().ToString());
  auto result = engine->Explain(question);
  NED_CHECK_MSG(result.ok(), result.status().ToString());
  return std::move(result).value();
}

/// Names of the condensed-answer nodes.
inline std::vector<std::string> CondensedNames(const WhyNotAnswer& answer) {
  std::vector<std::string> names;
  for (const OperatorNode* node : answer.condensed) names.push_back(node->name);
  return names;
}

/// Operator kinds of the condensed-answer nodes (sorted by name).
inline std::vector<OpKind> CondensedKinds(const WhyNotAnswer& answer) {
  std::vector<OpKind> kinds;
  for (const OperatorNode* node : answer.condensed) kinds.push_back(node->kind);
  return kinds;
}

/// True if some condensed node has the given kind.
inline bool CondensedHasKind(const WhyNotAnswer& answer, OpKind kind) {
  for (const OperatorNode* node : answer.condensed) {
    if (node->kind == kind) return true;
  }
  return false;
}

}  // namespace testing
}  // namespace ned

#endif  // NED_TESTS_TEST_UTIL_H_
