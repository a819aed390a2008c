/// \file expr_test.cpp
/// \brief Unit + property tests for expressions and condition satisfiability.

#include <gtest/gtest.h>

#include "expr/condition.h"
#include "expr/expression.h"
#include "expr/satisfiability.h"

namespace ned {
namespace {

Schema TestSchema() {
  return Schema({{"A", "name"}, {"A", "dob"}, {"B", "price"}});
}

Tuple Homer() {
  return Tuple({Value::Str("Homer"), Value::Int(-800), Value::Int(45)});
}

// ---- expression evaluation ------------------------------------------------------

TEST(Expression, ColumnRefResolves) {
  auto v = Col("A", "dob")->Eval(Homer(), TestSchema());
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->as_int(), -800);
}

TEST(Expression, ColumnRefUnknownAttributeErrors) {
  EXPECT_FALSE(Col("A", "zzz")->Eval(Homer(), TestSchema()).ok());
}

TEST(Expression, ComparisonEvaluatesToBooleanInt) {
  auto expr = Gt(Col("A", "dob"), Lit(static_cast<int64_t>(-800)));
  auto v = expr->Eval(Homer(), TestSchema());
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->as_int(), 0);  // -800 > -800 is false (the running example!)
}

TEST(Expression, ConjunctionShortCircuitsToFalse) {
  auto expr = And(Eq(Col("A", "name"), Lit("Homer")),
                  Gt(Col("B", "price"), Lit(static_cast<int64_t>(100))));
  auto b = expr->EvalBool(Homer(), TestSchema());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(*b);
}

TEST(Expression, DisjunctionAndNot) {
  auto expr = Or({Eq(Col("A", "name"), Lit("Nobody")),
                  Negate(Lt(Col("B", "price"), Lit(static_cast<int64_t>(10))))});
  auto b = expr->EvalBool(Homer(), TestSchema());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(*b);
}

TEST(Expression, EmptyConnectives) {
  EXPECT_TRUE(*And(std::vector<ExprPtr>{})->EvalBool(Homer(), TestSchema()));
  EXPECT_FALSE(*Or(std::vector<ExprPtr>{})->EvalBool(Homer(), TestSchema()));
}

// ---- bound predicates -------------------------------------------------------

/// The bound form must agree with Expression::EvalBool, errors included.
void ExpectBoundAgrees(const ExprPtr& expr, const Tuple& row) {
  const Result<bool> reference = expr->EvalBool(row, TestSchema());
  const BoundPredicate bound = BoundPredicate::Bind(*expr, TestSchema());
  const Result<bool> got = bound.EvalBool(row.values().data());
  ASSERT_EQ(got.ok(), reference.ok()) << expr->ToString();
  if (reference.ok()) {
    EXPECT_EQ(*got, *reference) << expr->ToString();
  } else {
    EXPECT_EQ(got.status().code(), reference.status().code())
        << expr->ToString();
  }
}

TEST(BoundPredicate, AgreesWithExpressionEvaluation) {
  const Tuple nulls({Value::Null(), Value::Int(3), Value::Null()});
  const std::vector<ExprPtr> exprs = {
      Gt(Col("A", "dob"), Lit(static_cast<int64_t>(-900))),
      Eq(Col("A", "name"), Lit("Homer")),
      And(Eq(Col("A", "name"), Lit("Homer")),
          Gt(Col("B", "price"), Lit(static_cast<int64_t>(100)))),
      Or({Eq(Col("A", "name"), Lit("Nobody")),
          Negate(Lt(Col("B", "price"), Lit(static_cast<int64_t>(10))))}),
      And(std::vector<ExprPtr>{}),
      Or(std::vector<ExprPtr>{}),
      // A comparison over comparisons compares their 0/1 results.
      Eq(Gt(Col("A", "dob"), Lit(static_cast<int64_t>(0))),
         Lt(Col("B", "price"), Lit(static_cast<int64_t>(0)))),
      Col("A", "dob"),    // a bare int column is a boolean
      Col("A", "name"),   // a string is not: type error
      Lit(Value::Null()),
      // An unresolvable column fails only when it is evaluated.
      Eq(Col("A", "zzz"), Lit(static_cast<int64_t>(1))),
      And(Eq(Col("A", "name"), Lit("Nobody")),
          Eq(Col("A", "zzz"), Lit(static_cast<int64_t>(1)))),
      Or({Eq(Col("A", "name"), Lit("Homer")),
          Eq(Col("A", "zzz"), Lit(static_cast<int64_t>(1)))}),
  };
  for (const ExprPtr& expr : exprs) {
    ExpectBoundAgrees(expr, Homer());
    ExpectBoundAgrees(expr, nulls);
  }
}

TEST(BoundPredicate, RemapReadsColumnsFromTwoRows) {
  // Bound to the pair's output schema, then re-pointed: A.name -> row 0
  // column 0, B.price -> row 1 column 1. The expression must outlive the
  // bound form, which reads its literals in place.
  const ExprPtr expr = And(Eq(Col("A", "name"), Lit("Homer")),
                           Gt(Col("B", "price"), Lit(static_cast<int64_t>(40))));
  BoundPredicate bound = BoundPredicate::Bind(*expr, TestSchema());
  bound.Remap([](size_t col) -> std::pair<int, size_t> {
    return col == 2 ? std::make_pair(1, size_t{1}) : std::make_pair(0, col);
  });
  const Tuple left({Value::Str("Homer"), Value::Int(-800), Value::Int(0)});
  const Tuple right({Value::Int(0), Value::Int(45)});
  auto b = bound.EvalBool(left.values().data(), right.values().data());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(*b);
  const Tuple cheap({Value::Int(0), Value::Int(5)});
  EXPECT_FALSE(*bound.EvalBool(left.values().data(), cheap.values().data()));
}

TEST(Expression, CollectAttributes) {
  auto expr = And(Eq(Col("A", "name"), Lit("X")),
                  Lt(Col("B", "price"), Col("A", "dob")));
  std::vector<Attribute> attrs;
  expr->CollectAttributes(&attrs);
  EXPECT_EQ(attrs.size(), 3u);
  EXPECT_EQ(attrs[0].FullName(), "A.name");
}

TEST(Expression, ToStringIsReadable) {
  auto expr = Gt(Col("A", "dob"), Lit(static_cast<int64_t>(-800)));
  EXPECT_EQ(expr->ToString(), "A.dob > -800");
  EXPECT_EQ(Lit("Homer")->ToString(), "'Homer'");
}

TEST(Expression, NullComparesFalse) {
  Schema schema({{"R", "x"}});
  Tuple with_null({Value::Null()});
  auto b = Eq(Col("R", "x"), Lit(static_cast<int64_t>(1)))
               ->EvalBool(with_null, schema);
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(*b);
}

// ---- condition rendering ----------------------------------------------------------

TEST(Condition, ToString) {
  std::vector<CPred> cond = {
      CPred::VsConst("x1", CompareOp::kGt, Value::Int(25)),
      CPred::VsVar("x1", CompareOp::kNe, "x2")};
  EXPECT_EQ(ConditionToString(cond), "x1 > 25 AND x1 != x2");
  EXPECT_EQ(ConditionToString({}), "true");
}

// ---- satisfiability ---------------------------------------------------------------

std::map<std::string, Value> Bind(
    std::initializer_list<std::pair<const char*, Value>> pairs) {
  std::map<std::string, Value> out;
  for (const auto& [k, v] : pairs) out.emplace(k, v);
  return out;
}

TEST(Satisfiability, EmptyConditionAlwaysHolds) {
  EXPECT_TRUE(SatisfiableWith({}, {}));
  EXPECT_TRUE(SatisfiableWith({}, Bind({{"x", Value::Int(1)}})));
}

TEST(Satisfiability, GroundPredicatesChecked) {
  std::vector<CPred> cond = {CPred::VsConst("x", CompareOp::kGt, Value::Int(25))};
  EXPECT_TRUE(SatisfiableWith(cond, Bind({{"x", Value::Int(30)}})));
  EXPECT_FALSE(SatisfiableWith(cond, Bind({{"x", Value::Int(25)}})));
}

TEST(Satisfiability, FreeVariableExistential) {
  // Ex. 2.3: "there exists a value for x1 satisfying x1 > 25".
  std::vector<CPred> cond = {CPred::VsConst("x1", CompareOp::kGt, Value::Int(25))};
  EXPECT_TRUE(SatisfiableWith(cond, {}));
}

TEST(Satisfiability, FreeVariableIntervalContradiction) {
  std::vector<CPred> cond = {
      CPred::VsConst("x", CompareOp::kGt, Value::Int(10)),
      CPred::VsConst("x", CompareOp::kLt, Value::Int(5))};
  EXPECT_FALSE(SatisfiableWith(cond, {}));
}

TEST(Satisfiability, OpenIntervalFeasibleOnDenseDomain) {
  // 5 < x < 6 has solutions over a dense domain.
  std::vector<CPred> cond = {
      CPred::VsConst("x", CompareOp::kGt, Value::Int(5)),
      CPred::VsConst("x", CompareOp::kLt, Value::Int(6))};
  EXPECT_TRUE(SatisfiableWith(cond, {}));
}

TEST(Satisfiability, PointIntervalRespectsDisequality) {
  std::vector<CPred> cond = {
      CPred::VsConst("x", CompareOp::kGe, Value::Int(5)),
      CPred::VsConst("x", CompareOp::kLe, Value::Int(5)),
      CPred::VsConst("x", CompareOp::kNe, Value::Int(5))};
  EXPECT_FALSE(SatisfiableWith(cond, {}));
  // Without the pinch, the disequality is harmless.
  EXPECT_TRUE(SatisfiableWith({cond[0], cond[2]}, {}));
}

TEST(Satisfiability, EqualityBindsAndPropagates) {
  std::vector<CPred> cond = {
      CPred::VsConst("x", CompareOp::kEq, Value::Int(7)),
      CPred::VsConst("x", CompareOp::kGt, Value::Int(5))};
  EXPECT_TRUE(SatisfiableWith(cond, {}));
  cond[1] = CPred::VsConst("x", CompareOp::kGt, Value::Int(7));
  EXPECT_FALSE(SatisfiableWith(cond, {}));
}

TEST(Satisfiability, VariableEqualityUnification) {
  std::vector<CPred> cond = {
      CPred::VsVar("x", CompareOp::kEq, "y"),
      CPred::VsConst("y", CompareOp::kGt, Value::Int(10))};
  EXPECT_TRUE(SatisfiableWith(cond, Bind({{"x", Value::Int(11)}})));
  EXPECT_FALSE(SatisfiableWith(cond, Bind({{"x", Value::Int(9)}})));
}

TEST(Satisfiability, ConflictingBindingsInOneClass) {
  std::vector<CPred> cond = {CPred::VsVar("x", CompareOp::kEq, "y")};
  EXPECT_FALSE(SatisfiableWith(
      cond, Bind({{"x", Value::Int(1)}, {"y", Value::Int(2)}})));
  EXPECT_TRUE(SatisfiableWith(
      cond, Bind({{"x", Value::Int(1)}, {"y", Value::Int(1)}})));
}

TEST(Satisfiability, FreeVarVarInequalityChains) {
  // x < y with y bound: x gets an upper bound.
  std::vector<CPred> cond = {
      CPred::VsVar("x", CompareOp::kLt, "y"),
      CPred::VsConst("x", CompareOp::kGt, Value::Int(10))};
  EXPECT_TRUE(SatisfiableWith(cond, Bind({{"y", Value::Int(12)}})));
  EXPECT_FALSE(SatisfiableWith(cond, Bind({{"y", Value::Int(10)}})));
}

TEST(Satisfiability, TransitiveBoundPropagation) {
  // a < b, b < c, c bound to 5, a > 5 -> unsat.
  std::vector<CPred> cond = {
      CPred::VsVar("a", CompareOp::kLt, "b"),
      CPred::VsVar("b", CompareOp::kLt, "c"),
      CPred::VsConst("a", CompareOp::kGt, Value::Int(5))};
  EXPECT_FALSE(SatisfiableWith(cond, Bind({{"c", Value::Int(5)}})));
  EXPECT_TRUE(SatisfiableWith(cond, Bind({{"c", Value::Int(100)}})));
}

TEST(Satisfiability, DisequalityBetweenFreeVariablesIsFree) {
  std::vector<CPred> cond = {CPred::VsVar("x", CompareOp::kNe, "y")};
  EXPECT_TRUE(SatisfiableWith(cond, {}));
}

TEST(Satisfiability, StringConditions) {
  // Ex. 2.1's second c-tuple: x2 != Homer AND x2 != Sophocles.
  std::vector<CPred> cond = {
      CPred::VsConst("x2", CompareOp::kNe, Value::Str("Homer")),
      CPred::VsConst("x2", CompareOp::kNe, Value::Str("Sophocles"))};
  EXPECT_TRUE(SatisfiableWith(cond, {}));
  EXPECT_FALSE(SatisfiableWith(cond, Bind({{"x2", Value::Str("Homer")}})));
  EXPECT_TRUE(SatisfiableWith(cond, Bind({{"x2", Value::Str("Euripides")}})));
}

TEST(Satisfiability, MixedTypeBoundsAreContradictory) {
  std::vector<CPred> cond = {
      CPred::VsConst("x", CompareOp::kGt, Value::Int(5)),
      CPred::VsConst("x", CompareOp::kLt, Value::Str("zzz"))};
  EXPECT_FALSE(SatisfiableWith(cond, {}));
}

TEST(EvaluateGround, RequiresFullBinding) {
  std::vector<CPred> cond = {CPred::VsConst("x", CompareOp::kGt, Value::Int(5))};
  EXPECT_FALSE(EvaluateGround(cond, {}));  // unbound: not existential here
  EXPECT_TRUE(EvaluateGround(cond, Bind({{"x", Value::Int(6)}})));
  EXPECT_FALSE(EvaluateGround(cond, Bind({{"x", Value::Int(5)}})));
}

// ---- parameterized: evaluation agrees with satisfiability on full bindings ----

class GroundVsSatisfiable
    : public ::testing::TestWithParam<std::tuple<int, int, CompareOp>> {};

TEST_P(GroundVsSatisfiable, FullBindingMakesThemAgree) {
  auto [x, c, op] = GetParam();
  std::vector<CPred> cond = {CPred::VsConst("x", op, Value::Int(c))};
  auto binding = Bind({{"x", Value::Int(x)}});
  EXPECT_EQ(SatisfiableWith(cond, binding), EvaluateGround(cond, binding));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GroundVsSatisfiable,
    ::testing::Combine(::testing::Values(-1, 0, 1, 5),
                       ::testing::Values(0, 5),
                       ::testing::Values(CompareOp::kEq, CompareOp::kNe,
                                         CompareOp::kLt, CompareOp::kLe,
                                         CompareOp::kGt, CompareOp::kGe)));

}  // namespace
}  // namespace ned
