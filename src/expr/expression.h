/// \file expression.h
/// \brief Scalar/boolean expressions over tuples (selection conditions C).
///
/// Selection conditions in Def. 2.2 are conditions over the child's target
/// type; we support comparisons between attributes and constants plus the
/// boolean connectives, which covers every query of the paper's evaluation
/// (Table 3) and general SPJA usage.

#ifndef NED_EXPR_EXPRESSION_H_
#define NED_EXPR_EXPRESSION_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "relational/schema.h"
#include "relational/tuple.h"
#include "relational/value.h"

namespace ned {

class Expression;
using ExprPtr = std::shared_ptr<const Expression>;

/// Abstract expression node. Expressions are immutable and shared.
class Expression {
 public:
  virtual ~Expression() = default;

  /// Evaluates against a tuple typed by `schema`. Errors on unresolvable
  /// attribute references.
  virtual Result<Value> Eval(const Tuple& tuple, const Schema& schema) const = 0;

  /// Human-readable rendering, e.g. "A.dob > 800".
  virtual std::string ToString() const = 0;

  /// Appends every attribute referenced by this expression.
  virtual void CollectAttributes(std::vector<Attribute>* out) const = 0;

  /// Evaluates as a boolean condition: non-boolean or NULL results count as
  /// false (SQL WHERE semantics).
  Result<bool> EvalBool(const Tuple& tuple, const Schema& schema) const;
};

/// Reference to an attribute of the input schema.
class ColumnRef : public Expression {
 public:
  explicit ColumnRef(Attribute attr) : attr_(std::move(attr)) {}
  Result<Value> Eval(const Tuple& tuple, const Schema& schema) const override;
  std::string ToString() const override { return attr_.FullName(); }
  void CollectAttributes(std::vector<Attribute>* out) const override {
    out->push_back(attr_);
  }
  const Attribute& attribute() const { return attr_; }

 private:
  Attribute attr_;
};

/// Constant value.
class Literal : public Expression {
 public:
  explicit Literal(Value value) : value_(std::move(value)) {}
  Result<Value> Eval(const Tuple&, const Schema&) const override {
    return value_;
  }
  std::string ToString() const override;
  void CollectAttributes(std::vector<Attribute>*) const override {}
  const Value& value() const { return value_; }

 private:
  Value value_;
};

/// Binary comparison `left cop right`; evaluates to Int(0/1).
class Comparison : public Expression {
 public:
  Comparison(ExprPtr left, CompareOp op, ExprPtr right)
      : left_(std::move(left)), op_(op), right_(std::move(right)) {}
  Result<Value> Eval(const Tuple& tuple, const Schema& schema) const override;
  std::string ToString() const override;
  void CollectAttributes(std::vector<Attribute>* out) const override {
    left_->CollectAttributes(out);
    right_->CollectAttributes(out);
  }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }
  CompareOp op() const { return op_; }

 private:
  ExprPtr left_;
  CompareOp op_;
  ExprPtr right_;
};

/// N-ary conjunction; empty conjunction is true.
class Conjunction : public Expression {
 public:
  explicit Conjunction(std::vector<ExprPtr> terms) : terms_(std::move(terms)) {}
  Result<Value> Eval(const Tuple& tuple, const Schema& schema) const override;
  std::string ToString() const override;
  void CollectAttributes(std::vector<Attribute>* out) const override {
    for (const auto& t : terms_) t->CollectAttributes(out);
  }
  const std::vector<ExprPtr>& terms() const { return terms_; }

 private:
  std::vector<ExprPtr> terms_;
};

/// N-ary disjunction; empty disjunction is false.
class Disjunction : public Expression {
 public:
  explicit Disjunction(std::vector<ExprPtr> terms) : terms_(std::move(terms)) {}
  Result<Value> Eval(const Tuple& tuple, const Schema& schema) const override;
  std::string ToString() const override;
  void CollectAttributes(std::vector<Attribute>* out) const override {
    for (const auto& t : terms_) t->CollectAttributes(out);
  }
  const std::vector<ExprPtr>& terms() const { return terms_; }

 private:
  std::vector<ExprPtr> terms_;
};

/// Logical negation.
class Not : public Expression {
 public:
  explicit Not(ExprPtr inner) : inner_(std::move(inner)) {}
  Result<Value> Eval(const Tuple& tuple, const Schema& schema) const override;
  std::string ToString() const override { return "NOT (" + inner_->ToString() + ")"; }
  void CollectAttributes(std::vector<Attribute>* out) const override {
    inner_->CollectAttributes(out);
  }
  const ExprPtr& inner() const { return inner_; }

 private:
  ExprPtr inner_;
};

/// A condition bound to one schema: attribute references resolve to column
/// indices once per operator, and EvalBool then reads raw rows in place with
/// no per-row name lookup or value copy. Results and errors are those of
/// Expression::EvalBool on the same row; a reference that does not resolve
/// fails when it is evaluated, not when it is bound. It reads literals from
/// the expression in place, so the expression must outlive it.
class BoundPredicate {
 public:
  static BoundPredicate Bind(const Expression& expr, const Schema& schema);

  /// Re-points each column c at (side, index) = remap(c). A join binds its
  /// condition to the output schema, then remaps columns onto its (left,
  /// right) input rows so it can test a pair before building the row.
  void Remap(const std::function<std::pair<int, size_t>(size_t)>& remap);

  /// Evaluates over `row`; columns remapped to side 1 read `other`.
  Result<bool> EvalBool(const Value* row, const Value* other = nullptr) const {
    const Value* rows[2] = {row, other};
    Status error;
    const bool b = Bool(0, rows, &error);
    if (!error.ok()) return error;
    return b;
  }

 private:
  enum class Kind : uint8_t { kColumn, kLiteral, kCompare, kAnd, kOr, kNot };
  struct Node {
    Kind kind = Kind::kLiteral;
    CompareOp op = CompareOp::kEq;
    int side = 0;
    size_t index = 0;
    const Value* literal = nullptr;
    std::vector<uint32_t> children;
    const Expression* expr = nullptr;  ///< source, for error messages
    Status error;                      ///< why a column did not resolve
  };

  uint32_t Add(const Expression& expr, const Schema& schema);
  bool Bool(uint32_t n, const Value* const* rows, Status* error) const;
  const Value* Operand(uint32_t n, const Value* const* rows, Value* scratch,
                       Status* error) const;

  std::vector<Node> nodes_;  ///< nodes_[0] is the root
};

// ---- Builder helpers (the public construction API) -------------------------

/// Column reference: Col("A", "dob") or Col("A.dob").
ExprPtr Col(const std::string& qualifier, const std::string& name);
ExprPtr Col(const std::string& dotted);
/// Literals.
ExprPtr Lit(int64_t v);
ExprPtr Lit(double v);
ExprPtr Lit(const std::string& v);
ExprPtr Lit(const char* v);
ExprPtr Lit(Value v);
/// Comparisons.
ExprPtr Cmp(ExprPtr l, CompareOp op, ExprPtr r);
ExprPtr Eq(ExprPtr l, ExprPtr r);
ExprPtr Ne(ExprPtr l, ExprPtr r);
ExprPtr Lt(ExprPtr l, ExprPtr r);
ExprPtr Le(ExprPtr l, ExprPtr r);
ExprPtr Gt(ExprPtr l, ExprPtr r);
ExprPtr Ge(ExprPtr l, ExprPtr r);
/// Connectives.
ExprPtr And(std::vector<ExprPtr> terms);
ExprPtr And(ExprPtr a, ExprPtr b);
ExprPtr Or(std::vector<ExprPtr> terms);
ExprPtr Negate(ExprPtr inner);

}  // namespace ned

#endif  // NED_EXPR_EXPRESSION_H_
