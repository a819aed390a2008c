#include "expr/expression.h"

#include <tuple>

#include "common/strings.h"

namespace ned {

Result<bool> Expression::EvalBool(const Tuple& tuple, const Schema& schema) const {
  NED_ASSIGN_OR_RETURN(Value v, Eval(tuple, schema));
  if (v.is_null()) return false;
  if (v.type() == ValueType::kInt) return v.as_int() != 0;
  return Status::TypeError("expression is not boolean: " + ToString());
}

Result<Value> ColumnRef::Eval(const Tuple& tuple, const Schema& schema) const {
  NED_ASSIGN_OR_RETURN(size_t idx, schema.Resolve(attr_));
  if (idx >= tuple.size()) {
    return Status::Internal("tuple narrower than schema at " + attr_.FullName());
  }
  return tuple.at(idx);
}

std::string Literal::ToString() const {
  if (value_.type() == ValueType::kString) {
    return "'" + value_.as_string() + "'";
  }
  return value_.ToString();
}

Result<Value> Comparison::Eval(const Tuple& tuple, const Schema& schema) const {
  NED_ASSIGN_OR_RETURN(Value l, left_->Eval(tuple, schema));
  NED_ASSIGN_OR_RETURN(Value r, right_->Eval(tuple, schema));
  return Value::Int(Value::Satisfies(l, op_, r) ? 1 : 0);
}

std::string Comparison::ToString() const {
  return left_->ToString() + " " + CompareOpSymbol(op_) + " " +
         right_->ToString();
}

Result<Value> Conjunction::Eval(const Tuple& tuple, const Schema& schema) const {
  for (const auto& t : terms_) {
    NED_ASSIGN_OR_RETURN(bool b, t->EvalBool(tuple, schema));
    if (!b) return Value::Int(0);
  }
  return Value::Int(1);
}

std::string Conjunction::ToString() const {
  if (terms_.empty()) return "TRUE";
  std::vector<std::string> parts;
  for (const auto& t : terms_) parts.push_back(t->ToString());
  return "(" + Join(parts, " AND ") + ")";
}

Result<Value> Disjunction::Eval(const Tuple& tuple, const Schema& schema) const {
  for (const auto& t : terms_) {
    NED_ASSIGN_OR_RETURN(bool b, t->EvalBool(tuple, schema));
    if (b) return Value::Int(1);
  }
  return Value::Int(0);
}

std::string Disjunction::ToString() const {
  if (terms_.empty()) return "FALSE";
  std::vector<std::string> parts;
  for (const auto& t : terms_) parts.push_back(t->ToString());
  return "(" + Join(parts, " OR ") + ")";
}

Result<Value> Not::Eval(const Tuple& tuple, const Schema& schema) const {
  NED_ASSIGN_OR_RETURN(bool b, inner_->EvalBool(tuple, schema));
  return Value::Int(b ? 0 : 1);
}

BoundPredicate BoundPredicate::Bind(const Expression& expr,
                                    const Schema& schema) {
  BoundPredicate bound;
  bound.Add(expr, schema);
  return bound;
}

uint32_t BoundPredicate::Add(const Expression& expr, const Schema& schema) {
  const uint32_t id = static_cast<uint32_t>(nodes_.size());
  nodes_.emplace_back();
  Node node;
  node.expr = &expr;
  std::vector<const Expression*> children;
  if (const auto* col = dynamic_cast<const ColumnRef*>(&expr)) {
    node.kind = Kind::kColumn;
    Result<size_t> idx = schema.Resolve(col->attribute());
    if (idx.ok()) {
      node.index = *idx;
    } else {
      node.error = idx.status();
    }
  } else if (const auto* lit = dynamic_cast<const Literal*>(&expr)) {
    node.kind = Kind::kLiteral;
    node.literal = &lit->value();
  } else if (const auto* cmp = dynamic_cast<const Comparison*>(&expr)) {
    node.kind = Kind::kCompare;
    node.op = cmp->op();
    children = {cmp->left().get(), cmp->right().get()};
  } else if (const auto* conj = dynamic_cast<const Conjunction*>(&expr)) {
    node.kind = Kind::kAnd;
    for (const auto& t : conj->terms()) children.push_back(t.get());
  } else if (const auto* disj = dynamic_cast<const Disjunction*>(&expr)) {
    node.kind = Kind::kOr;
    for (const auto& t : disj->terms()) children.push_back(t.get());
  } else if (const auto* neg = dynamic_cast<const Not*>(&expr)) {
    node.kind = Kind::kNot;
    children = {neg->inner().get()};
  } else {
    node.kind = Kind::kColumn;
    node.error =
        Status::Unsupported("cannot bind expression " + expr.ToString());
  }
  for (const Expression* child : children) {
    node.children.push_back(Add(*child, schema));
  }
  nodes_[id] = std::move(node);
  return id;
}

void BoundPredicate::Remap(
    const std::function<std::pair<int, size_t>(size_t)>& remap) {
  for (Node& node : nodes_) {
    if (node.kind != Kind::kColumn || !node.error.ok()) continue;
    std::tie(node.side, node.index) = remap(node.index);
  }
}

const Value* BoundPredicate::Operand(uint32_t n, const Value* const* rows,
                                     Value* scratch, Status* error) const {
  const Node& node = nodes_[n];
  switch (node.kind) {
    case Kind::kColumn:
      if (!node.error.ok()) {
        *error = node.error;
        return nullptr;
      }
      return &rows[node.side][node.index];
    case Kind::kLiteral:
      return node.literal;
    default:
      *scratch = Value::Int(Bool(n, rows, error) ? 1 : 0);
      return scratch;
  }
}

bool BoundPredicate::Bool(uint32_t n, const Value* const* rows,
                          Status* error) const {
  const Node& node = nodes_[n];
  switch (node.kind) {
    case Kind::kCompare: {
      Value left_scratch, right_scratch;
      const Value* l = Operand(node.children[0], rows, &left_scratch, error);
      if (!error->ok()) return false;
      const Value* r = Operand(node.children[1], rows, &right_scratch, error);
      if (!error->ok()) return false;
      return Value::Satisfies(*l, node.op, *r);
    }
    case Kind::kAnd:
      for (uint32_t c : node.children) {
        if (!Bool(c, rows, error)) return false;
      }
      return true;
    case Kind::kOr:
      for (uint32_t c : node.children) {
        const bool b = Bool(c, rows, error);
        if (!error->ok()) return false;
        if (b) return true;
      }
      return false;
    case Kind::kNot: {
      const bool b = Bool(node.children[0], rows, error);
      return error->ok() && !b;
    }
    case Kind::kColumn:
    case Kind::kLiteral: {
      Value unused;
      const Value* v = Operand(n, rows, &unused, error);
      if (!error->ok() || v->is_null()) return false;
      if (v->type() == ValueType::kInt) return v->as_int() != 0;
      *error = Status::TypeError("expression is not boolean: " +
                                 node.expr->ToString());
      return false;
    }
  }
  return false;
}

ExprPtr Col(const std::string& qualifier, const std::string& name) {
  return std::make_shared<ColumnRef>(Attribute(qualifier, name));
}
ExprPtr Col(const std::string& dotted) {
  return std::make_shared<ColumnRef>(Attribute::Parse(dotted));
}
ExprPtr Lit(int64_t v) { return std::make_shared<Literal>(Value::Int(v)); }
ExprPtr Lit(double v) { return std::make_shared<Literal>(Value::Real(v)); }
ExprPtr Lit(const std::string& v) {
  return std::make_shared<Literal>(Value::Str(v));
}
ExprPtr Lit(const char* v) { return std::make_shared<Literal>(Value::Str(v)); }
ExprPtr Lit(Value v) { return std::make_shared<Literal>(std::move(v)); }

ExprPtr Cmp(ExprPtr l, CompareOp op, ExprPtr r) {
  return std::make_shared<Comparison>(std::move(l), op, std::move(r));
}
ExprPtr Eq(ExprPtr l, ExprPtr r) { return Cmp(std::move(l), CompareOp::kEq, std::move(r)); }
ExprPtr Ne(ExprPtr l, ExprPtr r) { return Cmp(std::move(l), CompareOp::kNe, std::move(r)); }
ExprPtr Lt(ExprPtr l, ExprPtr r) { return Cmp(std::move(l), CompareOp::kLt, std::move(r)); }
ExprPtr Le(ExprPtr l, ExprPtr r) { return Cmp(std::move(l), CompareOp::kLe, std::move(r)); }
ExprPtr Gt(ExprPtr l, ExprPtr r) { return Cmp(std::move(l), CompareOp::kGt, std::move(r)); }
ExprPtr Ge(ExprPtr l, ExprPtr r) { return Cmp(std::move(l), CompareOp::kGe, std::move(r)); }

ExprPtr And(std::vector<ExprPtr> terms) {
  if (terms.size() == 1) return terms[0];
  return std::make_shared<Conjunction>(std::move(terms));
}
ExprPtr And(ExprPtr a, ExprPtr b) {
  return And(std::vector<ExprPtr>{std::move(a), std::move(b)});
}
ExprPtr Or(std::vector<ExprPtr> terms) {
  if (terms.size() == 1) return terms[0];
  return std::make_shared<Disjunction>(std::move(terms));
}
ExprPtr Negate(ExprPtr inner) { return std::make_shared<Not>(std::move(inner)); }

}  // namespace ned
