#include "expr/satisfiability.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>

namespace ned {
namespace {

/// What a test knows about one equality class: its value when a bound slot
/// or an `x = a` fixes it, else its feasible interval -- optional lower and
/// upper bounds with strictness. Domains are treated as dense.
struct ClassState {
  const Value* value = nullptr;
  const Value* lo = nullptr;
  bool lo_strict = false;
  const Value* hi = nullptr;
  bool hi_strict = false;

  /// Tightens the lower bound; returns false on immediate contradiction
  /// (incomparable bound types, e.g. string vs number).
  bool TightenLo(const Value* v, bool strict) {
    if (lo == nullptr) {
      lo = v;
      lo_strict = strict;
      return true;
    }
    std::optional<int> c = Value::Compare(*v, *lo);
    if (!c.has_value()) return false;
    if (*c > 0 || (*c == 0 && strict)) {
      lo = v;
      lo_strict = strict;
    }
    return true;
  }
  bool TightenHi(const Value* v, bool strict) {
    if (hi == nullptr) {
      hi = v;
      hi_strict = strict;
      return true;
    }
    std::optional<int> c = Value::Compare(*v, *hi);
    if (!c.has_value()) return false;
    if (*c < 0 || (*c == 0 && strict)) {
      hi = v;
      hi_strict = strict;
    }
    return true;
  }
  /// Applies `class op v`. Disequalities are checked in Feasible.
  bool Tighten(CompareOp op, const Value* v) {
    switch (op) {
      case CompareOp::kEq: return TightenLo(v, false) && TightenHi(v, false);
      case CompareOp::kNe: return true;
      case CompareOp::kLt: return TightenHi(v, true);
      case CompareOp::kLe: return TightenHi(v, false);
      case CompareOp::kGt: return TightenLo(v, true);
      case CompareOp::kGe: return TightenLo(v, false);
    }
    return true;
  }
};

/// Union-find over variable ids, used only while compiling.
uint32_t FindRoot(std::vector<uint32_t>& parent, uint32_t x) {
  while (parent[x] != x) x = parent[x] = parent[parent[x]];
  return x;
}

}  // namespace

PreparedCondition::PreparedCondition(const std::vector<CPred>& cond,
                                     const std::vector<std::string>& slots) {
  std::map<std::string, uint32_t> var_id;
  auto id_of = [&](const std::string& var) {
    return var_id.emplace(var, static_cast<uint32_t>(var_id.size()))
        .first->second;
  };
  for (const auto& p : cond) {
    id_of(p.lhs_var);
    if (p.rhs_is_var) id_of(p.rhs_var);
  }
  for (const auto& var : slots) id_of(var);

  // Merge equality classes of `x = y` predicates, then number the classes.
  std::vector<uint32_t> parent(var_id.size());
  for (uint32_t i = 0; i < parent.size(); ++i) parent[i] = i;
  for (const auto& p : cond) {
    if (p.rhs_is_var && p.op == CompareOp::kEq) {
      parent[FindRoot(parent, var_id.at(p.lhs_var))] =
          FindRoot(parent, var_id.at(p.rhs_var));
    }
  }
  std::vector<uint32_t> class_of_root(parent.size(), UINT32_MAX);
  auto class_of = [&](const std::string& var) {
    uint32_t& cls = class_of_root[FindRoot(parent, var_id.at(var))];
    if (cls == UINT32_MAX) cls = static_cast<uint32_t>(classes_++);
    return cls;
  };

  for (const auto& var : slots) slot_class_.push_back(class_of(var));
  for (uint32_t i = 0; i < slots.size(); ++i) slot_order_.push_back(i);
  std::sort(slot_order_.begin(), slot_order_.end(),
            [&](uint32_t a, uint32_t b) { return slots[a] < slots[b]; });

  for (const auto& p : cond) {
    if (p.rhs_is_var && p.op == CompareOp::kEq) continue;  // merged above
    const uint32_t lhs = class_of(p.lhs_var);
    if (p.rhs_is_var) {
      preds_.push_back({lhs, p.op, true, class_of(p.rhs_var)});
      continue;
    }
    const auto constant = static_cast<uint32_t>(constants_.size());
    constants_.push_back(p.rhs_const);
    if (p.op == CompareOp::kEq) class_eqs_.push_back({lhs, constant});
    preds_.push_back({lhs, p.op, false, constant});
  }
}

bool PreparedCondition::SatisfiableWith(const Value* const* values) const {
  ClassState inline_states[8];
  std::vector<ClassState> heap_states;
  ClassState* state = inline_states;
  if (classes_ > std::size(inline_states)) {
    heap_states.resize(classes_);
    state = heap_states.data();
  }

  // Each equality class takes the binding of any bound member; two distinct
  // bound members must agree. Then constants propagate through `x = a`
  // (a fixpoint in one pass, since classes are already merged).
  auto fix = [&](uint32_t cls, const Value* v) {
    if (state[cls].value == nullptr) {
      state[cls].value = v;
      return true;
    }
    return Value::Satisfies(*state[cls].value, CompareOp::kEq, *v);
  };
  for (uint32_t slot : slot_order_) {
    if (!fix(slot_class_[slot], values[slot])) return false;
  }
  for (const ClassEq& eq : class_eqs_) {
    if (!fix(eq.cls, &constants_[eq.constant])) return false;
  }

  auto rhs_value = [&](const Pred& p) {
    return p.rhs_is_var ? state[p.rhs].value : &constants_[p.rhs];
  };
  // Ground predicates are checked, a predicate with one free side bounds
  // that side's class, and free var-vs-var inequalities become edges.
  size_t edges = 0;
  for (const Pred& p : preds_) {
    const Value* l = state[p.lhs].value;
    const Value* r = rhs_value(p);
    if (l != nullptr && r != nullptr) {
      if (!Value::Satisfies(*l, p.op, *r)) return false;
    } else if (l != nullptr) {
      // a cop y  ==>  y mirror(cop) a
      if (!state[p.rhs].Tighten(MirrorOp(p.op), l)) return false;
    } else if (r != nullptr) {
      if (!state[p.lhs].Tighten(p.op, r)) return false;
    } else if (p.op != CompareOp::kNe) {  // dense domain: != always holds
      ++edges;
    }
  }

  // Bound propagation across free-variable inequality edges. Chains in
  // c-tuple conditions are short; |edges|+1 rounds reach a fixpoint for
  // acyclic systems and expose contradictions in simple cycles.
  for (size_t round = 0; edges > 0 && round <= edges; ++round) {
    for (const Pred& p : preds_) {
      if (!p.rhs_is_var || p.op == CompareOp::kNe ||
          state[p.lhs].value != nullptr || state[p.rhs].value != nullptr) {
        continue;
      }
      ClassState& li = state[p.lhs];
      ClassState& ri = state[p.rhs];
      const bool lhs_below = p.op == CompareOp::kLt || p.op == CompareOp::kLe;
      const bool strict = p.op == CompareOp::kLt || p.op == CompareOp::kGt;
      if (lhs_below) {
        // lhs < rhs: lhs inherits rhs's upper bound, rhs inherits lhs's lower.
        if (ri.hi != nullptr && !li.TightenHi(ri.hi, strict || ri.hi_strict)) {
          return false;
        }
        if (li.lo != nullptr && !ri.TightenLo(li.lo, strict || li.lo_strict)) {
          return false;
        }
      } else {
        if (ri.lo != nullptr && !li.TightenLo(ri.lo, strict || ri.lo_strict)) {
          return false;
        }
        if (li.hi != nullptr && !ri.TightenHi(li.hi, strict || li.hi_strict)) {
          return false;
        }
      }
    }
  }

  // Every free class needs a non-empty region. A half-open or unbounded
  // interval of a dense domain holds infinitely many points, so finitely
  // many disequalities can only empty an interval pinched to one point.
  for (uint32_t cls = 0; cls < classes_; ++cls) {
    const ClassState& s = state[cls];
    if (s.lo == nullptr || s.hi == nullptr) continue;
    std::optional<int> c = Value::Compare(*s.lo, *s.hi);
    if (!c.has_value() || *c > 0) return false;
    if (*c < 0) continue;
    if (s.lo_strict || s.hi_strict) return false;
    for (const Pred& p : preds_) {
      if (p.op != CompareOp::kNe) continue;
      const Value* l = state[p.lhs].value;
      const Value* r = rhs_value(p);
      const Value* excluded = nullptr;
      if (l != nullptr && r == nullptr && p.rhs == cls) excluded = l;
      if (l == nullptr && r != nullptr && p.lhs == cls) excluded = r;
      if (excluded != nullptr &&
          Value::Satisfies(*s.lo, CompareOp::kEq, *excluded)) {
        return false;
      }
    }
  }
  return true;
}

bool SatisfiableWith(const std::vector<CPred>& cond,
                     const std::map<std::string, Value>& bindings) {
  std::vector<std::string> slots;
  std::vector<const Value*> values;
  for (const auto& [var, value] : bindings) {
    slots.push_back(var);
    values.push_back(&value);
  }
  return PreparedCondition(cond, slots).SatisfiableWith(values.data());
}

bool EvaluateGround(const std::vector<CPred>& cond,
                    const std::map<std::string, Value>& bindings) {
  for (const auto& p : cond) {
    auto l = bindings.find(p.lhs_var);
    if (l == bindings.end()) return false;
    Value rhs;
    if (p.rhs_is_var) {
      auto r = bindings.find(p.rhs_var);
      if (r == bindings.end()) return false;
      rhs = r->second;
    } else {
      rhs = p.rhs_const;
    }
    if (!Value::Satisfies(l->second, p.op, rhs)) return false;
  }
  return true;
}

}  // namespace ned
