/// \file satisfiability.h
/// \brief Satisfiability of c-tuple conditions under partial bindings.
///
/// Def. 2.8 (compatibility) asks whether "there exists a valuation nu for tc
/// s.t. nu(tc) |= tc.cond" after fixing the variables that a candidate source
/// tuple binds. This module decides that existence question for conjunctions
/// of `var cop const` and `var cop var` predicates (the full condition
/// language of Def. 2.5).
///
/// Decision procedure:
///   1. substitute bound variables; fully-ground predicates are checked
///      directly;
///   2. equalities are propagated to a fixpoint (variables joined by `x = y`
///      form one equality class, and `x = a` fixes a class's value);
///   3. inequality bounds are propagated through `x cop y` edges for a
///      bounded number of rounds (enough for the acyclic chains that c-tuple
///      conditions form in practice -- the paper restricts conditions to
///      variables local to one relation);
///   4. each remaining free variable is checked for a non-empty feasible
///      interval, treating domains as dense and unbounded (the paper's active
///      domains are unconstrained), so disequalities only matter when the
///      interval is pinched to a single point.
///
/// PreparedCondition runs steps 2-4 on integer equality classes that are
/// derived once per (condition, bound variables); SatisfiableWith compiles
/// one and tests it, so there is one procedure.

#ifndef NED_EXPR_SATISFIABILITY_H_
#define NED_EXPR_SATISFIABILITY_H_

#include <map>
#include <string>
#include <vector>

#include "expr/condition.h"

namespace ned {

/// A condition compiled for tests that bind a fixed list of variables, the
/// "slots": variable names become equality classes and constants indices,
/// so a test reads no string and, for up to 8 classes, allocates nothing.
class PreparedCondition {
 public:
  /// The empty condition: satisfiable under every binding.
  PreparedCondition() = default;
  /// Compiles `cond` for tests binding the distinct variables `slots`
  /// (slot i binds slots[i]). A slot `cond` never mentions constrains
  /// nothing.
  PreparedCondition(const std::vector<CPred>& cond,
                    const std::vector<std::string>& slots);

  /// Decides whether the condition has a satisfying valuation in which slot
  /// i's variable takes the value *values[i]; the other variables are
  /// existentially quantified.
  bool SatisfiableWith(const Value* const* values) const;

 private:
  /// A predicate other than `x = y`, over equality classes.
  struct Pred {
    uint32_t lhs = 0;  ///< class
    CompareOp op = CompareOp::kEq;
    bool rhs_is_var = false;
    uint32_t rhs = 0;  ///< class, or index into constants_
  };
  /// `x = a`: class `cls` takes constants_[constant].
  struct ClassEq {
    uint32_t cls = 0;
    uint32_t constant = 0;
  };

  size_t classes_ = 0;
  std::vector<uint32_t> slot_class_;
  std::vector<uint32_t> slot_order_;  ///< slots in variable-name order
  std::vector<Value> constants_;
  std::vector<ClassEq> class_eqs_;  ///< in condition order
  std::vector<Pred> preds_;         ///< in condition order
};

/// Decides whether `cond` has a satisfying valuation extending `bindings`.
/// Variables absent from `bindings` are existentially quantified.
bool SatisfiableWith(const std::vector<CPred>& cond,
                     const std::map<std::string, Value>& bindings);

/// Evaluates `cond` under a *complete* binding of its variables; unbound
/// variables make the result false (no existential quantification).
bool EvaluateGround(const std::vector<CPred>& cond,
                    const std::map<std::string, Value>& bindings);

}  // namespace ned

#endif  // NED_EXPR_SATISFIABILITY_H_
