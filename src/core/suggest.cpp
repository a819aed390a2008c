#include "core/suggest.h"

#include <algorithm>
#include <map>

#include "common/strings.h"

namespace ned {
namespace {

/// Decomposes a predicate of the shape `ColumnRef cop Literal` (either
/// operand order); returns false otherwise.
bool SimpleComparison(const ExprPtr& predicate, Attribute* attr, CompareOp* op,
                      Value* bound) {
  auto cmp = std::dynamic_pointer_cast<const Comparison>(predicate);
  if (cmp == nullptr) return false;
  auto lcol = std::dynamic_pointer_cast<const ColumnRef>(cmp->left());
  auto rlit = std::dynamic_pointer_cast<const Literal>(cmp->right());
  if (lcol != nullptr && rlit != nullptr) {
    *attr = lcol->attribute();
    *op = cmp->op();
    *bound = rlit->value();
    return true;
  }
  auto llit = std::dynamic_pointer_cast<const Literal>(cmp->left());
  auto rcol = std::dynamic_pointer_cast<const ColumnRef>(cmp->right());
  if (llit != nullptr && rcol != nullptr) {
    *attr = rcol->attribute();
    *op = MirrorOp(cmp->op());
    *bound = llit->value();
    return true;
  }
  return false;
}

/// The blocked tuple's value for `attr`, when the attribute belongs to the
/// tuple's own relation (the common case for blamed selections: the
/// selection filters the relation the compatible tuple comes from).
std::optional<Value> ValueOfBlockedTuple(const QueryInput& input, TupleId id,
                                         const Attribute& attr) {
  std::string alias = input.AliasOfId(id);
  if (alias.empty() || attr.qualifier != alias) return std::nullopt;
  auto schema = input.AliasSchema(alias);
  if (!schema.ok()) return std::nullopt;
  std::optional<size_t> idx = (*schema)->IndexOf(attr);
  if (!idx.has_value()) return std::nullopt;
  const Tuple* tuple = input.FindById(id);
  if (tuple == nullptr) return std::nullopt;
  return tuple->at(*idx);
}

/// Builds the minimal relaxation of `attr cop bound` that also admits every
/// value in `values` (all of which currently fail the comparison).
/// Returns nullptr when no simple relaxation exists (e.g. strings under =).
ExprPtr RelaxComparison(const Attribute& attr, CompareOp op, const Value& bound,
                        const std::vector<Value>& values, std::string* text) {
  auto col = std::make_shared<ColumnRef>(attr);
  switch (op) {
    case CompareOp::kGt:
    case CompareOp::kGe: {
      // Lower the bound to the smallest blocked value (inclusive).
      Value lo = bound;
      for (const Value& v : values) {
        if (Value::Satisfies(v, CompareOp::kLt, lo)) lo = v;
      }
      *text = attr.FullName() + " >= " + lo.ToString();
      return Ge(col, Lit(lo));
    }
    case CompareOp::kLt:
    case CompareOp::kLe: {
      Value hi = bound;
      for (const Value& v : values) {
        if (Value::Satisfies(v, CompareOp::kGt, hi)) hi = v;
      }
      *text = attr.FullName() + " <= " + hi.ToString();
      return Le(col, Lit(hi));
    }
    case CompareOp::kEq: {
      // Widen the equality into a disjunction over the blocked values.
      std::vector<ExprPtr> terms = {Eq(col, Lit(bound))};
      std::vector<std::string> names = {bound.ToString()};
      for (const Value& v : values) {
        terms.push_back(Eq(std::make_shared<ColumnRef>(attr), Lit(v)));
        names.push_back(v.ToString());
      }
      *text = attr.FullName() + " IN {" + Join(names, ", ") + "}";
      return Or(std::move(terms));
    }
    case CompareOp::kNe:
      // attr != c blocked a tuple means its value *is* c; the only
      // "relaxation" is dropping the condition.
      *text = "drop the condition " + attr.FullName() + " != " +
              bound.ToString();
      return And(std::vector<ExprPtr>{});  // TRUE
  }
  return nullptr;
}

}  // namespace

Result<std::vector<ModificationHint>> SuggestModifications(
    const NedExplainEngine& engine, const NedExplainResult& result) {
  const QueryInput& input = engine.last_input();

  // Group blamed Dir tuples per subquery.
  std::map<const OperatorNode*, std::vector<TupleId>> blamed;
  for (const auto& entry : result.answer.detailed) {
    if (!entry.is_bottom()) {
      blamed[entry.subquery].push_back(entry.dir_tuple);
    } else {
      blamed[entry.subquery];  // cond-alpha flip: hint without tuples
    }
  }

  std::vector<ModificationHint> hints;
  for (const auto& [node, tuples] : blamed) {
    ModificationHint hint;
    hint.node = node;
    for (TupleId id : tuples) hint.admits.push_back(input.DisplayTuple(id));
    std::sort(hint.admits.begin(), hint.admits.end());

    if (node->kind == OpKind::kSelect) {
      Attribute attr;
      CompareOp op;
      Value bound;
      if (SimpleComparison(node->predicate, &attr, &op, &bound)) {
        // Collect the blocked tuples' values for the filtered attribute.
        std::vector<Value> values;
        for (TupleId id : tuples) {
          std::optional<Value> v = ValueOfBlockedTuple(input, id, attr);
          if (v.has_value() && !v->is_null()) values.push_back(*v);
        }
        if (!values.empty() || tuples.empty()) {
          std::string relaxed_text;
          hint.relaxed_predicate =
              RelaxComparison(attr, op, bound, values, &relaxed_text);
          if (hint.relaxed_predicate != nullptr) {
            hint.description =
                StrCat("relax ", node->name, " [sigma ",
                       node->predicate->ToString(), "] to ", relaxed_text,
                       hint.admits.empty()
                           ? std::string()
                           : " (admits " + Join(hint.admits, ", ") + ")");
          }
        }
      }
      if (hint.description.empty()) {
        hint.description =
            StrCat("selection ", node->name, " [",
                   node->predicate->ToString(),
                   "] prunes the compatible data; consider weakening it");
      }
    } else if (node->kind == OpKind::kJoin) {
      // Join partners are missing: report the blocked tuples' key values so
      // the developer can check the other side's data.
      std::vector<std::string> keys;
      for (const auto& triple : node->renaming.triples()) {
        for (TupleId id : tuples) {
          for (const Attribute& side : {triple.a1, triple.a2}) {
            std::optional<Value> v = ValueOfBlockedTuple(input, id, side);
            if (v.has_value()) {
              keys.push_back(side.FullName() + "=" + v->ToString());
            }
          }
        }
      }
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
      hint.description = StrCat(
          "join ", node->name, " finds no valid partner",
          keys.empty() ? std::string()
                       : " for " + Join(keys, ", "),
          "; the missing side needs matching (compatible) data");
    } else if (node->kind == OpKind::kDifference) {
      hint.description = StrCat(
          "difference ", node->name,
          " eliminates the compatible data: a right-operand counterpart "
          "exists; remove it or restrict the subtracted side");
    } else if (node->kind == OpKind::kAggregate) {
      hint.description = StrCat("aggregation ", node->name,
                                " groups the compatible data away");
    } else {
      hint.description = StrCat(OpKindName(node->kind), " ", node->name,
                                " prunes the compatible data");
    }
    hints.push_back(std::move(hint));
  }

  // Secondary answers: emptied side branches are root causes worth fixing.
  for (const OperatorNode* node : result.answer.secondary) {
    ModificationHint hint;
    hint.node = node;
    hint.description =
        StrCat(node->name, " [", node->Describe(),
               "] starves an entire relation the query depends on; no tuple "
               "of that relation survives past it");
    hints.push_back(std::move(hint));
  }
  return hints;
}

}  // namespace ned
