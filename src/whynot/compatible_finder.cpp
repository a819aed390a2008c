#include "whynot/compatible_finder.h"

#include <algorithm>

#include "expr/satisfiability.h"

namespace ned {

bool IsCompatible(const CTuple& tc, RowView tuple, const Schema& schema) {
  NED_CHECK(schema.size() > 0);
  const std::string& alias = schema.at(0).qualifier;

  // Collect the fields referencing this alias. Def. 2.8 (1): the shared type
  // must be non-empty.
  bool any_shared = false;
  std::map<std::string, Value> bindings;
  for (const auto& [attr, value] : tc.fields()) {
    if (attr.qualifier != alias) continue;
    std::optional<size_t> idx = schema.IndexOf(attr);
    if (!idx.has_value()) continue;  // question names an unknown attribute
    any_shared = true;
    const Value& tuple_value = tuple.at(*idx);
    if (!value.is_var) {
      // Def. 2.8 (2a): the valuation must map tc.A to t.A -- for constants
      // this requires equality.
      if (!Value::Satisfies(tuple_value, CompareOp::kEq, value.constant)) {
        return false;
      }
    } else {
      // Variable field: the valuation binds the variable to t.A; a variable
      // used twice on this relation must bind consistently.
      auto it = bindings.find(value.var);
      if (it != bindings.end()) {
        if (!Value::Satisfies(it->second, CompareOp::kEq, tuple_value)) {
          return false;
        }
      } else {
        bindings.emplace(value.var, tuple_value);
      }
    }
  }
  if (!any_shared) return false;
  // Def. 2.8 (2b): the valuation (extended on the free variables) must
  // satisfy tc.cond.
  return SatisfiableWith(tc.cond(), bindings);
}

Result<CompatibleSets> FindCompatibles(
    const CTuple& unrenamed_tc, const QueryInput& input,
    const std::vector<std::string>& agg_output_names, ExecContext* ctx) {
  CompatibleSets sets;

  // Split fields: per-alias qualified fields vs aggregation-output fields.
  std::unordered_set<std::string> referenced_aliases;
  for (const auto& [attr, value] : unrenamed_tc.fields()) {
    if (attr.qualified()) {
      referenced_aliases.insert(attr.qualifier);
      continue;
    }
    if (std::find(agg_output_names.begin(), agg_output_names.end(),
                  attr.name) == agg_output_names.end()) {
      return Status::InvalidArgument(
          "unrenamed c-tuple field is neither qualified nor an aggregate "
          "output: " +
          attr.FullName());
    }
    sets.cond_alpha.agg_fields.emplace_back(attr, value);
  }
  sets.cond_alpha.cond = unrenamed_tc.cond();

  for (const std::string& alias : input.aliases()) {
    NED_ASSIGN_OR_RETURN(const Block* rows, input.AliasBlock(alias));
    if (referenced_aliases.count(alias) == 0) {
      // InDir: the whole instance of an unreferenced relation.
      sets.indir_aliases.push_back(alias);
      for (size_t i = 0; i < rows->size(); ++i) {
        NED_EXEC_TICK(ctx);
        sets.indir.insert(rows->rid(i));
        sets.all.insert(rows->rid(i));
      }
      continue;
    }
    NED_ASSIGN_OR_RETURN(const Schema* schema, input.AliasSchema(alias));
    // S_tc membership even when the scan is empty.
    std::vector<TupleId>& dir_list = sets.dir_by_alias[alias];
    for (size_t i = 0; i < rows->size(); ++i) {
      NED_EXEC_TICK(ctx);
      if (IsCompatible(unrenamed_tc, rows->values(i), *schema)) {
        const TupleId id = rows->rid(i);
        dir_list.push_back(id);
        sets.dir.insert(id);
        sets.all.insert(id);
      }
    }
  }

  // Group fields of cond-alpha are the qualified fields (they identify the
  // group the question asks about once aggregation applies).
  for (const auto& [attr, value] : unrenamed_tc.fields()) {
    if (attr.qualified()) {
      sets.cond_alpha.group_fields.emplace_back(attr, value);
    }
  }
  return sets;
}

}  // namespace ned
