#include "whynot/compatible_finder.h"

#include <algorithm>
#include <unordered_set>

namespace ned {

BoundCTuple::BoundCTuple(
    const std::vector<std::pair<Attribute, CValue>>& fields,
    const std::vector<CPred>& cond, const Schema& schema) {
  std::vector<std::string> slot_vars;
  for (const auto& [attr, value] : fields) {
    std::optional<size_t> column = schema.IndexOf(attr);
    if (!column.has_value()) continue;  // the schema lacks the attribute
    if (!value.is_var) {
      // Def. 2.8 (2a): the valuation must map tc.A to t.A -- for constants
      // this requires equality.
      constants_.push_back({*column, value.constant});
      continue;
    }
    // Variable field: the valuation binds the variable to t.A; a variable
    // used twice must bind consistently.
    auto it = std::find(slot_vars.begin(), slot_vars.end(), value.var);
    const bool binds = it == slot_vars.end();
    if (binds) it = slot_vars.insert(slot_vars.end(), value.var);
    vars_.push_back({*column, static_cast<uint32_t>(it - slot_vars.begin()),
                     binds});
  }
  slots_ = slot_vars.size();
  // Def. 2.8 (2b): the valuation (extended on the free variables) must
  // satisfy tc.cond.
  cond_ = PreparedCondition(cond, slot_vars);
}

BoundCTuple BoundCTuple::ForAlias(const CTuple& tc, const Schema& schema) {
  NED_CHECK(schema.size() > 0);
  const std::string& alias = schema.at(0).qualifier;
  std::vector<std::pair<Attribute, CValue>> fields;
  for (const auto& field : tc.fields()) {
    if (field.first.qualifier == alias) fields.push_back(field);
  }
  return BoundCTuple(fields, tc.cond(), schema);
}

bool BoundCTuple::Matches(RowView row) const {
  for (const ConstField& field : constants_) {
    if (!Value::Satisfies(row[field.column], CompareOp::kEq, field.constant)) {
      return false;
    }
  }
  const Value* inline_values[8];
  std::vector<const Value*> heap_values;
  const Value** values = inline_values;
  if (slots_ > std::size(inline_values)) {
    heap_values.resize(slots_);
    values = heap_values.data();
  }
  for (const VarField& field : vars_) {
    const Value& v = row[field.column];
    if (field.binds) {
      values[field.slot] = &v;
    } else if (!Value::Satisfies(*values[field.slot], CompareOp::kEq, v)) {
      return false;
    }
  }
  return cond_.SatisfiableWith(values);
}

bool IsCompatible(const CTuple& tc, RowView tuple, const Schema& schema) {
  // Def. 2.8 (1): the shared type must be non-empty.
  const BoundCTuple bound = BoundCTuple::ForAlias(tc, schema);
  return bound.bound_fields() > 0 && bound.Matches(tuple);
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

  for (uint32_t ordinal = 0; ordinal < input.aliases().size(); ++ordinal) {
    const std::string& alias = input.aliases()[ordinal];
    const Block& rows = input.AliasBlock(ordinal);
    if (referenced_aliases.count(alias) == 0) {
      // InDir: the whole instance of an unreferenced relation, one flag.
      sets.indir_aliases.push_back(alias);
      sets.indir.InsertAlias(ordinal, rows.size());
      continue;
    }
    NED_ASSIGN_OR_RETURN(const Schema* schema, input.AliasSchema(alias));
    // S_tc membership even when the scan is empty.
    std::vector<TupleId>& dir_list = sets.dir_by_alias[alias];
    const BoundCTuple bound = BoundCTuple::ForAlias(unrenamed_tc, *schema);
    if (bound.bound_fields() == 0) continue;  // no shared type: no Dir row
    for (size_t i = 0; i < rows.size(); ++i) {
      NED_EXEC_TICK(ctx);
      if (bound.Matches(rows.values(i))) {
        const TupleId id = rows.rid(i);
        dir_list.push_back(id);
        sets.dir.insert(id);
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
