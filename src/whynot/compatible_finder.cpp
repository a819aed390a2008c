#include "whynot/compatible_finder.h"

#include <algorithm>

#include "exec/parallel.h"
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

  // Unreferenced aliases (whole instance into InDir) stay serial: they are
  // pure set inserts. Referenced aliases run the IsCompatible scan, which is
  // the part worth fanning out -- across aliases (independent branches of
  // the algebra tree) and across morsels within large aliases.
  struct DirScan {
    const std::string* alias;
    const Block* rows;
    const Schema* schema;
  };
  std::vector<DirScan> scans;
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
    sets.dir_by_alias[alias];  // S_tc membership even when the scan is empty
    scans.push_back(DirScan{&alias, rows, schema});
  }

  if (ParallelActive(ctx) && !scans.empty()) {
    // One task per (alias, morsel): workers only match (IsCompatible is
    // pure) and record matching rids; the coordinator folds charges and
    // inserts matches in (alias, morsel) order, which is exactly the order
    // the serial scan would produce. dir/all/indir are unordered sets and
    // dir_by_alias lists get row-order rids, so results are identical.
    struct Morsel {
      size_t scan;
      size_t begin;
      size_t end;
    };
    std::vector<Morsel> morsels;
    for (size_t s = 0; s < scans.size(); ++s) {
      const size_t n = scans[s].rows->size();
      const MorselPlan plan = PlanFor(ctx, n);
      for (size_t p = 0; p < plan.partitions; ++p) {
        if (plan.begin(p) < plan.end(p)) {
          morsels.push_back(Morsel{s, plan.begin(p), plan.end(p)});
        }
      }
    }
    std::vector<ExecContext> shards(morsels.size());
    std::vector<std::vector<TupleId>> matches(morsels.size());
    for (size_t m = 0; m < morsels.size(); ++m) ctx->BeginWorkerShard(&shards[m]);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(morsels.size());
    std::vector<Status> statuses(morsels.size(), Status::OK());
    for (size_t m = 0; m < morsels.size(); ++m) {
      tasks.push_back([&, m] {
        const Morsel& morsel = morsels[m];
        const DirScan& scan = scans[morsel.scan];
        auto run = [&]() -> Status {
          for (size_t i = morsel.begin; i < morsel.end; ++i) {
            NED_EXEC_TICK(&shards[m]);
            if (IsCompatible(unrenamed_tc, scan.rows->values(i),
                             *scan.schema)) {
              matches[m].push_back(scan.rows->rid(i));
            }
          }
          return Status::OK();
        };
        statuses[m] = run();
      });
    }
    ctx->task_pool()->RunAndWait(tasks);
    for (size_t m = 0; m < morsels.size(); ++m) {
      ctx->FoldShard(shards[m]);
      NED_RETURN_NOT_OK(ctx->CheckPoint());
      NED_RETURN_NOT_OK(statuses[m]);
      std::vector<TupleId>& dir_list =
          sets.dir_by_alias[*scans[morsels[m].scan].alias];
      for (TupleId rid : matches[m]) {
        dir_list.push_back(rid);
        sets.dir.insert(rid);
        sets.all.insert(rid);
      }
    }
  } else {
    for (const DirScan& scan : scans) {
      std::vector<TupleId>& dir_list = sets.dir_by_alias[*scan.alias];
      for (size_t i = 0; i < scan.rows->size(); ++i) {
        NED_EXEC_TICK(ctx);
        if (IsCompatible(unrenamed_tc, scan.rows->values(i), *scan.schema)) {
          const TupleId id = scan.rows->rid(i);
          dir_list.push_back(id);
          sets.dir.insert(id);
          sets.all.insert(id);
        }
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
