/// \file compatible_finder.h
/// \brief Compatibility of source tuples with a c-tuple (paper Def. 2.8) and
/// the CompatibleFinder preprocessing step (Sec. 3.1, 2a).
///
/// Given an *unrenamed* c-tuple, Dir_tc collects the source tuples that can
/// contribute the constrained values ("direct compatible set"); every tuple
/// of the remaining relations forms InDir_tc ("indirect compatible set"):
/// data whose presence is only required by the query, not by the question.
/// Fields on aggregation output attributes do not select source tuples; they
/// become the condition cond-alpha checked at/above the breakpoint view V.

#ifndef NED_WHYNOT_COMPATIBLE_FINDER_H_
#define NED_WHYNOT_COMPATIBLE_FINDER_H_

#include <map>
#include <string>
#include <vector>

#include "exec/evaluator.h"
#include "expr/satisfiability.h"
#include "whynot/ctuple.h"

namespace ned {

/// The aggregation-related part of a c-tuple: group-attribute fields that
/// identify which group the user asks about, aggregate-output fields, and
/// the variable conditions constraining them.
struct CondAlpha {
  /// Qualified fields that belong to the aggregation's group-by attributes.
  std::vector<std::pair<Attribute, CValue>> group_fields;
  /// Fields on aggregate output attributes (e.g. ap:x1).
  std::vector<std::pair<Attribute, CValue>> agg_fields;
  /// The c-tuple's full condition (variables not mentioned stay free).
  std::vector<CPred> cond;

  bool empty() const { return agg_fields.empty(); }
};

/// Result of CompatibleFinder for one c-tuple. Both sets keep one record
/// per alias ordinal (exec/lineage.h): Dir a row bitmap for each alias the
/// c-tuple names, InDir a whole-alias flag for each alias it does not name,
/// so an unreferenced alias costs O(1) whatever its size.
struct CompatibleSets {
  TupleIdSet dir;    ///< Dir_tc
  TupleIdSet indir;  ///< InDir_tc
  /// Dir tuples per alias; keys form S_tc.
  std::map<std::string, std::vector<TupleId>> dir_by_alias;
  /// S_Q \ S_tc: aliases typing InDir (drives the secondary answer).
  std::vector<std::string> indir_aliases;
  /// cond-alpha content extracted from the c-tuple (empty for SPJ queries).
  CondAlpha cond_alpha;
};

/// C-tuple fields bound to the columns of one schema, for testing many rows
/// of it: each field becomes a (column, constant) check or a (column,
/// variable slot) binding, and the condition a PreparedCondition over the
/// slots, all resolved once instead of per row. Fields whose attribute the
/// schema lacks are skipped.
class BoundCTuple {
 public:
  BoundCTuple(const std::vector<std::pair<Attribute, CValue>>& fields,
              const std::vector<CPred>& cond, const Schema& schema);

  /// The fields of `tc` qualified by `schema`'s alias, bound to `schema`
  /// (Def. 2.8 looks only at the fields referencing the tuple's relation).
  static BoundCTuple ForAlias(const CTuple& tc, const Schema& schema);

  /// Number of fields the schema resolved.
  size_t bound_fields() const { return constants_.size() + vars_.size(); }

  /// True when `row` equals every bound constant, binds each variable to
  /// one value, and the condition has a valuation extending those values.
  bool Matches(RowView row) const;

 private:
  struct ConstField {
    size_t column;
    Value constant;
  };
  struct VarField {
    size_t column;
    uint32_t slot;
    bool binds;  ///< the slot's first field; later ones must agree with it
  };
  std::vector<ConstField> constants_;
  std::vector<VarField> vars_;  ///< in field order
  size_t slots_ = 0;
  PreparedCondition cond_;
};

/// Decides Def. 2.8 compatibility of one source tuple (typed by `schema`,
/// which carries the alias qualification) with an unrenamed c-tuple.
/// Only fields whose qualifier matches `schema`'s alias participate; all
/// (attribute:value) pairs referencing the alias must co-occur in the tuple.
/// Binds, then tests: BoundCTuple::ForAlias(tc, schema) with a field bound
/// and matching `tuple`.
bool IsCompatible(const CTuple& tc, RowView tuple, const Schema& schema);

/// Computes Dir/InDir for an unrenamed c-tuple over the query input.
/// `agg_output_names` lists the aggregate output attributes of the query
/// (empty for SPJ); unqualified fields must name one of them. An optional
/// ExecContext makes the scan over the input instance interruptible.
Result<CompatibleSets> FindCompatibles(
    const CTuple& unrenamed_tc, const QueryInput& input,
    const std::vector<std::string>& agg_output_names,
    ExecContext* ctx = nullptr);

}  // namespace ned

#endif  // NED_WHYNOT_COMPATIBLE_FINDER_H_
