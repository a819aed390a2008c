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
#include <unordered_set>
#include <vector>

#include "exec/evaluator.h"
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

/// Result of CompatibleFinder for one c-tuple.
struct CompatibleSets {
  std::unordered_set<TupleId> dir;    ///< Dir_tc
  std::unordered_set<TupleId> indir;  ///< InDir_tc
  std::unordered_set<TupleId> all;    ///< D = Dir_tc  union  InDir_tc
  /// Dir tuples per alias; keys form S_tc.
  std::map<std::string, std::vector<TupleId>> dir_by_alias;
  /// S_Q \ S_tc: aliases typing InDir (drives the secondary answer).
  std::vector<std::string> indir_aliases;
  /// cond-alpha content extracted from the c-tuple (empty for SPJ queries).
  CondAlpha cond_alpha;

  size_t dir_size() const { return dir.size(); }
};

/// Decides Def. 2.8 compatibility of one source tuple (typed by `schema`,
/// which carries the alias qualification) with an unrenamed c-tuple.
/// Only fields whose qualifier matches `schema`'s alias participate; all
/// (attribute:value) pairs referencing the alias must co-occur in the tuple.
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
