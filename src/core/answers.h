/// \file answers.h
/// \brief Why-Not answer representations (paper Defs. 2.12-2.14).

#ifndef NED_CORE_ANSWERS_H_
#define NED_CORE_ANSWERS_H_

#include <functional>
#include <string>
#include <vector>

#include "algebra/query_tree.h"
#include "exec/evaluator.h"
#include "relational/tuple.h"

namespace ned {

/// One element of the detailed Why-Not answer: a picked compatible source
/// tuple and the subquery that picked it. `dir_tuple == kInvalidTupleId`
/// encodes the paper's (⊥, Q') entries, produced when a subquery's output
/// stops satisfying the aggregation condition although its input did.
struct DetailedEntry {
  TupleId dir_tuple = kInvalidTupleId;
  const OperatorNode* subquery = nullptr;

  bool is_bottom() const { return dir_tuple == kInvalidTupleId; }
  bool operator==(const DetailedEntry& other) const {
    return dir_tuple == other.dir_tuple && subquery == other.subquery;
  }
};

struct DetailedEntryHash {
  size_t operator()(const DetailedEntry& e) const {
    return std::hash<TupleId>()(e.dir_tuple) * 31 +
           std::hash<const OperatorNode*>()(e.subquery);
  }
};

/// The three answer granularities for one question (or one c-tuple).
struct WhyNotAnswer {
  /// Detailed answer dW (Def. 2.12): pairs (t_I, Q') plus (⊥, Q').
  std::vector<DetailedEntry> detailed;
  /// Condensed answer dcW (Def. 2.13): the distinct picky subqueries.
  std::vector<const OperatorNode*> condensed;
  /// Secondary answer sW (Def. 2.14): subqueries that lost *all* tuples of
  /// an indirect-compatible relation.
  std::vector<const OperatorNode*> secondary;

  bool empty() const {
    return detailed.empty() && condensed.empty() && secondary.empty();
  }

  /// Set-unions `other` into this answer (used to combine per-c-tuple
  /// answers into the answer of a disjunctive predicate), keeping
  /// first-seen order.
  void MergeFrom(const WhyNotAnswer& other);

  /// Rebuilds `condensed` from `detailed` (dedup in first-seen order).
  void DeriveCondensed();

  /// "(P.id:604, m0)" rendering of one detailed entry.
  static std::string EntryToString(const DetailedEntry& entry,
                                   const QueryInput& input);

  /// Multi-line rendering of all three granularities.
  std::string ToString(const QueryInput& input) const;
  /// Compact one-line forms used in the Table 5 bench.
  std::string DetailedToString(const QueryInput& input) const;
  std::string CondensedToString() const;
  std::string SecondaryToString() const;
};

}  // namespace ned

#endif  // NED_CORE_ANSWERS_H_
