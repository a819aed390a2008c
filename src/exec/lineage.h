/// \file lineage.h
/// \brief Lineage of materialized tuples (Cui & Widom lineage, paper Sec. 2.3).
///
/// Every materialized tuple carries (1) the set of *base* tuples of I_Q in
/// its lineage and (2) the runtime ids of its *immediate predecessors* in the
/// child outputs. (1) drives the valid-successor test `lineage(t) subseteq D`
/// (Notation 2.1); (2) gives the per-manipulation successor relation used by
/// FindSuccessors and the Why-Not baseline. This natively replaces the Trio
/// lineage service the original implementations queried. Tuples live in
/// per-node blocks (exec/block.h).

#ifndef NED_EXEC_LINEAGE_H_
#define NED_EXEC_LINEAGE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "relational/tuple.h"

namespace ned {

/// Sorted, deduplicated set of base TupleIds.
using BaseSet = std::vector<TupleId>;

/// A read-only sorted run of base TupleIds: a range of a block's id pool,
/// or -- for a base row, whose lineage is itself -- one id held inline. The
/// inline form points into the view, so iterate a view, not a copy of its
/// begin()/end() that outlives it. Hot paths take it by const reference:
/// passed by value, the inline id's address escapes and the calls measured
/// ~2x slower in the successor scan.
class IdSpan {
 public:
  IdSpan() = default;
  IdSpan(const TupleId* data, size_t size) : data_(data), size_(size) {}
  explicit IdSpan(TupleId self) : size_(1), self_(self) {}
  IdSpan(const BaseSet& set)  // NOLINT(runtime/explicit)
      : data_(set.data()), size_(set.size()) {}

  const TupleId* begin() const { return data_ != nullptr ? data_ : &self_; }
  const TupleId* end() const { return begin() + size_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  TupleId operator[](size_t i) const { return begin()[i]; }
  TupleId front() const { return *begin(); }

  bool operator==(const IdSpan& other) const {
    return std::equal(begin(), end(), other.begin(), other.end());
  }

 private:
  const TupleId* data_ = nullptr;
  size_t size_ = 0;
  TupleId self_ = 0;
};

/// True if every element of `subset` (sorted) is in `superset`.
inline bool BaseSetSubsetOf(const IdSpan& subset,
                            const std::unordered_set<TupleId>& superset) {
  for (TupleId id : subset) {
    if (superset.count(id) == 0) return false;
  }
  return true;
}

/// True if `a` (sorted) and `b` (hash set) share an element.
inline bool BaseSetIntersects(const IdSpan& a,
                              const std::unordered_set<TupleId>& b) {
  for (TupleId id : a) {
    if (b.count(id) > 0) return true;
  }
  return false;
}

/// Elements of `a` (sorted) also present in `b`.
BaseSet BaseSetIntersection(const IdSpan& a,
                            const std::unordered_set<TupleId>& b);

class QueryInput;

/// Runtime id of a materialized tuple. For base tuples (scan inputs) this is
/// the base TupleId itself; intermediate tuples use ids with the top bit set.
using Rid = uint64_t;

inline constexpr Rid kIntermediateRidBase = 1ULL << 63;

inline bool IsBaseRid(Rid rid) { return (rid & kIntermediateRidBase) == 0; }

/// Renders a lineage as a product of base-tuple names, e.g.
/// "A.aid:a1 * AB.aid:a1 * B.bid:b2" -- the how-provenance notation the
/// paper uses in Table 2 (t4 x t7 x t2). Defined in evaluator.cpp (needs
/// QueryInput for the display names).
std::string HowProvenance(const IdSpan& lineage, const QueryInput& input);

}  // namespace ned

#endif  // NED_EXEC_LINEAGE_H_
