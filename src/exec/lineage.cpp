#include "exec/lineage.h"

namespace ned {

BaseSet BaseSetIntersection(const IdSpan& a,
                            const std::unordered_set<TupleId>& b) {
  BaseSet out;
  for (TupleId id : a) {
    if (b.count(id) > 0) out.push_back(id);
  }
  return out;
}

}  // namespace ned
