/// \file tabq.h
/// \brief The primary global structure TabQ (paper Sec. 3.1, 2c).
///
/// TabQ keeps, for every subquery m of Q (in decreasing-depth order): its
/// output block (its input is its children's outputs), the compatible
/// tuples present in its input, its level/parent/operator, and -- added by
/// FindSuccessors -- the blocked compatibles. It also backs the Table 1 /
/// Table 2 renderings of the paper.

#ifndef NED_CORE_TABQ_H_
#define NED_CORE_TABQ_H_

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "algebra/query_tree.h"
#include "exec/evaluator.h"

namespace ned {

/// Per-subquery entry of TabQ.
struct TabQEntry {
  const OperatorNode* node = nullptr;

  /// m.Output: the evaluator's block for m, set after m is evaluated;
  /// nullptr before. m.Input is not copied: it is the children's outputs
  /// (or the alias's base rows for a scan), and any input tuple is reached
  /// by decoding its rid (Evaluator::BlockOfRid).
  const Block* output = nullptr;

  /// m.Compatibles: rids of input tuples that are compatible tuples or valid
  /// successors thereof.
  ///
  /// This set and `blocked` are only inserted into and iterated, in the same
  /// sequence on every run: their iteration order is the order of the
  /// served detailed answer, which the answer tier stores and pinned
  /// digests hash. The engine tests membership on per-block row marks
  /// instead (core/nedexplain.cpp).
  std::unordered_set<Rid> compatibles;

  /// Compatibles without a valid successor in m.Output (set by
  /// FindSuccessors when the entry lands in PickyMan).
  std::unordered_set<Rid> blocked;

  int level() const { return node->level; }
  const OperatorNode* parent() const { return node->parent; }
};

/// TabQ: entries in decreasing-depth (bottom-up) order, indexable by
/// position and by node.
class TabQ {
 public:
  explicit TabQ(const QueryTree* tree);

  size_t size() const { return entries_.size(); }
  TabQEntry& at(size_t i) { return entries_[i]; }
  const TabQEntry& at(size_t i) const { return entries_[i]; }

  TabQEntry& entry_for(const OperatorNode* node) {
    return entries_[index_of_.at(node)];
  }
  const TabQEntry& entry_for(const OperatorNode* node) const {
    return entries_[index_of_.at(node)];
  }
  size_t index_of(const OperatorNode* node) const { return index_of_.at(node); }

  /// Renders the Table 1 / Table 2 style dump: one column per subquery with
  /// Input/Output/Compatibles/Blocked/Level/Parent/Op rows summarised.
  std::string ToString(const QueryInput& input) const;

 private:
  std::vector<TabQEntry> entries_;
  std::unordered_map<const OperatorNode*, size_t> index_of_;
};

}  // namespace ned

#endif  // NED_CORE_TABQ_H_
