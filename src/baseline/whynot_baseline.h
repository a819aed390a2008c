/// \file whynot_baseline.h
/// \brief The Why-Not algorithm [Chapman & Jagadish, SIGMOD'09] -- the
/// state-of-the-art baseline the paper compares against (bottom-up variant).
///
/// Reimplemented from the paper's Sec. 1/4 characterisation, deliberately
/// keeping the shortcomings NedExplain fixes:
///
///  * *Unpicked data items* are source tuples containing "pieces" of the
///    missing answer, matched on **unqualified** attribute names -- so a
///    self-joined relation contributes items through *every* alias
///    (Crime6/7's wrong answers).
///  * Tracing follows plain (non-valid) successors via lineage. The traversal
///    proceeds bottom-up over the canonical tree; the **first** manipulation
///    that takes traced successors in its input and emits none -- or whose
///    output is empty altogether (Crime5's m4) -- is returned as the
///    *frontier picky manipulation* and the traversal stops, so at most one
///    manipulation is blamed per c-tuple (vs. NedExplain's per-tuple detail).
///  * If traced successors reach the query result, the algorithm concludes
///    the answer is "not missing" and returns nothing, even when the
///    surviving successors only carry *some* pieces of the answer (the
///    Sec. 1 Q2 example; Crime8; Imdb2).
///  * No aggregation or union support: such queries yield "n.a." as in
///    Table 5 (Crime9/10, Gov6/7).

#ifndef NED_BASELINE_WHYNOT_BASELINE_H_
#define NED_BASELINE_WHYNOT_BASELINE_H_

#include <string>
#include <vector>

#include "algebra/query_tree.h"
#include "exec/evaluator.h"
#include "whynot/ctuple.h"

namespace ned {

/// Traversal strategy of [2]: the bottom-up variant walks the tree in TabQ
/// order; the top-down variant descends from the root, pruning every subtree
/// whose output still carries successors of a piece. Both produce the same
/// frontier-picky answer ([2] states their equivalence; our tests verify
/// it); they differ in how much lineage derivation they pay -- top-down is
/// cheap when the answer is "not missing" (it stops at the root), bottom-up
/// when the blocking manipulation sits deep in the tree.
enum class BaselineTraversal { kBottomUp, kTopDown };

/// Per-c-tuple outcome of the baseline.
struct BaselineCTupleResult {
  CTuple ctuple;
  size_t unpicked_items = 0;
  /// Frontier picky manipulation; nullptr when none was found.
  const OperatorNode* frontier_picky = nullptr;
  /// True when traced successors reached the query result (the algorithm
  /// then concludes the answer is not missing).
  bool answer_deemed_present = false;
};

/// Result of a baseline run.
struct WhyNotBaselineResult {
  bool supported = true;
  std::string unsupported_reason;
  std::vector<const OperatorNode*> answer;  ///< frontier picky manipulations
  std::vector<BaselineCTupleResult> per_ctuple;
  /// False when a resource limit (deadline/budget/cancellation) stopped the
  /// run; `answer` then holds only the manipulations found so far and
  /// `limit_status` names the tripped limit.
  bool complete = true;
  Status limit_status;

  /// "n.a.", "-" (no answer) or "m3, m7".
  std::string AnswerToString() const;
};

/// The baseline engine bound to one (query, database) pair.
class WhyNotBaseline {
 public:
  static Result<WhyNotBaseline> Create(
      const QueryTree* tree, const Database* db,
      BaselineTraversal traversal = BaselineTraversal::kBottomUp);

  /// Runs the bottom-up Why-Not algorithm for `question`. The question is
  /// used as given (the baseline has no unrenaming; fields are matched on
  /// unqualified names, as in [2]). With an ExecContext the run is governed:
  /// a tripped limit yields an OK result flagged `complete = false` holding
  /// the partial answer, mirroring NedExplainEngine's graceful degradation.
  Result<WhyNotBaselineResult> Explain(const WhyNotQuestion& question,
                                       ExecContext* ctx = nullptr);

  const QueryTree& tree() const { return *tree_; }

 private:
  WhyNotBaseline() = default;

  const QueryTree* tree_ = nullptr;
  const Database* db_ = nullptr;
  BaselineTraversal traversal_ = BaselineTraversal::kBottomUp;
  bool supported_ = true;
  std::string unsupported_reason_;
};

}  // namespace ned

#endif  // NED_BASELINE_WHYNOT_BASELINE_H_
