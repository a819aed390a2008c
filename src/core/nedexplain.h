/// \file nedexplain.h
/// \brief The NedExplain algorithm (paper Sec. 3, Algorithms 1-3).
///
/// Given a query tree, a database instance, and a Why-Not question, the
/// engine computes detailed, condensed and secondary Why-Not answers
/// (Defs. 2.12-2.14) by tracing *valid successors* of compatible tuples
/// bottom-up through the tree, stopping early when no compatible data can
/// reach the remaining subqueries (Alg. 2).
///
/// Phase accounting matches the paper's Fig. 5 split: Initialization
/// (structures + input materialisation), CompatibleFinder, SuccessorsFinder
/// (Alg. 3) and Bottom-Up traversal (Alg. 1's loop including operator
/// evaluation).

#ifndef NED_CORE_NEDEXPLAIN_H_
#define NED_CORE_NEDEXPLAIN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/timer.h"
#include "core/answers.h"
#include "core/tabq.h"
#include "whynot/compatible_finder.h"
#include "whynot/ctuple.h"
#include "whynot/unrenaming.h"

namespace ned {

class SubtreeCache;

/// Tuning knobs, mostly for ablation benchmarks.
struct NedExplainOptions {
  /// Alg. 2: stop the traversal once no compatible tuple can be traced
  /// further. Disable to measure its benefit.
  bool enable_early_termination = true;
  /// Compute the secondary answer (Def. 2.14).
  bool compute_secondary = true;
  /// Record a Table-2 style TabQ dump per c-tuple (costs formatting time;
  /// keep off in benchmarks).
  bool keep_tabq_dump = false;
  /// Shared memo of materialized subtree outputs (cache/subtree_cache.h).
  /// nullptr = recompute everything, the pre-caching behaviour. The cache
  /// only ever returns bit-identical outputs (keys pin structure + data
  /// versions), so answers are unchanged -- the differential sweep proves it.
  SubtreeCache* subtree_cache = nullptr;
};

/// How much of an answer survived a resource-governed run (tentpole of the
/// graceful-degradation subsystem). A partial answer is still a *sound*
/// answer: every reported picky subquery was genuinely established before
/// the limit tripped; completeness is what was given up.
struct ResultCompleteness {
  bool complete = true;
  /// The limit that tripped: kDeadlineExceeded, kResourceExhausted or
  /// kCancelled (kOk when complete).
  StatusCode tripped = StatusCode::kOk;
  /// Human-readable description of the tripped budget.
  std::string detail;
  /// C-tuples whose traversal ran to the end vs. asked.
  size_t ctuples_finished = 0;
  size_t ctuples_total = 0;
  /// Name of the subquery the bottom-up traversal stopped at ("" when the
  /// limit hit outside the traversal, e.g. during input materialisation).
  std::string stopped_at;

  /// "complete" or "partial: <code> (<detail>); k/n c-tuples; stopped at m2".
  std::string ToString() const;
};

/// Outcome for a single (unrenamed) c-tuple.
struct CTupleExplainResult {
  CTuple ctuple;
  WhyNotAnswer answer;
  CompatibleSets compat;
  bool early_terminated = false;
  const OperatorNode* terminated_at = nullptr;
  /// False when a resource limit stopped this c-tuple's traversal; the
  /// answer then holds only what was established before the limit.
  bool complete = true;
  /// Subquery being processed when the limit tripped (nullptr otherwise).
  const OperatorNode* stopped_at = nullptr;
  /// The limit status that tripped (OK when complete).
  Status limit_status;
  /// Compatible successors present in the root output: when non-zero the
  /// asked-for data is arguably *not* missing (the question may be answered
  /// by an existing result tuple).
  size_t survivors_at_root = 0;
  std::string tabq_dump;
};

/// Outcome for a whole question (union over its c-tuples, per Sec. 2.5).
struct NedExplainResult {
  WhyNotAnswer answer;
  std::vector<CTupleExplainResult> per_ctuple;
  WhyNotQuestion unrenamed;
  PhaseTimer phases;
  size_t dir_total = 0;    ///< |Dir| summed over c-tuples
  size_t indir_total = 0;  ///< |InDir| summed over c-tuples
  /// Whether the run finished, or which budget stopped it where.
  ResultCompleteness completeness;
  /// Subtree-cache traffic of this run (both 0 when no cache is attached).
  /// A warm repeat of the same question on the same snapshot shows
  /// misses == 0 -- the counter the cache tests and bench_cache read.
  size_t subtree_cache_hits = 0;
  size_t subtree_cache_misses = 0;
};

/// The NedExplain engine, bound to one (query, database) pair.
class NedExplainEngine {
 public:
  /// Validates the query against the database. The tree must outlive the
  /// engine. If the query aggregates, the breakpoint view V is derived here
  /// (lowest subquery whose type covers G and the aggregation arguments)
  /// unless the canonicalizer already marked one.
  static Result<NedExplainEngine> Create(const QueryTree* tree,
                                         const Database* db,
                                         NedExplainOptions options = {});

  /// Runs NedExplain for `question` (Alg. 1 per unrenamed c-tuple; answers
  /// are unioned). Each call materialises a fresh input instance and
  /// evaluation, so timings are independent across calls.
  ///
  /// With an ExecContext, the run is governed: when a deadline, budget,
  /// cancellation or injected fault trips, the call still returns OK with a
  /// *partial* NedExplainResult -- `completeness` records which c-tuples
  /// finished, where the traversal stopped and what budget tripped, and the
  /// answer holds everything established up to that point. Only
  /// non-resource errors (type errors, internal faults) surface as statuses.
  Result<NedExplainResult> Explain(const WhyNotQuestion& question,
                                   ExecContext* ctx = nullptr);

  /// Convenience overload for single-c-tuple questions.
  Result<NedExplainResult> Explain(const CTuple& tc,
                                   ExecContext* ctx = nullptr) {
    return Explain(WhyNotQuestion(std::move(tc)), ctx);
  }

  const QueryTree& tree() const { return *tree_; }
  const Database& db() const { return *db_; }
  /// The breakpoint view V; nullptr for queries without aggregation.
  const OperatorNode* breakpoint() const { return breakpoint_; }
  /// Output names of the aggregation (empty without aggregation).
  const std::vector<std::string>& agg_output_names() const {
    return agg_output_names_;
  }

  /// The most recent Explain call's input instance (valid until the next
  /// Explain call); used to render answers. Empty (no aliases, no tuples)
  /// when a limit tripped while the input was being built.
  const QueryInput& last_input() const { return *last_input_; }

 private:
  NedExplainEngine() = default;

  Result<CTupleExplainResult> ExplainCTuple(const CTuple& tc,
                                            QueryInput* input,
                                            Evaluator* evaluator,
                                            PhaseTimer* phases,
                                            ExecContext* ctx);

  const QueryTree* tree_ = nullptr;
  const Database* db_ = nullptr;
  NedExplainOptions options_;
  const OperatorNode* breakpoint_ = nullptr;
  const OperatorNode* aggregate_node_ = nullptr;
  std::vector<std::string> agg_output_names_;
  std::shared_ptr<QueryInput> last_input_;
};

/// Derives the breakpoint view V for `tree`: the deepest subquery whose
/// output type contains every group-by attribute and aggregation argument.
/// Returns nullptr when the tree has no aggregation. Errors when the tree
/// has more than one aggregate node (outside the paper's query class).
Result<const OperatorNode*> DetermineBreakpoint(const QueryTree& tree);

}  // namespace ned

#endif  // NED_CORE_NEDEXPLAIN_H_
