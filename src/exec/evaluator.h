/// \file evaluator.h
/// \brief Lineage-tracking, node-at-a-time query evaluation.
///
/// QueryInput is the query input instance I_Q (Def. 2.3): one block of base
/// rows per *alias*, with stable base TupleIds, viewed in place in the
/// database snapshot. A stored relation backing two aliases (self-join)
/// yields two disjoint id ranges -- the formal device that lets NedExplain
/// place compatible tuples in the correct relation instance.
///
/// Evaluator computes each node's output block (exec/block.h) on demand
/// (memoized), which lets NedExplain drive evaluation bottom-up and stop
/// early (Alg. 2) without ever touching operators above the termination
/// point. With a SubtreeCache attached, memoization extends across
/// evaluator instances: blocks are keyed by subtree fingerprint + node
/// ordinals + scanned-relation data versions, and rids are deterministic per
/// (node ordinal, row), so a hit is bit-identical -- values, rids, preds,
/// lineage -- to recomputation (the property the differential cache sweep
/// asserts; see docs/CACHING.md).

#ifndef NED_EXEC_EVALUATOR_H_
#define NED_EXEC_EVALUATOR_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/query_tree.h"
#include "exec/block.h"
#include "exec/exec_context.h"
#include "exec/lineage.h"

namespace ned {

class SubtreeCache;

/// The query input instance I_Q, viewed in place: Build copies no rows, so
/// the database (snapshot) must outlive the input and every evaluation of
/// it.
class QueryInput {
 public:
  /// Instantiates every scan alias of `tree` from `db`. When `ctx` is given,
  /// each alias charges its rows against the row budget (no bytes: nothing
  /// is copied) and honours the deadline/cancel.
  static Result<QueryInput> Build(const QueryTree& tree, const Database& db,
                                  ExecContext* ctx = nullptr);

  /// Base rows of one alias: row i has rid and lineage MakeTupleId(ordinal,
  /// i); ids are stable across evaluations.
  Result<const Block*> AliasBlock(const std::string& alias) const;
  const Block& AliasBlock(size_t ordinal) const {
    return by_alias_.at(alias_order_.at(ordinal)).rows;
  }
  Result<const Schema*> AliasSchema(const std::string& alias) const;

  /// Aliases in scan (bottom-up) order.
  const std::vector<std::string>& aliases() const { return alias_order_; }

  /// Data-version stamp of the relation backing alias ordinal `ordinal`
  /// (Relation::data_version at Build time). Cache keys pin these so a
  /// reloaded relation can never satisfy a lookup made against new data.
  uint64_t AliasDataVersion(size_t ordinal) const {
    return by_alias_.at(alias_order_.at(ordinal)).data_version;
  }

  /// The base row with id `id`, or nullptr.
  const Tuple* FindById(TupleId id) const;
  /// Alias that `id` belongs to ("" when unknown).
  std::string AliasOfId(TupleId id) const;

  /// Short human identifier, e.g. "C2.id:396" (uses the alias's first
  /// attribute, which our datasets make the key, per paper footnote 2).
  std::string DisplayTuple(TupleId id) const;

  size_t TotalTuples() const;

 private:
  struct AliasData {
    Schema schema;
    const Relation* relation = nullptr;
    Block rows;  ///< view of relation->rows()
    uint64_t data_version = 0;
  };
  std::map<std::string, AliasData> by_alias_;
  std::vector<std::string> alias_order_;  // index = alias ordinal
};

/// Memoizing bottom-up evaluator over one (tree, input) pair. An optional
/// ExecContext makes every operator interruptible: limits are checked at
/// operator boundaries and every kCheckInterval rows inside the operator
/// loops, and a tripped limit surfaces as a kDeadlineExceeded /
/// kResourceExhausted / kCancelled status.
///
/// An optional SubtreeCache shares finished non-leaf blocks across
/// evaluator instances (and threads; the cache carries its own lock).
/// Cache hits replay the exact row/byte charges recomputation would have
/// made -- tick-safe, so a governed evaluation can still trip mid-hit --
/// keeping budget accounting independent of cache luck.
class Evaluator {
 public:
  Evaluator(const QueryTree* tree, const QueryInput* input,
            ExecContext* ctx = nullptr, SubtreeCache* cache = nullptr);

  /// Output of `node`, evaluating (and caching) descendants as needed.
  Result<const Block*> EvalNode(const OperatorNode* node);

  /// Evaluates the whole tree; returns the root output.
  Result<const Block*> EvalAll() { return EvalNode(tree_->root()); }

  /// Memoized output of `node`, or nullptr if not yet evaluated.
  const Block* TryGetOutput(const OperatorNode* node) const {
    return outputs_[node_ordinal_.at(node)].get();
  }

  /// The block holding the tuple with runtime id `rid` -- an alias's base
  /// rows for a base id, else the memoized output of the node the rid's
  /// range belongs to -- with the tuple's row in `*row`; nullptr when that
  /// node is not evaluated or the row is out of range.
  const Block* BlockOfRid(Rid rid, size_t* row) const;

  /// Total intermediate tuples materialised so far (perf counters). Tuples
  /// served from the subtree cache count too: they are materialized state of
  /// this evaluation regardless of who computed them.
  size_t tuples_produced() const { return tuples_produced_; }

  /// Subtree-cache traffic of this evaluator (0/0 when no cache attached).
  size_t cache_hits() const { return cache_hits_; }
  size_t cache_misses() const { return cache_misses_; }

  const QueryTree& tree() const { return *tree_; }
  const QueryInput& input() const { return *input_; }
  /// The governing context (nullptr when evaluation is unlimited).
  ExecContext* exec_context() const { return ctx_; }

 private:
  using BlockPtr = std::shared_ptr<const Block>;

  /// Computes `node`'s block from its (evaluated) children.
  Result<Block> Compute(const OperatorNode* node) const;
  Result<Block> ComputeSelect(const OperatorNode* node) const;
  Result<Block> ComputeMerge(const OperatorNode* node) const;
  Result<Block> ComputeJoin(const OperatorNode* node) const;
  Result<Block> ComputeAggregate(const OperatorNode* node) const;

  /// Replays a subtree-cache hit for `node` into the memo (charges + ticks
  /// as recomputation would make). Returns false on miss. Caller must have
  /// established cacheability.
  Result<bool> TryReplayCacheHit(const OperatorNode* node);

  /// Memoizes `block` as `node`'s output (and offers it to the cache).
  const Block* Store(const OperatorNode* node, Block block);

  /// First rid of `node`'s output: top bit | (node ordinal + 1) << 40. Every
  /// node owns a disjoint rid range and row i of its output always gets base
  /// + i, which is what makes cached outputs replayable verbatim.
  Rid RidBaseFor(const OperatorNode* node) const {
    return kIntermediateRidBase |
           ((static_cast<Rid>(node_ordinal_.at(node)) + 1) << 40);
  }

  const Block& Output(const OperatorNode* node) const {
    return *outputs_[node_ordinal_.at(node)];
  }

  /// Cache key of the subtree rooted at `node`: structural fingerprint +
  /// node ordinals + (for scans) alias ordinal and relation data version.
  /// Memoized per node; see docs/CACHING.md for the collision argument.
  const std::string& CacheKeyFor(const OperatorNode* node);

  bool Cacheable(const OperatorNode* node) const;

  const QueryTree* tree_;
  const QueryInput* input_;
  ExecContext* ctx_ = nullptr;
  SubtreeCache* cache_ = nullptr;
  std::vector<BlockPtr> outputs_;  // index = node ordinal (TabQ order)
  std::unordered_map<const OperatorNode*, size_t> node_ordinal_;
  std::unordered_map<const OperatorNode*, std::string> cache_keys_;
  size_t tuples_produced_ = 0;
  size_t cache_hits_ = 0;
  size_t cache_misses_ = 0;
};

/// Computes the aggregate output tuples for `group_by`/`calls` over every
/// row of `input` (typed by `input_schema`): group values then aggregate
/// values, one tuple per group in first-seen order. NedExplain's cond-alpha
/// checks use it to aggregate a subquery's *input*.
Result<std::vector<Tuple>> ComputeAggregateTuples(
    const std::vector<Attribute>& group_by, const std::vector<AggCall>& calls,
    const Block& input, const Schema& input_schema,
    ExecContext* ctx = nullptr);

}  // namespace ned

#endif  // NED_EXEC_EVALUATOR_H_
