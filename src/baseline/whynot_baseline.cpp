#include "baseline/whynot_baseline.h"

#include <functional>
#include <map>
#include <unordered_set>

#include "common/strings.h"
#include "expr/satisfiability.h"

namespace ned {

std::string WhyNotBaselineResult::AnswerToString() const {
  if (!supported) return "n.a.";
  if (answer.empty()) return "-";
  std::vector<std::string> parts;
  for (const OperatorNode* node : answer) parts.push_back(node->name);
  return Join(parts, ", ");
}

Result<WhyNotBaseline> WhyNotBaseline::Create(const QueryTree* tree,
                                              const Database* db,
                                              BaselineTraversal traversal) {
  if (tree == nullptr || tree->root() == nullptr) {
    return Status::InvalidArgument("WhyNotBaseline requires a query tree");
  }
  WhyNotBaseline baseline;
  baseline.tree_ = tree;
  baseline.db_ = db;
  baseline.traversal_ = traversal;
  for (const OperatorNode* node : tree->bottom_up()) {
    if (node->kind == OpKind::kAggregate) {
      baseline.supported_ = false;
      baseline.unsupported_reason_ =
          "the Why-Not implementation does not support aggregation";
    } else if (node->kind == OpKind::kUnion) {
      baseline.supported_ = false;
      baseline.unsupported_reason_ =
          "the Why-Not implementation does not support union";
    } else if (node->kind == OpKind::kDifference) {
      baseline.supported_ = false;
      baseline.unsupported_reason_ =
          "the Why-Not implementation does not support set difference";
    }
  }
  return baseline;
}

namespace {

/// Unpicked data items for one *piece* (one field) of the missing answer:
/// source tuples containing the piece's value. Matching is per-field on
/// *unqualified* attribute names -- qualifiers are ignored, which is
/// precisely what misleads the algorithm on self-joins (paper Sec. 4,
/// Crime6/7): a self-joined relation contributes items through every alias.
Result<std::unordered_set<TupleId>> FindPieceItems(
    const CTuple& tc, const std::pair<Attribute, CValue>& field,
    const QueryInput& input, ExecContext* ctx) {
  const auto& [attr, cval] = field;
  std::unordered_set<TupleId> items;
  for (const std::string& alias : input.aliases()) {
    NED_ASSIGN_OR_RETURN(const Schema* schema, input.AliasSchema(alias));
    NED_ASSIGN_OR_RETURN(const Block* rows, input.AliasBlock(alias));
    std::vector<size_t> indices = schema->IndicesWithName(attr.name);
    if (indices.empty()) continue;
    for (size_t row = 0; row < rows->size(); ++row) {
      NED_EXEC_TICK(ctx);
      bool matches = false;
      for (size_t idx : indices) {
        const Value& v = rows->values(row).at(idx);
        if (!cval.is_var) {
          if (Value::Satisfies(v, CompareOp::kEq, cval.constant)) {
            matches = true;
          }
        } else {
          std::map<std::string, Value> binding{{cval.var, v}};
          if (SatisfiableWith(tc.cond(), binding)) matches = true;
        }
        if (matches) break;
      }
      if (matches) items.insert(rows->rid(row));
    }
  }
  return items;
}

}  // namespace

Result<WhyNotBaselineResult> WhyNotBaseline::Explain(
    const WhyNotQuestion& question, ExecContext* ctx) {
  WhyNotBaselineResult result;
  if (!supported_) {
    result.supported = false;
    result.unsupported_reason = unsupported_reason_;
    return result;
  }
  // Converts a tripped resource limit into a flagged partial result; the
  // answer keeps whatever frontier manipulations were established so far.
  auto mark_partial = [&result](const Status& limit) {
    result.complete = false;
    result.limit_status = limit;
  };

  // The baseline always evaluates the full workflow first (it needs the
  // result both for the "not missing" conclusion and for lineage tracing;
  // the original implementation issued Trio lineage queries against the
  // fully materialised run).
  std::unique_ptr<QueryInput> input;
  std::unique_ptr<Evaluator> evaluator;
  {
    Result<QueryInput> built = QueryInput::Build(*tree_, *db_, ctx);
    if (!built.ok()) {
      if (IsResourceLimit(built.status())) {
        mark_partial(built.status());
        return result;
      }
      return built.status();
    }
    input = std::make_unique<QueryInput>(std::move(built).value());
    evaluator = std::make_unique<Evaluator>(tree_, input.get(), ctx);
  }
  if (Result<const Block*> root = evaluator->EvalAll(); !root.ok()) {
    if (IsResourceLimit(root.status())) {
      mark_partial(root.status());
      return result;
    }
    return root.status();
  }

  for (const CTuple& tc : question.ctuples()) {
    if (!result.complete) break;
    BaselineCTupleResult part;
    part.ctuple = tc;

    // One traced set per piece (field) of the missing answer: the algorithm
    // follows each piece's matching source tuples independently.
    std::vector<std::unordered_set<Rid>> piece_items;
    for (const auto& field : tc.fields()) {
      Result<std::unordered_set<TupleId>> items =
          FindPieceItems(tc, field, *input, ctx);
      if (!items.ok()) {
        if (IsResourceLimit(items.status())) {
          mark_partial(items.status());
          break;
        }
        return items.status();
      }
      part.unpicked_items += items->size();
      piece_items.push_back(std::move(items).value());
    }
    if (!result.complete) {
      result.per_ctuple.push_back(std::move(part));
      break;
    }

    // Bottom-up successor tracing. traced[node][p] holds the rids of the
    // node's output tuples that are (plain, not valid) successors of piece
    // p's items. A manipulation is *frontier picky* when some piece has
    // traced successors in the manipulation's input but none in its output;
    // the first such manipulation (TabQ order) is the answer ([2] reports a
    // single manipulation per question, not a per-tuple breakdown). The
    // traversal must still run to the root: successors of *any* piece
    // reaching the result make the algorithm conclude the answer is not
    // missing and return nothing -- even when another piece was blocked on
    // the way (the Sec. 1 Q2 / Crime8 shortcoming), and even when the same
    // piece only survives through a different alias of a self-joined
    // relation (Crime6/7).
    //
    // Lineage is *re-derived per manipulation* by walking the provenance
    // graph down to the base tuples, with no cross-node memoisation. This
    // mirrors the original implementation, which issued a Trio lineage query
    // for each manipulation's output -- the overhead the paper identifies as
    // the baseline's main cost (Sec. 4.3).

    // Recursive lineage derivation (the simulated per-tuple lineage query):
    // follow preds down the provenance graph, decoding each rid to its
    // block, until base tuples.
    auto derive_lineage = [&](Rid rid, std::unordered_set<TupleId>* out) {
      std::vector<Rid> stack = {rid};
      while (!stack.empty()) {
        const Rid cur = stack.back();
        stack.pop_back();
        if (IsBaseRid(cur)) {
          out->insert(cur);
          continue;
        }
        size_t row = 0;
        const Block* block = evaluator->BlockOfRid(cur, &row);
        if (block == nullptr) continue;
        for (Rid pred : block->preds(row)) stack.push_back(pred);
      }
    };

    size_t n_pieces = piece_items.size();
    std::unordered_map<const OperatorNode*,
                       std::vector<std::unordered_set<Rid>>>
        traced;
    const OperatorNode* frontier = nullptr;
    for (const OperatorNode* m : tree_->bottom_up()) {
      if (traversal_ != BaselineTraversal::kBottomUp) break;
      // Manipulation boundary: a tripped limit stops the tracing but keeps
      // any frontier already found sound.
      {
        Status st = CheckExec(ctx);
        if (!st.ok()) {
          if (!IsResourceLimit(st)) return st;
          mark_partial(st);
          break;
        }
      }
      const Block* output = evaluator->TryGetOutput(m);
      NED_CHECK(output != nullptr);
      std::vector<std::unordered_set<Rid>>& out_sets = traced[m];
      out_sets.resize(n_pieces);
      if (m->is_leaf()) {
        for (size_t p = 0; p < n_pieces; ++p) {
          for (size_t row = 0; row < output->size(); ++row) {
            const Rid rid = output->rid(row);
            if (piece_items[p].count(rid) > 0) out_sets[p].insert(rid);
          }
        }
        continue;
      }
      bool any_input = false;
      for (const auto& child : m->children) {
        any_input =
            any_input || !evaluator->TryGetOutput(child.get())->empty();
      }
      // A manipulation with empty output contributes no successors; the
      // empty-output rule blames it in the frontier scan below. Tracing
      // continues, since other branches may still carry successors.
      if (output->empty()) continue;
      // One lineage query per output tuple of this manipulation.
      for (size_t row = 0; row < output->size(); ++row) {
        if (ctx != nullptr) {
          Status st = ctx->CheckEvery();
          if (!st.ok()) {
            if (!IsResourceLimit(st)) return st;
            mark_partial(st);
            break;
          }
        }
        const Rid rid = output->rid(row);
        std::unordered_set<TupleId> lineage;
        derive_lineage(rid, &lineage);
        for (size_t p = 0; p < n_pieces; ++p) {
          for (TupleId id : lineage) {
            if (piece_items[p].count(id) > 0) {
              out_sets[p].insert(rid);
              break;
            }
          }
        }
      }
      if (!result.complete) break;
    }

    if (result.complete && traversal_ == BaselineTraversal::kBottomUp) {
      // Frontier: the earliest manipulation (TabQ order) that empties a
      // non-empty data flow (Crime5's sigma sector>99), or that takes a
      // piece's traced successors in its input, emits none, and has no
      // successors of that piece anywhere above it. The "above" condition
      // matters for self-joins: a piece fed through the other alias of the
      // same stored relation can re-surface in a join ancestor, so the piece
      // actually dies later (or not at all) -- which is where the top-down
      // descent places the boundary. A piece that reaches the root has the
      // root among its ancestors and thus never yields a boundary.
      for (const OperatorNode* m : tree_->bottom_up()) {
        if (m->is_leaf()) continue;
        bool any_input = false;
        for (const auto& child : m->children) {
          any_input =
              any_input || !evaluator->TryGetOutput(child.get())->empty();
        }
        if (evaluator->TryGetOutput(m)->empty() && any_input) {
          frontier = m;
          break;
        }
        bool boundary = false;
        for (size_t p = 0; p < n_pieces && !boundary; ++p) {
          if (!traced.at(m)[p].empty()) continue;
          bool in_nonempty = false;
          for (const auto& child : m->children) {
            if (!traced.at(child.get())[p].empty()) in_nonempty = true;
          }
          if (!in_nonempty) continue;
          bool survives_above = false;
          for (const OperatorNode* a = m->parent; a != nullptr;
               a = a->parent) {
            if (!traced.at(a)[p].empty()) survives_above = true;
          }
          if (!survives_above) boundary = true;
        }
        if (boundary) {
          frontier = m;
          break;
        }
      }
      if (frontier == nullptr) {
        // No boundary, and some piece's successors reached the result: the
        // algorithm concludes the answer is not missing, even when the
        // survivors carry only some pieces of the missing tuple (the Sec. 1
        // Q2 example; Crime8) or arrived through the wrong alias (Crime6/7).
        auto it = traced.find(tree_->root());
        if (it != traced.end()) {
          for (const auto& set : it->second) {
            if (!set.empty()) part.answer_deemed_present = true;
          }
        }
      }
    }

    // ---- top-down variant ----------------------------------------------------
    // Descends from the root, pruning every subtree whose output still
    // carries piece successors; a node is a boundary when it has no
    // surviving successors but a child (or leaf items) feeds some in. The
    // answer -- the earliest boundary in TabQ order -- matches the
    // bottom-up variant ([2]'s equivalence claim; verified by tests).
    if (traversal_ == BaselineTraversal::kTopDown) {
      // A tripped limit inside the recursive checks is latched here (the
      // lambdas return bool, not Status) and handled after the descent.
      Status td_limit = Status::OK();
      // Memoized "does m's output carry successors of piece p" checks; each
      // miss pays one simulated lineage query per inspected output tuple.
      std::map<std::pair<const OperatorNode*, size_t>, bool> traced_memo;
      std::function<bool(const OperatorNode*, size_t)> has_traced =
          [&](const OperatorNode* m, size_t p) -> bool {
        if (!td_limit.ok()) return false;
        auto key = std::make_pair(m, p);
        auto it = traced_memo.find(key);
        if (it != traced_memo.end()) return it->second;
        bool found = false;
        const Block& output = *evaluator->TryGetOutput(m);
        for (size_t row = 0; row < output.size(); ++row) {
          if (ctx != nullptr) {
            Status st = ctx->CheckEvery();
            if (!st.ok()) {
              td_limit = st;
              break;
            }
          }
          if (m->is_leaf()) {
            if (piece_items[p].count(output.rid(row)) > 0) found = true;
          } else {
            std::unordered_set<TupleId> lineage;
            derive_lineage(output.rid(row), &lineage);
            for (TupleId id : lineage) {
              if (piece_items[p].count(id) > 0) {
                found = true;
                break;
              }
            }
          }
          if (found) break;
        }
        // Never memoize a verdict cut short by a limit.
        if (!td_limit.ok()) return false;
        traced_memo[key] = found;
        return found;
      };
      std::function<bool(const OperatorNode*, size_t)> has_items =
          [&](const OperatorNode* m, size_t p) -> bool {
        if (m->is_leaf()) {
          const Block& rows = *evaluator->TryGetOutput(m);
          for (size_t row = 0; row < rows.size(); ++row) {
            if (piece_items[p].count(rows.rid(row)) > 0) return true;
          }
          return false;
        }
        for (const auto& child : m->children) {
          if (has_items(child.get(), p)) return true;
        }
        return false;
      };

      std::vector<const OperatorNode*> candidates;
      std::function<void(const OperatorNode*, size_t)> descend =
          [&](const OperatorNode* m, size_t p) {
        if (m->is_leaf()) return;
        if (!has_items(m, p)) return;
        if (has_traced(m, p)) return;  // survivors here: boundary is above
        bool fed = false;
        for (const auto& child : m->children) {
          if (has_traced(child.get(), p)) {
            fed = true;
          } else {
            descend(child.get(), p);
          }
        }
        if (fed) candidates.push_back(m);
      };
      // Pieces whose successors reach the root are not descended into: they
      // arrived, so no manipulation blocked them. Boundaries come only from
      // pieces that died on the way.
      bool any_survives_root = false;
      for (size_t p = 0; p < n_pieces && td_limit.ok(); ++p) {
        if (has_traced(tree_->root(), p)) {
          any_survives_root = true;
          continue;
        }
        descend(tree_->root(), p);
      }
      if (!td_limit.ok()) {
        if (!IsResourceLimit(td_limit)) return td_limit;
        mark_partial(td_limit);
      }
      // The piece-independent empty-output rule (no lineage cost).
      for (const OperatorNode* m : tree_->bottom_up()) {
        if (m->is_leaf()) continue;
        bool any_input = false;
        for (const auto& child : m->children) {
          any_input =
              any_input || !evaluator->TryGetOutput(child.get())->empty();
        }
        if (evaluator->TryGetOutput(m)->empty() && any_input) {
          candidates.push_back(m);
        }
      }
      // Earliest candidate in TabQ order = the bottom-up answer.
      std::unordered_map<const OperatorNode*, size_t> tabq_pos;
      for (size_t i = 0; i < tree_->bottom_up().size(); ++i) {
        tabq_pos[tree_->bottom_up()[i]] = i;
      }
      for (const OperatorNode* c : candidates) {
        if (frontier == nullptr || tabq_pos[c] < tabq_pos[frontier]) {
          frontier = c;
        }
      }
      if (frontier == nullptr && any_survives_root) {
        part.answer_deemed_present = true;
      }
    }

    if (frontier != nullptr) {
      part.frontier_picky = frontier;
      bool already = false;
      for (const OperatorNode* node : result.answer) {
        if (node == frontier) already = true;
      }
      if (!already) result.answer.push_back(frontier);
    }
    result.per_ctuple.push_back(std::move(part));
  }
  return result;
}

}  // namespace ned
