#include "core/nedexplain.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/strings.h"
#include "obs/trace.h"

#ifdef NED_FORCE_SUBTREE_CACHE
#include "cache/subtree_cache.h"
#endif

namespace ned {

std::string ResultCompleteness::ToString() const {
  if (complete) return "complete";
  std::string out = StrCat("partial: ", StatusCodeName(tripped));
  if (!detail.empty()) out += " (" + detail + ")";
  out += StrCat("; ", ctuples_finished, "/", ctuples_total,
                " c-tuple(s) finished");
  if (!stopped_at.empty()) out += "; traversal stopped at " + stopped_at;
  return out;
}

// ---------------------------------------------------------------------------
// Breakpoint view V (Sec. 3.1, 2b)
// ---------------------------------------------------------------------------

Result<const OperatorNode*> DetermineBreakpoint(const QueryTree& tree) {
  const OperatorNode* aggregate = nullptr;
  for (const OperatorNode* node : tree.bottom_up()) {
    if (node->kind == OpKind::kAggregate) {
      if (aggregate != nullptr) {
        return Status::Unsupported(
            "queries with more than one aggregation are outside the supported "
            "class (unions of SPJA queries with one aggregate)");
      }
      aggregate = node;
    }
  }
  if (aggregate == nullptr) return static_cast<const OperatorNode*>(nullptr);

  // Needed attributes: G union aggregation arguments.
  Schema needed;
  for (const auto& g : aggregate->group_by) {
    if (!needed.Contains(g)) needed.Add(g);
  }
  for (const auto& call : aggregate->aggregates) {
    if (!needed.Contains(call.arg)) needed.Add(call.arg);
  }
  // bottom_up() is ordered by decreasing depth, so the first covering node in
  // the aggregate's subtree is the one closest to the leaves.
  for (const OperatorNode* node : tree.bottom_up()) {
    if (!OperatorNode::IsInSubtree(aggregate, node)) continue;
    if (node->output_schema.ContainsAll(needed)) return node;
  }
  return Status::Internal("no subquery covers the aggregation attributes");
}

namespace {

/// A picky recording: subquery, blocked compatibles, and whether the
/// aggregation condition flipped from satisfied (input) to violated (output).
struct PickyRecord {
  const OperatorNode* node;
  /// Only inserted into and iterated: its iteration order is the order of
  /// the served detailed answer.
  std::unordered_set<Rid> blocked;
  /// Dir tuples that still have a valid successor in the node's output.
  /// Def. 2.11 makes a subquery picky w.r.t. t_I only when *no* valid
  /// successor of t_I survives, so these are excluded from the detailed
  /// answer even when one of t_I's traces died here.
  TupleIdSet surviving_dirs;
  bool cond_alpha_flip = false;
};

/// alpha_{G,F} over `tuples` (typed by `schema`), restricted to the groups
/// the c-tuple asks about: a row whose group-by value differs from a
/// constant group field cannot form a group that matches, so only the other
/// rows are aggregated. The verdict and any error stay those of aggregating
/// every group: if a skipped row would make sum or avg fail (a non-null,
/// non-numeric argument), every group is aggregated, so the first failing
/// group in first-seen order still decides the error.
Result<std::vector<Tuple>> AggregateAskedGroups(const CondAlpha& ca,
                                                const OperatorNode& aggregate,
                                                const Block& tuples,
                                                const Schema& schema,
                                                const Schema& row_schema,
                                                ExecContext* ctx) {
  auto aggregate_all = [&] {
    return ComputeAggregateTuples(aggregate.group_by, aggregate.aggregates,
                                  tuples, schema, ctx);
  };
  // (input column, constant) of each constant field on a group-by attribute.
  std::vector<std::pair<size_t, const Value*>> asked;
  for (const auto& [attr, cval] : ca.group_fields) {
    std::optional<size_t> pos = row_schema.IndexOf(attr);
    if (cval.is_var || !pos.has_value() || *pos >= aggregate.group_by.size()) {
      continue;
    }
    Result<size_t> column = schema.Resolve(aggregate.group_by[*pos]);
    if (!column.ok()) return aggregate_all();  // which reports the error
    asked.emplace_back(*column, &cval.constant);
  }
  if (asked.empty()) return aggregate_all();
  std::vector<size_t> numeric_args;  // sum/avg fail on other values
  for (const AggCall& call : aggregate.aggregates) {
    if (call.fn != AggFn::kSum && call.fn != AggFn::kAvg) continue;
    Result<size_t> column = schema.Resolve(call.arg);
    if (!column.ok()) return aggregate_all();
    numeric_args.push_back(*column);
  }

  std::vector<size_t> asked_rows;
  for (size_t i = 0; i < tuples.size(); ++i) {
    NED_EXEC_TICK(ctx);
    const RowView row = tuples.values(i);
    bool in_asked_group = true;
    for (const auto& [column, constant] : asked) {
      if (!Value::Satisfies(row[column], CompareOp::kEq, *constant)) {
        in_asked_group = false;
        break;
      }
    }
    if (in_asked_group) {
      asked_rows.push_back(i);
      continue;
    }
    for (size_t column : numeric_args) {
      if (!row[column].is_null() && !row[column].is_numeric()) {
        return aggregate_all();
      }
    }
  }
  if (asked_rows.size() == tuples.size()) return aggregate_all();
  BlockBuilder builder(tuples.arity(), tuples.rid_base(), 0);
  builder.Reserve(asked_rows.size(), 0, 0);
  for (size_t i : asked_rows) {
    builder.AddValues(tuples.values(i));
    builder.EndRow();
  }
  const Block asked_block = std::move(builder).Finish();
  return ComputeAggregateTuples(aggregate.group_by, aggregate.aggregates,
                                asked_block, schema, ctx);
}

/// Checks whether `tuples` (typed by `schema`) contain/aggregate-to a row
/// matching the c-tuple's group fields and satisfying cond-alpha.
/// `aggregate` supplies G and F when aggregation still needs to be applied.
/// The fields are bound once, to `schema` or to the aggregated rows' schema.
Result<bool> SatisfiesCondAlpha(const CondAlpha& ca, const Block& tuples,
                                const Schema& schema,
                                const OperatorNode* aggregate,
                                ExecContext* ctx) {
  if (ca.empty()) return false;
  std::vector<std::pair<Attribute, CValue>> fields = ca.group_fields;
  fields.insert(fields.end(), ca.agg_fields.begin(), ca.agg_fields.end());

  // Does `schema` already expose the aggregate outputs (we are above alpha)?
  bool has_agg_outputs = true;
  for (const auto& [attr, _] : ca.agg_fields) {
    if (!schema.Contains(attr)) {
      has_agg_outputs = false;
      break;
    }
  }

  // A field whose attribute is projected away is skipped.
  if (has_agg_outputs) {
    const BoundCTuple bound(fields, ca.cond, schema);
    for (size_t i = 0; i < tuples.size(); ++i) {
      NED_EXEC_TICK(ctx);
      if (bound.Matches(tuples.values(i))) return true;
    }
    return false;
  }

  // Below (or at the input of) the aggregate: apply alpha_{G,F} first. The
  // schema must cover G and the aggregation arguments; otherwise cond-alpha
  // cannot be verified here.
  NED_CHECK(aggregate != nullptr);
  Schema needed;
  for (const auto& g : aggregate->group_by) {
    if (!needed.Contains(g)) needed.Add(g);
  }
  for (const auto& call : aggregate->aggregates) {
    if (!needed.Contains(call.arg)) needed.Add(call.arg);
  }
  if (!schema.ContainsAll(needed)) return false;

  Schema row_schema;
  for (const auto& g : aggregate->group_by) row_schema.Add(g);
  for (const auto& call : aggregate->aggregates) {
    row_schema.Add(Attribute::Unqualified(call.out_name));
  }
  const BoundCTuple bound(fields, ca.cond, row_schema);
  NED_ASSIGN_OR_RETURN(std::vector<Tuple> rows,
                       AggregateAskedGroups(ca, *aggregate, tuples, schema,
                                            row_schema, ctx));
  for (const Tuple& row : rows) {
    if (bound.Matches(row)) return true;
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

Result<NedExplainEngine> NedExplainEngine::Create(const QueryTree* tree,
                                                  const Database* db,
                                                  NedExplainOptions options) {
  if (tree == nullptr || tree->root() == nullptr) {
    return Status::InvalidArgument("NedExplainEngine requires a query tree");
  }
  NedExplainEngine engine;
  engine.tree_ = tree;
  engine.db_ = db;
  engine.options_ = options;
#ifdef NED_FORCE_SUBTREE_CACHE
  // The CI cache-enabled configuration: every engine that would run
  // cache-free shares one process-global cache instead, so the entire test
  // suite exercises hit replay. Bit-identity of hits (docs/CACHING.md) is
  // what makes this transparent.
  if (engine.options_.subtree_cache == nullptr) {
    static SubtreeCache* forced = new SubtreeCache(256u << 20);
    engine.options_.subtree_cache = forced;
  }
#endif
  NED_ASSIGN_OR_RETURN(engine.breakpoint_, DetermineBreakpoint(*tree));
  for (const OperatorNode* node : tree->bottom_up()) {
    if (node->kind == OpKind::kAggregate) {
      engine.aggregate_node_ = node;
      for (const auto& call : node->aggregates) {
        engine.agg_output_names_.push_back(call.out_name);
      }
    }
  }
  return engine;
}

Result<NedExplainResult> NedExplainEngine::Explain(
    const WhyNotQuestion& question, ExecContext* ctx) {
  NedExplainResult result;

  // Per-request span sink (null = two-branch fast path everywhere).
  obs::Trace* trace = ctx != nullptr ? ctx->trace() : nullptr;

  // Marks the run partial because `limit` tripped. Used wherever a governed
  // limit surfaces so the caller still receives the answers computed so far.
  auto mark_partial = [&result](const Status& limit) {
    result.completeness.complete = false;
    result.completeness.tripped = limit.code();
    result.completeness.detail = limit.message();
  };

  // -- Initialization: materialise I_Q and unrename the predicate (step 1).
  std::shared_ptr<QueryInput> input;
  std::unique_ptr<Evaluator> evaluator;
  {
    obs::PhasedSpanScope scope(&result.phases, phase::kInitialization, trace);
    auto built = QueryInput::Build(*tree_, *db_, ctx);
    if (!built.ok()) {
      if (!IsResourceLimit(built.status())) return built.status();
      // The budget tripped while materialising the input instance: nothing
      // was computed, but the degradation is reported, not thrown. The
      // renderers read last_input(), which is this run's (empty) input --
      // never null, never the previous call's.
      last_input_ = std::make_shared<QueryInput>();
      result.completeness.ctuples_total = question.ctuples().size();
      mark_partial(built.status());
      return result;
    }
    input = std::make_shared<QueryInput>(std::move(built).value());
    evaluator = std::make_unique<Evaluator>(tree_, input.get(), ctx,
                                            options_.subtree_cache);
    NED_ASSIGN_OR_RETURN(result.unrenamed, UnrenameQuestion(*tree_, question));
  }
  last_input_ = input;
  result.completeness.ctuples_total = result.unrenamed.ctuples().size();

  // -- One Alg. 1 run per unrenamed c-tuple; the final answer is the union.
  size_t ctuple_idx = 0;
  for (const CTuple& tc : result.unrenamed.ctuples()) {
    obs::SpanScope ctuple_span(trace, StrCat("ctuple_", ctuple_idx++));
    auto part_result =
        ExplainCTuple(tc, input.get(), evaluator.get(), &result.phases, ctx);
    if (!part_result.ok()) {
      // A limit that escaped mid-phase: keep the finished c-tuples' answers.
      if (!IsResourceLimit(part_result.status())) return part_result.status();
      mark_partial(part_result.status());
      break;
    }
    CTupleExplainResult part = std::move(part_result).value();
    result.dir_total += part.compat.dir.size();
    result.indir_total += part.compat.indir.size();
    result.answer.MergeFrom(part.answer);
    if (!part.complete) {
      mark_partial(part.limit_status);
      if (part.stopped_at != nullptr) {
        result.completeness.stopped_at = part.stopped_at->name;
      }
      result.per_ctuple.push_back(std::move(part));
      break;
    }
    ++result.completeness.ctuples_finished;
    result.per_ctuple.push_back(std::move(part));
  }
  result.subtree_cache_hits = evaluator->cache_hits();
  result.subtree_cache_misses = evaluator->cache_misses();
  return result;
}

Result<CTupleExplainResult> NedExplainEngine::ExplainCTuple(
    const CTuple& tc, QueryInput* input, Evaluator* evaluator,
    PhaseTimer* phases, ExecContext* ctx) {
  CTupleExplainResult result;
  result.ctuple = tc;
  obs::Trace* trace = ctx != nullptr ? ctx->trace() : nullptr;

  // Marks this c-tuple's run partial: the traversal stopped at `node` (may
  // be null) because `limit` tripped. The answer derivation below still runs
  // on the picky records established so far.
  auto mark_partial = [&result](const Status& limit, const OperatorNode* node) {
    result.complete = false;
    result.limit_status = limit;
    result.stopped_at = node;
  };

  // -- CompatibleFinder (step 2a): Dir_tc and InDir_tc.
  {
    obs::PhasedSpanScope scope(phases, phase::kCompatibleFinder, trace);
    auto compat_result = FindCompatibles(tc, *input, agg_output_names_, ctx);
    if (!compat_result.ok()) {
      if (!IsResourceLimit(compat_result.status())) {
        return compat_result.status();
      }
      mark_partial(compat_result.status(), nullptr);
      return result;  // nothing established yet: empty partial answer
    }
    result.compat = std::move(compat_result).value();
  }
  const CompatibleSets& compat = result.compat;

  // -- Initialization (step 2c/2d): TabQ and the secondary structures.
  // TabQ's compatibles and blocked sets, like the successor set handed to a
  // parent, are only inserted into and iterated, in the same sequence on
  // every run: their iteration order is the order of the served detailed
  // answer. Membership is tested on row marks of each entry's output block
  // instead (a scan's block is its alias's rows); a rid names exactly one
  // block. `fed` marks the rows in the parent's compatibles -- a scan's Dir
  // rows or a node's valid successors -- and `covered` those of them with a
  // valid successor in the parent's output.
  TabQ tabq(tree_);
  // D = Dir u InDir in one record per alias ordinal, so the successor scan
  // classifies a lineage id with one lookup: InDir aliases are held whole,
  // Dir tuples as bitmap rows.
  TupleIdSet d = compat.indir;
  d.InsertAll(compat.dir);
  std::vector<RowBitmap> fed(tabq.size());
  std::vector<RowBitmap> covered(tabq.size());
  std::unordered_set<const OperatorNode*> non_picky;
  std::vector<const OperatorNode*> empty_output;
  std::vector<PickyRecord> picky;
  {
    obs::PhasedSpanScope scope(phases, phase::kInitialization, trace);
    for (const OperatorNode* scan : tree_->scans()) {
      TabQEntry& entry = tabq.entry_for(scan);
      auto it = compat.dir_by_alias.find(scan->alias);
      if (it != compat.dir_by_alias.end()) {
        entry.compatibles.insert(it->second.begin(), it->second.end());
        RowBitmap& rows = fed[tabq.index_of(scan)];
        for (TupleId id : it->second) rows.set(TupleIdRow(id));
      }
    }
  }

  auto record_picky = [&](const OperatorNode* node,
                          std::unordered_set<Rid> blocked,
                          TupleIdSet surviving_dirs, bool flip) {
    for (PickyRecord& rec : picky) {
      if (rec.node == node) {
        rec.blocked.insert(blocked.begin(), blocked.end());
        rec.surviving_dirs.InsertAll(surviving_dirs);
        rec.cond_alpha_flip |= flip;
        return;
      }
    }
    picky.push_back({node, std::move(blocked), std::move(surviving_dirs), flip});
  };

  // cond-alpha verdicts of node outputs, each computed at most once per
  // c-tuple: a child's output verdict is its parent's input verdict.
  std::vector<int8_t> alpha_verdicts(tabq.size(), -1);
  auto alpha_verdict = [&](const OperatorNode* node) -> Result<bool> {
    int8_t& verdict = alpha_verdicts[tabq.index_of(node)];
    if (verdict < 0) {
      NED_ASSIGN_OR_RETURN(
          bool ok, SatisfiesCondAlpha(compat.cond_alpha,
                                      *tabq.entry_for(node).output,
                                      node->output_schema, aggregate_node_,
                                      ctx));
      verdict = ok ? 1 : 0;
    }
    return verdict == 1;
  };

  // ---- Alg. 1 main loop ----------------------------------------------------
  bool terminated = false;
  // One structural span per TabQ level, opened at the level's first entry
  // and closed when the walk leaves it (or at any exit from the loop). The
  // open/close points depend only on the TabQ ordering, so the level spans
  // are part of the deterministic structure.
  int32_t level_span = -1;
  auto open_level_span = [&](int level) {
    if (trace == nullptr) return;
    if (level_span >= 0) trace->CloseSpan(level_span);
    level_span = trace->OpenSpan(StrCat("tabq_level_", level));
  };
  for (size_t i = 0; i < tabq.size(); ++i) {
    TabQEntry& entry = tabq.at(i);
    const OperatorNode* m = entry.node;

    // Subquery boundary: honour deadline/budget/cancellation between
    // subqueries; on a trip, degrade to the answer established so far.
    if (Status limit = CheckExec(ctx); !limit.ok()) {
      if (!IsResourceLimit(limit)) return limit;
      mark_partial(limit, m);
      break;
    }

    // -- Alg. 2: checkEarlyTermination(m).
    if (options_.enable_early_termination && i != 0 &&
        entry.level() != tabq.at(i - 1).level()) {
      obs::PhasedSpanScope scope(phases, phase::kBottomUp, trace);
      bool stop = true;
      int prev_level = tabq.at(i - 1).level();
      for (size_t j = i; j-- > 0 && tabq.at(j).level() == prev_level;) {
        if (non_picky.count(tabq.at(j).node) > 0) {
          stop = false;
          break;
        }
      }
      if (stop) {
        for (size_t k = i; k < tabq.size(); ++k) {
          if (tabq.at(k).node->is_leaf()) {
            stop = false;
            break;
          }
        }
      }
      if (stop) {
        terminated = true;
        result.early_terminated = true;
        result.terminated_at = m;
        break;
      }
    }

    if (i == 0 || entry.level() != tabq.at(i - 1).level()) {
      open_level_span(entry.level());
    }

    // -- Evaluate m on its input (Alg. 1 line 8) and maintain the parent's
    //    entries and the EmptyOutput/Picky managers (lines 9-14).
    {
      obs::PhasedSpanScope scope(phases, phase::kBottomUp, trace);
      auto output_result = evaluator->EvalNode(m);
      if (!output_result.ok()) {
        // A limit tripping inside the operator leaves no output for m; the
        // traversal cannot continue, but everything recorded below m stands.
        if (!IsResourceLimit(output_result.status())) {
          return output_result.status();
        }
        mark_partial(output_result.status(), m);
        break;
      }
      entry.output = *output_result;
      if (entry.output->empty()) {
        empty_output.push_back(m);
        if (!entry.compatibles.empty()) {
          record_picky(m, entry.compatibles, {}, false);
        }
      }
    }

    if (m->is_leaf()) {
      // Alg. 1 lines 17-20: a base relation passes its compatibles through.
      obs::PhasedSpanScope scope(phases, phase::kBottomUp, trace);
      if (!entry.compatibles.empty()) {
        TabQEntry& parent = tabq.entry_for(m->parent);
        parent.compatibles.insert(entry.compatibles.begin(),
                                  entry.compatibles.end());
        non_picky.insert(m);
      }
      continue;
    }

    // -- Alg. 3: FindSuccessors(m).
    {
      obs::PhasedSpanScope scope(phases, phase::kSuccessorsFinder, trace);
      // The blocks m's input rids name: its children's outputs.
      struct InputBlock {
        size_t entry;  // TabQ index
        Rid base;
        size_t rows;
      };
      std::vector<InputBlock> inputs;
      for (const auto& child : m->children) {
        const size_t c = tabq.index_of(child.get());
        const Block& block = *tabq.at(c).output;
        inputs.push_back({c, block.rid_base(), block.size()});
      }
      // The input block holding `rid`, with its row in `*row`.
      auto locate = [&inputs](Rid rid, size_t* row) -> const InputBlock* {
        for (const InputBlock& in : inputs) {
          if (rid - in.base < in.rows) {
            *row = rid - in.base;
            return &in;
          }
        }
        return nullptr;
      };

      std::unordered_set<Rid> successors;  // valid successors in m.Output
      TupleIdSet surviving_dirs;
      const Block& out = *entry.output;
      for (size_t row = 0; row < out.size(); ++row) {
        NED_EXEC_TICK(ctx);
        // Valid successor of a compatible tuple (Notation 2.1): lineage
        // within D, touching Dir, derived from a compatible input tuple.
        const IdSpan lineage = out.lineage(row);
        bool within_d = true;
        bool touches_dir = false;
        for (TupleId id : lineage) {
          const TupleIdSet::Held held = d.Find(id);
          if (held == TupleIdSet::Held::kNo) {
            within_d = false;
            break;
          }
          touches_dir |= held == TupleIdSet::Held::kRow;
        }
        if (!within_d || !touches_dir) continue;
        bool from_compatible = false;
        for (Rid pred : out.preds(row)) {
          size_t pred_row = 0;
          const InputBlock* in = locate(pred, &pred_row);
          if (in != nullptr && fed[in->entry].test(pred_row)) {
            from_compatible = true;
            covered[in->entry].set(pred_row);
          }
        }
        if (from_compatible) {
          successors.insert(out.rid(row));
          fed[i].set(row);
          for (TupleId id : lineage) {
            if (d.Find(id) == TupleIdSet::Held::kRow) surviving_dirs.insert(id);
          }
        }
      }

      std::unordered_set<Rid> blocked;
      for (Rid c : entry.compatibles) {
        size_t row = 0;
        const InputBlock* in = locate(c, &row);
        if (in == nullptr || !covered[in->entry].test(row)) blocked.insert(c);
      }
      entry.blocked = blocked;

      if (!successors.empty()) {
        non_picky.insert(m);
        if (m->parent != nullptr) {
          TabQEntry& parent = tabq.entry_for(m->parent);
          parent.compatibles.insert(successors.begin(), successors.end());
        } else {
          result.survivors_at_root = successors.size();
        }
      }

      // Alg. 3 lines 9-12. Above the breakpoint view V the aggregation
      // condition governs; we additionally keep blocked recordings above V
      // (Def. 2.12's first set has no V restriction), which is a documented
      // strengthening of the pseudocode's literal condition.
      bool above_v = breakpoint_ != nullptr && m != breakpoint_ &&
                     OperatorNode::IsInSubtree(m, breakpoint_);
      if (!above_v) {
        if (!blocked.empty()) {
          record_picky(m, std::move(blocked), std::move(surviving_dirs), false);
        }
      } else {
        NED_ASSIGN_OR_RETURN(
            bool in_ok, [&]() -> Result<bool> {
              // m.Input: union of children outputs; a side satisfies
              // cond-alpha if its typed tuple set does.
              for (const auto& child : m->children) {
                if (tabq.entry_for(child.get()).output == nullptr) continue;
                NED_ASSIGN_OR_RETURN(bool ok, alpha_verdict(child.get()));
                if (ok) return true;
              }
              return false;
            }());
        NED_ASSIGN_OR_RETURN(bool out_ok, alpha_verdict(m));
        if (in_ok && !out_ok) {
          record_picky(m, std::move(blocked), std::move(surviving_dirs), true);
        } else if (!blocked.empty()) {
          record_picky(m, std::move(blocked), std::move(surviving_dirs), false);
        }
      }
    }
  }
  (void)terminated;
  if (trace != nullptr && level_span >= 0) trace->CloseSpan(level_span);

  // ---- Derive the detailed answer from PickyMan ----------------------------
  {
    obs::SpanScope answer_span(trace, "answer_construction");
    obs::PhasedSpanScope scope(phases, phase::kBottomUp, trace);
    std::unordered_set<DetailedEntry, DetailedEntryHash> seen;
    auto emit = [&](TupleId dir_id, const OperatorNode* node) {
      const DetailedEntry entry{dir_id, node};
      if (seen.insert(entry).second) result.answer.detailed.push_back(entry);
    };
    for (const PickyRecord& rec : picky) {
      bool emitted_pair = false;
      for (Rid b : rec.blocked) {
        // A blocked rid decodes to the block (alias rows or node output)
        // holding the input tuple it names.
        size_t row = 0;
        const Block* block = evaluator->BlockOfRid(b, &row);
        if (block == nullptr) continue;
        for (TupleId dir_id : block->lineage(row)) {
          // Def. 2.11: the subquery is picky w.r.t. a Dir tuple only when no
          // valid successor of it survives the subquery.
          if (!compat.dir.contains(dir_id) ||
              rec.surviving_dirs.contains(dir_id)) {
            continue;
          }
          emitted_pair = true;
          emit(dir_id, rec.node);
        }
      }
      // A cond-alpha flip without blocked tuples yields the paper's (⊥, Q')
      // entry (Crime9's (null, m3)); with blocked tuples the concrete pairs
      // subsume it (Ex. 2.6 reports only (t4, Q3)).
      if (rec.cond_alpha_flip && !emitted_pair) emit(kInvalidTupleId, rec.node);
    }
    result.answer.DeriveCondensed();
  }

  // ---- Secondary answer (Def. 2.14) ----------------------------------------
  // Skipped on a partial run: it walks outputs the stopped traversal never
  // produced, and the tripped budget means no more work should be done.
  if (options_.compute_secondary && result.complete) {
    obs::SpanScope secondary_span(trace, "secondary_answer");
    obs::PhasedSpanScope scope(phases, phase::kBottomUp, trace);
    // Alias name -> ordinal for lineage-membership tests.
    std::unordered_map<std::string, uint32_t> ordinal_of;
    for (uint32_t i = 0; i < input->aliases().size(); ++i) {
      ordinal_of[input->aliases()[i]] = i;
    }
    for (const std::string& alias : compat.indir_aliases) {
      NED_ASSIGN_OR_RETURN(const Block* rows, input->AliasBlock(alias));
      if (rows->empty()) continue;  // no d in I|S to be picky about
      uint32_t ordinal = ordinal_of.at(alias);
      const OperatorNode* scan = nullptr;
      for (const OperatorNode* s : tree_->scans()) {
        if (s->alias == alias) scan = s;
      }
      NED_CHECK(scan != nullptr);
      const OperatorNode* prev = scan;
      for (const OperatorNode* m = scan->parent; m != nullptr;
           prev = m, m = m->parent) {
        // Data of a difference's right operand is *meant* to vanish there;
        // the node is not a Def. 2.14 terminator for it.
        if (m->kind == OpKind::kDifference && m->children[1].get() == prev) {
          break;
        }
        const TabQEntry& entry = tabq.entry_for(m);
        const Block* output = entry.output;
        if (output == nullptr) {
          // Early termination stopped the traversal below m, but Def. 2.14
          // ranges over the *whole* tree: evaluate m on demand (memoized in
          // the evaluator). A tripped resource limit degrades to a partial
          // secondary answer instead of an error.
          auto evaluated = evaluator->EvalNode(m);
          if (!evaluated.ok()) {
            if (IsResourceLimit(evaluated.status())) {
              result.complete = false;
              result.limit_status = evaluated.status();
              break;
            }
            return evaluated.status();
          }
          output = *evaluated;
        }
        bool has_successor = false;
        for (size_t row = 0; row < output->size(); ++row) {
          NED_EXEC_TICK(ctx);
          for (TupleId id : output->lineage(row)) {
            if (TupleIdAlias(id) == ordinal) {
              has_successor = true;
              break;
            }
          }
          if (has_successor) break;
        }
        if (!has_successor) {
          if (std::find(result.answer.secondary.begin(),
                        result.answer.secondary.end(),
                        m) == result.answer.secondary.end()) {
            result.answer.secondary.push_back(m);
          }
          break;
        }
      }
    }
  }

  if (options_.keep_tabq_dump) result.tabq_dump = tabq.ToString(*input);
  return result;
}

}  // namespace ned
