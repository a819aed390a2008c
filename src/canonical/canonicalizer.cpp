#include "canonical/canonicalizer.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

#include "algebra/fingerprint.h"
#include "common/strings.h"

namespace ned {
namespace {

/// Rewrites an expression, mapping renamed attributes to their new
/// (unqualified) names. Non-ColumnRef structure is rebuilt recursively.
ExprPtr SubstituteAttrs(const ExprPtr& expr,
                        const std::map<Attribute, Attribute>& subst) {
  if (auto col = std::dynamic_pointer_cast<const ColumnRef>(expr)) {
    auto it = subst.find(col->attribute());
    if (it != subst.end()) return std::make_shared<ColumnRef>(it->second);
    return expr;
  }
  if (auto cmp = std::dynamic_pointer_cast<const Comparison>(expr)) {
    return std::make_shared<Comparison>(SubstituteAttrs(cmp->left(), subst),
                                        cmp->op(),
                                        SubstituteAttrs(cmp->right(), subst));
  }
  if (auto conj = std::dynamic_pointer_cast<const Conjunction>(expr)) {
    std::vector<ExprPtr> terms;
    for (const auto& t : conj->terms()) terms.push_back(SubstituteAttrs(t, subst));
    return std::make_shared<Conjunction>(std::move(terms));
  }
  if (auto disj = std::dynamic_pointer_cast<const Disjunction>(expr)) {
    std::vector<ExprPtr> terms;
    for (const auto& t : disj->terms()) terms.push_back(SubstituteAttrs(t, subst));
    return std::make_shared<Disjunction>(std::move(terms));
  }
  // Literal / Not fall through unchanged (Not's operand rarely holds columns
  // in our query class; extend as needed).
  return expr;
}

Attribute SubstituteAttr(const Attribute& attr,
                         const std::map<Attribute, Attribute>& subst) {
  auto it = subst.find(attr);
  return it == subst.end() ? attr : it->second;
}

/// Aliases referenced by an expression.
std::set<std::string> AliasesOf(const ExprPtr& expr) {
  std::vector<Attribute> attrs;
  expr->CollectAttributes(&attrs);
  std::set<std::string> aliases;
  for (const auto& a : attrs) {
    if (a.qualified()) aliases.insert(a.qualifier);
  }
  return aliases;
}

/// Incremental builder for a block's tree, tracking the current node, the
/// set of joined aliases, the cumulative renaming substitution, and the
/// current output attribute list.
struct TreeBuilder {
  std::unique_ptr<OperatorNode> node;
  std::set<std::string> aliases;
  std::map<Attribute, Attribute> subst;
  std::vector<Attribute> attrs;

  void ApplySelection(const ExprPtr& predicate) {
    node = OperatorNode::MakeSelect(std::move(node),
                                    SubstituteAttrs(predicate, subst));
  }
};

}  // namespace

Result<std::unique_ptr<OperatorNode>> CanonicalizeBlock(
    const QueryBlock& block, const Database& db,
    const CanonicalizeOptions& options) {
  if (block.tables.empty()) {
    return Status::InvalidArgument("query block has no tables");
  }

  // ---- alias bookkeeping ----------------------------------------------------
  std::vector<std::string> alias_order;  // block order
  std::map<std::string, std::string> table_of;
  for (const auto& t : block.tables) {
    std::string alias = t.alias.empty() ? t.table : t.alias;
    if (table_of.count(alias) > 0) {
      return Status::InvalidArgument("duplicate alias in FROM: " + alias);
    }
    table_of[alias] = t.table;
    alias_order.push_back(alias);
    NED_RETURN_NOT_OK(db.GetRelation(t.table).ok()
                          ? Status::OK()
                          : db.GetRelation(t.table).status());
  }

  // ---- join graph -----------------------------------------------------------
  for (const auto& j : block.joins) {
    if (!j.left.qualified() || !j.right.qualified() ||
        j.left.qualifier == j.right.qualifier) {
      return Status::InvalidArgument("join predicate must link two aliases: " +
                                     j.left.FullName() + " = " +
                                     j.right.FullName());
    }
    if (table_of.count(j.left.qualifier) == 0 ||
        table_of.count(j.right.qualifier) == 0) {
      return Status::InvalidArgument("join predicate references unknown alias");
    }
  }
  auto adjacent = [&](const std::string& a,
                      const std::string& b) -> bool {
    for (const auto& j : block.joins) {
      if ((j.left.qualifier == a && j.right.qualifier == b) ||
          (j.left.qualifier == b && j.right.qualifier == a)) {
        return true;
      }
    }
    return false;
  };
  auto adjacent_to_set = [&](const std::set<std::string>& set,
                             const std::string& a) -> bool {
    for (const auto& s : set) {
      if (adjacent(s, a)) return true;
    }
    return false;
  };

  // ---- selection classification ----------------------------------------------
  std::map<std::string, std::vector<ExprPtr>> per_alias_sel;
  std::vector<ExprPtr> multi_sel;  // placed once all their aliases are joined
  std::vector<ExprPtr> top_sel;    // naive placement (ablation mode)
  for (const auto& sel : block.selections) {
    if (!options.place_selections_at_frontier) {
      top_sel.push_back(sel);
      continue;
    }
    std::set<std::string> aliases = AliasesOf(sel);
    if (aliases.size() == 1) {
      per_alias_sel[*aliases.begin()].push_back(sel);
    } else {
      multi_sel.push_back(sel);
    }
  }

  // ---- breakpoint alias cover (aggregation only) -----------------------------
  std::set<std::string> vset;
  if (block.agg.has_value()) {
    std::set<std::string> needed;
    for (const auto& g : block.agg->group_by) {
      if (g.qualified()) needed.insert(g.qualifier);
    }
    for (const auto& call : block.agg->calls) {
      if (call.arg.qualified()) needed.insert(call.arg.qualifier);
    }
    if (!needed.empty()) {
      // Greedy Steiner cover: BFS over the join graph from the growing set to
      // the nearest uncovered needed alias, adding the connecting path.
      vset.insert(*needed.begin());
      while (true) {
        std::vector<std::string> missing;
        for (const auto& n : needed) {
          if (vset.count(n) == 0) missing.push_back(n);
        }
        if (missing.empty()) break;
        // Multi-source BFS.
        std::map<std::string, std::string> parent;
        std::deque<std::string> queue;
        for (const auto& s : vset) {
          parent[s] = "";
          queue.push_back(s);
        }
        std::string found;
        while (!queue.empty() && found.empty()) {
          std::string cur = queue.front();
          queue.pop_front();
          for (const auto& next : alias_order) {
            if (parent.count(next) > 0 || !adjacent(cur, next)) continue;
            parent[next] = cur;
            if (std::find(missing.begin(), missing.end(), next) !=
                missing.end()) {
              found = next;
              break;
            }
            queue.push_back(next);
          }
        }
        if (found.empty()) {
          // Disconnected: cover the alias anyway (cross product fallback).
          vset.insert(missing.front());
          continue;
        }
        for (std::string cur = found; !cur.empty(); cur = parent[cur]) {
          vset.insert(cur);
        }
      }
    }
  }

  // ---- leaf construction ------------------------------------------------------
  auto make_leaf = [&](const std::string& alias,
                       bool with_selections) -> std::unique_ptr<OperatorNode> {
    std::unique_ptr<OperatorNode> leaf =
        OperatorNode::MakeScan(alias, table_of.at(alias));
    if (!block.agg.has_value() || vset.count(alias) == 0) {
      // Every leaf outside V is itself a breakpoint (visibility frontier).
      leaf->is_breakpoint = true;
    }
    if (with_selections) {
      auto it = per_alias_sel.find(alias);
      if (it != per_alias_sel.end()) {
        for (const auto& sel : it->second) {
          leaf = OperatorNode::MakeSelect(std::move(leaf), sel);
        }
      }
    }
    return leaf;
  };

  // ---- join ordering ----------------------------------------------------------
  // V aliases first (bare scans; their selections stack above V), then the
  // rest (scans wrapped with their pushed-down selections).
  auto order_subset = [&](const std::set<std::string>& subset,
                          const std::set<std::string>& seed)
      -> std::vector<std::string> {
    std::vector<std::string> order;
    std::set<std::string> placed = seed;
    std::set<std::string> remaining = subset;
    while (!remaining.empty()) {
      std::string pick;
      for (const auto& a : alias_order) {
        if (remaining.count(a) == 0) continue;
        if (placed.empty() || adjacent_to_set(placed, a)) {
          pick = a;
          break;
        }
      }
      if (pick.empty()) {
        // Disconnected component: take the first remaining (cross product).
        for (const auto& a : alias_order) {
          if (remaining.count(a) > 0) {
            pick = a;
            break;
          }
        }
      }
      order.push_back(pick);
      placed.insert(pick);
      remaining.erase(pick);
    }
    return order;
  };

  TreeBuilder builder;
  auto join_alias = [&](const std::string& alias, bool leaf_selections) -> Status {
    std::unique_ptr<OperatorNode> leaf = make_leaf(alias, leaf_selections);
    NED_ASSIGN_OR_RETURN(const Relation* rel, db.GetRelation(table_of.at(alias)));
    std::vector<Attribute> leaf_attrs;
    for (const auto& a : rel->schema().attributes()) {
      leaf_attrs.emplace_back(alias, a.name);
    }
    if (builder.node == nullptr) {
      builder.node = std::move(leaf);
      builder.attrs = std::move(leaf_attrs);
      builder.aliases.insert(alias);
      return Status::OK();
    }
    Renaming renaming;
    for (const auto& j : block.joins) {
      Attribute from_set, from_new;
      if (builder.aliases.count(j.left.qualifier) > 0 &&
          j.right.qualifier == alias) {
        from_set = j.left;
        from_new = j.right;
      } else if (builder.aliases.count(j.right.qualifier) > 0 &&
                 j.left.qualifier == alias) {
        from_set = j.right;
        from_new = j.left;
      } else {
        continue;
      }
      // The set-side attribute may itself have been renamed by an earlier
      // join; the renaming triple then references the current name.
      Attribute current = SubstituteAttr(from_set, builder.subst);
      renaming.Add(current, from_new, j.out_name);
      builder.subst[from_set] = Attribute::Unqualified(j.out_name);
      builder.subst[from_new] = Attribute::Unqualified(j.out_name);
      builder.subst[current] = Attribute::Unqualified(j.out_name);
    }
    // Update the attribute list: apply the renaming to both sides, merging
    // the renamed attributes.
    std::vector<Attribute> new_attrs;
    auto add_mapped = [&](const std::vector<Attribute>& source) {
      for (const auto& a : source) {
        Attribute mapped = renaming.Apply(a);
        if (std::find(new_attrs.begin(), new_attrs.end(), mapped) ==
            new_attrs.end()) {
          new_attrs.push_back(mapped);
        }
      }
    };
    add_mapped(builder.attrs);
    add_mapped(leaf_attrs);
    builder.node = OperatorNode::MakeJoin(std::move(builder.node),
                                          std::move(leaf), std::move(renaming));
    builder.attrs = std::move(new_attrs);
    builder.aliases.insert(alias);
    return Status::OK();
  };

  auto apply_ready_multi_selections = [&](std::vector<ExprPtr>* pending) {
    for (auto it = pending->begin(); it != pending->end();) {
      std::set<std::string> aliases = AliasesOf(*it);
      bool ready = true;
      for (const auto& a : aliases) {
        if (builder.aliases.count(a) == 0) {
          ready = false;
          break;
        }
      }
      if (ready) {
        builder.ApplySelection(*it);
        it = pending->erase(it);
      } else {
        ++it;
      }
    }
  };

  std::vector<ExprPtr> pending_multi = multi_sel;

  if (!vset.empty()) {
    for (const auto& alias : order_subset(vset, {})) {
      NED_RETURN_NOT_OK(join_alias(alias, /*leaf_selections=*/false));
    }
    // Mark the breakpoint view V.
    builder.node->is_breakpoint = true;
    // Selections over V's relations stack right above the frontier, in block
    // order; multi-alias selections inside V as well.
    for (const auto& alias : alias_order) {
      if (vset.count(alias) == 0) continue;
      auto it = per_alias_sel.find(alias);
      if (it == per_alias_sel.end()) continue;
      for (const auto& sel : it->second) builder.ApplySelection(sel);
    }
    apply_ready_multi_selections(&pending_multi);
  }

  std::set<std::string> rest;
  for (const auto& a : alias_order) {
    if (vset.count(a) == 0) rest.insert(a);
  }
  for (const auto& alias : order_subset(rest, builder.aliases)) {
    NED_RETURN_NOT_OK(join_alias(alias, /*leaf_selections=*/true));
    apply_ready_multi_selections(&pending_multi);
  }
  if (!pending_multi.empty()) {
    return Status::InvalidArgument(
        "selection references aliases that never joined");
  }
  for (const auto& sel : top_sel) builder.ApplySelection(sel);

  // ---- aggregation --------------------------------------------------------------
  std::vector<Attribute> output_attrs = builder.attrs;
  if (block.agg.has_value()) {
    std::vector<Attribute> group_by;
    for (const auto& g : block.agg->group_by) {
      group_by.push_back(SubstituteAttr(g, builder.subst));
    }
    std::vector<AggCall> calls;
    for (const auto& call : block.agg->calls) {
      calls.push_back(
          {call.fn, SubstituteAttr(call.arg, builder.subst), call.out_name});
    }
    output_attrs = group_by;
    for (const auto& call : calls) {
      output_attrs.push_back(Attribute::Unqualified(call.out_name));
    }
    builder.node = OperatorNode::MakeAggregate(std::move(builder.node),
                                               std::move(group_by),
                                               std::move(calls));
  }

  // ---- projection -----------------------------------------------------------------
  if (!block.projection.empty()) {
    std::vector<Attribute> projection;
    for (const auto& p : block.projection) {
      projection.push_back(SubstituteAttr(p, builder.subst));
    }
    if (projection != output_attrs) {
      builder.node =
          OperatorNode::MakeProject(std::move(builder.node), projection);
    }
  }
  return std::move(builder.node);
}

Result<QueryTree> Canonicalize(const QuerySpec& spec, const Database& db,
                               const CanonicalizeOptions& options) {
  if (spec.blocks.empty()) {
    return Status::InvalidArgument("query spec has no blocks");
  }

  NED_ASSIGN_OR_RETURN(std::unique_ptr<OperatorNode> root,
                       CanonicalizeBlock(spec.blocks[0], db, options));
  if (spec.blocks.size() > 1) {
    // A set operation's renaming pairs its operands' output types, so each
    // operand's types are derived as soon as it is built.
    NED_RETURN_NOT_OK(QueryTree::DeriveTypes(root.get(), db));
    std::vector<Attribute> left_attrs = root->output_schema.attributes();
    for (size_t b = 1; b < spec.blocks.size(); ++b) {
      NED_ASSIGN_OR_RETURN(std::unique_ptr<OperatorNode> right,
                           CanonicalizeBlock(spec.blocks[b], db, options));
      NED_RETURN_NOT_OK(QueryTree::DeriveTypes(right.get(), db));
      const std::vector<Attribute> right_attrs =
          right->output_schema.attributes();
      if (right_attrs.size() != left_attrs.size()) {
        return Status::TypeError("union operands have different arity");
      }
      Renaming renaming;
      std::vector<Attribute> union_attrs;
      for (size_t k = 0; k < left_attrs.size(); ++k) {
        std::string name = k < spec.union_names.size() ? spec.union_names[k]
                                                       : left_attrs[k].name;
        renaming.Add(left_attrs[k], right_attrs[k], name);
        union_attrs.push_back(Attribute::Unqualified(name));
      }
      SetOpKind op = b - 1 < spec.set_ops.size() ? spec.set_ops[b - 1]
                                                  : SetOpKind::kUnion;
      root = op == SetOpKind::kUnion
                 ? OperatorNode::MakeUnion(std::move(root), std::move(right),
                                           std::move(renaming))
                 : OperatorNode::MakeDifference(std::move(root),
                                                std::move(right),
                                                std::move(renaming));
      left_attrs = std::move(union_attrs);
    }
  }
  return QueryTree::Create(std::move(root), db);
}

Result<std::string> CanonicalFingerprint(const QuerySpec& spec,
                                         const Database& db,
                                         const CanonicalizeOptions& options) {
  NED_ASSIGN_OR_RETURN(QueryTree tree, Canonicalize(spec, db, options));
  return SubtreeFingerprint(*tree.root());
}

}  // namespace ned
