#include "algebra/query_tree.h"

#include <algorithm>

#include "common/strings.h"

namespace ned {
namespace {

/// Derives `node->output_schema` from its children (already derived) and
/// validates kind-specific constraints.
Status DeriveSchema(OperatorNode* node, const Database& db,
                    std::map<std::string, std::string>* alias_to_table) {
  switch (node->kind) {
    case OpKind::kScan: {
      if (node->alias.empty()) node->alias = node->base_table;
      if (alias_to_table->count(node->alias) > 0) {
        return Status::InvalidArgument("duplicate scan alias: " + node->alias);
      }
      NED_ASSIGN_OR_RETURN(const Relation* rel, db.GetRelation(node->base_table));
      (*alias_to_table)[node->alias] = node->base_table;
      Schema schema;
      for (const auto& a : rel->schema().attributes()) {
        schema.Add(Attribute(node->alias, a.name));
      }
      node->output_schema = std::move(schema);
      return Status::OK();
    }
    case OpKind::kSelect: {
      const Schema& in = node->children[0]->output_schema;
      if (node->predicate == nullptr) {
        return Status::InvalidArgument("selection without predicate");
      }
      std::vector<Attribute> used;
      node->predicate->CollectAttributes(&used);
      for (const auto& a : used) {
        NED_RETURN_NOT_OK(in.Resolve(a).ok()
                              ? Status::OK()
                              : Status::NotFound("selection references " +
                                                 a.FullName() +
                                                 " outside input type " +
                                                 in.ToString()));
      }
      node->output_schema = in;
      return Status::OK();
    }
    case OpKind::kProject: {
      const Schema& in = node->children[0]->output_schema;
      NED_ASSIGN_OR_RETURN(Schema projected, in.Project(node->projection));
      node->output_schema = std::move(projected);
      return Status::OK();
    }
    case OpKind::kJoin: {
      const Schema& left = node->children[0]->output_schema;
      const Schema& right = node->children[1]->output_schema;
      for (const auto& t : node->renaming.triples()) {
        if (!left.Contains(t.a1)) {
          return Status::NotFound("join renaming attribute " + t.a1.FullName() +
                                  " not in left type " + left.ToString());
        }
        if (!right.Contains(t.a2)) {
          return Status::NotFound("join renaming attribute " + t.a2.FullName() +
                                  " not in right type " + right.ToString());
        }
      }
      Schema out;
      for (const auto& a : left.attributes()) {
        Attribute mapped = node->renaming.Apply(a);
        if (!out.Contains(mapped)) out.Add(mapped);
      }
      for (const auto& a : right.attributes()) {
        Attribute mapped = node->renaming.Apply(a);
        if (!out.Contains(mapped)) out.Add(mapped);
      }
      node->output_schema = std::move(out);
      if (node->extra_predicate != nullptr) {
        std::vector<Attribute> used;
        node->extra_predicate->CollectAttributes(&used);
        for (const auto& a : used) {
          if (!node->output_schema.Contains(a)) {
            return Status::NotFound("join condition references " + a.FullName() +
                                    " outside joined type");
          }
        }
      }
      return Status::OK();
    }
    case OpKind::kUnion:
    case OpKind::kDifference: {
      // Both set operations require nu-aligned operand types; the output is
      // nu(type(Q1)) (for a difference, only left tuples survive anyway).
      const Schema& left = node->children[0]->output_schema;
      const Schema& right = node->children[1]->output_schema;
      Schema out;
      for (const auto& a : left.attributes()) {
        Attribute mapped = node->renaming.Apply(a);
        if (!out.Contains(mapped)) out.Add(mapped);
      }
      Schema right_mapped;
      for (const auto& a : right.attributes()) {
        Attribute mapped = node->renaming.Apply(a);
        if (!right_mapped.Contains(mapped)) right_mapped.Add(mapped);
      }
      if (!(out.ContainsAll(right_mapped) && right_mapped.ContainsAll(out))) {
        return Status::TypeError(
            std::string(OpKindName(node->kind)) +
            " operand types differ after renaming: " + out.ToString() +
            " vs " + right_mapped.ToString());
      }
      node->output_schema = std::move(out);
      return Status::OK();
    }
    case OpKind::kAggregate: {
      const Schema& in = node->children[0]->output_schema;
      Schema out;
      for (const auto& g : node->group_by) {
        if (!in.Contains(g)) {
          return Status::NotFound("group-by attribute " + g.FullName() +
                                  " not in input type " + in.ToString());
        }
        out.Add(g);
      }
      if (node->aggregates.empty()) {
        return Status::InvalidArgument("aggregate node without aggregate calls");
      }
      for (const auto& call : node->aggregates) {
        if (!in.Contains(call.arg)) {
          return Status::NotFound("aggregate argument " + call.arg.FullName() +
                                  " not in input type " + in.ToString());
        }
        out.Add(Attribute::Unqualified(call.out_name));
      }
      node->output_schema = std::move(out);
      return Status::OK();
    }
  }
  return Status::Internal("unknown operator kind");
}

Status FinalizeRecursive(OperatorNode* node, OperatorNode* parent, int level,
                         const Database& db,
                         std::map<std::string, std::string>* alias_to_table) {
  node->parent = parent;
  node->level = level;
  size_t expected_children =
      node->kind == OpKind::kScan ? 0 : (node->is_binary() ? 2 : 1);
  if (node->children.size() != expected_children) {
    return Status::InvalidArgument(
        StrCat(OpKindName(node->kind), " node has ", node->children.size(),
               " children, expected ", expected_children));
  }
  for (auto& child : node->children) {
    NED_RETURN_NOT_OK(
        FinalizeRecursive(child.get(), node, level + 1, db, alias_to_table));
  }
  return DeriveSchema(node, db, alias_to_table);
}

void CollectPreorder(OperatorNode* node, std::vector<OperatorNode*>* out) {
  out->push_back(node);
  for (auto& child : node->children) CollectPreorder(child.get(), out);
}

void RenderTree(const OperatorNode* node, const std::string& indent,
                std::string* out) {
  *out += indent + node->name + " [L" + std::to_string(node->level) + "] " +
          node->Describe();
  if (node->is_breakpoint) *out += "  *breakpoint*";
  *out += "   : " + node->output_schema.ToString() + "\n";
  for (const auto& child : node->children) {
    RenderTree(child.get(), indent + "  ", out);
  }
}

}  // namespace

Result<QueryTree> QueryTree::Create(std::unique_ptr<OperatorNode> root,
                                    const Database& db) {
  if (root == nullptr) return Status::InvalidArgument("null query root");
  QueryTree tree;
  tree.root_ = std::move(root);
  NED_RETURN_NOT_OK(FinalizeRecursive(tree.root_.get(), nullptr, 0, db,
                                      &tree.alias_to_table_));

  std::vector<OperatorNode*> preorder;
  CollectPreorder(tree.root_.get(), &preorder);

  // TabQ order: decreasing level; ties left-to-right. A preorder DFS visits
  // same-level nodes left-to-right, and stable_sort preserves that.
  tree.bottom_up_ = preorder;
  std::stable_sort(tree.bottom_up_.begin(), tree.bottom_up_.end(),
                   [](const OperatorNode* a, const OperatorNode* b) {
                     return a->level > b->level;
                   });
  for (size_t i = 0; i < tree.bottom_up_.size(); ++i) {
    tree.bottom_up_[i]->name = "m" + std::to_string(i);
  }
  for (const OperatorNode* node : tree.bottom_up_) {
    if (node->is_leaf()) tree.scans_.push_back(node);
  }
  return tree;
}

Status QueryTree::DeriveTypes(OperatorNode* root, const Database& db) {
  std::map<std::string, std::string> alias_to_table;
  return FinalizeRecursive(root, nullptr, 0, db, &alias_to_table);
}

const OperatorNode* QueryTree::FindByName(const std::string& name) const {
  for (const OperatorNode* node : bottom_up_) {
    if (node->name == name) return node;
  }
  return nullptr;
}

std::string QueryTree::ToString() const {
  std::string out;
  RenderTree(root_.get(), "", &out);
  return out;
}

}  // namespace ned
