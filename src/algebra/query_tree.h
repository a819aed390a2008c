/// \file query_tree.h
/// \brief A finalized query (Q, eta_Q) over a database (paper Def. 2.3).
///
/// QueryTree owns a validated operator tree: schemas are derived bottom-up,
/// parents/levels are linked, nodes are named m0..mk in *TabQ order*
/// (decreasing depth, left-to-right within a level -- Sec. 3.1, 2c), and the
/// alias->stored-table mapping eta_Q is recorded so self-joins reference the
/// same stored relation through distinct schema aliases.

#ifndef NED_ALGEBRA_QUERY_TREE_H_
#define NED_ALGEBRA_QUERY_TREE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algebra/operator.h"
#include "relational/database.h"

namespace ned {

class QueryTree {
 public:
  QueryTree() = default;
  QueryTree(QueryTree&&) = default;
  QueryTree& operator=(QueryTree&&) = default;

  /// Validates and finalizes `root` against `db`: resolves scan base tables,
  /// derives every node's output schema, assigns parent/level/name, and
  /// builds the bottom-up order. Errors on schema violations (unknown
  /// attributes, duplicate aliases, mismatched union types, ...).
  static Result<QueryTree> Create(std::unique_ptr<OperatorNode> root,
                                  const Database& db);

  /// Derives and validates every node's `output_schema` in the subtree
  /// rooted at `root` exactly as Create does, without finalizing a tree
  /// (names, parents and levels stay provisional until Create). The
  /// canonicalizer reads a set operation's operand types this way.
  static Status DeriveTypes(OperatorNode* root, const Database& db);

  const OperatorNode* root() const { return root_.get(); }
  OperatorNode* mutable_root() { return root_.get(); }

  /// Nodes in TabQ order: decreasing level, left-to-right within a level.
  const std::vector<OperatorNode*>& bottom_up() const { return bottom_up_; }

  /// All scan nodes (leaves), in bottom-up order.
  const std::vector<const OperatorNode*>& scans() const { return scans_; }

  /// eta_Q: alias -> stored relation name.
  const std::map<std::string, std::string>& alias_to_table() const {
    return alias_to_table_;
  }

  /// Node lookup by assigned name ("m3"); nullptr when absent.
  const OperatorNode* FindByName(const std::string& name) const;

  /// The query's target type.
  const Schema& target_type() const { return root_->output_schema; }

  /// ASCII rendering of the tree with names, levels and schemas.
  std::string ToString() const;

  /// Number of subqueries (nodes).
  size_t size() const { return bottom_up_.size(); }

 private:
  std::unique_ptr<OperatorNode> root_;
  std::vector<OperatorNode*> bottom_up_;
  std::vector<const OperatorNode*> scans_;
  std::map<std::string, std::string> alias_to_table_;
};

}  // namespace ned

#endif  // NED_ALGEBRA_QUERY_TREE_H_
