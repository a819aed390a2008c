#include "core/tabq.h"

#include "common/strings.h"

namespace ned {

TabQ::TabQ(const QueryTree* tree) {
  entries_.reserve(tree->bottom_up().size());
  for (const OperatorNode* node : tree->bottom_up()) {
    TabQEntry entry;
    entry.node = node;
    index_of_[node] = entries_.size();
    entries_.push_back(std::move(entry));
  }
}

std::string TabQ::ToString(const QueryInput& input) const {
  std::vector<std::string> header = {"entry"};
  for (const auto& e : entries_) header.push_back(e.node->name);

  auto row_of = [&](const std::string& label,
                    auto&& cell) -> std::vector<std::string> {
    std::vector<std::string> row = {label};
    for (const auto& e : entries_) row.push_back(cell(e));
    return row;
  };

  std::vector<std::vector<std::string>> rows;
  rows.push_back(row_of("Op", [](const TabQEntry& e) {
    return std::string(e.node->Describe());
  }));
  rows.push_back(row_of("Level", [](const TabQEntry& e) {
    return std::to_string(e.level());
  }));
  rows.push_back(row_of("Parent", [](const TabQEntry& e) {
    return e.parent() == nullptr ? std::string("-") : e.parent()->name;
  }));
  // |m.Input|: the alias's rows for a scan, else the rows of the children
  // evaluated so far.
  rows.push_back(row_of("|Input|", [&](const TabQEntry& e) {
    if (e.node->is_leaf()) {
      auto rows = input.AliasBlock(e.node->alias);
      return std::to_string(rows.ok() ? (*rows)->size() : 0);
    }
    size_t n = 0;
    for (const auto& child : e.node->children) {
      const Block* out = entry_for(child.get()).output;
      if (out != nullptr) n += out->size();
    }
    return std::to_string(n);
  }));
  rows.push_back(row_of("|Output|", [](const TabQEntry& e) {
    return e.output == nullptr ? std::string("-")
                               : std::to_string(e.output->size());
  }));
  rows.push_back(row_of("|Compatibles|", [](const TabQEntry& e) {
    return std::to_string(e.compatibles.size());
  }));
  rows.push_back(row_of("|Blocked|", [](const TabQEntry& e) {
    return std::to_string(e.blocked.size());
  }));
  // Table 2-style how-provenance of the output tuples, for small outputs.
  constexpr size_t kMaxShown = 4;
  rows.push_back(row_of("Output (how)", [&](const TabQEntry& e) -> std::string {
    if (e.output == nullptr) return "-";
    if (e.output->size() > kMaxShown) return "...";
    std::vector<std::string> parts;
    for (size_t i = 0; i < e.output->size(); ++i) {
      parts.push_back(HowProvenance(e.output->lineage(i), input));
    }
    return Join(parts, " ; ");
  }));
  return RenderTable(header, rows);
}

}  // namespace ned
