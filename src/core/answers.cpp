#include "core/answers.h"

#include <algorithm>
#include <unordered_set>

#include "common/strings.h"

namespace ned {

void WhyNotAnswer::MergeFrom(const WhyNotAnswer& other) {
  // Detailed answers reach thousands of entries at scale, so membership is
  // hashed; the node lists are bounded by the query's size.
  std::unordered_set<DetailedEntry, DetailedEntryHash> seen(detailed.begin(),
                                                            detailed.end());
  for (const auto& entry : other.detailed) {
    if (seen.insert(entry).second) detailed.push_back(entry);
  }
  for (const OperatorNode* node : other.condensed) {
    if (std::find(condensed.begin(), condensed.end(), node) == condensed.end()) {
      condensed.push_back(node);
    }
  }
  for (const OperatorNode* node : other.secondary) {
    if (std::find(secondary.begin(), secondary.end(), node) == secondary.end()) {
      secondary.push_back(node);
    }
  }
}

void WhyNotAnswer::DeriveCondensed() {
  condensed.clear();
  for (const auto& entry : detailed) {
    if (std::find(condensed.begin(), condensed.end(), entry.subquery) ==
        condensed.end()) {
      condensed.push_back(entry.subquery);
    }
  }
}

std::string WhyNotAnswer::EntryToString(const DetailedEntry& entry,
                                        const QueryInput& input) {
  std::string tuple = entry.is_bottom() ? "null" : input.DisplayTuple(entry.dir_tuple);
  return "(" + tuple + ", " + entry.subquery->name + ")";
}

std::string WhyNotAnswer::DetailedToString(const QueryInput& input) const {
  if (detailed.empty()) return "-";
  std::vector<std::string> parts;
  parts.reserve(detailed.size());
  for (const auto& e : detailed) parts.push_back(EntryToString(e, input));
  return Join(parts, ", ");
}

namespace {
std::string NodeListToString(const std::vector<const OperatorNode*>& nodes) {
  if (nodes.empty()) return "-";
  std::vector<std::string> parts;
  parts.reserve(nodes.size());
  for (const OperatorNode* n : nodes) parts.push_back(n->name);
  return Join(parts, ", ");
}
}  // namespace

std::string WhyNotAnswer::CondensedToString() const {
  return NodeListToString(condensed);
}

std::string WhyNotAnswer::SecondaryToString() const {
  return NodeListToString(secondary);
}

std::string WhyNotAnswer::ToString(const QueryInput& input) const {
  return "detailed : " + DetailedToString(input) +
         "\ncondensed: " + CondensedToString() +
         "\nsecondary: " + SecondaryToString() + "\n";
}

}  // namespace ned
