#include "algebra/fingerprint.h"

#include <cstdio>

#include "common/status.h"

namespace ned {

namespace {

// Fingerprints are built by appending, not StrCat: StrCat streams through
// an ostringstream, and a subtree cache key derives one fingerprint per
// node on every evaluation.

/// Appends "<size>:<text>", length-prefixed so no payload can forge the
/// surrounding separators.
void AppendSized(std::string* out, const std::string& text) {
  *out += std::to_string(text.size());
  *out += ':';
  *out += text;
}

std::string FingerprintAttribute(const Attribute& attr) {
  // FullName is "qualifier.name".
  std::string out;
  AppendSized(&out, attr.FullName());
  return out;
}

std::string FingerprintSchema(const Schema& schema) {
  std::string out = "[";
  for (size_t i = 0; i < schema.attributes().size(); ++i) {
    if (i > 0) out += ",";
    out += FingerprintAttribute(schema.attributes()[i]);
  }
  out += "]";
  return out;
}

}  // namespace

std::string FingerprintValue(const Value& value) {
  switch (value.type()) {
    case ValueType::kNull:
      return "n:";
    case ValueType::kInt:
      return "i:" + std::to_string(value.as_int());
    case ValueType::kDouble: {
      // %.17g round-trips every double exactly.
      char buf[64];
      std::snprintf(buf, sizeof(buf), "d:%.17g", value.as_double());
      return buf;
    }
    case ValueType::kString: {
      std::string out = "s:";
      AppendSized(&out, value.as_string());
      return out;
    }
  }
  return "?";
}

std::string FingerprintExpression(const Expression* expr) {
  if (expr == nullptr) return "-";
  if (const auto* col = dynamic_cast<const ColumnRef*>(expr)) {
    return "col(" + FingerprintAttribute(col->attribute()) + ")";
  }
  if (const auto* lit = dynamic_cast<const Literal*>(expr)) {
    return "lit(" + FingerprintValue(lit->value()) + ")";
  }
  if (const auto* cmp = dynamic_cast<const Comparison*>(expr)) {
    std::string out = "cmp(";
    out += CompareOpSymbol(cmp->op());
    out += ',';
    out += FingerprintExpression(cmp->left().get());
    out += ',';
    out += FingerprintExpression(cmp->right().get());
    out += ')';
    return out;
  }
  if (const auto* conj = dynamic_cast<const Conjunction*>(expr)) {
    std::string out = "and(";
    for (const auto& t : conj->terms()) {
      out += FingerprintExpression(t.get());
      out += ";";
    }
    out += ")";
    return out;
  }
  if (const auto* disj = dynamic_cast<const Disjunction*>(expr)) {
    std::string out = "or(";
    for (const auto& t : disj->terms()) {
      out += FingerprintExpression(t.get());
      out += ";";
    }
    out += ")";
    return out;
  }
  if (const auto* neg = dynamic_cast<const Not*>(expr)) {
    return "not(" + FingerprintExpression(neg->inner().get()) + ")";
  }
  // Unknown subclass: fall back to ToString, still wrapped so it cannot be
  // confused with any tagged form above.
  return "other(" + expr->ToString() + ")";
}

std::string NodeFingerprint(const OperatorNode& node) {
  std::string out = OpKindName(node.kind);
  out += "[";
  switch (node.kind) {
    case OpKind::kScan:
      // Alias + base table + resolved schema. Including the schema means two
      // scans of same-named (but structurally different) relations in
      // different databases cannot collide even when both relations carry
      // data-version 0 (e.g. empty relations never touched by AddRow).
      out += "a=";
      AppendSized(&out, node.alias);
      out += ";t=";
      AppendSized(&out, node.base_table);
      out += ";s=";
      out += FingerprintSchema(node.output_schema);
      break;
    case OpKind::kSelect:
      out += "p=";
      out += FingerprintExpression(node.predicate.get());
      break;
    case OpKind::kProject: {
      out += "a=";
      for (const Attribute& a : node.projection) {
        out += FingerprintAttribute(a);
        out += ",";
      }
      break;
    }
    case OpKind::kJoin:
    case OpKind::kUnion:
    case OpKind::kDifference: {
      out += "r=";
      for (const RenameTriple& t : node.renaming.triples()) {
        out += FingerprintAttribute(t.a1);
        out += '|';
        out += FingerprintAttribute(t.a2);
        out += '|';
        AppendSized(&out, t.anew);
        out += ',';
      }
      out += ";x=";
      out += FingerprintExpression(node.extra_predicate.get());
      break;
    }
    case OpKind::kAggregate: {
      out += "g=";
      for (const Attribute& a : node.group_by) {
        out += FingerprintAttribute(a);
        out += ",";
      }
      out += ";f=";
      for (const AggCall& c : node.aggregates) {
        out += AggFnName(c.fn);
        out += '(';
        out += FingerprintAttribute(c.arg);
        out += ")->";
        AppendSized(&out, c.out_name);
        out += ',';
      }
      break;
    }
  }
  out += "]";
  return out;
}

std::string SubtreeFingerprint(const OperatorNode& node) {
  std::string out = "(";
  out += NodeFingerprint(node);
  for (const auto& child : node.children) {
    out += ";";
    out += SubtreeFingerprint(*child);
  }
  out += ")";
  return out;
}

}  // namespace ned
