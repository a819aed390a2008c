#include "testing/difftest.h"

#include <algorithm>
#include <filesystem>
#include <set>
#include <utility>

#include "baseline/whynot_baseline.h"
#include "common/atomic_file.h"
#include "common/csv.h"
#include "common/strings.h"
#include "core/nedexplain.h"
#include "exec/evaluator.h"
#include "sql/binder.h"

namespace ned {
namespace {

using DetailedSet = std::set<std::pair<TupleId, const OperatorNode*>>;
using NodeSet = std::set<const OperatorNode*>;

std::string TupleName(TupleId id) {
  if (id == kInvalidTupleId) return "⊥";
  return StrCat("t", TupleIdAlias(id), ":", TupleIdRow(id));
}

std::string NodeName(const OperatorNode* n) { return n ? n->name : "<null>"; }

std::string FormatDetailed(const DetailedSet& s) {
  std::vector<std::string> parts;
  for (const auto& [id, node] : s) {
    parts.push_back("(" + TupleName(id) + ", " + NodeName(node) + ")");
  }
  return "{" + Join(parts, ", ") + "}";
}

std::string FormatNodes(const NodeSet& s) {
  std::vector<std::string> parts;
  for (const OperatorNode* n : s) parts.push_back(NodeName(n));
  std::sort(parts.begin(), parts.end());
  return "{" + Join(parts, ", ") + "}";
}

std::string FormatIds(const std::set<TupleId>& s) {
  std::vector<std::string> parts;
  for (TupleId id : s) parts.push_back(TupleName(id));
  return "{" + Join(parts, ", ") + "}";
}

/// Order-insensitive rendering of a c-tuple: the engine and the oracle may
/// emit unrenamed fields in different orders, which Def. 2.7 does not fix.
std::string CanonicalCTuple(const CTuple& tc) {
  std::vector<std::string> fields;
  for (const auto& [attr, cv] : tc.fields()) {
    fields.push_back(attr.FullName() + ":" + cv.ToString());
  }
  std::sort(fields.begin(), fields.end());
  std::vector<std::string> conds;
  for (const CPred& p : tc.cond()) conds.push_back(p.ToString());
  std::sort(conds.begin(), conds.end());
  std::string out = "(" + Join(fields, ", ") + ")";
  if (!conds.empty()) out += " where " + Join(conds, " AND ");
  return out;
}

DetailedSet ToDetailedSet(const std::vector<DetailedEntry>& v) {
  DetailedSet s;
  for (const DetailedEntry& e : v) s.emplace(e.dir_tuple, e.subquery);
  return s;
}

NodeSet ToNodeSet(const std::vector<const OperatorNode*>& v) {
  return NodeSet(v.begin(), v.end());
}

template <typename T>
std::set<TupleId> ToIdSet(const T& unordered) {
  return std::set<TupleId>(unordered.begin(), unordered.end());
}

void Mismatch(DiffOutcome* out, const std::string& kind, std::string detail) {
  out->mismatches.push_back({kind, std::move(detail)});
}

/// Compares one answer triple; `where` tags the comparison context
/// (e.g. "ctuple 0, ET on").
void CompareAnswer(const OracleAnswer& oracle, const WhyNotAnswer& engine,
                   const std::string& where, bool inject_divergence,
                   DiffOutcome* out) {
  DetailedSet engine_detailed = ToDetailedSet(engine.detailed);
  NodeSet engine_condensed = ToNodeSet(engine.condensed);
  NodeSet engine_secondary = ToNodeSet(engine.secondary);
  if (inject_divergence && !engine_condensed.empty()) {
    engine_condensed.erase(engine_condensed.begin());
  }
  if (engine_detailed != oracle.detailed) {
    Mismatch(out, "detailed",
             StrCat(where, ": engine ", FormatDetailed(engine_detailed),
                    " vs oracle ", FormatDetailed(oracle.detailed)));
  }
  if (engine_condensed != oracle.condensed) {
    Mismatch(out, "condensed",
             StrCat(where, ": engine ", FormatNodes(engine_condensed),
                    " vs oracle ", FormatNodes(oracle.condensed)));
  }
  if (engine_secondary != oracle.secondary) {
    Mismatch(out, "secondary",
             StrCat(where, ": engine ", FormatNodes(engine_secondary),
                    " vs oracle ", FormatNodes(oracle.secondary)));
  }
}

/// Runs the engine once; returns the status (error, or OK with `*result`
/// filled).
Status RunEngine(const QueryTree& tree, const Database& db,
                 const WhyNotQuestion& question, bool early_termination,
                 NedExplainResult* result) {
  NedExplainOptions options;
  options.enable_early_termination = early_termination;
  options.compute_secondary = true;
  auto engine = NedExplainEngine::Create(&tree, &db, options);
  if (!engine.ok()) return engine.status();
  auto res = engine->Explain(question);
  if (!res.ok()) return res.status();
  *result = std::move(*res);
  return Status::OK();
}

void CompareBaselines(const QueryTree& tree, const Database& db,
                      const WhyNotQuestion& question, DiffOutcome* out) {
  WhyNotBaselineResult results[2];
  for (int i = 0; i < 2; ++i) {
    auto traversal =
        i == 0 ? BaselineTraversal::kBottomUp : BaselineTraversal::kTopDown;
    auto baseline = WhyNotBaseline::Create(&tree, &db, traversal);
    if (!baseline.ok()) {
      Mismatch(out, "baseline",
               StrCat("baseline Create failed: ", baseline.status().ToString()));
      return;
    }
    auto res = baseline->Explain(question);
    if (!res.ok()) {
      Mismatch(out, "baseline",
               StrCat("baseline Explain failed: ", res.status().ToString()));
      return;
    }
    results[i] = std::move(*res);
  }
  if (results[0].supported != results[1].supported) {
    Mismatch(out, "baseline",
             StrCat("support disagrees: bottom-up ", results[0].supported,
                    " vs top-down ", results[1].supported));
    return;
  }
  if (!results[0].supported) return;  // "n.a." on both sides: nothing to diff
  if (ToNodeSet(results[0].answer) != ToNodeSet(results[1].answer)) {
    Mismatch(out, "baseline",
             StrCat("frontier picky disagrees: bottom-up ",
                    FormatNodes(ToNodeSet(results[0].answer)), " vs top-down ",
                    FormatNodes(ToNodeSet(results[1].answer))));
  }
  if (results[0].per_ctuple.size() == results[1].per_ctuple.size()) {
    for (size_t i = 0; i < results[0].per_ctuple.size(); ++i) {
      const auto& bu = results[0].per_ctuple[i];
      const auto& td = results[1].per_ctuple[i];
      if (bu.frontier_picky != td.frontier_picky ||
          bu.answer_deemed_present != td.answer_deemed_present) {
        Mismatch(out, "baseline",
                 StrCat("ctuple ", i, ": bottom-up (",
                        NodeName(bu.frontier_picky), ", present=",
                        bu.answer_deemed_present, ") vs top-down (",
                        NodeName(td.frontier_picky), ", present=",
                        td.answer_deemed_present, ")"));
      }
    }
  }
}

/// Sorted multiset of a node output's rows, as value strings.
Result<std::vector<std::string>> RootRows(const QueryTree& tree,
                                          const Database& db) {
  NED_ASSIGN_OR_RETURN(QueryInput input, QueryInput::Build(tree, db));
  Evaluator evaluator(&tree, &input);
  NED_ASSIGN_OR_RETURN(const Block* out, evaluator.EvalAll());
  std::vector<std::string> rows;
  for (size_t row = 0; row < out->size(); ++row) {
    std::vector<std::string> vals;
    for (const Value& v : out->values(row)) vals.push_back(v.ToString());
    rows.push_back(Join(vals, "|"));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

void CheckSqlRoundTrip(const GenWorkload& w, const Database& db,
                       const QueryTree& tree, DiffOutcome* out) {
  std::string sql = SpecToSql(w.spec);
  if (sql.empty()) {
    Mismatch(out, "sql-roundtrip", "generated spec is not printable as SQL");
    return;
  }
  auto tree2 = CompileSql(sql, db);
  if (!tree2.ok()) {
    Mismatch(out, "sql-roundtrip",
             StrCat("printed SQL fails to compile: ", tree2.status().ToString(),
                    "\n  sql: ", sql));
    return;
  }
  auto rows1 = RootRows(tree, db);
  auto rows2 = RootRows(*tree2, db);
  if (!rows1.ok() || !rows2.ok()) {
    // Evaluation errors (e.g. a planted type clash) must at least agree.
    StatusCode c1 = rows1.ok() ? StatusCode::kOk : rows1.status().code();
    StatusCode c2 = rows2.ok() ? StatusCode::kOk : rows2.status().code();
    if (c1 != c2) {
      Mismatch(out, "sql-roundtrip",
               StrCat("evaluation status disagrees: spec ",
                      rows1.ok() ? "OK" : rows1.status().ToString(),
                      " vs sql ",
                      rows2.ok() ? "OK" : rows2.status().ToString()));
    }
    return;
  }
  if (*rows1 != *rows2) {
    Mismatch(out, "sql-roundtrip",
             StrCat("root result differs (", rows1->size(), " vs ",
                    rows2->size(), " rows)\n  sql: ", sql));
  }
}

}  // namespace

bool DiffOutcome::HasKind(const std::string& kind) const {
  for (const DiffMismatch& m : mismatches) {
    if (m.kind == kind) return true;
  }
  return false;
}

std::string DiffOutcome::Summary() const {
  std::string out = StrCat("seed ", seed, " (", scenario, "): ");
  if (mismatches.empty()) {
    out += ran ? "ok" : StrCat("skipped (", note, ")");
    return out;
  }
  out += StrCat(mismatches.size(), " mismatch(es)\n");
  for (const DiffMismatch& m : mismatches) {
    out += StrCat("  [", m.kind, "] ", m.detail, "\n");
  }
  out += "  repro: " + ReproCommand(seed);
  return out;
}

DiffOutcome RunDiff(const QueryTree& tree, const Database& db,
                    const WhyNotQuestion& question, const DiffOptions& opts) {
  DiffOutcome out;

  auto oracle = OracleExplain(tree, db, question);
  NedExplainResult engine;
  Status engine_status = RunEngine(tree, db, question,
                                   /*early_termination=*/false, &engine);

  // Error agreement: both sides must accept or reject with the same code.
  if (!oracle.ok() || !engine_status.ok()) {
    StatusCode oc = oracle.ok() ? StatusCode::kOk : oracle.status().code();
    StatusCode ec = engine_status.ok() ? StatusCode::kOk : engine_status.code();
    if (oc != ec) {
      Mismatch(&out, "status",
               StrCat("oracle ",
                      oracle.ok() ? "OK" : oracle.status().ToString(),
                      " vs engine ",
                      engine_status.ok() ? "OK" : engine_status.ToString()));
    } else {
      out.note = StrCat("both rejected: ", engine_status.ToString());
    }
    return out;
  }
  out.ran = true;

  // Unrenamed question (Def. 2.7).
  const auto& engine_unrenamed = engine.unrenamed.ctuples();
  if (engine_unrenamed.size() != oracle->unrenamed.size()) {
    Mismatch(&out, "unrenamed",
             StrCat("count: engine ", engine_unrenamed.size(), " vs oracle ",
                    oracle->unrenamed.size()));
  } else {
    for (size_t i = 0; i < engine_unrenamed.size(); ++i) {
      std::string e = CanonicalCTuple(engine_unrenamed[i]);
      std::string o = CanonicalCTuple(oracle->unrenamed[i]);
      if (e != o) {
        Mismatch(&out, "unrenamed",
                 StrCat("ctuple ", i, ": engine ", e, " vs oracle ", o));
      }
    }
  }

  // Per-c-tuple compatible sets, survivors and answers (ET off = full run).
  if (engine.per_ctuple.size() != oracle->per_ctuple.size()) {
    Mismatch(&out, "status",
             StrCat("per-ctuple count: engine ", engine.per_ctuple.size(),
                    " vs oracle ", oracle->per_ctuple.size()));
    return out;
  }
  for (size_t i = 0; i < engine.per_ctuple.size(); ++i) {
    const CTupleExplainResult& e = engine.per_ctuple[i];
    const OracleCTupleResult& o = oracle->per_ctuple[i];
    std::string where = StrCat("ctuple ", i, " (ET off)");
    if (ToIdSet(e.compat.dir) != o.dir) {
      Mismatch(&out, "dir",
               StrCat(where, ": engine ", FormatIds(ToIdSet(e.compat.dir)),
                      " vs oracle ", FormatIds(o.dir)));
    }
    if (ToIdSet(e.compat.indir) != o.indir) {
      Mismatch(&out, "indir",
               StrCat(where, ": engine ", FormatIds(ToIdSet(e.compat.indir)),
                      " vs oracle ", FormatIds(o.indir)));
    }
    if (e.survivors_at_root != o.survivors_at_root) {
      Mismatch(&out, "survivors",
               StrCat(where, ": engine ", e.survivors_at_root, " vs oracle ",
                      o.survivors_at_root));
    }
    CompareAnswer(o.answer, e.answer, where, opts.inject_divergence, &out);
  }
  CompareAnswer(oracle->answer, engine.answer, "question (ET off)",
                opts.inject_divergence, &out);

  // Early termination must not change any answer granularity (Alg. 2).
  if (opts.check_early_termination) {
    NedExplainResult engine_et;
    Status et_status = RunEngine(tree, db, question,
                                 /*early_termination=*/true, &engine_et);
    if (!et_status.ok()) {
      Mismatch(&out, "status",
               StrCat("ET-on run failed: ", et_status.ToString()));
    } else if (engine_et.per_ctuple.size() != oracle->per_ctuple.size()) {
      Mismatch(&out, "status",
               StrCat("ET-on per-ctuple count: ", engine_et.per_ctuple.size(),
                      " vs oracle ", oracle->per_ctuple.size()));
    } else {
      for (size_t i = 0; i < engine_et.per_ctuple.size(); ++i) {
        CompareAnswer(oracle->per_ctuple[i].answer,
                      engine_et.per_ctuple[i].answer,
                      StrCat("ctuple ", i, " (ET on)"), opts.inject_divergence,
                      &out);
      }
      CompareAnswer(oracle->answer, engine_et.answer, "question (ET on)",
                    opts.inject_divergence, &out);
    }
  }

  // Baseline bottom-up vs top-down ([2] claims their equivalence).
  if (opts.check_baseline) CompareBaselines(tree, db, question, &out);

  return out;
}

DiffOutcome RunDiffOnWorkload(const GenWorkload& w, const DiffOptions& opts) {
  DiffOutcome out;
  out.seed = w.seed;
  out.scenario = w.scenario;
  auto compiled = CompileWorkload(w);
  if (!compiled.ok()) {
    Mismatch(&out, "compile",
             StrCat("workload does not compile: ",
                    compiled.status().ToString()));
    return out;
  }
  DiffOutcome diff = RunDiff(*compiled->tree, *compiled->db, w.question, opts);
  out.ran = diff.ran;
  out.note = diff.note;
  out.mismatches = std::move(diff.mismatches);
  if (opts.check_sql_roundtrip) {
    CheckSqlRoundTrip(w, *compiled->db, *compiled->tree, &out);
  }
  return out;
}

DiffOutcome RunDiffSeed(uint64_t seed, const DiffOptions& opts) {
  return RunDiffOnWorkload(MakeDiffWorkload(seed), opts);
}

// ---------------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------------

namespace {

Relation RemoveRowRange(const Relation& r, size_t start, size_t count) {
  Relation out(r.name(), r.schema());
  for (size_t i = 0; i < r.size(); ++i) {
    if (i >= start && i < start + count) continue;
    out.AddRow(r.row(i).values());
  }
  return out;
}

/// Drops question condition predicates mentioning variables that no field
/// binds anymore.
void PruneDanglingConds(CTuple* tc) {
  std::set<std::string> bound;
  for (const auto& [attr, cv] : tc->fields()) {
    if (cv.is_var) bound.insert(cv.var);
  }
  CTuple pruned;
  for (const auto& [attr, cv] : tc->fields()) pruned.AddField(attr, cv);
  for (const CPred& p : tc->cond()) {
    if (!bound.count(p.lhs_var)) continue;
    if (p.rhs_is_var && !bound.count(p.rhs_var)) continue;
    pruned.Where(p);
  }
  *tc = std::move(pruned);
}

CTuple WithoutField(const CTuple& tc, size_t field_index) {
  CTuple out;
  for (size_t i = 0; i < tc.fields().size(); ++i) {
    if (i == field_index) continue;
    out.AddField(tc.fields()[i].first, tc.fields()[i].second);
  }
  for (const CPred& p : tc.cond()) out.Where(p);
  PruneDanglingConds(&out);
  return out;
}

WhyNotQuestion RebuildQuestion(const std::vector<CTuple>& ctuples) {
  WhyNotQuestion q;
  for (const CTuple& tc : ctuples) q.AddCTuple(tc);
  return q;
}

}  // namespace

ShrinkResult ShrinkWorkload(const GenWorkload& w, const DiffOptions& opts) {
  ShrinkResult result;
  result.workload = w;
  result.outcome = RunDiffOnWorkload(w, opts);
  if (result.outcome.ok()) return result;  // nothing to shrink

  std::set<std::string> original_kinds;
  for (const DiffMismatch& m : result.outcome.mismatches) {
    original_kinds.insert(m.kind);
  }
  // A candidate counts as "still failing" only when it reproduces one of the
  // original mismatch kinds; otherwise shrinking could drift onto an
  // unrelated artifact of the mutation itself.
  auto still_fails = [&](const GenWorkload& cand, DiffOutcome* outcome) {
    ++result.tried;
    *outcome = RunDiffOnWorkload(cand, opts);
    for (const DiffMismatch& m : outcome->mismatches) {
      if (original_kinds.count(m.kind)) return true;
    }
    return false;
  };
  auto accept = [&](GenWorkload cand, DiffOutcome outcome) {
    result.workload = std::move(cand);
    result.outcome = std::move(outcome);
    ++result.accepted;
  };

  const size_t kMaxAttempts = 800;
  bool progress = true;
  while (progress && result.tried < kMaxAttempts) {
    progress = false;
    GenWorkload& cur = result.workload;

    // 1. Row chunks, largest first (ddmin-style halving per relation).
    for (size_t ri = 0; ri < cur.relations.size(); ++ri) {
      for (size_t chunk = std::max<size_t>(cur.relations[ri].size() / 2, 1);
           ; chunk /= 2) {
        size_t start = 0;
        while (start < result.workload.relations[ri].size() &&
               result.tried < kMaxAttempts) {
          GenWorkload cand = result.workload;
          cand.relations[ri] = RemoveRowRange(cand.relations[ri], start, chunk);
          DiffOutcome outcome;
          if (still_fails(cand, &outcome)) {
            accept(std::move(cand), std::move(outcome));
            progress = true;
          } else {
            start += chunk;
          }
        }
        if (chunk <= 1) break;
      }
    }

    // 2. Selection conjuncts.
    for (size_t bi = 0; bi < result.workload.spec.blocks.size(); ++bi) {
      size_t si = 0;
      while (si < result.workload.spec.blocks[bi].selections.size() &&
             result.tried < kMaxAttempts) {
        GenWorkload cand = result.workload;
        auto& sels = cand.spec.blocks[bi].selections;
        sels.erase(sels.begin() + static_cast<ptrdiff_t>(si));
        DiffOutcome outcome;
        if (still_fails(cand, &outcome)) {
          accept(std::move(cand), std::move(outcome));
          progress = true;
        } else {
          ++si;
        }
      }
    }

    // 3. Trailing set-operation blocks.
    while (result.workload.spec.blocks.size() > 1 &&
           result.tried < kMaxAttempts) {
      GenWorkload cand = result.workload;
      cand.spec.blocks.pop_back();
      if (!cand.spec.set_ops.empty()) cand.spec.set_ops.pop_back();
      DiffOutcome outcome;
      if (!still_fails(cand, &outcome)) break;
      accept(std::move(cand), std::move(outcome));
      progress = true;
    }

    // 4. Question: whole c-tuples, then fields, then condition predicates.
    {
      std::vector<CTuple> ctuples = result.workload.question.ctuples();
      size_t ci = 0;
      while (ctuples.size() > 1 && ci < ctuples.size() &&
             result.tried < kMaxAttempts) {
        std::vector<CTuple> reduced = ctuples;
        reduced.erase(reduced.begin() + static_cast<ptrdiff_t>(ci));
        GenWorkload cand = result.workload;
        cand.question = RebuildQuestion(reduced);
        DiffOutcome outcome;
        if (still_fails(cand, &outcome)) {
          accept(std::move(cand), std::move(outcome));
          ctuples = std::move(reduced);
          progress = true;
        } else {
          ++ci;
        }
      }
      for (size_t c = 0; c < ctuples.size(); ++c) {
        size_t fi = 0;
        while (ctuples[c].fields().size() > 1 &&
               fi < ctuples[c].fields().size() &&
               result.tried < kMaxAttempts) {
          std::vector<CTuple> reduced = ctuples;
          reduced[c] = WithoutField(ctuples[c], fi);
          GenWorkload cand = result.workload;
          cand.question = RebuildQuestion(reduced);
          DiffOutcome outcome;
          if (still_fails(cand, &outcome)) {
            accept(std::move(cand), std::move(outcome));
            ctuples = std::move(reduced);
            progress = true;
          } else {
            ++fi;
          }
        }
        size_t pi = 0;
        while (pi < ctuples[c].cond().size() && result.tried < kMaxAttempts) {
          std::vector<CTuple> reduced = ctuples;
          CTuple rebuilt;
          for (const auto& [attr, cv] : ctuples[c].fields()) {
            rebuilt.AddField(attr, cv);
          }
          for (size_t p = 0; p < ctuples[c].cond().size(); ++p) {
            if (p != pi) rebuilt.Where(ctuples[c].cond()[p]);
          }
          reduced[c] = std::move(rebuilt);
          GenWorkload cand = result.workload;
          cand.question = RebuildQuestion(reduced);
          DiffOutcome outcome;
          if (still_fails(cand, &outcome)) {
            accept(std::move(cand), std::move(outcome));
            ctuples = std::move(reduced);
            progress = true;
          } else {
            ++pi;
          }
        }
      }
    }
  }

  result.workload.scenario = w.scenario + " (shrunk)";
  result.outcome.scenario = result.workload.scenario;
  return result;
}

// ---------------------------------------------------------------------------
// Repro serialization
// ---------------------------------------------------------------------------

namespace {

std::string ValueCode(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return "Value::Null()";
    case ValueType::kInt:
      return StrCat("Value::Int(", v.as_int(), ")");
    case ValueType::kDouble:
      return StrCat("Value::Real(", v.as_double(), ")");
    case ValueType::kString:
      return StrCat("Value::Str(\"", v.as_string(), "\")");
  }
  return "Value::Null()";
}

const char* CompareOpCode(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return "CompareOp::kEq";
    case CompareOp::kNe: return "CompareOp::kNe";
    case CompareOp::kLt: return "CompareOp::kLt";
    case CompareOp::kLe: return "CompareOp::kLe";
    case CompareOp::kGt: return "CompareOp::kGt";
    case CompareOp::kGe: return "CompareOp::kGe";
  }
  return "CompareOp::kEq";
}

std::string CsvCell(const Value& v) {
  return v.type() == ValueType::kNull ? "" : v.ToString();
}

}  // namespace

std::string ReproCommand(uint64_t seed) {
  return StrCat("build/tools/ned_difftest --seeds ", seed, "..", seed,
                " --shrink");
}

std::string ReproGTestCase(const GenWorkload& w) {
  std::string sql = SpecToSql(w.spec);
  std::string out = StrCat(
      "// Differential repro for seed ", w.seed, " (", w.scenario, ").\n",
      "// Generated by the ned_difftest shrinker; self-contained.\n",
      "TEST(DiffRepro, Seed", w.seed, ") {\n", "  Database db;\n");
  for (const Relation& r : w.relations) {
    out += "  {\n";
    std::vector<std::string> attrs;
    for (const Attribute& a : r.schema().attributes()) {
      attrs.push_back(StrCat("{\"", a.qualifier, "\", \"", a.name, "\"}"));
    }
    out += StrCat("    Relation r(\"", r.name(), "\", Schema({",
                  Join(attrs, ", "), "}));\n");
    for (size_t i = 0; i < r.size(); ++i) {
      std::vector<std::string> vals;
      for (const Value& v : r.row(i).values()) vals.push_back(ValueCode(v));
      out += StrCat("    r.AddRow({", Join(vals, ", "), "});\n");
    }
    out += "    ASSERT_TRUE(db.AddRelation(std::move(r)).ok());\n  }\n";
  }
  out += StrCat("  auto tree = CompileSql(\"", sql, "\", db);\n",
                "  ASSERT_TRUE(tree.ok()) << tree.status().ToString();\n",
                "  WhyNotQuestion q;\n");
  for (size_t c = 0; c < w.question.ctuples().size(); ++c) {
    const CTuple& tc = w.question.ctuples()[c];
    std::string var = StrCat("tc", c);
    out += StrCat("  CTuple ", var, ";\n");
    for (const auto& [attr, cv] : tc.fields()) {
      if (cv.is_var) {
        out += StrCat("  ", var, ".AddVar(\"", attr.FullName(), "\", \"",
                      cv.var, "\");\n");
      } else {
        out += StrCat("  ", var, ".Add(\"", attr.FullName(), "\", ",
                      ValueCode(cv.constant), ");\n");
      }
    }
    for (const CPred& p : tc.cond()) {
      if (p.rhs_is_var) {
        out += StrCat("  ", var, ".Where(CPred::VsVar(\"", p.lhs_var, "\", ",
                      CompareOpCode(p.op), ", \"", p.rhs_var, "\"));\n");
      } else {
        out += StrCat("  ", var, ".Where(\"", p.lhs_var, "\", ",
                      CompareOpCode(p.op), ", ", ValueCode(p.rhs_const),
                      ");\n");
      }
    }
    out += StrCat("  q.AddCTuple(", var, ");\n");
  }
  out += StrCat("  DiffOutcome outcome = RunDiff(*tree, db, q);\n",
                "  EXPECT_TRUE(outcome.ok()) << outcome.Summary();\n", "}\n");
  return out;
}

Status WriteRepro(const GenWorkload& w, const DiffOutcome& outcome,
                  const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status(StatusCode::kInternal,
                  StrCat("cannot create ", dir, ": ", ec.message()));
  }
  std::string stem = StrCat(dir, "/seed", w.seed);
  for (const Relation& r : w.relations) {
    std::vector<std::vector<std::string>> rows;
    std::vector<std::string> header;
    for (const Attribute& a : r.schema().attributes()) header.push_back(a.name);
    rows.push_back(std::move(header));
    for (size_t i = 0; i < r.size(); ++i) {
      std::vector<std::string> cells;
      for (const Value& v : r.row(i).values()) cells.push_back(CsvCell(v));
      rows.push_back(std::move(cells));
    }
    // Atomic writes: a crash (or ^C) mid-repro must never leave a torn CSV
    // that a later "repro from disk" run silently loads.
    NED_RETURN_NOT_OK(
        AtomicWriteFile(StrCat(stem, "_", r.name(), ".csv"), WriteCsv(rows)));
  }
  std::string sql_file = StrCat("-- seed ", w.seed, " (", w.scenario, ")\n",
                                "-- why-not: ", w.question.ToString(), "\n");
  for (const DiffMismatch& m : outcome.mismatches) {
    std::string one_line = m.detail;
    std::replace(one_line.begin(), one_line.end(), '\n', ' ');
    sql_file += StrCat("-- mismatch [", m.kind, "]: ", one_line, "\n");
  }
  std::string sql = SpecToSql(w.spec);
  sql_file += (sql.empty() ? "-- <spec not printable as SQL>" : sql) + "\n";
  NED_RETURN_NOT_OK(AtomicWriteFile(stem + ".sql", sql_file));
  return AtomicWriteFile(stem + "_test.cc", ReproGTestCase(w));
}

}  // namespace ned
