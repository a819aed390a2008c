#include "core/report.h"

#include "common/strings.h"

namespace ned {

std::string AnswerSummary::ToString() const {
  std::string out = "condensed=[" + Join(condensed, ",") + "] detailed=" +
                    std::to_string(detailed.size()) + " secondary=[" +
                    Join(secondary, ",") + "]";
  out += complete ? " (complete)" : " (" + completeness + ")";
  return out;
}

AnswerSummary SummarizeResult(const NedExplainEngine& engine,
                              const NedExplainResult& result) {
  const QueryInput& input = engine.last_input();
  AnswerSummary summary;
  summary.detailed.reserve(result.answer.detailed.size());
  for (const DetailedEntry& entry : result.answer.detailed) {
    summary.detailed.push_back(WhyNotAnswer::EntryToString(entry, input));
  }
  for (const OperatorNode* node : result.answer.condensed) {
    summary.condensed.push_back(node->name);
  }
  for (const OperatorNode* node : result.answer.secondary) {
    summary.secondary.push_back(node->name);
  }
  summary.dir_total = result.dir_total;
  summary.indir_total = result.indir_total;
  for (const CTupleExplainResult& part : result.per_ctuple) {
    summary.survivors_at_root += part.survivors_at_root;
  }
  summary.complete = result.completeness.complete;
  summary.tripped = result.completeness.tripped;
  summary.completeness = result.completeness.ToString();
  summary.subtree_cache_hits = result.subtree_cache_hits;
  summary.subtree_cache_misses = result.subtree_cache_misses;
  return summary;
}

std::string RenderExplainReport(const NedExplainEngine& engine,
                                const WhyNotQuestion& question,
                                const NedExplainResult& result) {
  const QueryInput& input = engine.last_input();
  std::string out;
  out += "Why-Not question: " + question.ToString() + "\n";
  out += "Unrenamed       : " + result.unrenamed.ToString() + "\n";
  out += "Query tree:\n" + engine.tree().ToString();
  if (engine.breakpoint() != nullptr) {
    out += "Breakpoint view V: " + engine.breakpoint()->name + " (" +
           engine.breakpoint()->Describe() + ")\n";
  }
  out += StrCat("|Dir| = ", result.dir_total, ", |InDir| = ",
                result.indir_total, "\n");
  if (!result.completeness.complete) {
    // Honest degradation: say up front that a limit stopped the run and how
    // far it got, so a partial answer is never mistaken for a full one.
    out += "*** PARTIAL RESULT: " + result.completeness.ToString() + " ***\n";
  }
  for (size_t i = 0; i < result.per_ctuple.size(); ++i) {
    const CTupleExplainResult& part = result.per_ctuple[i];
    out += StrCat("-- c-tuple ", i + 1, ": ", part.ctuple.ToString(), "\n");
    if (!part.complete) {
      out += "   limit tripped: " + part.limit_status.ToString() +
             (part.stopped_at != nullptr
                  ? " (while processing " + part.stopped_at->name + ")"
                  : "") +
             "\n";
    }
    for (const auto& [alias, ids] : part.compat.dir_by_alias) {
      std::vector<std::string> names;
      for (TupleId id : ids) names.push_back(input.DisplayTuple(id));
      out += "   Dir|" + alias + " = {" + Join(names, ", ") + "}\n";
    }
    if (part.early_terminated && part.terminated_at != nullptr) {
      out += "   early termination before " + part.terminated_at->name + "\n";
    }
    if (part.survivors_at_root > 0) {
      out += StrCat("   note: ", part.survivors_at_root,
                    " compatible successor(s) reached the result -- the asked "
                    "data may not be missing\n");
    }
    if (!part.tabq_dump.empty()) out += part.tabq_dump;
  }
  out += (result.completeness.complete ? "Answer:\n" : "Answer (partial):\n") +
         result.answer.ToString(input);
  return out;
}

std::string RenderPhaseBreakdown(const PhaseTimer& phases) {
  static const char* kOrder[] = {phase::kInitialization, phase::kCompatibleFinder,
                                 phase::kSuccessorsFinder, phase::kBottomUp};
  int64_t total = phases.TotalNanos();
  std::string out;
  for (const char* name : kOrder) {
    int64_t ns = phases.Nanos(name);
    double pct = total > 0 ? 100.0 * static_cast<double>(ns) /
                                 static_cast<double>(total)
                           : 0.0;
    char buf[128];
    std::snprintf(buf, sizeof(buf), "  %-16s %10.3f ms  (%5.1f%%)\n", name,
                  static_cast<double>(ns) / 1e6, pct);
    out += buf;
  }
  char buf[128];
  std::snprintf(buf, sizeof(buf), "  %-16s %10.3f ms\n", "total",
                static_cast<double>(total) / 1e6);
  out += buf;
  return out;
}

}  // namespace ned
