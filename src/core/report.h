/// \file report.h
/// \brief Human-readable reports of NedExplain runs (examples & benches).

#ifndef NED_CORE_REPORT_H_
#define NED_CORE_REPORT_H_

#include <string>
#include <vector>

#include "core/nedexplain.h"

namespace ned {

/// A self-contained rendering of a NedExplainResult. NedExplainResult holds
/// OperatorNode* / TupleId references into the engine's tree and input
/// instance, so it must not outlive them; AnswerSummary copies everything
/// into strings, making it safe to hand across thread and lifetime
/// boundaries (the service returns these from its workers after the
/// per-request tree and snapshot are gone).
struct AnswerSummary {
  std::vector<std::string> detailed;   ///< "(P.id:604, m0)" per entry
  std::vector<std::string> condensed;  ///< picky subquery names
  std::vector<std::string> secondary;  ///< secondary-answer subquery names
  size_t dir_total = 0;
  size_t indir_total = 0;
  size_t survivors_at_root = 0;
  bool complete = true;
  StatusCode tripped = StatusCode::kOk;
  /// ResultCompleteness::ToString() of the run.
  std::string completeness;
  /// Subtree-cache traffic of the run that produced this answer (both 0
  /// when no cache was attached). Note these describe the *computation*,
  /// not the answer content: the answer-cache key deliberately excludes
  /// them, and a summary replayed from the answer cache reports the
  /// original run's counters.
  size_t subtree_cache_hits = 0;
  size_t subtree_cache_misses = 0;
  /// Reserved: nothing in src/ sets these two, so every answer carries 0
  /// and "" -- the full answer. They keep their slots in the JSON response
  /// (net/wire.cpp) and in answer-store entries (persist/wire.cpp), so
  /// entries written by earlier binaries still load, and perfbench, which
  /// fails any answer carrying a nonzero level, still compiles.
  int degradation_level = 0;
  std::string degradation;

  bool empty() const {
    return detailed.empty() && condensed.empty() && secondary.empty();
  }
  /// One-line "condensed=[m0,m2] detailed=2 (complete)" form.
  std::string ToString() const;
};

/// Copies `result` into an AnswerSummary using the engine's last input
/// instance to render tuples. Call on the thread that ran Explain, while the
/// engine (and its tree/database) are still alive.
AnswerSummary SummarizeResult(const NedExplainEngine& engine,
                              const NedExplainResult& result);

/// Renders a full explanation report: the question, its unrenamed form,
/// compatible-set sizes, per-c-tuple answers and the merged answer; when the
/// engine kept TabQ dumps, those are included (Table 1/2 style).
std::string RenderExplainReport(const NedExplainEngine& engine,
                                const WhyNotQuestion& question,
                                const NedExplainResult& result);

/// Renders the phase breakdown of a run: absolute ms and percentages in the
/// paper's Fig. 5 phase order.
std::string RenderPhaseBreakdown(const PhaseTimer& phases);

}  // namespace ned

#endif  // NED_CORE_REPORT_H_
