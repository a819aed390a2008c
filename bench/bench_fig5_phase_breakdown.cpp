/// \file bench_fig5_phase_breakdown.cpp
/// \brief Regenerates paper Fig. 5: per-use-case distribution of NedExplain's
/// runtime over its four phases (Initialization, CompatibleFinder,
/// SuccessorsFinder, Bottom-Up traversal).
///
/// Paper shape (Sec. 4.3): SPJ use cases are dominated by Initialization,
/// with SuccessorsFinder second; SPJA use cases shift weight to
/// SuccessorsFinder (the extra aggregation checks of Alg. 3). Measured here
/// (EXPERIMENTS.md): operator evaluation (Bottom-Up) dominates every case,
/// and with bitmap membership tests and cond-alpha aggregating only the
/// asked group, the SPJA cases' SuccessorsFinder share (11-13%) no longer
/// stands above the SPJ cases' (up to 14%, Gov5).
///
/// Cross-check: after the timer-derived table, each use case runs once more
/// with an obs::Trace attached and the four phase totals are re-derived from
/// the span tree (Trace::PhaseNanos). PhasedSpanScope charges the timer and
/// the span from one pair of clock readings, so the two derivations must be
/// *equal*, not merely close -- any divergence exits non-zero. This is the
/// executable form of the docs/OBSERVABILITY.md "Fig. 5 from spans" recipe.

#include <iostream>

#include "common/strings.h"
#include "core/nedexplain.h"
#include "datasets/use_cases.h"
#include "exec/exec_context.h"
#include "obs/trace.h"

int main() {
  using namespace ned;

  auto registry_result = UseCaseRegistry::Build();
  if (!registry_result.ok()) {
    std::cerr << registry_result.status().ToString() << "\n";
    return 1;
  }
  const UseCaseRegistry registry = std::move(registry_result).value();

  constexpr int kRepetitions = 7;
  static const char* kPhases[] = {phase::kInitialization,
                                  phase::kCompatibleFinder,
                                  phase::kSuccessorsFinder, phase::kBottomUp};

  std::vector<std::vector<std::string>> rows;
  for (const UseCase& uc : registry.use_cases()) {
    auto tree_result = registry.BuildTree(uc);
    if (!tree_result.ok()) continue;
    QueryTree tree = std::move(tree_result).value();
    const Database& db = registry.database(uc.db_name);
    auto engine = NedExplainEngine::Create(&tree, &db);
    if (!engine.ok()) continue;

    // Accumulate phases over repetitions (fresh input per Explain call).
    PhaseTimer total;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      auto result = engine->Explain(uc.question);
      if (!result.ok()) {
        std::cerr << uc.name << ": " << result.status().ToString() << "\n";
        break;
      }
      for (const auto& [name, ns] : result->phases.phases()) {
        total.Add(name, ns);
      }
    }
    int64_t sum = total.TotalNanos();
    std::vector<std::string> row = {uc.name};
    std::string bar;
    static const char kGlyph[] = {'#', '+', '=', '-'};
    for (size_t p = 0; p < 4; ++p) {
      double pct = sum > 0 ? 100.0 * static_cast<double>(total.Nanos(kPhases[p])) /
                                 static_cast<double>(sum)
                           : 0.0;
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%5.1f%%", pct);
      row.push_back(buf);
      bar.append(static_cast<size_t>(pct / 2.5 + 0.5), kGlyph[p]);
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(sum) / 1e6 / kRepetitions);
    row.push_back(buf);
    row.push_back(bar);
    rows.push_back(std::move(row));
  }

  std::cout << "== Fig. 5: NedExplain %time distribution per phase ==\n";
  std::cout << RenderTable({"Use case", "Init", "CompatFinder", "SuccFinder",
                            "Bottom-Up", "total ms", "bar (#=Init +=Compat ==Succ -=BottomUp)"},
                           rows);

  // ---- trace-derived cross-check -------------------------------------------
  // One traced run per use case: the PhaseTimer totals in result->phases and
  // the span-derived totals from Trace::PhaseNanos come from the same clock
  // readings (PhasedSpanScope), so they must agree exactly.
  int mismatches = 0;
  int checked = 0;
  for (const UseCase& uc : registry.use_cases()) {
    auto tree_result = registry.BuildTree(uc);
    if (!tree_result.ok()) continue;
    QueryTree tree = std::move(tree_result).value();
    const Database& db = registry.database(uc.db_name);
    auto engine = NedExplainEngine::Create(&tree, &db);
    if (!engine.ok()) continue;

    obs::Trace trace;
    ExecContext ctx;
    ctx.set_trace(&trace);
    auto result = engine->Explain(uc.question, &ctx);
    if (!result.ok()) {
      std::cerr << uc.name << " (traced): " << result.status().ToString()
                << "\n";
      ++mismatches;
      continue;
    }
    ++checked;
    for (const char* phase : kPhases) {
      const int64_t timer_ns = result->phases.Nanos(phase);
      const int64_t span_ns = trace.PhaseNanos(phase);
      if (timer_ns != span_ns) {
        std::cerr << "FAIL " << uc.name << ": phase " << phase
                  << " timer-derived " << timer_ns << " ns != span-derived "
                  << span_ns << " ns\n";
        ++mismatches;
      }
    }
  }
  if (mismatches > 0) {
    std::cerr << "bench_fig5: trace-derived phase totals diverged from the "
                 "bespoke timers ("
              << mismatches << " mismatches)\n";
    return 1;
  }
  std::cout << "trace cross-check: span-derived phase totals equal "
               "timer-derived totals on all "
            << checked << " use cases\n";
  return 0;
}
