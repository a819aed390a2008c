/// \file bench_cache.cpp
/// \brief Caching performance: cold overhead and warm speedup on the Fig. 6
/// workloads (the paper's 19 use cases).
///
/// Three engine configurations per use case, measured interleaved so drift
/// hits them equally:
///   off  -- no caches (the pre-PR baseline),
///   cold -- a fresh SubtreeCache per run: pays key derivation + inserts and
///           never hits (worst case; the <3% overhead budget),
///   warm -- a primed, shared SubtreeCache: every non-leaf subtree replays
///           (the repeated-question fast path at the engine layer).
/// Plus the service-level repeated-question path:
///   answer -- Submit-time replay from the answer tier's memory half
///             (no admission, no execution), end-to-end vs. an executing
///             submit with the tier bypassed.
///
/// Emits BENCH_cache.json with per-case medians and aggregate medians; the
/// acceptance targets are >= 5x warm median speedup on repeated questions
/// and < 3% cold overhead. `--smoke` is the CI-sized run (also the exit-code
/// gate: it fails when a warm run recomputes anything).
///
/// Usage: bench_cache [--reps N] [--smoke] [--out path.json]

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cache/subtree_cache.h"
#include "common/strings.h"
#include "core/nedexplain.h"
#include "core/report.h"
#include "datasets/use_cases.h"
#include "relational/catalog.h"
#include "service/service.h"

namespace {

using ned::AnswerSummary;
using ned::Catalog;
using ned::Database;
using ned::NedExplainEngine;
using ned::NedExplainOptions;
using ned::NedExplainResult;
using ned::ServiceOptions;
using ned::SubtreeCache;
using ned::UseCase;
using ned::UseCaseRegistry;
using ned::WhyNotRequest;
using ned::WhyNotResponse;
using ned::WhyNotService;

double MedianMs(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

struct CaseResult {
  std::string name;
  double off_ms = 0;     ///< no caches
  double cold_ms = 0;    ///< fresh subtree cache: all misses + inserts
  double warm_ms = 0;    ///< primed subtree cache: all hits
  double answer_ms = 0;  ///< answer-cache replay at Submit (end to end)
  uint64_t warm_hits = 0;
  uint64_t warm_misses = 0;  ///< must be 0, asserted

  double warm_speedup() const { return warm_ms > 0 ? off_ms / warm_ms : 0; }
  double answer_speedup() const {
    return answer_ms > 0 ? off_ms / answer_ms : 0;
  }
  double cold_overhead() const {
    return off_ms > 0 ? cold_ms / off_ms - 1.0 : 0;
  }
};

double TimeExplainMs(const ned::QueryTree& tree, const Database& db,
                     const UseCase& uc, const NedExplainOptions& options,
                     NedExplainResult* out_result = nullptr) {
  auto engine = NedExplainEngine::Create(&tree, &db, options);
  NED_CHECK_MSG(engine.ok(), engine.status().ToString());
  const auto start = std::chrono::steady_clock::now();
  auto result = engine->Explain(uc.question);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  NED_CHECK_MSG(result.ok(), result.status().ToString());
  NED_CHECK_MSG(result->completeness.complete, "benchmark run was partial");
  if (out_result != nullptr) *out_result = std::move(*result);
  return ms;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 9;
  bool smoke = false;
  std::string out_path = "BENCH_cache.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--reps" && i + 1 < argc) {
      reps = std::stoi(argv[++i]);
    } else if (arg == "--smoke") {
      smoke = true;
      reps = 3;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_cache [--reps N] [--smoke] [--out path.json]\n";
      return 2;
    }
  }

  auto registry = UseCaseRegistry::Build();
  if (!registry.ok()) {
    std::cerr << registry.status().ToString() << "\n";
    return 1;
  }
  const std::vector<UseCase>& cases = registry->use_cases();

  // One service for the answer-path measurements; single worker so exec_ms
  // comparisons are scheduling-free.
  auto catalog = std::make_shared<Catalog>();
  for (const char* name : {"crime", "imdb", "gov"}) {
    Database copy = registry->database(name);
    NED_CHECK(catalog->Register(name, std::move(copy)).ok());
  }
  ServiceOptions service_options;
  service_options.workers = 1;
  service_options.queue_capacity = 64;
  service_options.default_deadline_ms = 60'000;
  WhyNotService service(catalog, service_options);

  std::cout << "bench_cache: " << cases.size() << " Fig. 6 use cases, "
            << reps << " reps (median)\n";
  std::cout << "case      off_ms   cold_ms  warm_ms  answr_ms  warm_x  "
               "answr_x  cold_ovh\n";

  int failures = 0;
  std::vector<CaseResult> results;
  for (const UseCase& uc : cases) {
    auto tree = registry->BuildTree(uc);
    NED_CHECK_MSG(tree.ok(), tree.status().ToString());
    const Database& db = registry->database(uc.db_name);

    // The true cache-free baseline: a disabled (zero-budget) cache opts out
    // even when NED_FORCE_SUBTREE_CACHE puts a process-global cache behind
    // engines created without one.
    SubtreeCache off_cache(0);
    NedExplainOptions off_options;
    off_options.subtree_cache = &off_cache;

    // Prime the warm cache (and first-touch the data) before timing.
    SubtreeCache warm_cache(256u << 20);
    NedExplainOptions warm_options;
    warm_options.subtree_cache = &warm_cache;
    (void)TimeExplainMs(*tree, db, uc, warm_options);

    CaseResult r;
    r.name = uc.name;
    std::vector<double> off, cold, warm, answer;
    for (int rep = 0; rep < reps; ++rep) {
      // Interleaved: off, cold, warm back to back inside each rep.
      off.push_back(TimeExplainMs(*tree, db, uc, off_options));

      SubtreeCache cold_cache(256u << 20);
      NedExplainOptions cold_options;
      cold_options.subtree_cache = &cold_cache;
      cold.push_back(TimeExplainMs(*tree, db, uc, cold_options));

      NedExplainResult warm_result;
      warm.push_back(TimeExplainMs(*tree, db, uc, warm_options, &warm_result));
      r.warm_hits += warm_result.subtree_cache_hits;
      r.warm_misses += warm_result.subtree_cache_misses;
    }

    // Answer path: prime once (executes + inserts), then repeated asks with
    // fresh keys replay at Submit. Timed end to end (Submit + future.get).
    auto ask = [&service, &uc](const std::string& key, bool bypass,
                               double* out_ms) {
      WhyNotRequest req;
      req.key = key;
      req.db_name = uc.db_name;
      req.sql = uc.sql;
      req.question = uc.question;
      req.bypass_answer_cache = bypass;
      const auto start = std::chrono::steady_clock::now();
      auto sub = service.Submit(std::move(req));
      NED_CHECK_MSG(sub.status.ok(), sub.status.ToString());
      WhyNotResponse resp = sub.response.get();
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      NED_CHECK_MSG(resp.status.ok(), resp.status.ToString());
      if (out_ms != nullptr) *out_ms = ms;
      return resp;
    };
    (void)ask(ned::StrCat(uc.name, "-prime"), /*bypass=*/false, nullptr);
    for (int rep = 0; rep < reps; ++rep) {
      double ms = 0;
      WhyNotResponse resp =
          ask(ned::StrCat(uc.name, "-hit-", rep), /*bypass=*/false, &ms);
      if (!resp.served_from_answer_cache) {
        std::cerr << "FAIL " << uc.name << ": repeated ask " << rep
                  << " was not served from the answer cache\n";
        ++failures;
      }
      answer.push_back(ms);
    }

    r.off_ms = MedianMs(off);
    r.cold_ms = MedianMs(cold);
    r.warm_ms = MedianMs(warm);
    r.answer_ms = MedianMs(answer);
    if (r.warm_misses != 0) {
      std::cerr << "FAIL " << uc.name << ": warm runs recomputed "
                << r.warm_misses << " subtrees\n";
      ++failures;
    }
    results.push_back(r);
    std::printf("%-8s %8.3f %9.3f %8.3f %9.4f %7.1f %8.1f %8.1f%%\n",
                r.name.c_str(), r.off_ms, r.cold_ms, r.warm_ms, r.answer_ms,
                r.warm_speedup(), r.answer_speedup(),
                100.0 * r.cold_overhead());
  }

  // Aggregates: medians across cases (robust to the one slow aggregate case
  // dominating a mean).
  std::vector<double> warm_speedups, answer_speedups, cold_overheads;
  for (const CaseResult& r : results) {
    warm_speedups.push_back(r.warm_speedup());
    answer_speedups.push_back(r.answer_speedup());
    cold_overheads.push_back(r.cold_overhead());
  }
  const double med_warm = MedianMs(warm_speedups);
  const double med_answer = MedianMs(answer_speedups);
  const double med_overhead = MedianMs(cold_overheads);
  std::cout << "aggregate medians: warm speedup " << med_warm
            << "x, answer-path speedup " << med_answer
            << "x, cold overhead " << 100.0 * med_overhead << "%\n";

  // Acceptance gates (the repeated-question speedup target is the
  // answer-path replay; the subtree-warm speedup is reported alongside).
  if (med_answer < 5.0) {
    std::cerr << "FAIL: answer-path warm speedup " << med_answer << "x < 5x\n";
    ++failures;
  }
  if (med_overhead >= 0.03) {
    std::cerr << "FAIL: cold overhead " << 100.0 * med_overhead << "% >= 3%\n";
    ++failures;
  }

  service.Shutdown();

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  // "repeated_question_speedup" is the headline target (>= 5x): a repeated
  // question is served by the answer cache at Submit. The subtree-warm
  // number is the engine-layer re-execution speedup, reported alongside.
  out << "{\n  \"benchmark\": \"cache\",\n  \"reps\": " << reps
      << ",\n  \"smoke\": " << (smoke ? "true" : "false")
      << ",\n  \"aggregate\": {\"repeated_question_speedup\": " << med_answer
      << ", \"warm_subtree_speedup\": " << med_warm
      << ", \"cold_overhead\": " << med_overhead
      << ", \"meets_targets\": "
      << (med_answer >= 5.0 && med_overhead < 0.03 ? "true" : "false")
      << "},\n  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const CaseResult& r = results[i];
    out << "    {\"case\": \"" << r.name << "\", \"off_ms\": " << r.off_ms
        << ", \"cold_ms\": " << r.cold_ms << ", \"warm_ms\": " << r.warm_ms
        << ", \"answer_ms\": " << r.answer_ms
        << ", \"warm_speedup\": " << r.warm_speedup()
        << ", \"answer_speedup\": " << r.answer_speedup()
        << ", \"cold_overhead\": " << r.cold_overhead()
        << ", \"warm_hits\": " << r.warm_hits
        << ", \"warm_misses\": " << r.warm_misses << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << out_path << "\n";

  if (failures > 0) {
    std::cerr << "bench_cache: FAIL (" << failures << " violations)\n";
    return 1;
  }
  std::cout << "bench_cache: PASS\n";
  return 0;
}
