/// \file ned_metrics.cpp
/// \brief Exposition CLI for the observability layer (docs/OBSERVABILITY.md).
///
/// Drives the why-not service over the paper's 19 use cases (one traced
/// request each) and dumps the resulting metrics registry in Prometheus text
/// exposition 0.0.4 or the stable-order JSON form -- a quick way to see the
/// full metric catalog with live values, and the scrape-format smoke test
/// the CI golden files pin at the unit level.
///
/// `--trace CASE` instead prints the rendered span tree (names, nesting and
/// per-span durations) of one traced request for that use case -- the Fig. 5
/// phase breakdown, span by span. `--trace all` renders every case.
///
/// Usage:
///   ned_metrics [--format prometheus|json] [--out FILE]
///   ned_metrics --trace CASE|all [--structure]
///
/// `--structure` renders names and nesting only (no durations): the
/// deterministic artifact trace_test pins by digest for the 19 use cases.

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/atomic_file.h"
#include "common/status.h"
#include "datasets/use_cases.h"
#include "obs/expose.h"
#include "obs/trace.h"
#include "relational/catalog.h"
#include "service/service.h"

namespace {

using ned::Catalog;
using ned::UseCase;
using ned::UseCaseRegistry;
using ned::WhyNotService;

int TraceMode(const UseCaseRegistry& registry, const std::string& which,
              bool structure_only) {
  bool found = false;
  for (const UseCase& uc : registry.use_cases()) {
    if (which != "all" && which != uc.name) continue;
    found = true;
    auto tree = registry.BuildTree(uc);
    if (!tree.ok()) {
      std::cerr << uc.name << ": " << tree.status().ToString() << "\n";
      return 1;
    }
    ned::QueryTree query_tree = std::move(tree).value();
    auto engine = ned::NedExplainEngine::Create(
        &query_tree, &registry.database(uc.db_name));
    if (!engine.ok()) {
      std::cerr << uc.name << ": " << engine.status().ToString() << "\n";
      return 1;
    }
    ned::obs::Trace trace;
    ned::ExecContext ctx;
    ctx.set_trace(&trace);
    auto result = engine->Explain(uc.question, &ctx);
    if (!result.ok()) {
      std::cerr << uc.name << ": " << result.status().ToString() << "\n";
      return 1;
    }
    std::cout << "== " << uc.name << " ==\n"
              << (structure_only ? trace.RenderStructure() : trace.Render());
  }
  if (!found) {
    std::cerr << "unknown use case \"" << which << "\" (try --trace all)\n";
    return 2;
  }
  return 0;
}

int ExposeMode(const UseCaseRegistry& registry, const std::string& format,
               const std::string& out_path) {
  // One service, one completed request per use case: every admission,
  // execution and finalization counter/histogram picks up real traffic.
  auto catalog = std::make_shared<Catalog>();
  for (const char* db_name : {"crime", "imdb", "gov"}) {
    ned::Database copy = registry.database(db_name);
    NED_CHECK(catalog->Register(db_name, std::move(copy)).ok());
  }
  ned::ServiceOptions options;
  options.workers = 2;
  WhyNotService service(catalog, options);
  for (const UseCase& uc : registry.use_cases()) {
    ned::WhyNotRequest request;
    request.key = "ned_metrics-" + uc.name;
    request.client_id = "ned_metrics";
    request.db_name = uc.db_name;
    request.sql = uc.sql;
    request.question = uc.question;
    WhyNotService::Submission sub = service.Submit(std::move(request));
    if (!sub.status.ok()) {
      std::cerr << uc.name << ": " << sub.status.ToString() << "\n";
      continue;
    }
    (void)sub.response.get();
  }
  service.Shutdown(/*drain=*/true);

  const std::vector<ned::obs::MetricSnapshot> snapshot =
      service.metrics()->Collect();
  const std::string text = format == "json"
                               ? ned::obs::FormatJson(snapshot)
                               : ned::obs::FormatPrometheus(snapshot);
  if (out_path.empty()) {
    std::cout << text;
  } else {
    ned::Status status = ned::AtomicWriteFile(out_path, text);
    if (!status.ok()) {
      std::cerr << status.ToString() << "\n";
      return 1;
    }
    std::cout << "wrote " << out_path << " (" << text.size() << " bytes)\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string format = "prometheus";
  std::string out_path;
  std::string trace_case;
  bool structure_only = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--format" && i + 1 < argc) {
      format = argv[++i];
      if (format != "prometheus" && format != "json") {
        std::cerr << "unknown format \"" << format << "\"\n";
        return 2;
      }
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_case = argv[++i];
    } else if (arg == "--structure") {
      structure_only = true;
    } else {
      std::cerr << "usage: ned_metrics [--format prometheus|json] "
                   "[--out FILE] | --trace CASE|all [--structure]\n";
      return 2;
    }
  }

  auto registry = ned::UseCaseRegistry::Build();
  if (!registry.ok()) {
    std::cerr << registry.status().ToString() << "\n";
    return 1;
  }
  if (!trace_case.empty()) {
    return TraceMode(*registry, trace_case, structure_only);
  }
  return ExposeMode(*registry, format, out_path);
}
