/// \file runner.h
/// \brief One run of one workload: set-up, the closed loop over HTTP (timed
/// run) or its traced replay, the output checks and the metrics.

#ifndef NED_PERFBENCH_RUNNER_H_
#define NED_PERFBENCH_RUNNER_H_

#include <string>
#include <vector>

#include "perfbench.h"

namespace ned::perfbench {

struct RunConfig {
  Workload workload = Workload::kPaper19;
  uint64_t seed = kDefaultSeed;
  int seconds = 10;
  /// Traced run: per-layer metrics instead of the end-to-end ones.
  bool trace = false;
  /// Checkout root; tests/golden is read from here.
  std::string root = ".";
  /// Where the run record, span files and persistence directories go.
  std::string out_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOutput {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Requests each connection sends in a run of `seconds`: a fixed count, so
/// every run with the same arguments does identical work.
size_t RequestsPerConnection(Workload workload, int seconds);

/// Runs one timed or traced run. An error means there is no result.
Result<RunOutput> Run(const RunConfig& config);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string RenderResult(const RunOutput& output);

/// One line per design threshold a traced run's figures break: scaled16
/// needs an engine share >= 0.9 and a subtree working set above the cache
/// budget, repeat_reload an engine share < 0.05, and paper19 a subtree hit
/// ratio >= 0.9. A traced run counts each as a failed check.
std::vector<std::string> DesignProblems(Workload workload, double engine_share,
                                        double subtree_hit_ratio,
                                        size_t working_set_bytes,
                                        size_t budget_bytes);

}  // namespace ned::perfbench

#endif  // NED_PERFBENCH_RUNNER_H_
