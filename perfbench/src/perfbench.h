/// \file perfbench.h
/// \brief The benchmark of the why-not serving stack (see README.md).
///
/// One program builds the stack tools/ned_serve.cpp builds -- Catalog ->
/// WhyNotService -> net::HttpServer -- and drives it over loopback
/// keep-alive HTTP from a closed loop of kConnections clients. A timed run
/// reports the end-to-end metrics; a traced run times each module's public
/// entry points from outside, in benchmark-owned spans, for the per-layer
/// metrics. Every answer is checked against references computed in process
/// with every cache off.

#ifndef NED_PERFBENCH_PERFBENCH_H_
#define NED_PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "algebra/query_tree.h"
#include "common/status.h"
#include "core/report.h"
#include "net/wire.h"
#include "relational/database.h"
#include "whynot/ctuple.h"

namespace ned::perfbench {

enum class Workload { kPaper19, kScaled16, kRepeatReload };

Result<Workload> ParseWorkload(std::string_view name);
const char* WorkloadName(Workload workload);

/// The seed whose input and answer digests are pinned.
inline constexpr uint64_t kDefaultSeed = 1;
/// Data scale of scaled16.
inline constexpr int kScale = 16;
/// Closed-loop client connections, all from this one process.
inline constexpr int kConnections = 2;
/// repeat_reload: connection 0 reloads crime.C before every kReloadEvery-th
/// of its requests.
inline constexpr size_t kReloadEvery = 100;

/// One of the 19 Fig. 6 use cases.
struct Question {
  std::string name;        ///< "Crime1"
  std::string query_name;  ///< "Q1"
  std::string db_name;
  std::string sql;
  WhyNotQuestion question;
};

/// The use cases of UseCaseRegistry::Build(1), in registry order.
Result<std::vector<Question>> LoadQuestions();

/// The databases one workload serves.
struct Dataset {
  /// crime / imdb / gov as they are registered in the catalog.
  std::map<std::string, Database> dbs;
  /// repeat_reload only: two contents of crime's relation C as CSV text.
  /// `dbs` holds content 0; reloads alternate 1, 0, 1, ...
  std::vector<std::string> reload_csv;
  /// FNV-1a over the content fingerprints of `dbs` and the reload texts.
  uint64_t input_digest = 0;
};

/// Builds the workload's databases from `seed`: the registry's x1 instance
/// (paper19), the benchmark's own x`scale` instance (scaled16), or x1 with
/// two seeded contents of crime.C (repeat_reload).
Result<Dataset> BuildDataset(Workload workload, uint64_t seed,
                             int scale = kScale);

/// The x1 `base` of database `db_name` plus (scale - 1) x1-sized blocks of
/// seeded filler. Filler ids and join keys (sectors, hair/clothes
/// categories, movie names, sponsor and earmark ids) come from fresh
/// domains that widen with scale, so planted tuples keep exactly their x1
/// join partners and intermediate volume grows linearly with `scale`.
Result<Database> ScaleUp(const std::string& db_name, const Database& base,
                         int scale, uint64_t seed);

/// One request of a connection's closed-loop sequence.
struct Step {
  int question = 0;        ///< index into LoadQuestions()
  int reload_before = -1;  ///< crime.C content to reload first; -1 = none
};
/// Per connection, the steps it sends in order.
using Schedule = std::vector<std::vector<Step>>;

/// The seeded request and reload sequence: `per_connection` steps for each
/// connection. paper19 and scaled16 send seeded shuffles of the questions;
/// repeat_reload draws them by seeded Zipf popularity, and connection 0
/// reloads before every kReloadEvery-th of its steps.
Schedule BuildSchedule(Workload workload, uint64_t seed, size_t per_connection,
                       size_t question_count);

/// The crime.C content a snapshot at catalog `version` holds under
/// repeat_reload: registration publishes version 1 with content 0, and each
/// reload bumps the version by one and flips the content.
inline int ContentOfVersion(uint64_t version) {
  return static_cast<int>((version + 1) % 2);
}

/// What a client reads in an answer, without the subtree-cache counters
/// that describe how it was computed.
std::string AnswerPrint(const AnswerSummary& answer);

/// Reference answers: hashes[question][content] of AnswerPrint, computed in
/// process with every cache off (content > 0 only for crime questions under
/// repeat_reload).
struct References {
  std::vector<std::vector<uint64_t>> hashes;
  /// FNV-1a over every reference print, in question and content order.
  uint64_t answer_digest = 0;
};
Result<References> ComputeReferences(const std::vector<Question>& questions,
                                     const Dataset& data);

/// paper19: the engine's rendered reports for the x1 data must equal the
/// nedexplain sections of `<root>/tests/golden/<case>.golden`.
Status CheckGoldens(const std::string& root,
                    const std::vector<Question>& questions,
                    const Dataset& data);

/// What a client keeps of one response until it is judged.
struct Observation {
  int question = 0;
  int http_status = 0;
  StatusCode code = StatusCode::kInternal;
  std::string message;
  bool complete = false;
  int degradation_level = 0;
  uint64_t snapshot_version = 0;
  uint64_t answer_hash = 0;
  double latency_ms = 0;
};

Observation Observe(int question, int http_status,
                    const Result<net::WireResponse>& response);

/// "" when the observation is a correct answer, else why it is a failed
/// operation: an HTTP or service error, a shed, a partial or degraded
/// answer, or an answer that differs from the reference for the crime.C
/// content its snapshot holds (`content_varies`).
std::string Judge(const Observation& observation, const References& refs,
                  bool content_varies);

/// Levels in the canonical tree (a lone scan has depth 1).
int TreeDepth(const QueryTree& tree);

/// Tuples produced by a fresh Evaluator::EvalAll of one question at x1 and
/// at x`scale`, with the depth of its canonical tree.
struct ScaleRow {
  std::string question;
  size_t tuples_x1 = 0;
  size_t tuples_xs = 0;
  int depth = 0;
};
Result<std::vector<ScaleRow>> MeasureScaling(
    const std::vector<Question>& questions,
    const std::map<std::string, Database>& x1,
    const std::map<std::string, Database>& xs);

/// The stated near-linear band for tuples produced at x`scale` / x1.
inline constexpr double kLinearLow = 0.5;
inline constexpr double kLinearHigh = 1.5;
/// "" when every row's ratio lies in [kLinearLow, kLinearHigh] * scale,
/// else the first row outside it.
std::string CheckLinearity(const std::vector<ScaleRow>& rows, int scale);

}  // namespace ned::perfbench

#endif  // NED_PERFBENCH_PERFBENCH_H_
