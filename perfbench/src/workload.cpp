/// \file workload.cpp
/// \brief The benchmark's inputs and output checks: seeded data and request
/// sequences, reference answers, the golden check and the scaling check.

#include <algorithm>
#include <fstream>
#include <numeric>
#include <sstream>
#include <utility>

#include "common/hash.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/nedexplain.h"
#include "datasets/use_cases.h"
#include "exec/evaluator.h"
#include "perfbench.h"
#include "sql/binder.h"

namespace ned::perfbench {
namespace {

// Filler rows take ids and join keys that no x1 generator uses, so they
// join only among themselves.
constexpr int64_t kFillerIdBase = 1'000'000;

const char* const kCrimeTypes[] = {"Robbery", "Fraud", "Assault", "Theft",
                                   "Vandalism"};

Status ScaleCrime(int blocks, Rng& rng, Database* db) {
  NED_ASSIGN_OR_RETURN(Relation * p, db->GetMutableRelation("P"));
  NED_ASSIGN_OR_RETURN(Relation * w, db->GetMutableRelation("W"));
  NED_ASSIGN_OR_RETURN(Relation * s, db->GetMutableRelation("S"));
  NED_ASSIGN_OR_RETURN(Relation * c, db->GetMutableRelation("C"));
  // x1 densities (datasets/crime.cpp): 160 persons over 20 hair/clothes
  // categories; 70 witnesses and 220 crimes over 25 filler sectors. Filler
  // sectors here are negative: like x1's they fail Q2's and Q8's sector
  // filters, and they meet no planted sector.
  const int64_t categories = 20LL * blocks;
  const int64_t sectors = 25LL * blocks;
  for (int i = 0; i < 160 * blocks; ++i) {
    const int64_t k = rng.UniformInt(1, categories);
    p->AddRow({Value::Int(kFillerIdBase + i), Value::Str(StrCat("Pf_", i)),
               Value::Str(StrCat("hair_f", k)), Value::Str(StrCat("cl_f", k))});
  }
  for (int i = 0; i < 70 * blocks; ++i) {
    const std::string name = StrCat("Wf_", i);
    w->AddRow({Value::Int(kFillerIdBase + i), Value::Str(name),
               Value::Int(-rng.UniformInt(1, sectors))});
    const int64_t k = rng.UniformInt(1, categories);
    s->AddRow({Value::Int(kFillerIdBase + i), Value::Str(name),
               Value::Str(StrCat("hair_f", k)), Value::Str(StrCat("cl_f", k))});
  }
  for (int i = 0; i < 220 * blocks; ++i) {
    c->AddRow({Value::Int(kFillerIdBase + i),
               Value::Str(kCrimeTypes[rng.UniformInt(0, 4)]),
               Value::Int(-rng.UniformInt(1, sectors))});
  }
  return Status::OK();
}

Status ScaleImdb(int blocks, Rng& rng, Database* db) {
  NED_ASSIGN_OR_RETURN(Relation * m, db->GetMutableRelation("M"));
  NED_ASSIGN_OR_RETURN(Relation * r, db->GetMutableRelation("R"));
  NED_ASSIGN_OR_RETURN(Relation * l, db->GetMutableRelation("L"));
  // x1 (datasets/imdb.cpp): 450 movies with unique names, the M-R join key,
  // and one or two locations each.
  static const char* const kLocations[] = {"USALosAngeles", "UKLondon",
                                           "FranceParis", "ItalyRome",
                                           "JapanTokyo"};
  for (int i = 0; i < 450 * blocks; ++i) {
    const int64_t id = kFillerIdBase + i;
    const std::string name = StrCat("Film_", i);
    m->AddRow({Value::Int(id), Value::Str(name),
               Value::Int(rng.UniformInt(1995, 2015))});
    r->AddRow({Value::Int(id), Value::Str(name),
               Value::Real(3.0 + rng.UniformDouble() * 7.0)});
    const int64_t locations = rng.UniformInt(1, 2);
    for (int64_t k = 0; k < locations; ++k) {
      l->AddRow({Value::Int(kFillerIdBase + 2 * i + k), Value::Int(id),
                 Value::Str(kLocations[rng.UniformInt(0, 4)])});
    }
  }
  return Status::OK();
}

Status ScaleGov(int blocks, Rng& rng, Database* db) {
  NED_ASSIGN_OR_RETURN(Relation * co, db->GetMutableRelation("Co"));
  NED_ASSIGN_OR_RETURN(Relation * aa, db->GetMutableRelation("AA"));
  NED_ASSIGN_OR_RETURN(Relation * spo, db->GetMutableRelation("SPO"));
  NED_ASSIGN_OR_RETURN(Relation * es, db->GetMutableRelation("ES"));
  NED_ASSIGN_OR_RETURN(Relation * e, db->GetMutableRelation("E"));
  static const char* const kFirst[] = {"James", "Mary", "Robert", "Linda",
                                       "David"};
  static const char* const kLast[] = {"SMITH", "JONES",  "MILLER", "DAVIS",
                                      "WILSON", "MOORE", "TAYLOR", "CLARK",
                                      "HALL",  "YOUNG"};
  static const char* const kParties[] = {"Republican", "Democrat"};
  static const char* const kStates[] = {"NY", "CA", "TX", "FL",
                                        "IL", "PA", "OH"};
  // x1 (datasets/gov.cpp): 130 members (Co-AA join on id) and 150 sponsors
  // with 14 earmarks each (E-ES on earmarkId, ES-SPO on sponsorId).
  for (int i = 0; i < 130 * blocks; ++i) {
    const int64_t id = kFillerIdBase + i;
    co->AddRow({Value::Int(id), Value::Str(kFirst[rng.UniformInt(0, 4)]),
                Value::Str(kLast[rng.UniformInt(0, 9)]),
                Value::Int(rng.UniformInt(1940, 1985))});
    aa->AddRow({Value::Int(id), Value::Str(kParties[rng.UniformInt(0, 1)]),
                Value::Str(kStates[rng.UniformInt(0, 6)])});
  }
  int64_t earmark = kFillerIdBase;
  for (int i = 0; i < 150 * blocks; ++i) {
    const int64_t sponsor = kFillerIdBase + i;
    spo->AddRow({Value::Int(sponsor), Value::Int(sponsor),
                 Value::Str(kLast[rng.UniformInt(0, 9)]),
                 Value::Str(kParties[rng.UniformInt(0, 1)]),
                 Value::Str(kStates[rng.UniformInt(0, 6)])});
    for (int k = 0; k < 14; ++k, ++earmark) {
      const double amount =
          rng.Chance(0.25)
              ? 1000.0 + static_cast<double>(rng.UniformInt(0, 9000))
              : static_cast<double>(rng.UniformInt(50, 999));
      es->AddRow({Value::Int(earmark), Value::Int(earmark),
                  Value::Int(sponsor), Value::Str("Senate Committee")});
      e->AddRow({Value::Int(earmark), Value::Int(earmark), Value::Real(amount)});
    }
  }
  return Status::OK();
}

/// Compiles and explains `q` over `db` with every cache off, then hands the
/// engine and its result to `use` while both are alive.
template <typename Fn>
Status WithExplained(const Question& q, const Database& db, Fn&& use) {
  NED_ASSIGN_OR_RETURN(QueryTree tree, CompileSql(q.sql, db));
  NED_ASSIGN_OR_RETURN(NedExplainEngine engine,
                       NedExplainEngine::Create(&tree, &db));
  NED_ASSIGN_OR_RETURN(NedExplainResult result, engine.Explain(q.question));
  use(engine, result);
  return Status::OK();
}

/// The nedexplain section of a tests/golden snapshot (use_cases_test's
/// rendering of the same run).
std::string GoldenSection(const Question& q, const NedExplainEngine& engine,
                          const NedExplainResult& result) {
  auto label = [](const OperatorNode* node) {
    return node->name + ": " + node->Describe();
  };
  std::ostringstream os;
  os << "use-case: " << q.name << " (" << q.query_name << " over "
     << q.db_name << ")\n";
  os << "sql: " << q.sql << "\n";
  os << "question: " << q.question.ToString() << "\n";
  os << "== nedexplain ==\n";
  std::vector<std::string> detailed;
  for (const auto& entry : result.answer.detailed) {
    const std::string who =
        entry.is_bottom() ? "(bottom)"
                          : engine.last_input().DisplayTuple(entry.dir_tuple);
    detailed.push_back(who + " @ " + label(entry.subquery));
  }
  std::sort(detailed.begin(), detailed.end());
  for (const std::string& line : detailed) os << "detailed: " << line << "\n";
  for (const OperatorNode* node : result.answer.condensed) {
    os << "condensed: " << label(node) << "\n";
  }
  std::vector<std::string> secondary;
  for (const OperatorNode* node : result.answer.secondary) {
    secondary.push_back(label(node));
  }
  std::sort(secondary.begin(), secondary.end());
  for (const std::string& line : secondary) os << "secondary: " << line << "\n";
  for (size_t i = 0; i < result.per_ctuple.size(); ++i) {
    const auto& part = result.per_ctuple[i];
    os << "ctuple[" << i << "]: " << part.ctuple.ToString()
       << " | dir=" << part.compat.dir.size()
       << " indir=" << part.compat.indir.size()
       << " survivors=" << part.survivors_at_root << "\n";
  }
  return os.str();
}

Result<size_t> TuplesProduced(const Question& q, const Database& db,
                              int* depth) {
  NED_ASSIGN_OR_RETURN(QueryTree tree, CompileSql(q.sql, db));
  NED_ASSIGN_OR_RETURN(QueryInput input, QueryInput::Build(tree, db));
  Evaluator evaluator(&tree, &input);
  NED_RETURN_NOT_OK(evaluator.EvalAll().status());
  *depth = TreeDepth(tree);
  return evaluator.tuples_produced();
}

}  // namespace

Result<Workload> ParseWorkload(std::string_view name) {
  if (name == "paper19") return Workload::kPaper19;
  if (name == "scaled16") return Workload::kScaled16;
  if (name == "repeat_reload") return Workload::kRepeatReload;
  return Status::InvalidArgument(StrCat("unknown workload: ", name));
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kPaper19:
      return "paper19";
    case Workload::kScaled16:
      return "scaled16";
    case Workload::kRepeatReload:
      return "repeat_reload";
  }
  return "unknown";
}

Result<std::vector<Question>> LoadQuestions() {
  NED_ASSIGN_OR_RETURN(UseCaseRegistry registry, UseCaseRegistry::Build(1));
  std::vector<Question> questions;
  for (const UseCase& uc : registry.use_cases()) {
    questions.push_back({uc.name, uc.query_name, uc.db_name, uc.sql,
                         uc.question});
  }
  return questions;
}

Result<Database> ScaleUp(const std::string& db_name, const Database& base,
                         int scale, uint64_t seed) {
  if (scale < 1) return Status::InvalidArgument("scale must be at least 1");
  Database db = base;
  Rng rng(MixSeed(seed, HashSeed(db_name)));
  const int blocks = scale - 1;
  if (db_name == "crime") {
    NED_RETURN_NOT_OK(ScaleCrime(blocks, rng, &db));
  } else if (db_name == "imdb") {
    NED_RETURN_NOT_OK(ScaleImdb(blocks, rng, &db));
  } else if (db_name == "gov") {
    NED_RETURN_NOT_OK(ScaleGov(blocks, rng, &db));
  } else {
    return Status::NotFound("no scale-up for database " + db_name);
  }
  return db;
}

Result<Dataset> BuildDataset(Workload workload, uint64_t seed, int scale) {
  NED_ASSIGN_OR_RETURN(UseCaseRegistry registry, UseCaseRegistry::Build(1));
  Dataset data;
  for (const char* name : {"crime", "imdb", "gov"}) {
    if (workload == Workload::kScaled16) {
      NED_ASSIGN_OR_RETURN(Database db,
                           ScaleUp(name, registry.database(name), scale, seed));
      data.dbs.emplace(name, std::move(db));
    } else {
      data.dbs.emplace(name, registry.database(name));
    }
  }
  if (workload == Workload::kRepeatReload) {
    // Two contents of crime.C: x1 plus 20 seeded crimes of the types the
    // questions ask about, in x1's own filler sectors (20..45 but the
    // planted 30), so crime answers differ between the contents.
    static const char* const kAskedTypes[] = {"Car theft", "Kidnapping",
                                              "Aiding", "Burglary", "Theft"};
    for (uint64_t content = 0; content < 2; ++content) {
      Database copy = registry.database("crime");
      NED_ASSIGN_OR_RETURN(Relation * c, copy.GetMutableRelation("C"));
      Rng rng(MixSeed(seed, content + 1));
      for (int i = 0; i < 20; ++i) {
        int64_t sector = rng.UniformInt(20, 44);
        if (sector >= 30) ++sector;
        c->AddRow({Value::Int(kFillerIdBase + i),
                   Value::Str(kAskedTypes[rng.UniformInt(0, 4)]),
                   Value::Int(sector)});
      }
      NED_ASSIGN_OR_RETURN(std::string csv, copy.DumpCsv("C"));
      data.reload_csv.push_back(std::move(csv));
    }
    // Content 0 is served from the start, loaded exactly as a reload loads.
    Database& crime = data.dbs.at("crime");
    NED_RETURN_NOT_OK(crime.RemoveRelation("C"));
    NED_RETURN_NOT_OK(crime.LoadCsv("C", data.reload_csv[0]));
  }
  uint64_t digest = kFnvOffsetBasis;
  for (const auto& [name, db] : data.dbs) {
    digest = Fnv1a64(StrCat(name, ":", DatabaseContentFingerprint(db), ";"),
                     digest);
  }
  for (const std::string& csv : data.reload_csv) digest = Fnv1a64(csv, digest);
  data.input_digest = digest;
  return data;
}

Schedule BuildSchedule(Workload workload, uint64_t seed, size_t per_connection,
                       size_t question_count) {
  Rng rng(MixSeed(seed, HashSeed(WorkloadName(workload))));
  const size_t total = per_connection * kConnections;
  std::vector<int> ids(question_count);
  std::iota(ids.begin(), ids.end(), 0);
  auto shuffle = [&rng](std::vector<int>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      const auto j = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  };
  std::vector<int> order;
  order.reserve(total);
  if (workload == Workload::kRepeatReload) {
    // Zipf(1) popularity by registry rank. Only the draws are seeded, so the
    // mix of questions -- and the work a run does -- is the same whatever
    // the seed.
    std::vector<double> cdf;
    double sum = 0;
    for (size_t rank = 0; rank < question_count; ++rank) {
      sum += 1.0 / static_cast<double>(rank + 1);
      cdf.push_back(sum);
    }
    while (order.size() < total) {
      const double u = rng.UniformDouble() * sum;
      const size_t rank = std::min<size_t>(
          static_cast<size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                              cdf.begin()),
          question_count - 1);
      order.push_back(ids[rank]);
    }
  } else {
    while (order.size() < total) {
      shuffle(&ids);
      order.insert(order.end(), ids.begin(), ids.end());
    }
    order.resize(total);
  }
  Schedule schedule(kConnections);
  int next_content = 1;
  for (size_t i = 0; i < total; ++i) {
    std::vector<Step>& steps = schedule[i % kConnections];
    Step step{order[i], -1};
    if (workload == Workload::kRepeatReload && i % kConnections == 0 &&
        steps.size() % kReloadEvery == kReloadEvery - 1) {
      step.reload_before = next_content;
      next_content = 1 - next_content;
    }
    steps.push_back(step);
  }
  return schedule;
}

std::string AnswerPrint(const AnswerSummary& answer) {
  std::string out = "detailed:";
  for (const std::string& s : answer.detailed) out += s + "|";
  out += "\ncondensed:";
  for (const std::string& s : answer.condensed) out += s + "|";
  out += "\nsecondary:";
  for (const std::string& s : answer.secondary) out += s + "|";
  out += StrCat("\ndir=", answer.dir_total, " indir=", answer.indir_total,
                " survivors=", answer.survivors_at_root,
                " complete=", answer.complete ? 1 : 0,
                " tripped=", StatusCodeName(answer.tripped),
                " completeness=", answer.completeness,
                " degradation=", answer.degradation_level, ":",
                answer.degradation);
  return out;
}

Result<References> ComputeReferences(const std::vector<Question>& questions,
                                     const Dataset& data) {
  // The other crime.C contents, built as the catalog's copy-on-write reload
  // builds them.
  std::vector<Database> crime_contents;
  for (size_t content = 1; content < data.reload_csv.size(); ++content) {
    Database db = data.dbs.at("crime");
    NED_RETURN_NOT_OK(db.RemoveRelation("C"));
    NED_RETURN_NOT_OK(db.LoadCsv("C", data.reload_csv[content]));
    crime_contents.push_back(std::move(db));
  }
  References refs;
  uint64_t digest = kFnvOffsetBasis;
  for (const Question& q : questions) {
    std::vector<const Database*> contents = {&data.dbs.at(q.db_name)};
    if (q.db_name == "crime") {
      for (const Database& db : crime_contents) contents.push_back(&db);
    }
    std::vector<uint64_t> hashes;
    for (const Database* db : contents) {
      std::string print;
      NED_RETURN_NOT_OK(WithExplained(
          q, *db, [&](const NedExplainEngine& engine,
                      const NedExplainResult& result) {
            print = AnswerPrint(SummarizeResult(engine, result));
          }));
      digest = Fnv1a64(print, digest);
      hashes.push_back(Fnv1a64(print));
    }
    refs.hashes.push_back(std::move(hashes));
  }
  refs.answer_digest = digest;
  return refs;
}

Status CheckGoldens(const std::string& root,
                    const std::vector<Question>& questions,
                    const Dataset& data) {
  for (const Question& q : questions) {
    const std::string path = StrCat(root, "/tests/golden/", q.name, ".golden");
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::NotFound("missing golden file " + path);
    std::stringstream text;
    text << in.rdbuf();
    std::string golden = text.str();
    const size_t cut = golden.find("== baseline ==\n");
    if (cut == std::string::npos) {
      return Status::ParseError("no baseline section in " + path);
    }
    golden.resize(cut);
    std::string section;
    NED_RETURN_NOT_OK(WithExplained(
        q, data.dbs.at(q.db_name),
        [&](const NedExplainEngine& engine, const NedExplainResult& result) {
          section = GoldenSection(q, engine, result);
        }));
    if (section != golden) {
      return Status::Internal(
          StrCat(q.name, ": the engine's report differs from ", path));
    }
  }
  return Status::OK();
}

Observation Observe(int question, int http_status,
                    const Result<net::WireResponse>& response) {
  Observation o;
  o.question = question;
  o.http_status = http_status;
  if (!response.ok()) {
    o.code = response.status().code();
    o.message = response.status().ToString();
    return o;
  }
  const net::WireResponse& r = *response;
  o.code = r.code;
  o.message = r.message;
  o.complete = r.answer.complete;
  o.degradation_level = r.answer.degradation_level;
  o.snapshot_version = r.snapshot_version;
  o.answer_hash = Fnv1a64(AnswerPrint(r.answer));
  return o;
}

std::string Judge(const Observation& o, const References& refs,
                  bool content_varies) {
  if (o.code != StatusCode::kOk) {
    return StrCat(StatusCodeName(o.code), ": ", o.message);
  }
  if (o.http_status != 200) return StrCat("HTTP ", o.http_status);
  if (!o.complete) return "partial answer";
  if (o.degradation_level != 0) return "degraded answer";
  if (o.question < 0 || static_cast<size_t>(o.question) >= refs.hashes.size()) {
    return "unknown question";
  }
  const std::vector<uint64_t>& hashes = refs.hashes[static_cast<size_t>(o.question)];
  const size_t content =
      content_varies ? static_cast<size_t>(ContentOfVersion(o.snapshot_version))
                     : 0;
  if (content >= hashes.size() || hashes[content] != o.answer_hash) {
    return "answer differs from the reference";
  }
  return "";
}

int TreeDepth(const QueryTree& tree) {
  int deepest = 0;
  for (const OperatorNode* node : tree.bottom_up()) {
    deepest = std::max(deepest, node->level);
  }
  return deepest + 1;
}

Result<std::vector<ScaleRow>> MeasureScaling(
    const std::vector<Question>& questions,
    const std::map<std::string, Database>& x1,
    const std::map<std::string, Database>& xs) {
  std::vector<ScaleRow> rows;
  for (const Question& q : questions) {
    ScaleRow row;
    row.question = q.name;
    NED_ASSIGN_OR_RETURN(row.tuples_x1,
                         TuplesProduced(q, x1.at(q.db_name), &row.depth));
    NED_ASSIGN_OR_RETURN(row.tuples_xs,
                         TuplesProduced(q, xs.at(q.db_name), &row.depth));
    rows.push_back(row);
  }
  return rows;
}

std::string CheckLinearity(const std::vector<ScaleRow>& rows, int scale) {
  for (const ScaleRow& row : rows) {
    const double ratio = row.tuples_x1 == 0
                             ? 0
                             : static_cast<double>(row.tuples_xs) /
                                   static_cast<double>(row.tuples_x1);
    if (ratio < kLinearLow * scale || ratio > kLinearHigh * scale) {
      return StrCat(row.question, ": tuples produced x", scale, " / x1 = ",
                    ratio, ", outside [", kLinearLow * scale, ", ",
                    kLinearHigh * scale, "]");
    }
  }
  return "";
}

}  // namespace ned::perfbench
