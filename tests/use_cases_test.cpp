/// \file use_cases_test.cpp
/// \brief Locks in the Table 5 reproduction: for every use case of the
/// paper's evaluation, the qualitative answer shape (which operator class is
/// blamed, where the baseline fails) must match the paper -- plus golden-file
/// snapshots of the *full* answers under tests/golden/, regenerated with
/// `use_cases_test --update-golden`.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/whynot_baseline.h"
#include "common/atomic_file.h"
#include "common/csv.h"
#include "common/hash.h"
#include "core/nedexplain.h"
#include "core/report.h"
#include "datasets/crime.h"
#include "datasets/gov.h"
#include "datasets/imdb.h"
#include "datasets/use_cases.h"
#include "tests/test_util.h"

namespace ned {

/// Set by main() on --update-golden: rewrite tests/golden/*.golden instead of
/// comparing against them.
bool g_update_golden = false;

namespace {

using testing::CondensedHasKind;

const UseCaseRegistry& Registry() {
  static const UseCaseRegistry* registry = [] {
    auto r = UseCaseRegistry::Build();
    NED_CHECK(r.ok());
    return new UseCaseRegistry(std::move(r).value());
  }();
  return *registry;
}

struct CaseRun {
  QueryTree tree;
  NedExplainResult ned;
  WhyNotBaselineResult baseline;
  const Database* db;
  std::shared_ptr<NedExplainEngine> engine;
};

CaseRun RunCase(const std::string& name) {
  auto uc = Registry().Find(name);
  NED_CHECK(uc.ok());
  const Database& db = Registry().database((*uc)->db_name);
  auto tree = Registry().BuildTree(**uc);
  NED_CHECK_MSG(tree.ok(), tree.status().ToString());
  CaseRun run{std::move(tree).value(), {}, {}, &db, nullptr};
  auto engine = NedExplainEngine::Create(&run.tree, &db);
  NED_CHECK(engine.ok());
  run.engine = std::make_shared<NedExplainEngine>(std::move(engine).value());
  auto ned = run.engine->Explain((*uc)->question);
  NED_CHECK_MSG(ned.ok(), ned.status().ToString());
  run.ned = std::move(ned).value();
  auto baseline = WhyNotBaseline::Create(&run.tree, &db);
  NED_CHECK(baseline.ok());
  auto base = baseline->Explain((*uc)->question);
  NED_CHECK(base.ok());
  run.baseline = std::move(base).value();
  return run;
}

/// The set of Dir-tuple display names blamed in the detailed answer.
std::set<std::string> BlamedTuples(const CaseRun& run) {
  std::set<std::string> out;
  for (const auto& entry : run.ned.answer.detailed) {
    if (!entry.is_bottom()) {
      out.insert(run.engine->last_input().DisplayTuple(entry.dir_tuple));
    }
  }
  return out;
}

// ---- golden snapshots -----------------------------------------------------

std::string GoldenPath(const std::string& name) {
  return std::string(NED_TEST_GOLDEN_DIR) + "/" + name + ".golden";
}

std::string NodeLabel(const OperatorNode* node) {
  return node->name + ": " + node->Describe();
}

/// The baseline's verdict: support, answer, and per-c-tuple frontier.
std::string BaselineVerdict(const WhyNotBaselineResult& baseline) {
  std::ostringstream os;
  os << "== baseline ==\n";
  if (!baseline.supported) {
    os << "supported: no (" << baseline.unsupported_reason << ")\n";
    return os.str();
  }
  os << "supported: yes\n";
  os << "answer: " << baseline.AnswerToString() << "\n";
  for (size_t i = 0; i < baseline.per_ctuple.size(); ++i) {
    const auto& part = baseline.per_ctuple[i];
    os << "ctuple[" << i << "]: unpicked=" << part.unpicked_items
       << " frontier="
       << (part.frontier_picky ? part.frontier_picky->name : "-")
       << " present=" << (part.answer_deemed_present ? "yes" : "no") << "\n";
  }
  return os.str();
}

/// Deterministic rendering of everything Table 5 talks about: the full
/// detailed/condensed/secondary answers, per-c-tuple compatible-set sizes
/// and survivors, and the baseline's verdict. The detailed and secondary
/// lists are sorted here, so these files compare answers as sets. The
/// unsorted `detailed` order is still pinned elsewhere: it is what the
/// service returns and its answer tier stores, perfbench's seed-1 answer
/// digests hash it, and Golden.ScaledX4ReportsMatchPinnedDigests hashes the
/// report that prints it.
std::string Snapshot(const UseCase& uc, const CaseRun& run) {
  std::ostringstream os;
  os << "use-case: " << uc.name << " (" << uc.query_name << " over "
     << uc.db_name << ")\n";
  os << "sql: " << uc.sql << "\n";
  os << "question: " << uc.question.ToString() << "\n";
  os << "== nedexplain ==\n";
  std::vector<std::string> detailed;
  for (const auto& entry : run.ned.answer.detailed) {
    std::string who = entry.is_bottom()
                          ? "(bottom)"
                          : run.engine->last_input().DisplayTuple(
                                entry.dir_tuple);
    detailed.push_back(who + " @ " + NodeLabel(entry.subquery));
  }
  std::sort(detailed.begin(), detailed.end());
  for (const auto& line : detailed) os << "detailed: " << line << "\n";
  for (const OperatorNode* node : run.ned.answer.condensed) {
    os << "condensed: " << NodeLabel(node) << "\n";
  }
  std::vector<std::string> secondary;
  for (const OperatorNode* node : run.ned.answer.secondary) {
    secondary.push_back(NodeLabel(node));
  }
  std::sort(secondary.begin(), secondary.end());
  for (const auto& line : secondary) os << "secondary: " << line << "\n";
  for (size_t i = 0; i < run.ned.per_ctuple.size(); ++i) {
    const auto& part = run.ned.per_ctuple[i];
    os << "ctuple[" << i << "]: " << part.ctuple.ToString()
       << " | dir=" << part.compat.dir.size()
       << " indir=" << part.compat.indir.size()
       << " survivors=" << part.survivors_at_root << "\n";
  }
  os << BaselineVerdict(run.baseline);
  return os.str();
}

TEST(Golden, AllUseCasesMatchCheckedInSnapshots) {
  ASSERT_EQ(Registry().use_cases().size(), 19u);
  for (const UseCase& uc : Registry().use_cases()) {
    CaseRun run = RunCase(uc.name);
    std::string snapshot = Snapshot(uc, run);
    std::string path = GoldenPath(uc.name);
    if (g_update_golden) {
      // Atomic replace: an interrupted --update-golden run must leave each
      // golden either untouched or fully rewritten, never torn.
      ASSERT_TRUE(AtomicWriteFile(path, snapshot).ok()) << path;
      continue;
    }
    auto golden = ReadFile(path);
    ASSERT_TRUE(golden.ok())
        << "missing golden file " << path
        << "; generate with: use_cases_test --update-golden";
    EXPECT_EQ(*golden, snapshot)
        << uc.name << " drifted from " << path
        << "\n(if the change is intentional, rerun with --update-golden "
           "and review the file diff)";
  }
}

// ---- scaled answers -------------------------------------------------------

/// FNV-1a digests of every use case's full NedExplain report plus the
/// baseline's verdict over UseCaseRegistry::Build(4). They were recorded
/// with the per-tuple executor and extend the golden proof to scaled data:
/// any change to what either algorithm reports at x4 moves a digest. The
/// report prints the detailed answer unsorted, in the order the service
/// returns and stores and perfbench's seed-1 answer digests hash, so these
/// digests pin that order too. A drift is a regression to fix, not a digest
/// to re-pin: only a change that restates the benchmark's answers may move
/// them, together with perfbench's digests.
const std::map<std::string, uint64_t>& ScaledX4Digests() {
  static const auto* digests = new std::map<std::string, uint64_t>{
      {"Crime1", 0xdad1fd29bb5fd602ull},   {"Crime2", 0xf105cb455ba99240ull},
      {"Crime3", 0x896f519f30f450b7ull},   {"Crime4", 0x227a779941667f09ull},
      {"Crime5", 0x155efa9862c30993ull},   {"Crime6", 0x2d197fcf1f330795ull},
      {"Crime7", 0x57a46f7c76d003d4ull},   {"Crime8", 0x88ff3911b09eb4b8ull},
      {"Crime9", 0xbf8f4b64e11cb22ull},    {"Crime10", 0xb7789a036aaef123ull},
      {"Imdb1", 0x53776a9d318fa8f9ull},    {"Imdb2", 0x5c18a91d33b61dbull},
      {"Gov1", 0x43897ef3067007a4ull},     {"Gov2", 0x12da5325a9edc0c7ull},
      {"Gov3", 0x68940d29f60e93f7ull},     {"Gov4", 0x3ecb211059f950e6ull},
      {"Gov5", 0x868d1ed37354123eull},     {"Gov6", 0x9e1ae73852a276f5ull},
      {"Gov7", 0xfd2d47c47b668679ull},
  };
  return *digests;
}

TEST(Golden, ScaledX4ReportsMatchPinnedDigests) {
  auto registry = UseCaseRegistry::Build(4);
  ASSERT_TRUE(registry.ok()) << registry.status().ToString();
  ASSERT_EQ(registry->use_cases().size(), 19u);
  for (const UseCase& uc : registry->use_cases()) {
    auto tree = registry->BuildTree(uc);
    ASSERT_TRUE(tree.ok()) << uc.name;
    const Database& db = registry->database(uc.db_name);
    auto engine = NedExplainEngine::Create(&*tree, &db);
    ASSERT_TRUE(engine.ok()) << uc.name;
    auto ned = engine->Explain(uc.question);
    ASSERT_TRUE(ned.ok()) << uc.name << ": " << ned.status().ToString();
    auto baseline = WhyNotBaseline::Create(&*tree, &db);
    ASSERT_TRUE(baseline.ok()) << uc.name;
    auto verdict = baseline->Explain(uc.question);
    ASSERT_TRUE(verdict.ok()) << uc.name;
    const std::string rendered =
        RenderExplainReport(*engine, uc.question, *ned) +
        BaselineVerdict(*verdict);
    const uint64_t digest = Fnv1a64(rendered);
    auto it = ScaledX4Digests().find(uc.name);
    ASSERT_NE(it, ScaledX4Digests().end()) << uc.name << " has no digest";
    EXPECT_EQ(it->second, digest)
        << uc.name << " at x4 drifted (digest 0x" << std::hex << digest
        << "): the report or its served detailed order changed. Fix the "
           "regression; do not re-pin this digest";
  }
}

// ---- databases themselves ------------------------------------------------------

TEST(Datasets, RelationSizesAreInPaperRange) {
  // Paper: 89 to 9341 records per relation.
  for (const char* db_name : {"crime", "imdb", "gov"}) {
    const Database& db = Registry().database(db_name);
    for (const auto& name : db.RelationNames()) {
      auto rel = db.GetRelation(name);
      ASSERT_TRUE(rel.ok());
      EXPECT_GE((*rel)->size(), 9u) << db_name << "." << name;
      EXPECT_LE((*rel)->size(), 9341u) << db_name << "." << name;
    }
  }
}

TEST(Datasets, ScaleGrowsVolume) {
  auto r1 = BuildCrimeDb(1);
  auto r2 = BuildCrimeDb(2);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_GT(r2->TotalRows(), r1->TotalRows());
  auto i2 = BuildImdbDb(2);
  ASSERT_TRUE(i2.ok());
  auto g2 = BuildGovDb(2);
  ASSERT_TRUE(g2.ok());
}

TEST(Datasets, AskedTuplesAreGenuinelyMissing) {
  // Every use case's question must describe data truly absent from the
  // result (except where the paper discusses survivors explicitly).
  for (const UseCase& uc : Registry().use_cases()) {
    auto tree = Registry().BuildTree(uc);
    ASSERT_TRUE(tree.ok()) << uc.name;
    auto engine =
        NedExplainEngine::Create(&*tree, &Registry().database(uc.db_name));
    ASSERT_TRUE(engine.ok());
    auto result = engine->Explain(uc.question);
    ASSERT_TRUE(result.ok()) << uc.name;
    for (const auto& part : result->per_ctuple) {
      // For aggregation questions a *group* survivor can reach the root
      // while violating the aggregate condition (Crime9: Betsy's count is 7,
      // not > 8), so only SPJ(U) cases must have zero survivors.
      if (!part.compat.cond_alpha.empty()) continue;
      EXPECT_EQ(part.survivors_at_root, 0u)
          << uc.name << ": question data is present in the result";
    }
  }
}

// ---- Table 5, row by row ----------------------------------------------------------

TEST(Table5, Crime1BothCompatiblesDieAtTheTopJoin) {
  CaseRun run = RunCase("Crime1");
  // NedExplain: Hank and both car thefts die at the same (top) join.
  ASSERT_EQ(run.ned.answer.condensed.size(), 1u);
  EXPECT_EQ(run.ned.answer.condensed[0]->kind, OpKind::kJoin);
  EXPECT_EQ(BlamedTuples(run),
            (std::set<std::string>{"P.id:1", "C.id:100", "C.id:101"}));
  // Baseline: Hank's plain successors reach the result -> deemed present.
  EXPECT_TRUE(run.baseline.answer.empty());
  EXPECT_TRUE(run.baseline.per_ctuple[0].answer_deemed_present);
}

TEST(Table5, Crime2TwoNodesForNedOneForBaseline) {
  CaseRun run = RunCase("Crime2");
  // Roger (never described) dies at the P-S join; the car thefts at the top.
  ASSERT_EQ(run.ned.answer.condensed.size(), 2u);
  EXPECT_EQ(run.ned.answer.condensed[0]->kind, OpKind::kJoin);
  EXPECT_EQ(run.ned.answer.condensed[1]->kind, OpKind::kJoin);
  EXPECT_EQ(run.baseline.answer.size(), 1u);
}

TEST(Table5, Crime3EmptiedSelectionBlamedForCarThefts) {
  CaseRun run = RunCase("Crime3");
  // Q2's sector>99 empties: the car thefts are blocked at that selection.
  EXPECT_TRUE(CondensedHasKind(run.ned.answer, OpKind::kSelect));
  EXPECT_TRUE(CondensedHasKind(run.ned.answer, OpKind::kJoin));
}

TEST(Table5, Crime5SecondaryPointsAtTheEmptiedSelection) {
  CaseRun run = RunCase("Crime5");
  // Hank is blocked at the top join; the *secondary* answer surfaces the
  // emptied sector selection (the paper's m4) among the killers of the
  // indirect relations.
  ASSERT_EQ(run.ned.answer.condensed.size(), 1u);
  EXPECT_EQ(run.ned.answer.condensed[0]->kind, OpKind::kJoin);
  bool has_selection = false;
  for (const OperatorNode* node : run.ned.answer.secondary) {
    if (node->kind == OpKind::kSelect) has_selection = true;
  }
  EXPECT_TRUE(has_selection);
  // Baseline blames the emptied selection directly.
  ASSERT_EQ(run.baseline.answer.size(), 1u);
  EXPECT_EQ(run.baseline.answer[0]->kind, OpKind::kSelect);
}

TEST(Table5, Crime6NedBlamesTheJoinBaselineTheWrongSelection) {
  CaseRun run = RunCase("Crime6");
  ASSERT_EQ(run.ned.answer.condensed.size(), 1u);
  EXPECT_EQ(run.ned.answer.condensed[0]->kind, OpKind::kJoin);
  EXPECT_EQ(BlamedTuples(run),
            (std::set<std::string>{"C2.id:130", "C2.id:131"}));
  ASSERT_EQ(run.baseline.answer.size(), 1u);
  EXPECT_EQ(run.baseline.answer[0]->kind, OpKind::kSelect);
}

TEST(Table5, Crime7AddsSusansJoin) {
  CaseRun run = RunCase("Crime7");
  // Two picky joins: kidnappings at the crime join, Susan at the witness
  // join; the baseline still reports only the wrong selection.
  ASSERT_EQ(run.ned.answer.condensed.size(), 2u);
  EXPECT_EQ(run.ned.answer.condensed[0]->kind, OpKind::kJoin);
  EXPECT_EQ(run.ned.answer.condensed[1]->kind, OpKind::kJoin);
  EXPECT_EQ(BlamedTuples(run).count("W.id:2"), 1u);
  ASSERT_EQ(run.baseline.answer.size(), 1u);
  EXPECT_EQ(run.baseline.answer[0]->kind, OpKind::kSelect);
}

TEST(Table5, Crime8NedFindsTheBlockingOperator) {
  CaseRun run = RunCase("Crime8");
  // Audrey's only valid successor pairs her with her own P1 copy (same
  // hair), which the name-inequality selection removes -- so per Defs.
  // 2.9-2.12 the picky subquery is that selection. (The paper's prose
  // reports the hair join because its narrative ignores the self-pairing;
  // see EXPERIMENTS.md.) The headline contrast holds either way: the
  // baseline concludes Audrey is not missing at all.
  ASSERT_EQ(run.ned.answer.condensed.size(), 1u);
  EXPECT_EQ(run.ned.answer.condensed[0]->kind, OpKind::kSelect);
  EXPECT_NE(run.ned.answer.condensed[0]->predicate->ToString().find("!="),
            std::string::npos);
  EXPECT_EQ(BlamedTuples(run), (std::set<std::string>{"P2.id:3"}));  // Audrey
  EXPECT_TRUE(run.baseline.answer.empty());
  EXPECT_TRUE(run.baseline.per_ctuple[0].answer_deemed_present);
}

TEST(Table5, Crime9BottomEntryAtTheSectorFilter) {
  CaseRun run = RunCase("Crime9");
  ASSERT_EQ(run.ned.answer.detailed.size(), 1u);
  EXPECT_TRUE(run.ned.answer.detailed[0].is_bottom());
  EXPECT_EQ(run.ned.answer.detailed[0].subquery->kind, OpKind::kSelect);
  EXPECT_FALSE(run.baseline.supported);
}

TEST(Table5, Crime10RogerErasedInsideV) {
  CaseRun run = RunCase("Crime10");
  ASSERT_EQ(run.ned.answer.detailed.size(), 1u);
  EXPECT_FALSE(run.ned.answer.detailed[0].is_bottom());
  EXPECT_EQ(run.ned.answer.detailed[0].subquery->kind, OpKind::kJoin);
  EXPECT_EQ(BlamedTuples(run), (std::set<std::string>{"P.id:2"}));
  EXPECT_FALSE(run.baseline.supported);
}

TEST(Table5, Imdb1SelectionPlusJoin) {
  CaseRun run = RunCase("Imdb1");
  ASSERT_EQ(run.ned.answer.condensed.size(), 2u);
  EXPECT_TRUE(CondensedHasKind(run.ned.answer, OpKind::kSelect));
  EXPECT_TRUE(CondensedHasKind(run.ned.answer, OpKind::kJoin));
  // Avatar's movie row dies at the year filter; its rating row at the join.
  EXPECT_EQ(BlamedTuples(run), (std::set<std::string>{"M.id:18", "R.id:124"}));
  // Baseline: only the year selection (it stops at the first frontier).
  ASSERT_EQ(run.baseline.answer.size(), 1u);
  EXPECT_EQ(run.baseline.answer[0]->kind, OpKind::kSelect);
}

TEST(Table5, Imdb2ValidSuccessorsFindWhatPlainTracingMisses) {
  CaseRun run = RunCase("Imdb2");
  // NedExplain: everything converges on the location join.
  ASSERT_EQ(run.ned.answer.condensed.size(), 1u);
  EXPECT_EQ(run.ned.answer.condensed[0]->kind, OpKind::kJoin);
  EXPECT_EQ(BlamedTuples(run),
            (std::set<std::string>{"M.id:40", "R.id:200", "L.id:301"}));
  // Baseline: plain successors reach the result -> no answer at all.
  EXPECT_TRUE(run.baseline.answer.empty());
  EXPECT_TRUE(run.baseline.per_ctuple[0].answer_deemed_present);
}

TEST(Table5, Gov1FourChristophersTwoOperators) {
  CaseRun run = RunCase("Gov1");
  ASSERT_EQ(run.ned.answer.condensed.size(), 2u);
  EXPECT_TRUE(CondensedHasKind(run.ned.answer, OpKind::kSelect));
  EXPECT_TRUE(CondensedHasKind(run.ned.answer, OpKind::kJoin));
  EXPECT_EQ(BlamedTuples(run),
            (std::set<std::string>{"Co.id:569", "Co.id:1495", "Co.id:772",
                                   "Co.id:1072"}));
  // MURPHY (1072) is the one blamed on the join.
  for (const auto& entry : run.ned.answer.detailed) {
    std::string display = run.engine->last_input().DisplayTuple(entry.dir_tuple);
    if (display == "Co.id:1072") {
      EXPECT_EQ(entry.subquery->kind, OpKind::kJoin);
    } else {
      EXPECT_EQ(entry.subquery->kind, OpKind::kSelect);
    }
  }
}

TEST(Table5, Gov2And3SingleTupleAnswers) {
  CaseRun murphy = RunCase("Gov2");
  ASSERT_EQ(murphy.ned.answer.detailed.size(), 1u);
  EXPECT_EQ(murphy.ned.answer.detailed[0].subquery->kind, OpKind::kJoin);
  CaseRun gibson = RunCase("Gov3");
  ASSERT_EQ(gibson.ned.answer.detailed.size(), 1u);
  EXPECT_EQ(gibson.ned.answer.detailed[0].subquery->kind, OpKind::kSelect);
}

TEST(Table5, Gov4SponsorAtThePartyFilterStagesAtTheJoin) {
  CaseRun run = RunCase("Gov4");
  EXPECT_EQ(BlamedTuples(run),
            (std::set<std::string>{"SPO.id:9", "ES.id:78", "ES.id:79",
                                   "ES.id:80"}));
  ASSERT_EQ(run.ned.answer.condensed.size(), 2u);
  // Baseline finds only the party selection.
  ASSERT_EQ(run.baseline.answer.size(), 1u);
  EXPECT_EQ(run.baseline.answer[0]->kind, OpKind::kSelect);
}

TEST(Table5, Gov5EverythingAtTheTopJoin) {
  CaseRun run = RunCase("Gov5");
  ASSERT_EQ(run.ned.answer.condensed.size(), 1u);
  EXPECT_EQ(run.ned.answer.condensed[0]->kind, OpKind::kJoin);
  // Lugar plus many large earmarks.
  EXPECT_GT(run.ned.answer.detailed.size(), 100u);
  EXPECT_EQ(BlamedTuples(run).count("SPO.id:199"), 1u);
  // Baseline agrees on the join here (Lugar's piece dies there).
  ASSERT_EQ(run.baseline.answer.size(), 1u);
  EXPECT_EQ(run.baseline.answer[0], run.ned.answer.condensed[0]);
}

TEST(Table5, Gov6BennettsSumFlipsAtTheSubstageFilter) {
  CaseRun run = RunCase("Gov6");
  ASSERT_EQ(run.ned.answer.detailed.size(), 1u);
  EXPECT_TRUE(run.ned.answer.detailed[0].is_bottom());
  const OperatorNode* node = run.ned.answer.detailed[0].subquery;
  EXPECT_EQ(node->kind, OpKind::kSelect);
  EXPECT_NE(node->predicate->ToString().find("substage"), std::string::npos);
  EXPECT_FALSE(run.baseline.supported);
}

TEST(Table5, Gov7FirstDisjunctAnswersSecondEmpty) {
  CaseRun run = RunCase("Gov7");
  ASSERT_EQ(run.ned.per_ctuple.size(), 2u);
  EXPECT_FALSE(run.ned.per_ctuple[0].answer.detailed.empty());
  EXPECT_TRUE(run.ned.per_ctuple[1].answer.detailed.empty());
  EXPECT_EQ(BlamedTuples(run), (std::set<std::string>{"Co.id:800"}));
  EXPECT_FALSE(run.baseline.supported);
}

TEST(Table5, NedExplainAnswersAreAtLeastAsInformative) {
  // For every supported use case, the baseline's (single) answer never
  // exceeds NedExplain's condensed answer in size, and NedExplain always
  // produces an answer where the baseline produces one.
  for (const UseCase& uc : Registry().use_cases()) {
    CaseRun run = RunCase(uc.name);
    if (!run.baseline.supported) continue;
    EXPECT_LE(run.baseline.answer.size(), run.ned.answer.condensed.size() +
                                              run.ned.answer.secondary.size())
        << uc.name;
    if (!run.baseline.answer.empty()) {
      EXPECT_FALSE(run.ned.answer.condensed.empty()) << uc.name;
    }
  }
}

}  // namespace
}  // namespace ned

// Custom main (instead of gtest_main) so `--update-golden` can rewrite the
// snapshots under tests/golden/ in place.
int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update-golden") ned::g_update_golden = true;
  }
  return RUN_ALL_TESTS();
}
