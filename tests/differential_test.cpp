/// \file differential_test.cpp
/// \brief Tier-1 differential test: engine vs. brute-force oracle.
///
/// Sweeps a pinned seed range (kFirstSeed..kLastSeed, >= 2000 workloads)
/// through the differential harness: for every workload the NedExplain
/// engine and the reference oracle must agree on the unrenamed question,
/// Dir/InDir, root survivors, and the detailed, condensed and secondary
/// answers -- with early termination off and on -- plus Why-Not baseline
/// bottom-up/top-down equivalence and an SQL round-trip of the printed
/// query. Any failure message carries the seed and the exact CLI repro
/// command (satellite c). Also proves the harness itself works: an injected
/// engine divergence is caught, shrunk, and serialised as a repro.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>
#include <string>

#include "cache/subtree_cache.h"
#include "canonical/canonicalizer.h"
#include "canonical/query_spec.h"
#include "core/nedexplain.h"
#include "core/report.h"
#include "datasets/use_cases.h"
#include "testing/difftest.h"
#include "testing/oracle.h"
#include "testing/workload.h"

namespace ned {
namespace {

// Pinned seed range. The upper bound keeps tier-1 runtime around a second
// while clearing the >= 2000-workload floor; the nightly soak (see
// docs/TESTING.md) rotates a 10k window over the rest of the seed space.
constexpr uint64_t kFirstSeed = 1;
constexpr uint64_t kLastSeed = 2400;

TEST(Differential, SweepPinnedSeedRange) {
  std::map<std::string, size_t> scenarios;
  size_t ran = 0;
  size_t nontrivial = 0;  // workloads whose agreed answer is non-empty
  size_t failures = 0;
  for (uint64_t seed = kFirstSeed; seed <= kLastSeed; ++seed) {
    GenWorkload w = MakeDiffWorkload(seed);
    // Strip the planted pattern suffix ("planted:empty-select" etc.) so the
    // coverage assertion below counts shapes.
    scenarios[w.scenario.substr(0, w.scenario.find(':'))]++;
    DiffOutcome outcome = RunDiffOnWorkload(w);
    if (!outcome.ok()) {
      ++failures;
      ADD_FAILURE() << "seed " << seed << " diverged:\n" << outcome.Summary();
      if (failures >= 10) {
        GTEST_FAIL() << "stopping after 10 divergent seeds; run `"
                     << ReproCommand(seed) << "` to investigate further";
      }
      continue;
    }
    if (!outcome.ran) continue;  // both sides rejected with the same status
    ++ran;
    auto compiled = CompileWorkload(w);
    ASSERT_TRUE(compiled.ok());
    auto oracle =
        OracleExplain(*(*compiled).tree, *(*compiled).db, w.question);
    ASSERT_TRUE(oracle.ok()) << "seed " << seed;
    if (!(*oracle).answer.empty()) ++nontrivial;
  }
  // The sweep only means something if it exercised every generator shape and
  // regularly produced non-empty answers, not just agreeing empties.
  for (const char* shape : {"chain", "star", "self-join", "union",
                            "difference", "aggregate", "planted"}) {
    EXPECT_GT(scenarios[shape], 0u) << "shape never generated: " << shape;
  }
  EXPECT_GE(ran, (kLastSeed - kFirstSeed + 1) * 9 / 10)
      << "too many workloads rejected by both sides";
  EXPECT_GE(nontrivial, ran / 4)
      << "suspiciously few workloads with a non-empty Why-Not answer";
}

// Hand-built sanity check: the oracle must blame an emptying selection on
// its own, independent of the engine -- this is the anchor that the two
// sides are not just agreeing on a shared bug.
TEST(Differential, OracleBlamesEmptyingSelection) {
  Relation t("T0", Schema({{"T0", "id"}, {"T0", "v"}}));
  t.AddRow({Value::Int(1), Value::Int(3)});
  t.AddRow({Value::Int(2), Value::Int(5)});
  Database db;
  ASSERT_TRUE(db.AddRelation(t).ok());

  QuerySpec spec;
  QueryBlock block;
  block.tables.push_back({"T0", "T0"});
  block.selections.push_back(
      Cmp(Col("T0", "v"), CompareOp::kGt, Lit(int64_t{100})));
  block.projection = {{"T0", "v"}};
  spec.blocks.push_back(std::move(block));

  auto tree = Canonicalize(spec, db, {});
  ASSERT_TRUE(tree.ok());

  CTuple tc;
  tc.Add("T0.v", Value::Int(3));
  WhyNotQuestion q(tc);

  auto res = OracleExplain(*tree, db, q);
  ASSERT_TRUE(res.ok());
  const OracleResult& r = *res;
  ASSERT_EQ(r.per_ctuple.size(), 1u);
  EXPECT_EQ(r.per_ctuple[0].dir.size(), 1u);  // only the v=3 row matches
  EXPECT_EQ(r.per_ctuple[0].survivors_at_root, 0u);
  ASSERT_EQ(r.answer.condensed.size(), 1u);
  EXPECT_EQ((*r.answer.condensed.begin())->kind, OpKind::kSelect);
  ASSERT_FALSE(r.answer.detailed.empty());
  for (const auto& [tid, node] : r.answer.detailed) {
    EXPECT_EQ(node->kind, OpKind::kSelect);
  }
}

// The harness must catch a divergence: with inject_divergence the driver
// drops one condensed subquery from the engine's answer, and the sweep is
// required to flag it. The shrinker must then minimise the workload while
// preserving the original mismatch kind, and the repro serialisers must
// produce the CSV/SQL/gtest artifacts.
TEST(Differential, InjectedDivergenceIsCaughtShrunkAndSerialised) {
  DiffOptions inject;
  inject.inject_divergence = true;
  // Keep the search cheap: baseline and round-trip checks cannot observe the
  // injected fault.
  inject.check_baseline = false;
  inject.check_sql_roundtrip = false;

  uint64_t failing_seed = 0;
  for (uint64_t seed = kFirstSeed; seed <= kFirstSeed + 200; ++seed) {
    DiffOutcome outcome = RunDiffSeed(seed, inject);
    if (!outcome.ok()) {
      failing_seed = seed;
      break;
    }
  }
  ASSERT_NE(failing_seed, 0u)
      << "no seed with a non-empty condensed answer in the probe range; "
         "the injected divergence was never observable";

  GenWorkload w = MakeDiffWorkload(failing_seed);
  DiffOutcome original = RunDiffOnWorkload(w, inject);
  ASSERT_FALSE(original.ok());
  EXPECT_TRUE(original.HasKind("condensed")) << original.Summary();
  // Satellite (c): the summary must carry the repro command.
  EXPECT_NE(original.Summary().find(ReproCommand(failing_seed)),
            std::string::npos)
      << original.Summary();

  ShrinkResult shrunk = ShrinkWorkload(w, inject);
  EXPECT_FALSE(shrunk.outcome.ok());
  EXPECT_TRUE(shrunk.outcome.HasKind("condensed")) << shrunk.outcome.Summary();
  EXPECT_LE(shrunk.workload.TotalRows(), w.TotalRows());
  EXPECT_GT(shrunk.tried, 0u);

  std::string gtest_case = ReproGTestCase(shrunk.workload);
  EXPECT_NE(gtest_case.find("TEST(DiffRepro"), std::string::npos);
  EXPECT_NE(gtest_case.find("RunDiff"), std::string::npos);

  std::string dir = ::testing::TempDir() + "ned_difftest_repro";
  ASSERT_TRUE(WriteRepro(shrunk.workload, shrunk.outcome, dir).ok());
  std::string stem = dir + "/seed" + std::to_string(failing_seed);
  EXPECT_TRUE(std::filesystem::exists(stem + ".sql"));
  EXPECT_TRUE(std::filesystem::exists(stem + "_test.cc"));
  bool any_csv = false;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".csv") any_csv = true;
  }
  EXPECT_TRUE(any_csv) << "no CSV instance files written to " << dir;
  std::filesystem::remove_all(dir);
}

// Every generated workload's printed SQL must be non-empty (the generator
// stays inside the grammar) and parse back (checked in the sweep); here we
// additionally pin the printer output shape for one seed of each flavour.
TEST(Differential, GeneratorAlwaysPrintsSql) {
  for (uint64_t seed = kFirstSeed; seed <= kFirstSeed + 300; ++seed) {
    GenWorkload w = MakeDiffWorkload(seed);
    EXPECT_FALSE(SpecToSql(w.spec).empty())
        << "seed " << seed << " (" << w.scenario << ") printed no SQL";
  }
}

// ---- caching must be answer-invisible (PR 4) -------------------------------

/// True when the two summaries carry the same *answer* (the cache counters
/// are computation metadata and deliberately excluded).
bool SameAnswer(const AnswerSummary& a, const AnswerSummary& b) {
  return a.detailed == b.detailed && a.condensed == b.condensed &&
         a.secondary == b.secondary && a.dir_total == b.dir_total &&
         a.indir_total == b.indir_total &&
         a.survivors_at_root == b.survivors_at_root &&
         a.complete == b.complete && a.completeness == b.completeness;
}

// Sweep: for every generated workload, the engine with a shared SubtreeCache
// -- run twice, so the second pass replays entirely from cache -- must
// produce bit-identical detailed/condensed/secondary answers to the
// cache-free engine, and the warm pass must recompute nothing.
TEST(Differential, CachedEngineMatchesCacheFreeOverSeedSweep) {
  constexpr uint64_t kSweepFirst = 1;
  constexpr uint64_t kSweepLast = 1000;
  size_t ran = 0;
  uint64_t warm_hits = 0;
  size_t failures = 0;
  for (uint64_t seed = kSweepFirst; seed <= kSweepLast; ++seed) {
    GenWorkload w = MakeDiffWorkload(seed);
    auto compiled = CompileWorkload(w);
    if (!compiled.ok()) continue;  // rejected workloads are the sweep's job
    auto engine_off = NedExplainEngine::Create((*compiled).tree.get(),
                                               (*compiled).db.get());
    if (!engine_off.ok()) continue;
    auto r_off = engine_off->Explain(w.question);
    if (!r_off.ok()) continue;
    const AnswerSummary s_off = SummarizeResult(*engine_off, *r_off);

    SubtreeCache cache(64u << 20);
    NedExplainOptions on_opts;
    on_opts.subtree_cache = &cache;
    auto engine_on = NedExplainEngine::Create((*compiled).tree.get(),
                                              (*compiled).db.get(), on_opts);
    ASSERT_TRUE(engine_on.ok()) << "seed " << seed;
    for (int pass = 0; pass < 2; ++pass) {
      auto r_on = engine_on->Explain(w.question);
      ASSERT_TRUE(r_on.ok()) << "seed " << seed << " pass " << pass;
      const AnswerSummary s_on = SummarizeResult(*engine_on, *r_on);
      if (!SameAnswer(s_off, s_on)) {
        ++failures;
        ADD_FAILURE() << "seed " << seed << " pass " << pass
                      << ": cached answer diverged\n  off: " << s_off.ToString()
                      << "\n  on:  " << s_on.ToString() << "\n"
                      << DescribeWorkload(w);
        if (failures >= 10) {
          GTEST_FAIL() << "stopping after 10 divergent seeds";
        }
      }
      if (pass == 1) {
        EXPECT_EQ(r_on->subtree_cache_misses, 0u)
            << "seed " << seed << ": warm pass recomputed a subtree";
        warm_hits += r_on->subtree_cache_hits;
      }
    }
    ++ran;
  }
  EXPECT_GE(ran, (kSweepLast - kSweepFirst + 1) * 9 / 10)
      << "too many workloads skipped; the cache sweep lost its coverage";
  EXPECT_GT(warm_hits, 0u) << "no warm pass ever hit the cache";
}

// The 19 Fig. 6 / Table 4 use cases: the full rendered report (the artifact
// the checked-in goldens pin) must be byte-identical with caching on, cold
// and warm alike -- so golden stability under caching follows transitively
// from use_cases_test.
TEST(Differential, UseCaseReportsAreUnchangedByCaching) {
  auto registry = UseCaseRegistry::Build();
  ASSERT_TRUE(registry.ok()) << registry.status().ToString();
  ASSERT_EQ(registry->use_cases().size(), 19u);

  // One cache across all 19: entries from different queries over the same
  // database may legitimately collide on shared subtrees, which must still
  // be answer-invisible.
  SubtreeCache cache(256u << 20);
  uint64_t warm_hits = 0;
  for (const UseCase& uc : registry->use_cases()) {
    auto tree = registry->BuildTree(uc);
    ASSERT_TRUE(tree.ok()) << uc.name << ": " << tree.status().ToString();
    const Database& db = registry->database(uc.db_name);

    auto engine_off = NedExplainEngine::Create(&*tree, &db);
    ASSERT_TRUE(engine_off.ok()) << uc.name;
    auto r_off = engine_off->Explain(uc.question);
    ASSERT_TRUE(r_off.ok()) << uc.name;
    const std::string report_off =
        RenderExplainReport(*engine_off, uc.question, *r_off);

    NedExplainOptions opts;
    opts.subtree_cache = &cache;
    auto engine_on = NedExplainEngine::Create(&*tree, &db, opts);
    ASSERT_TRUE(engine_on.ok()) << uc.name;
    for (int pass = 0; pass < 2; ++pass) {
      auto r_on = engine_on->Explain(uc.question);
      ASSERT_TRUE(r_on.ok()) << uc.name << " pass " << pass;
      EXPECT_EQ(RenderExplainReport(*engine_on, uc.question, *r_on), report_off)
          << uc.name << " pass " << pass << ": cached report diverged";
      if (pass == 1) {
        EXPECT_EQ(r_on->subtree_cache_misses, 0u) << uc.name;
        warm_hits += r_on->subtree_cache_hits;
      }
    }
  }
  EXPECT_GT(warm_hits, 0u);
}

TEST(Differential, ReproCommandNamesTheSeed) {
  std::string cmd = ReproCommand(42);
  EXPECT_NE(cmd.find("ned_difftest"), std::string::npos);
  EXPECT_NE(cmd.find("42..42"), std::string::npos);
  EXPECT_NE(cmd.find("--shrink"), std::string::npos);
}

}  // namespace
}  // namespace ned
