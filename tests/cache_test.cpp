/// \file cache_test.cpp
/// \brief The snapshot-versioned provenance caches (src/cache/): key
/// normalization, byte-budget LRU eviction, fingerprint distinctness,
/// bit-identical warm replay, reload invalidation, the partial-answer
/// completeness gate, the answer tier's memory of permanent errors, and a
/// multi-client reload-never-stale race.
///
/// Built with -DNED_TSAN=ON the multi-client tests double as the
/// ThreadSanitizer audit of the cache mutexes and the Submit-path
/// answer-cache lookups racing catalog reloads.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "algebra/fingerprint.h"
#include "cache/lru.h"
#include "cache/subtree_cache.h"
#include "canonical/canonicalizer.h"
#include "common/strings.h"
#include "core/report.h"
#include "relational/catalog.h"
#include "service/service.h"
#include "sql/parser.h"
#include "tests/test_util.h"

namespace ned {
namespace {

using testing::MakeTinyDb;
using testing::MustCompile;

constexpr char kTinySql[] = "SELECT R.v FROM R, S WHERE R.k = S.k";

CTuple TinyQuestion() {
  CTuple tc;
  tc.Add("R.v", Value::Str("c"));
  return tc;
}

/// MakeTinyDb with R's third row joining S (k=10 instead of 20), so the
/// why-not tuple R.v='c' *does* reach the root: the answer flips from "the
/// join is picky" to "survivors at root". Distinguishable content for the
/// staleness tests.
Database MakeTinyDbJoined() {
  Database db = MakeTinyDb();
  NED_CHECK(db.RemoveRelation("R").ok());
  NED_CHECK(db.LoadCsv("R", "id,k,v\n1,10,a\n2,10,b\n3,10,c\n").ok());
  return db;
}

/// CSV bodies matching MakeTinyDb's R and MakeTinyDbJoined's R, for
/// Catalog::ReloadCsv round trips.
constexpr char kTinyRCsv[] = "id,k,v\n1,10,a\n2,10,b\n3,20,c\n";
constexpr char kJoinedRCsv[] = "id,k,v\n1,10,a\n2,10,b\n3,10,c\n";

/// Ground-truth answer for kTinySql / TinyQuestion over `db`, computed
/// cache-free (the reference the cached paths must reproduce).
AnswerSummary ExpectedTinyAnswer(const Database& db) {
  QueryTree tree = MustCompile(kTinySql, db);
  auto engine = NedExplainEngine::Create(&tree, &db);
  NED_CHECK_MSG(engine.ok(), engine.status().ToString());
  auto result = engine->Explain(TinyQuestion());
  NED_CHECK_MSG(result.ok(), result.status().ToString());
  return SummarizeResult(*engine, *result);
}

/// Compares every answer-content field -- deliberately NOT the subtree-cache
/// counters, which describe the computation, not the answer.
void ExpectSameAnswer(const AnswerSummary& a, const AnswerSummary& b) {
  EXPECT_EQ(a.detailed, b.detailed);
  EXPECT_EQ(a.condensed, b.condensed);
  EXPECT_EQ(a.secondary, b.secondary);
  EXPECT_EQ(a.dir_total, b.dir_total);
  EXPECT_EQ(a.indir_total, b.indir_total);
  EXPECT_EQ(a.survivors_at_root, b.survivors_at_root);
  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.completeness, b.completeness);
}

void ExpectBitIdentical(const Block& a, const Block& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.rid(i), b.rid(i)) << "row " << i;
    EXPECT_TRUE(a.lineage(i) == b.lineage(i)) << "row " << i;
    EXPECT_TRUE(std::ranges::equal(a.preds(i), b.preds(i))) << "row " << i;
    EXPECT_TRUE(a.values(i) == b.values(i))
        << "row " << i << ": " << a.values(i).ToString() << " vs "
        << b.values(i).ToString();
  }
}

/// A one-row block, for exercising the cache's byte accounting.
std::shared_ptr<const Block> OneRowBlock() {
  BlockBuilder b(1, kIntermediateRidBase, 1);
  b.AddValue(Value::Int(1));
  b.AddLineage(IdSpan(MakeTupleId(0, 0)));
  b.AddPred(MakeTupleId(0, 0));
  b.EndRow();
  return std::make_shared<const Block>(std::move(b).Finish());
}

// ---- SQL normalization -----------------------------------------------------

TEST(NormalizeSql, CollapsesWhitespaceCaseAndTrailingSemicolon) {
  EXPECT_EQ(NormalizeSqlText("SELECT  R.v\n\tFROM R ;"),
            NormalizeSqlText("select r.v from r"));
  EXPECT_EQ(NormalizeSqlText("select r.v from r"), "select r.v from r");
}

TEST(NormalizeSql, StringLiteralsKeepCaseAndSpacing) {
  const std::string upper = NormalizeSqlText("SELECT R.v FROM R WHERE R.v = 'AB  c'");
  const std::string lower = NormalizeSqlText("SELECT R.v FROM R WHERE R.v = 'ab  c'");
  EXPECT_NE(upper, lower);
  EXPECT_NE(upper.find("'AB  c'"), std::string::npos);
}

TEST(NormalizeSql, DifferentQueriesStayDifferent) {
  EXPECT_NE(NormalizeSqlText("SELECT R.v FROM R"),
            NormalizeSqlText("SELECT R.k FROM R"));
}

// ---- byte-budget LRU -------------------------------------------------------

TEST(ByteBudgetLru, EvictsLeastRecentlyUsedUnderBytePressure) {
  // Each entry costs 1 (key) + 100 (value) + 64 (overhead) = 165; budget
  // fits exactly two.
  ByteBudgetLru<int> lru(2 * 165);
  lru.Put("a", 1, 100);
  lru.Put("b", 2, 100);
  ASSERT_TRUE(lru.Get("a").has_value());  // refresh: "b" is now the LRU
  lru.Put("c", 3, 100);
  EXPECT_FALSE(lru.Get("b").has_value());
  EXPECT_TRUE(lru.Get("a").has_value());
  EXPECT_TRUE(lru.Get("c").has_value());
  const LruStats s = lru.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_LE(s.bytes, s.byte_budget);
}

TEST(ByteBudgetLru, RejectsValuesLargerThanTheWholeBudget) {
  ByteBudgetLru<int> lru(200);
  lru.Put("small", 1, 10);
  lru.Put("huge", 2, 10'000);  // must not flush "small" to fail anyway
  EXPECT_FALSE(lru.Get("huge").has_value());
  EXPECT_TRUE(lru.Get("small").has_value());
  EXPECT_EQ(lru.stats().rejected_oversized, 1u);
  EXPECT_EQ(lru.stats().evictions, 0u);
}

TEST(ByteBudgetLru, ZeroBudgetDisables) {
  ByteBudgetLru<int> lru(0);
  lru.Put("a", 1, 1);
  EXPECT_FALSE(lru.Get("a").has_value());
  EXPECT_EQ(lru.stats().entries, 0u);
  EXPECT_EQ(lru.stats().rejected_oversized, 1u);
}

TEST(ByteBudgetLru, ReplacingAKeyReleasesItsOldBytes) {
  ByteBudgetLru<int> lru(1 << 10);
  lru.Put("a", 1, 100);
  const size_t after_first = lru.bytes();
  lru.Put("a", 2, 100);
  EXPECT_EQ(lru.bytes(), after_first);
  EXPECT_EQ(lru.entries(), 1u);
  EXPECT_EQ(lru.Get("a").value(), 2);
}

// ---- fingerprints: collisions by construction ------------------------------

TEST(Fingerprint, TypeTagsKeepIntAndStringLiteralsApart) {
  // Value::ToString renders both as "800"; the fingerprint must not.
  EXPECT_NE(FingerprintValue(Value::Int(800)), FingerprintValue(Value::Str("800")));
  EXPECT_NE(FingerprintValue(Value::Int(1)), FingerprintValue(Value::Real(1.0)));
  // Length prefix: no string payload can forge the separators.
  EXPECT_EQ(FingerprintValue(Value::Str("a")), "s:1:a");
}

TEST(Fingerprint, SameShapeDifferentConditionDiffer) {
  Database db = MakeTinyDb();
  auto fp = [&db](const std::string& sql) {
    auto ast = ParseSql(sql);
    NED_CHECK_MSG(ast.ok(), ast.status().ToString());
    auto spec = BindSql(*ast, db);
    NED_CHECK_MSG(spec.ok(), spec.status().ToString());
    auto print = CanonicalFingerprint(*spec, db);
    NED_CHECK_MSG(print.ok(), print.status().ToString());
    return *print;
  };
  // Identical queries spelled differently: one fingerprint.
  EXPECT_EQ(fp("SELECT R.v FROM R WHERE R.k = 10"),
            fp("select  R.v  from R where R.k = 10"));
  // Same tree shape, different selection constant: distinct fingerprints.
  EXPECT_NE(fp("SELECT R.v FROM R WHERE R.k = 10"),
            fp("SELECT R.v FROM R WHERE R.k = 20"));
  // Same shape, different comparison op.
  EXPECT_NE(fp("SELECT R.v FROM R WHERE R.k = 10"),
            fp("SELECT R.v FROM R WHERE R.k > 10"));
  // Same shape, different projected attribute.
  EXPECT_NE(fp("SELECT R.v FROM R WHERE R.k = 10"),
            fp("SELECT R.id FROM R WHERE R.k = 10"));
}

// ---- subtree cache: warm replay is bit-identical ---------------------------

TEST(SubtreeCache, WarmEvaluationReplaysBitIdenticalRows) {
  Database db = MakeTinyDb();
  QueryTree tree = MustCompile(kTinySql, db);
  NED_ASSERT_OK_AND_MOVE(QueryInput input, QueryInput::Build(tree, db));

  // Reference: no cache at all.
  Evaluator off(&tree, &input);
  NED_ASSERT_OK_AND_MOVE(const Block* out_off, off.EvalAll());

  SubtreeCache cache(1 << 20);
  Evaluator cold(&tree, &input, nullptr, &cache);
  NED_ASSERT_OK_AND_MOVE(const Block* out_cold, cold.EvalAll());
  EXPECT_EQ(cold.cache_hits(), 0u);
  EXPECT_GT(cold.cache_misses(), 0u);

  Evaluator warm(&tree, &input, nullptr, &cache);
  NED_ASSERT_OK_AND_MOVE(const Block* out_warm, warm.EvalAll());
  EXPECT_EQ(warm.cache_misses(), 0u);
  EXPECT_GT(warm.cache_hits(), 0u);
  // A hit shares the cached block itself.
  EXPECT_EQ(out_warm, out_cold);

  ExpectBitIdentical(*out_off, *out_cold);
  ExpectBitIdentical(*out_off, *out_warm);
}

TEST(SubtreeCache, RecompiledQuerySharesEntries) {
  // A second compilation of the same SQL is a different tree object with the
  // same structure; the fingerprint keys must line up.
  Database db = MakeTinyDb();
  QueryTree tree1 = MustCompile(kTinySql, db);
  QueryTree tree2 = MustCompile(kTinySql, db);
  SubtreeCache cache(1 << 20);

  NED_ASSERT_OK_AND_MOVE(QueryInput input1, QueryInput::Build(tree1, db));
  Evaluator cold(&tree1, &input1, nullptr, &cache);
  NED_EXPECT_OK(cold.EvalAll().status());

  NED_ASSERT_OK_AND_MOVE(QueryInput input2, QueryInput::Build(tree2, db));
  Evaluator warm(&tree2, &input2, nullptr, &cache);
  NED_ASSERT_OK_AND_MOVE(const Block* out_warm, warm.EvalAll());
  EXPECT_EQ(warm.cache_misses(), 0u);
  EXPECT_GT(warm.cache_hits(), 0u);

  // Cache-free reference for the content check.
  NED_ASSERT_OK_AND_MOVE(QueryInput input_ref, QueryInput::Build(tree1, db));
  Evaluator ref(&tree1, &input_ref);
  NED_ASSERT_OK_AND_MOVE(const Block* out_ref, ref.EvalAll());
  ExpectBitIdentical(*out_ref, *out_warm);
}

TEST(SubtreeCache, TinyBudgetRejectsOversizedOutputs) {
  SubtreeCache cache(10);  // smaller than any entry's fixed overhead
  cache.Insert("k", OneRowBlock());
  EXPECT_EQ(cache.Lookup("k"), nullptr);
  EXPECT_EQ(cache.stats().rejected_oversized, 1u);
}

TEST(SubtreeCache, EvictsUnderBytePressureAndClearDropsEverything) {
  SubtreeCache probe(1 << 20);
  auto one_row = OneRowBlock();
  probe.Insert("k1", one_row);
  const size_t entry_cost = probe.stats().bytes;

  // Budget for exactly two such entries: the third insert evicts the oldest.
  SubtreeCache cache(2 * entry_cost);
  cache.Insert("k1", one_row);
  cache.Insert("k2", one_row);
  cache.Insert("k3", one_row);
  EXPECT_EQ(cache.Lookup("k1"), nullptr);
  EXPECT_NE(cache.Lookup("k2"), nullptr);
  EXPECT_NE(cache.Lookup("k3"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.stats().bytes, cache.stats().byte_budget);

  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.Lookup("k2"), nullptr);
}

// ---- engine-level warm repeat ----------------------------------------------

TEST(SubtreeCacheEngine, WarmRepeatProducesTheSameAnswerWithZeroMisses) {
  Database db = MakeTinyDb();
  QueryTree tree = MustCompile(kTinySql, db);
  SubtreeCache cache(1 << 20);
  NedExplainOptions opts;
  opts.subtree_cache = &cache;
  NED_ASSERT_OK_AND_MOVE(auto engine, NedExplainEngine::Create(&tree, &db, opts));

  NED_ASSERT_OK_AND_MOVE(NedExplainResult cold, engine.Explain(TinyQuestion()));
  AnswerSummary s_cold = SummarizeResult(engine, cold);
  EXPECT_GT(cold.subtree_cache_misses, 0u);

  NED_ASSERT_OK_AND_MOVE(NedExplainResult warm, engine.Explain(TinyQuestion()));
  AnswerSummary s_warm = SummarizeResult(engine, warm);
  EXPECT_EQ(warm.subtree_cache_misses, 0u);
  EXPECT_GT(warm.subtree_cache_hits, 0u);

  ExpectSameAnswer(s_cold, s_warm);
  ExpectSameAnswer(ExpectedTinyAnswer(db), s_warm);
}

TEST(SubtreeCacheEngine, GovernedChargesAreIndependentOfCacheLuck) {
  Database db = MakeTinyDb();
  QueryTree tree = MustCompile(kTinySql, db);
  NED_ASSERT_OK_AND_MOVE(QueryInput input, QueryInput::Build(tree, db));

  // Drive every node bottom-up, the way NedExplain's traversal does: each
  // node is then either computed or hit-replayed, and a hit charges exactly
  // what recomputation would have.
  auto eval_bottom_up = [&tree](Evaluator& e) {
    for (const OperatorNode* node : tree.bottom_up()) {
      NED_EXPECT_OK(e.EvalNode(node).status());
    }
  };

  ExecContext ctx_off;
  Evaluator off(&tree, &input, &ctx_off);
  eval_bottom_up(off);

  SubtreeCache cache(1 << 20);
  Evaluator cold(&tree, &input, nullptr, &cache);
  eval_bottom_up(cold);

  ExecContext ctx_warm;
  Evaluator warm(&tree, &input, &ctx_warm, &cache);
  eval_bottom_up(warm);
  EXPECT_EQ(warm.cache_misses(), 0u);
  EXPECT_EQ(ctx_warm.rows_charged(), ctx_off.rows_charged());
  EXPECT_EQ(ctx_warm.bytes_charged(), ctx_off.bytes_charged());

  // Root-only evaluation is the one place warm legitimately charges less:
  // a root hit never materializes the children at all.
  ExecContext ctx_root;
  Evaluator root_only(&tree, &input, &ctx_root, &cache);
  NED_EXPECT_OK(root_only.EvalAll().status());
  EXPECT_LE(ctx_root.rows_charged(), ctx_off.rows_charged());
}

TEST(SubtreeCacheEngine, TightBudgetTripsWarmAndColdAlike) {
  Database db = MakeTinyDb();
  QueryTree tree = MustCompile(kTinySql, db);
  NED_ASSERT_OK_AND_MOVE(QueryInput input, QueryInput::Build(tree, db));

  SubtreeCache cache(1 << 20);
  Evaluator prime(&tree, &input, nullptr, &cache);
  NED_EXPECT_OK(prime.EvalAll().status());

  ExecContext ctx_cold;
  ctx_cold.set_row_budget(1);
  Evaluator cold(&tree, &input, &ctx_cold);
  const Status cold_st = cold.EvalAll().status();

  ExecContext ctx_warm;
  ctx_warm.set_row_budget(1);
  Evaluator warm(&tree, &input, &ctx_warm, &cache);
  const Status warm_st = warm.EvalAll().status();

  EXPECT_EQ(cold_st.code(), StatusCode::kResourceExhausted)
      << cold_st.ToString();
  EXPECT_EQ(warm_st.code(), cold_st.code()) << warm_st.ToString();
}

// ---- reload invalidation ---------------------------------------------------

TEST(SubtreeCacheInvalidation, ReloadBumpsOnlyTheReloadedRelationsVersion) {
  auto catalog = std::make_shared<Catalog>();
  NED_EXPECT_OK(catalog->Register("tiny", MakeTinyDb()));
  NED_ASSERT_OK_AND_MOVE(Catalog::Snapshot snap1, catalog->GetSnapshot("tiny"));
  NED_EXPECT_OK(catalog->ReloadCsv("tiny", "R", kJoinedRCsv));
  NED_ASSERT_OK_AND_MOVE(Catalog::Snapshot snap2, catalog->GetSnapshot("tiny"));

  NED_ASSERT_OK_AND_MOVE(const Relation* r1, snap1.db->GetRelation("R"));
  NED_ASSERT_OK_AND_MOVE(const Relation* r2, snap2.db->GetRelation("R"));
  NED_ASSERT_OK_AND_MOVE(const Relation* s1, snap1.db->GetRelation("S"));
  NED_ASSERT_OK_AND_MOVE(const Relation* s2, snap2.db->GetRelation("S"));
  // The copy-on-write reload restamps R but carries S's stamp across the
  // copy: untouched relations keep their cache entries valid.
  EXPECT_NE(r1->data_version(), r2->data_version());
  EXPECT_EQ(s1->data_version(), s2->data_version());
}

TEST(SubtreeCacheInvalidation, ReloadedDataIsNeverServedStale) {
  auto catalog = std::make_shared<Catalog>();
  NED_EXPECT_OK(catalog->Register("tiny", MakeTinyDb()));
  SubtreeCache cache(1 << 20);
  NedExplainOptions opts;
  opts.subtree_cache = &cache;

  auto run = [&opts](const Database& db) {
    QueryTree tree = MustCompile(kTinySql, db);
    auto engine = NedExplainEngine::Create(&tree, &db, opts);
    NED_CHECK_MSG(engine.ok(), engine.status().ToString());
    auto result = engine->Explain(TinyQuestion());
    NED_CHECK_MSG(result.ok(), result.status().ToString());
    AnswerSummary summary = SummarizeResult(*engine, *result);
    summary.subtree_cache_hits = result->subtree_cache_hits;
    summary.subtree_cache_misses = result->subtree_cache_misses;
    return summary;
  };

  NED_ASSERT_OK_AND_MOVE(Catalog::Snapshot snap1, catalog->GetSnapshot("tiny"));
  const AnswerSummary before = run(*snap1.db);
  // Original data: R.v='c' has k=20, no S partner -- the join is picky.
  EXPECT_EQ(before.survivors_at_root, 0u);
  EXPECT_FALSE(before.condensed.empty());

  NED_EXPECT_OK(catalog->ReloadCsv("tiny", "R", kJoinedRCsv));
  NED_ASSERT_OK_AND_MOVE(Catalog::Snapshot snap2, catalog->GetSnapshot("tiny"));
  const AnswerSummary after = run(*snap2.db);
  // Reloaded data joins row 3 through: a stale cache hit would still report
  // the join as picky. The version-stamped keys force recomputation instead.
  EXPECT_GE(after.survivors_at_root, 1u);
  EXPECT_GT(after.subtree_cache_misses, 0u);
  ExpectSameAnswer(ExpectedTinyAnswer(MakeTinyDbJoined()), after);

  // And the new entries are themselves warm now.
  const AnswerSummary again = run(*snap2.db);
  EXPECT_EQ(again.subtree_cache_misses, 0u);
  ExpectSameAnswer(after, again);
}

TEST(SubtreeCacheInvalidation, CachedBlocksNeverPointIntoTheirSnapshot) {
  // ReloadCsv deep-copies the relations it does not reload and keeps their
  // data versions, so an entry computed on V1 over S is hit on V2 after
  // every V1 holder is gone. A cached block must therefore own its values:
  // one that viewed V1's rows in place would read freed memory here, which
  // the sanitizer job reports. The strings are long enough to live on the
  // heap, not inside the Value.
  const std::string pad(40, '-');
  Database db;
  NED_CHECK(db.LoadCsv("R", "id,k\n1,10\n2,20\n").ok());
  NED_CHECK(db.LoadCsv("S", "k,w\n10,x" + pad + "\n20,y" + pad + "\n30,z" +
                                pad + "\n")
                .ok());
  auto catalog = std::make_shared<Catalog>();
  NED_EXPECT_OK(catalog->Register("db", std::move(db)));
  const std::string sql =
      "SELECT S.w FROM R, S WHERE R.k = S.k AND S.w <> 'none'";
  CTuple tc;
  tc.Add("S.w", Value::Str("z" + pad));
  SubtreeCache cache(1 << 20);
  NedExplainOptions opts;
  opts.subtree_cache = &cache;
  {
    NED_ASSERT_OK_AND_MOVE(Catalog::Snapshot v1, catalog->GetSnapshot("db"));
    QueryTree tree = MustCompile(sql, *v1.db);
    NED_ASSERT_OK_AND_MOVE(NedExplainEngine engine,
                           NedExplainEngine::Create(&tree, v1.db.get(), opts));
    NED_EXPECT_OK(engine.Explain(tc).status());
  }
  NED_EXPECT_OK(catalog->ReloadCsv("db", "R", "id,k\n1,10\n2,30\n"));

  NED_ASSERT_OK_AND_MOVE(Catalog::Snapshot v2, catalog->GetSnapshot("db"));
  QueryTree tree = MustCompile(sql, *v2.db);
  NED_ASSERT_OK_AND_MOVE(NedExplainEngine engine,
                         NedExplainEngine::Create(&tree, v2.db.get(), opts));
  NED_ASSERT_OK_AND_MOVE(NedExplainResult warm, engine.Explain(tc));
  EXPECT_GT(warm.subtree_cache_hits, 0u);  // the S subtree from V1
  const AnswerSummary served = SummarizeResult(engine, warm);

  NedExplainOptions no_cache;
  NED_ASSERT_OK_AND_MOVE(NedExplainEngine fresh,
                         NedExplainEngine::Create(&tree, v2.db.get(), no_cache));
  NED_ASSERT_OK_AND_MOVE(NedExplainResult cold, fresh.Explain(tc));
  ExpectSameAnswer(SummarizeResult(fresh, cold), served);
  EXPECT_EQ(served.survivors_at_root, 1u);  // R.k=30 now joins z
}

// ---- answer cache through the service --------------------------------------

WhyNotRequest TinyRequest(const std::string& key) {
  WhyNotRequest req;
  req.key = key;
  req.db_name = "tiny";
  req.sql = kTinySql;
  req.question = WhyNotQuestion(TinyQuestion());
  return req;
}

std::shared_ptr<Catalog> TinyCatalog() {
  auto catalog = std::make_shared<Catalog>();
  NED_CHECK(catalog->Register("tiny", MakeTinyDb()).ok());
  return catalog;
}

TEST(AnswerCacheService, SecondAskIsServedAtSubmitWithoutExecution) {
  WhyNotService service(TinyCatalog());
  auto first = service.Submit(TinyRequest("k1"));
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  WhyNotResponse r1 = first.response.get();
  ASSERT_TRUE(r1.status.ok()) << r1.status.ToString();
  ASSERT_TRUE(r1.answer.complete);
  EXPECT_FALSE(r1.served_from_answer_cache);
  EXPECT_EQ(r1.attempt, 1);

  // Same content, brand-new idempotency key: answered at Submit.
  auto second = service.Submit(TinyRequest("k2"));
  ASSERT_TRUE(second.status.ok()) << second.status.ToString();
  WhyNotResponse r2 = second.response.get();
  ASSERT_TRUE(r2.status.ok()) << r2.status.ToString();
  EXPECT_TRUE(r2.served_from_answer_cache);
  EXPECT_EQ(r2.attempt, 0);
  EXPECT_EQ(r2.snapshot_version, r1.snapshot_version);
  ExpectSameAnswer(r1.answer, r2.answer);

  service.Shutdown();
  const WhyNotService::Stats stats = service.stats();
  EXPECT_EQ(stats.answer_cache_hits, 1u);
  EXPECT_EQ(stats.answer_cache_inserts, 1u);
  // Hits are neither accepted nor completed: exactly-once books still hold.
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.accepted, stats.completed + stats.transient_failures);
  EXPECT_GE(service.answer_cache_stats().entries, 1u);
}

TEST(AnswerCacheService, BypassFlagForcesExecution) {
  WhyNotService service(TinyCatalog());
  service.Submit(TinyRequest("k1")).response.get();

  WhyNotRequest req = TinyRequest("k2");
  req.bypass_answer_cache = true;
  WhyNotResponse resp = service.Submit(std::move(req)).response.get();
  EXPECT_FALSE(resp.served_from_answer_cache);
  EXPECT_EQ(resp.attempt, 1);
  service.Shutdown();
  EXPECT_EQ(service.stats().answer_cache_hits, 0u);
  EXPECT_GE(service.stats().answer_cache_bypass, 1u);
}

TEST(AnswerCacheService, BudgetClassesNeverShareAnEntry) {
  ServiceOptions options;
  WhyNotService service(TinyCatalog(), options);

  WhyNotRequest a = TinyRequest("k1");
  a.row_budget = 10'000;
  ASSERT_TRUE(service.Submit(std::move(a)).response.get().answer.complete);

  // Same query, different row budget: a larger budget can turn a partial
  // answer into a complete one, so the classes must not alias.
  WhyNotRequest b = TinyRequest("k2");
  b.row_budget = 20'000;
  WhyNotResponse rb = service.Submit(std::move(b)).response.get();
  EXPECT_FALSE(rb.served_from_answer_cache);
  EXPECT_EQ(rb.attempt, 1);

  // Same class as the first: hit.
  WhyNotRequest c = TinyRequest("k3");
  c.row_budget = 10'000;
  WhyNotResponse rc = service.Submit(std::move(c)).response.get();
  EXPECT_TRUE(rc.served_from_answer_cache);

  service.Shutdown();
  EXPECT_EQ(service.stats().answer_cache_hits, 1u);
  EXPECT_EQ(service.stats().answer_cache_inserts, 2u);
}

TEST(AnswerCacheService, PartialAnswersAreNeverCached) {
  // A cross join far too large for its deadline: the service answers with an
  // honest partial, which must not be replayed as authoritative.
  auto catalog = std::make_shared<Catalog>();
  Database big;
  std::string r = "a,ra\n", s = "b,sb\n";
  for (int i = 0; i < 1500; ++i) {
    r += std::to_string(i) + "," + std::to_string(i % 7) + "\n";
    s += std::to_string(i) + "," + std::to_string(i % 5) + "\n";
  }
  NED_CHECK(big.LoadCsv("R", r).ok());
  NED_CHECK(big.LoadCsv("S", s).ok());
  NED_EXPECT_OK(catalog->Register("big", std::move(big)));

  ServiceOptions options;
  options.workers = 1;
  WhyNotService service(catalog, options);

  auto slow = [](const std::string& key) {
    WhyNotRequest req;
    req.key = key;
    req.db_name = "big";
    req.sql = "SELECT R.a FROM R, S WHERE R.a >= 0";
    CTuple tc;
    tc.Add("R.a", Value::Int(0));
    req.question = WhyNotQuestion(tc);
    req.deadline_ms = 50;
    return req;
  };

  WhyNotResponse r1 = service.Submit(slow("p1")).response.get();
  ASSERT_TRUE(r1.status.ok()) << r1.status.ToString();
  ASSERT_FALSE(r1.answer.complete);

  WhyNotResponse r2 = service.Submit(slow("p2")).response.get();
  EXPECT_FALSE(r2.served_from_answer_cache);
  EXPECT_EQ(r2.attempt, 1);

  service.Shutdown();
  const WhyNotService::Stats stats = service.stats();
  EXPECT_EQ(stats.answer_cache_inserts, 0u);
  EXPECT_EQ(stats.answer_cache_hits, 0u);
  EXPECT_GE(stats.partial_not_cached, 2u);
  EXPECT_EQ(service.answer_cache_stats().entries, 0u);
}

TEST(AnswerCacheService, ReloadToAnsweredContentIsServedFromMemory) {
  // Persistence off, so only the memory half can serve. The tier keys by
  // content, so a reload that restores answered content hits again.
  auto catalog = TinyCatalog();
  WhyNotService service(catalog);
  NED_EXPECT_OK(catalog->ReloadCsv("tiny", "R", kJoinedRCsv));  // content A
  const WhyNotResponse first = service.Submit(TinyRequest("a1")).response.get();
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  ASSERT_TRUE(first.answer.complete);
  EXPECT_EQ(first.attempt, 1);

  NED_EXPECT_OK(catalog->ReloadCsv("tiny", "R", kTinyRCsv));  // content B
  const WhyNotResponse other = service.Submit(TinyRequest("b1")).response.get();
  ASSERT_TRUE(other.status.ok()) << other.status.ToString();
  EXPECT_EQ(other.attempt, 1);

  NED_EXPECT_OK(catalog->ReloadCsv("tiny", "R", kJoinedRCsv));  // A again
  const WhyNotResponse again = service.Submit(TinyRequest("a2")).response.get();
  ASSERT_TRUE(again.status.ok()) << again.status.ToString();
  EXPECT_TRUE(again.served_from_answer_cache);
  EXPECT_EQ(again.attempt, 0);
  EXPECT_EQ(again.snapshot_version, catalog->VersionOf("tiny"));
  ExpectSameAnswer(first.answer, again.answer);

  service.Shutdown();
  EXPECT_EQ(service.stats().completed, 2u);
  EXPECT_EQ(service.stats().answer_cache_hits, 1u);
}

TEST(AnswerCacheService, CompletedKeyIsServedAgainAfterTheTierEvictsIt) {
  WhyNotRequest q2 = TinyRequest("k2");
  CTuple tc;
  tc.Add("R.v", Value::Str("a"));
  q2.question = WhyNotQuestion(tc);

  // Measure what each answer costs the memory half, then size it for one.
  size_t one = 0, both = 0;
  {
    WhyNotService probe(TinyCatalog());
    ASSERT_TRUE(probe.Submit(TinyRequest("k1")).response.get().status.ok());
    one = probe.answer_cache_stats().bytes;
    ASSERT_TRUE(probe.Submit(q2).response.get().status.ok());
    both = probe.answer_cache_stats().bytes;
    probe.Shutdown();
  }
  ASSERT_GT(one, 0u);
  ASSERT_GT(both, one);
  ServiceOptions options;
  options.answer_cache_bytes = std::max(one, both - one);
  WhyNotService service(TinyCatalog(), options);

  const WhyNotResponse r1 = service.Submit(TinyRequest("k1")).response.get();
  ASSERT_TRUE(r1.status.ok()) << r1.status.ToString();
  ASSERT_TRUE(r1.answer.complete);
  ASSERT_TRUE(service.Submit(q2).response.get().status.ok());
  ASSERT_EQ(service.answer_cache_stats().evictions, 1u);  // q1 is gone
  ASSERT_EQ(service.answer_cache_stats().entries, 1u);

  // The idempotency book shares the answer, so k1 still re-serves it
  // without executing anything.
  const uint64_t completed = service.stats().completed;
  auto again = service.Submit(TinyRequest("k1"));
  ASSERT_TRUE(again.status.ok()) << again.status.ToString();
  EXPECT_TRUE(again.deduped);
  const WhyNotResponse r1_again = again.response.get();
  EXPECT_EQ(r1_again.attempt, r1.attempt);
  ExpectSameAnswer(r1.answer, r1_again.answer);
  EXPECT_EQ(service.stats().completed, completed);
  service.Shutdown();
}

// ---- permanent errors through the service -----------------------------------

/// Names relation X, which the tiny database lacks: binding fails the same
/// way every time until a reload creates X.
WhyNotRequest PoisonRequest(const std::string& key) {
  WhyNotRequest req = TinyRequest(key);
  req.sql = "SELECT X.v FROM X, S WHERE X.k = S.k";
  CTuple tc;
  tc.Add("X.v", Value::Str("c"));
  req.question = WhyNotQuestion(tc);
  return req;
}

TEST(AnswerCacheService,
     PoisonContentExecutesOnceThenFailsFastUntilItsDataChanges) {
  const std::string dir = ::testing::TempDir() + "cache_test_poison";
  testing::RemoveTree(dir);
  auto catalog = TinyCatalog();
  ServiceOptions options;
  options.persist_dir = dir;
  WhyNotService service(catalog, options);

  auto first = service.Submit(PoisonRequest("p1"));
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  const WhyNotResponse r1 = first.response.get();
  ASSERT_FALSE(r1.status.ok());
  EXPECT_FALSE(r1.retryable());
  EXPECT_EQ(r1.attempt, 1);

  // Same content under fresh keys: rejected at Submit with the same code,
  // never admitted, journaled or executed.
  for (const char* key : {"p2", "p3"}) {
    const auto again = service.Submit(PoisonRequest(key));
    EXPECT_EQ(again.status.code(), r1.status.code())
        << again.status.ToString();
    EXPECT_TRUE(again.breaker_fast_fail);
  }
  WhyNotService::Stats stats = service.stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.journaled_accepts, 1u);
  EXPECT_EQ(stats.breaker_fast_fails, 2u);
  // The error lives in memory only: no answer hit, no entry file.
  EXPECT_EQ(stats.answer_cache_hits, 0u);
  EXPECT_EQ(stats.answer_store_puts, 0u);

  // The operator creates X: new content, new key, so the same request
  // executes and succeeds -- no timer involved.
  NED_EXPECT_OK(catalog->ReloadCsv("tiny", "X", "id,k,v\n1,20,c\n"));
  auto healed = service.Submit(PoisonRequest("p4"));
  ASSERT_TRUE(healed.status.ok()) << healed.status.ToString();
  const WhyNotResponse r4 = healed.response.get();
  ASSERT_TRUE(r4.status.ok()) << r4.status.ToString();
  EXPECT_TRUE(r4.answer.complete);
  EXPECT_EQ(r4.attempt, 1);
  service.Shutdown();
  stats = service.stats();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.breaker_fast_fails, 2u);
  testing::RemoveTree(dir);
}

TEST(AnswerCacheService, PartialTransientAndBypassOutcomesAreNeverRemembered) {
  WhyNotService service(TinyCatalog());
  // A budget-tripped partial answer is not the content's answer: the same
  // budget class executes again.
  for (const char* key : {"b1", "b2"}) {
    WhyNotRequest req = TinyRequest(key);
    req.row_budget = 1;
    const WhyNotResponse resp = service.Submit(std::move(req)).response.get();
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
    EXPECT_FALSE(resp.answer.complete);
    EXPECT_EQ(resp.answer.tripped, StatusCode::kResourceExhausted);
    EXPECT_EQ(resp.attempt, 1);
  }
  // An injected transient failure is retryable, and the retry under the same
  // key executes again; neither its kUnavailable nor the retry's bind error
  // is remembered, since chaos knobs bypass the tier.
  WhyNotRequest transient = PoisonRequest("t1");
  transient.inject_transient_failures = 1;
  EXPECT_TRUE(service.Submit(transient).response.get().retryable());
  const WhyNotResponse retried = service.Submit(transient).response.get();
  EXPECT_FALSE(retried.status.ok());
  EXPECT_FALSE(retried.retryable());
  EXPECT_EQ(retried.attempt, 2);
  // So the plain poison request still executes, and only now is its error
  // remembered ...
  auto plain = service.Submit(PoisonRequest("p1"));
  ASSERT_TRUE(plain.status.ok()) << plain.status.ToString();
  EXPECT_EQ(plain.response.get().attempt, 1);
  // ... which a bypassing request never consults: it executes.
  WhyNotRequest bypass = PoisonRequest("x1");
  bypass.bypass_answer_cache = true;
  auto bypassed = service.Submit(std::move(bypass));
  ASSERT_TRUE(bypassed.status.ok()) << bypassed.status.ToString();
  EXPECT_EQ(bypassed.response.get().attempt, 1);
  EXPECT_TRUE(service.Submit(PoisonRequest("p2")).breaker_fast_fail);
  service.Shutdown();
  const WhyNotService::Stats stats = service.stats();
  EXPECT_EQ(stats.accepted, 6u);
  EXPECT_EQ(stats.breaker_fast_fails, 1u);
  EXPECT_EQ(stats.answer_cache_inserts, 0u);
  EXPECT_EQ(stats.partial_not_cached, 2u);
}

// ---- multi-client staleness race -------------------------------------------

TEST(AnswerCacheService, ConcurrentReloadsNeverServeAStaleAnswer) {
  // Clients hammer the same question while a reloader flips R between two
  // contents with distinguishable answers. Every response -- executed or
  // cache-served -- must match the content of the snapshot version it
  // reports, or the cache leaked an answer across a reload.
  const AnswerSummary expect_picky = ExpectedTinyAnswer(MakeTinyDb());
  const AnswerSummary expect_joined = ExpectedTinyAnswer(MakeTinyDbJoined());
  ASSERT_EQ(expect_picky.survivors_at_root, 0u);
  ASSERT_GE(expect_joined.survivors_at_root, 1u);

  auto catalog = TinyCatalog();  // version 1 = original (picky) content
  ServiceOptions options;
  options.workers = 4;
  options.queue_capacity = 512;
  WhyNotService service(catalog, options);

  constexpr int kReloads = 12;
  std::thread reloader([&] {
    for (int i = 1; i <= kReloads; ++i) {
      // Reload i publishes version 1 + i: odd i -> joined, even i -> picky.
      // So across the run, odd versions carry picky content, even joined.
      NED_EXPECT_OK(catalog->ReloadCsv("tiny", "R",
                                       i % 2 == 1 ? kJoinedRCsv : kTinyRCsv));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  constexpr int kClients = 3;
  constexpr int kPerClient = 40;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        auto sub = service.Submit(
            TinyRequest("c" + std::to_string(c) + "-" + std::to_string(i)));
        if (!sub.status.ok()) continue;  // shed under load: fine, retry-free
        WhyNotResponse resp = sub.response.get();
        ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
        ASSERT_TRUE(resp.answer.complete);
        const AnswerSummary& expected =
            resp.snapshot_version % 2 == 1 ? expect_picky : expect_joined;
        ExpectSameAnswer(expected, resp.answer);
      }
    });
  }
  for (auto& t : clients) t.join();
  reloader.join();
  service.Shutdown();

  const WhyNotService::Stats stats = service.stats();
  // The cache must actually have been exercised for this to prove anything.
  EXPECT_GT(stats.answer_cache_hits, 0u);
  EXPECT_EQ(stats.accepted, stats.completed + stats.transient_failures);
}

}  // namespace
}  // namespace ned
