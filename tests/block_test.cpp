/// \file block_test.cpp
/// \brief Per-node output blocks against the real heap: an evaluation's
/// memory charges must be the bytes its blocks actually hold.
///
/// This binary replaces the global allocation functions with counting ones,
/// so the check does not rest on Block::bytes()'s own arithmetic: the bytes
/// an evaluation leaves allocated (its blocks) are measured independently.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "exec/evaluator.h"
#include "tests/test_util.h"

namespace {

std::atomic<int64_t> g_live_bytes{0};

/// Every allocation carries its size in a header so frees can be counted.
constexpr size_t kHeader = alignof(std::max_align_t);

void* CountedAlloc(size_t size) {
  void* p = std::malloc(size + kHeader);
  if (p == nullptr) return nullptr;
  *static_cast<size_t*>(p) = size;
  g_live_bytes.fetch_add(static_cast<int64_t>(size), std::memory_order_relaxed);
  return static_cast<char*>(p) + kHeader;
}

void CountedFree(void* p) {
  if (p == nullptr) return;
  void* base = static_cast<char*>(p) - kHeader;
  g_live_bytes.fetch_sub(static_cast<int64_t>(*static_cast<size_t*>(base)),
                         std::memory_order_relaxed);
  std::free(base);
}

}  // namespace

void* operator new(size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}

namespace ned {
namespace {

using testing::MustCompile;

/// R(id, k, name) and S(id, k, note) with `rows` rows each; every string is
/// too long for the small-string buffer, so blocks hold string payloads too.
Database MakeStringDb(int rows) {
  Database db;
  Relation r("R", Schema({{"R", "id"}, {"R", "k"}, {"R", "name"}}));
  Relation s("S", Schema({{"S", "id"}, {"S", "k"}, {"S", "note"}}));
  for (int i = 0; i < rows; ++i) {
    r.AddRow({Value::Int(i), Value::Int(i % 97),
              Value::Str("relation-r-name-" + std::to_string(i))});
    s.AddRow({Value::Int(i), Value::Int(i % 89),
              Value::Str("relation-s-note-" + std::to_string(i % 300))});
  }
  NED_CHECK(db.AddRelation(std::move(r)).ok());
  NED_CHECK(db.AddRelation(std::move(s)).ok());
  return db;
}

void ExpectChargesMatchHeldBytes(const std::string& sql) {
  Database db = MakeStringDb(3000);
  QueryTree tree = MustCompile(sql, db);
  NED_ASSERT_OK_AND_MOVE(QueryInput input, QueryInput::Build(tree, db));
  ExecContext ctx;
  Evaluator evaluator(&tree, &input, &ctx);

  const int64_t before = g_live_bytes.load();
  ASSERT_TRUE(evaluator.EvalAll().ok());
  const int64_t held = g_live_bytes.load() - before;

  size_t block_bytes = 0;
  for (const OperatorNode* node : tree.bottom_up()) {
    if (!node->is_leaf()) block_bytes += evaluator.TryGetOutput(node)->bytes();
  }
  const double charged = static_cast<double>(ctx.bytes_charged());
  EXPECT_EQ(ctx.bytes_charged(), block_bytes) << sql;
  // Large enough that per-block constants do not decide the ratio.
  EXPECT_GT(held, 50000) << sql;
  EXPECT_NEAR(charged, static_cast<double>(held),
              0.10 * static_cast<double>(held))
      << sql << ": charged " << charged << " B, blocks hold " << held << " B";
}

TEST(BlockBytes, JoinAndProjectionChargesAreHeldBytes) {
  ExpectChargesMatchHeldBytes(
      "SELECT R.name, S.note FROM R, S WHERE R.k = S.k AND R.id < 600");
}

TEST(BlockBytes, SelectionUnionAndAggregateChargesAreHeldBytes) {
  ExpectChargesMatchHeldBytes(
      "SELECT R.name FROM R WHERE R.k > 3 UNION SELECT S.note FROM S");
  ExpectChargesMatchHeldBytes(
      "SELECT R.k, count(R.id) AS c, min(R.name) AS lo FROM R GROUP BY R.k");
}

TEST(BlockBytes, ScansViewTheDatabaseRowsInPlace) {
  Database db = MakeStringDb(100);
  QueryTree tree = MustCompile("SELECT R.name FROM R", db);
  const int64_t before = g_live_bytes.load();
  NED_ASSERT_OK_AND_MOVE(QueryInput input, QueryInput::Build(tree, db));
  // Building the input copies no rows: only bookkeeping is allocated.
  EXPECT_LT(g_live_bytes.load() - before, 4096);
  NED_ASSERT_OK_AND_MOVE(const Block* rows, input.AliasBlock("R"));
  NED_ASSERT_OK_AND_MOVE(const Relation* r, db.GetRelation("R"));
  ASSERT_EQ(rows->size(), r->size());
  EXPECT_EQ(rows->values(7).data(), r->row(7).values().data());
  EXPECT_TRUE(rows->lineage(7) == IdSpan(rows->rid(7)));
  EXPECT_TRUE(rows->preds(7).empty());
}

}  // namespace
}  // namespace ned
