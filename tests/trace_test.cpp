/// \file trace_test.cpp
/// \brief Trace semantics (ManualClock-exact durations, LIFO auto-close,
/// PhaseNanos) and the engine's span structure: the span tree of every
/// golden use case is pinned by digest.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/timer.h"
#include "core/nedexplain.h"
#include "datasets/use_cases.h"
#include "exec/exec_context.h"
#include "obs/trace.h"

namespace ned {
namespace {

using obs::PhasedSpanScope;
using obs::Span;
using obs::SpanScope;
using obs::Trace;

// ---- core semantics under ManualClock -------------------------------------

TEST(Trace, ManualClockDurationsAreExact) {
  ManualClock clock;
  Trace trace(&clock);
  const int32_t root = trace.OpenSpan("root");
  clock.AdvanceMs(2);
  const int32_t child = trace.OpenSpan("child");
  clock.AdvanceMs(5);
  trace.CloseSpan(child);
  clock.AdvanceMs(1);
  trace.CloseSpan(root);

  ASSERT_EQ(trace.spans().size(), 2u);
  const Span& r = trace.spans()[0];
  const Span& c = trace.spans()[1];
  EXPECT_EQ(r.name, "root");
  EXPECT_EQ(r.parent, -1);
  EXPECT_EQ(r.start_ns, 0);
  EXPECT_EQ(r.end_ns, 8'000'000);
  EXPECT_EQ(c.name, "child");
  EXPECT_EQ(c.parent, root);
  EXPECT_EQ(c.start_ns, 2'000'000);
  EXPECT_EQ(c.end_ns, 7'000'000);
}

TEST(Trace, CloseSpanAutoClosesForgottenDescendants) {
  // Error paths may return out of a nested region without closing inner
  // spans; closing an ancestor must clean them up at the same instant.
  ManualClock clock;
  Trace trace(&clock);
  const int32_t outer = trace.OpenSpan("outer");
  trace.OpenSpan("inner");
  trace.OpenSpan("innermost");
  clock.AdvanceMs(3);
  trace.CloseSpan(outer);
  for (const Span& span : trace.spans()) {
    EXPECT_EQ(span.end_ns, 3'000'000) << span.name;
  }
}

TEST(Trace, RenderStructureShowsNamesAndNesting) {
  Trace trace;
  const int32_t a = trace.OpenSpan("a");
  const int32_t b = trace.OpenSpan("b");
  trace.CloseSpan(b);
  trace.CloseSpan(a);
  const int32_t c = trace.OpenSpan("c");
  trace.CloseSpan(c);
  EXPECT_EQ(trace.RenderStructure(), "a\n  b\nc\n");
}

TEST(Trace, RenderIncludesDurations) {
  ManualClock clock;
  Trace trace(&clock);
  const int32_t a = trace.OpenSpan("a");
  clock.AdvanceMs(2);
  trace.CloseSpan(a);
  trace.OpenSpan("open_one");
  const std::string rendered = trace.Render();
  EXPECT_NE(rendered.find("a 2000us"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("open_one (open)"), std::string::npos) << rendered;
}

TEST(Trace, PhaseNanosSkipsSameNamedNesting) {
  ManualClock clock;
  Trace trace(&clock);
  const int32_t outer = trace.OpenSpan("phase");
  clock.AdvanceMs(1);
  const int32_t inner = trace.OpenSpan("phase");  // recursive: not re-counted
  clock.AdvanceMs(2);
  trace.CloseSpan(inner);
  clock.AdvanceMs(1);
  trace.CloseSpan(outer);
  EXPECT_EQ(trace.PhaseNanos("phase"), 4'000'000);
  EXPECT_EQ(trace.PhaseNanos("absent"), 0);
}

TEST(Trace, SpanScopeOnNullTraceIsANoOp) {
  SpanScope scope(nullptr, "never");
  PhaseTimer timer;
  { PhasedSpanScope phased(&timer, "p", nullptr); }
  EXPECT_GE(timer.Nanos("p"), 0);
}

TEST(Trace, PhasedSpanScopeChargesTimerAndSpanIdentically) {
  // One pair of clock readings feeds both sinks: the trace-derived phase
  // number must equal the PhaseTimer charge exactly, which is what lets
  // bench_fig5 reproduce its breakdown from spans.
  ManualClock clock;
  Trace trace(&clock);
  PhaseTimer timer;
  {
    PhasedSpanScope scope(&timer, "Initialization", &trace);
    clock.AdvanceMs(7);
  }
  EXPECT_EQ(timer.Nanos("Initialization"), 7'000'000);
  EXPECT_EQ(trace.PhaseNanos("Initialization"), 7'000'000);
}

// ---- engine span emission -------------------------------------------------

const UseCaseRegistry& Registry() {
  static const UseCaseRegistry* registry = [] {
    auto r = UseCaseRegistry::Build();
    NED_CHECK(r.ok());
    return new UseCaseRegistry(std::move(r).value());
  }();
  return *registry;
}

std::string TraceStructureFor(const UseCase& uc, ExecContext* ctx) {
  auto tree = Registry().BuildTree(uc);
  NED_CHECK_MSG(tree.ok(), tree.status().ToString());
  const Database& db = Registry().database(uc.db_name);
  auto engine = NedExplainEngine::Create(&*tree, &db);
  NED_CHECK(engine.ok());
  Trace trace;
  ctx->set_trace(&trace);
  auto result = engine->Explain(uc.question, ctx);
  NED_CHECK_MSG(result.ok(), result.status().ToString());
  ctx->set_trace(nullptr);
  return trace.RenderStructure();
}

TEST(EngineTrace, EmitsTheFigFivePhases) {
  const UseCase& uc = Registry().use_cases()[0];
  ExecContext ctx;
  const std::string structure = TraceStructureFor(uc, &ctx);
  EXPECT_NE(structure.find("Initialization"), std::string::npos) << structure;
  EXPECT_NE(structure.find("ctuple_0"), std::string::npos) << structure;
  EXPECT_NE(structure.find("CompatibleFinder"), std::string::npos)
      << structure;
  EXPECT_NE(structure.find("tabq_level_"), std::string::npos) << structure;
  EXPECT_NE(structure.find("answer_construction"), std::string::npos)
      << structure;
}

/// FNV-1a digests of RenderStructure() for every use case at x1: the span
/// names and nesting of a complete Explain, which depend only on the query,
/// the question and the data. Any change to where the engine opens or
/// closes a span moves a digest; on an intentional change, the failure
/// message prints the new value.
const std::map<std::string, uint64_t>& StructureDigests() {
  static const auto* digests = new std::map<std::string, uint64_t>{
      {"Crime1", 0xf48371ed9bd98cull},    {"Crime2", 0xf48371ed9bd98cull},
      {"Crime3", 0x36e1c93d47f779b2ull},  {"Crime4", 0x424b4b8611721f6ull},
      {"Crime5", 0x424b4b8611721f6ull},   {"Crime6", 0xaa87a207ffb99254ull},
      {"Crime7", 0x32e47a132ea11434ull},  {"Crime8", 0x9bdf6cff99a4b29cull},
      {"Crime9", 0xf94ac447ed7525f6ull},  {"Crime10", 0x3a49287e307c60c5ull},
      {"Imdb1", 0x9cc974b86c87e404ull},   {"Imdb2", 0x9f82a70c2f8ac6c4ull},
      {"Gov1", 0x3b9b9e43cbba83bfull},    {"Gov2", 0x3b9b9e43cbba83bfull},
      {"Gov3", 0x6da8b65a3f0e9d43ull},    {"Gov4", 0x2987b90f64e24efeull},
      {"Gov5", 0x2987b90f64e24efeull},    {"Gov6", 0xe97d6507a620754eull},
      {"Gov7", 0x5f7b0c342d7cdde3ull},
  };
  return *digests;
}

TEST(EngineTrace, SpanStructureMatchesPinnedDigests) {
  ASSERT_EQ(Registry().use_cases().size(), 19u);
  for (const UseCase& uc : Registry().use_cases()) {
    ExecContext ctx;
    const std::string structure = TraceStructureFor(uc, &ctx);
    ASSERT_FALSE(structure.empty()) << uc.name;
    const uint64_t digest = Fnv1a64(structure);
    auto it = StructureDigests().find(uc.name);
    ASSERT_NE(it, StructureDigests().end()) << uc.name << " has no digest";
    EXPECT_EQ(it->second, digest)
        << uc.name << " span structure drifted; new digest {\"" << uc.name
        << "\", 0x" << std::hex << digest << "ull}\n"
        << structure;
  }
}

TEST(EngineTrace, NoTraceAttachedEmitsNothing) {
  const UseCase& uc = Registry().use_cases()[0];
  auto tree = Registry().BuildTree(uc);
  ASSERT_TRUE(tree.ok());
  const Database& db = Registry().database(uc.db_name);
  auto engine = NedExplainEngine::Create(&*tree, &db);
  ASSERT_TRUE(engine.ok());
  ExecContext ctx;  // no trace
  auto result = engine->Explain(uc.question, &ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(ctx.trace(), nullptr);
}

}  // namespace
}  // namespace ned
