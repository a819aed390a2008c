/// \file common_test.cpp
/// \brief Unit tests for the common layer: strings, status, CSV, RNG,
/// timers, and the shared JSON codec (escaping + hostile-input parsing).

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "common/csv.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/timer.h"

namespace ned {
namespace {

// ---- strings ----------------------------------------------------------------

TEST(Strings, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(Strings, JoinRoundTripsSplit) {
  std::vector<std::string> parts = {"x", "y", "zz"};
  EXPECT_EQ(Split(Join(parts, "|"), '|'), parts);
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(Strings, Trim) {
  EXPECT_EQ(Trim("  a b  "), "a b");
  EXPECT_EQ(Trim("\t\nx\r "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(Strings, CaseConversion) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_EQ(ToUpper("from"), "FROM");
  EXPECT_TRUE(EqualsIgnoreCase("GROUP", "group"));
  EXPECT_FALSE(EqualsIgnoreCase("GROUPS", "group"));
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(StartsWith("m12", "m"));
  EXPECT_FALSE(StartsWith("m", "m12"));
}

TEST(Strings, StrCat) {
  EXPECT_EQ(StrCat("m", 3, " picky=", true), "m3 picky=1");
}

TEST(Strings, Padding) {
  EXPECT_EQ(PadRight("ab", 4), "ab  ");
  EXPECT_EQ(PadLeft("ab", 4), "  ab");
  EXPECT_EQ(PadRight("abcd", 2), "abcd");  // never truncates
}

TEST(Strings, RenderTableAlignsColumns) {
  std::string table = RenderTable({"a", "bb"}, {{"xxx", "y"}, {"z", "wwww"}});
  std::vector<std::string> lines = Split(table, '\n');
  ASSERT_GE(lines.size(), 5u);
  for (const auto& line : lines) {
    if (!line.empty()) {
      EXPECT_EQ(line.size(), lines[0].size());
    }
  }
  EXPECT_NE(table.find("xxx"), std::string::npos);
  EXPECT_NE(table.find("wwww"), std::string::npos);
}

// ---- status -------------------------------------------------------------------

TEST(Status, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status status = Status::NotFound("missing thing");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.ToString(), "NotFound: missing thing");
}

TEST(Result, ValueAccess) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(Result, ErrorAccess) {
  Result<int> r = Status::ParseError("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(Result, ValueOrOnLvalueCopiesLeavingResultIntact) {
  Result<std::string> r(std::string("payload"));
  std::string got = r.value_or("fallback");
  EXPECT_EQ(got, "payload");
  // The lvalue overload must copy, not move-from, the stored value.
  EXPECT_EQ(*r, "payload");
}

TEST(Result, ValueOrOnRvalueMovesStoredValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  // A move-only payload compiles only through the && overload.
  std::unique_ptr<int> got = std::move(r).value_or(nullptr);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, 5);

  Result<std::unique_ptr<int>> err = Status::NotFound("gone");
  std::unique_ptr<int> fb = std::move(err).value_or(std::make_unique<int>(9));
  ASSERT_NE(fb, nullptr);
  EXPECT_EQ(*fb, 9);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  NED_ASSIGN_OR_RETURN(int h, Half(x));
  NED_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(Result, AssignOrReturnPropagates) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2=3 is odd
  EXPECT_FALSE(Quarter(5).ok());
}

// ---- csv ---------------------------------------------------------------------

TEST(Csv, ParsesSimpleRows) {
  auto doc = ParseCsv("a,b\n1,2\n3,4\n");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 3u);
  EXPECT_EQ(doc->rows[1], (std::vector<std::string>{"1", "2"}));
}

TEST(Csv, HandlesQuotingAndEscapes) {
  auto doc = ParseCsv("name\n\"says \"\"hi\"\", twice\"\n");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 2u);
  EXPECT_EQ(doc->rows[1][0], "says \"hi\", twice");
}

TEST(Csv, HandlesCrLfAndMissingFinalNewline) {
  auto doc = ParseCsv("a,b\r\n1,2");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 2u);
  EXPECT_EQ(doc->rows[1], (std::vector<std::string>{"1", "2"}));
}

TEST(Csv, EmptyTrailingFieldSurvives) {
  auto doc = ParseCsv("a,b\n1,\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->rows[1], (std::vector<std::string>{"1", ""}));
}

TEST(Csv, RejectsUnterminatedQuote) {
  EXPECT_FALSE(ParseCsv("a\n\"oops\n").ok());
}

TEST(Csv, WriteRoundTrips) {
  std::vector<std::vector<std::string>> rows = {
      {"h1", "h2"}, {"plain", "with,comma"}, {"with\"quote", "with\nnewline"}};
  auto parsed = ParseCsv(WriteCsv(rows));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->rows, rows);
}

// ---- rng ----------------------------------------------------------------------

TEST(Rng, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(42);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(42);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, PickCoversElements) {
  Rng rng(1);
  std::vector<int> values = {1, 2, 3};
  std::set<int> seen;
  for (int i = 0; i < 100; ++i) seen.insert(rng.Pick(values));
  EXPECT_EQ(seen.size(), 3u);
}

// ---- timer ---------------------------------------------------------------------

TEST(Timer, PhaseAccumulation) {
  PhaseTimer timer;
  timer.Add("a", 100);
  timer.Add("a", 50);
  timer.Add("b", 25);
  EXPECT_EQ(timer.Nanos("a"), 150);
  EXPECT_EQ(timer.Nanos("b"), 25);
  EXPECT_EQ(timer.Nanos("absent"), 0);
  EXPECT_EQ(timer.TotalNanos(), 175);
  timer.Reset();
  EXPECT_EQ(timer.TotalNanos(), 0);
}

TEST(Timer, StopwatchMonotone) {
  Stopwatch watch;
  int64_t t1 = watch.ElapsedNanos();
  int64_t t2 = watch.ElapsedNanos();
  EXPECT_GE(t2, t1);
  EXPECT_GE(t1, 0);
}

// ---- json: the one shared escaper -------------------------------------------

TEST(Json, EscapesExactlyLikeTheExpositionLayerAlwaysDid) {
  // This is the contract obs/expose.cpp (metrics JSON goldens) depends on:
  // backslash, quote, \n \t \r by name, every other control char as \u00XX,
  // all other bytes verbatim. A change here breaks checked-in goldens.
  EXPECT_EQ(json::Quote("plain"), "\"plain\"");
  EXPECT_EQ(json::Quote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(json::Quote("say \"hi\""), "\"say \\\"hi\\\"\"");
  EXPECT_EQ(json::Quote("line1\nline2"), "\"line1\\nline2\"");
  EXPECT_EQ(json::Quote("tab\there"), "\"tab\\there\"");
  EXPECT_EQ(json::Quote("cr\rend"), "\"cr\\rend\"");
  EXPECT_EQ(json::Quote(std::string("\x01\x1f", 2)), "\"\\u0001\\u001f\"");
  EXPECT_EQ(json::Quote("utf8 caf\xc3\xa9 ok"), "\"utf8 caf\xc3\xa9 ok\"");
}

TEST(Json, EscapeParseRoundTripsArbitraryBytes) {
  std::string hostile;
  for (int c = 1; c < 256; ++c) hostile += static_cast<char>(c);
  auto parsed = json::Parse(json::Quote(hostile));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->is_string());
  EXPECT_EQ(parsed->as_string(), hostile);
}

TEST(Json, ParsePreservesIntVsDouble) {
  auto doc = json::Parse("{\"i\": 42, \"d\": 42.0, \"e\": 1e2, \"n\": -7}");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(doc->is_object());
  EXPECT_TRUE(doc->Find("i")->is_int());
  EXPECT_EQ(doc->Find("i")->as_int(), 42);
  EXPECT_TRUE(doc->Find("d")->is_double());
  EXPECT_EQ(doc->Find("d")->as_double(), 42.0);
  EXPECT_TRUE(doc->Find("e")->is_double());
  EXPECT_TRUE(doc->Find("n")->is_int());
  EXPECT_EQ(doc->Find("n")->as_int(), -7);
}

TEST(Json, ObjectsPreserveMemberOrder) {
  auto doc = json::Parse("{\"z\": 1, \"a\": 2, \"m\": 3}");
  ASSERT_TRUE(doc.ok());
  const auto& members = doc->as_object();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[2].first, "m");
}

TEST(Json, HostileInputsAreStatusNotCrash) {
  for (const char* bad :
       {"", "{", "}", "[1,", "\"unterminated", "{\"k\": }", "01", "+1",
        "1.2.3", "tru", "nul", "\"bad \\x escape\"", "{\"a\": 1} trailing",
        "\x80\xff", "[1, 2,]", "{\"a\" 1}"}) {
    EXPECT_FALSE(json::Parse(bad).ok()) << "accepted: " << bad;
  }
}

TEST(Json, DepthLimitBoundsRecursion) {
  std::string deep(10'000, '[');
  deep += std::string(10'000, ']');
  EXPECT_FALSE(json::Parse(deep).ok());
  // Within the limit, nesting is fine.
  EXPECT_TRUE(json::Parse("[[[[[[[[[[1]]]]]]]]]]").ok());
}

TEST(Json, AppendDoubleRoundTripsAndHandlesNonFinite) {
  std::string out;
  json::AppendDouble(&out, 0.1);
  auto back = json::Parse(out);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->as_double(), 0.1);  // %.17g is lossless for doubles
  out.clear();
  json::AppendDouble(&out, std::numeric_limits<double>::infinity());
  EXPECT_EQ(out, "null");
  out.clear();
  json::AppendDouble(&out, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(out, "null");
}

}  // namespace
}  // namespace ned
