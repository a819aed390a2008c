/// \file net_test.cpp
/// \brief The serving edge (src/net/): parser robustness under every byte
/// split and under seeded bit-flips, the JSON wire codec, and the poll
/// server over real loopback sockets -- keep-alive pipelining, ManualClock
/// -exact idle/slowloris eviction, the 503/504 status mapping with
/// Retry-After headers, drain-while-connected, and byte-identity of all 19
/// paper use cases served over the wire against in-process Submit.
///
/// Built with -DNED_TSAN=ON these tests double as the ThreadSanitizer audit
/// of the event loop's completion queue: service workers push resolved
/// responses into it concurrently with the loop thread draining it.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "common/timer.h"
#include "datasets/use_cases.h"
#include "net/http.h"
#include "net/server.h"
#include "net/wire.h"
#include "relational/catalog.h"
#include "service/service.h"
#include "tests/test_util.h"

namespace ned {
namespace {

using net::HttpLimits;
using net::HttpParser;
using net::HttpRequest;
using net::HttpResponse;
using net::HttpServer;
using net::ServerOptions;
using net::WireResponse;
using testing::MakeTinyDb;

// ---- parser: byte-boundary split sweep --------------------------------------

const char kCanonicalPost[] =
    "POST /v1/whynot HTTP/1.1\r\n"
    "Host: localhost\r\n"
    "Content-Type: application/json\r\n"
    "X-Ned-Priority: batch\r\n"
    "Content-Length: 17\r\n"
    "\r\n"
    "{\"db\": \"crime\"}\r\n";

/// Feeds `data` to a fresh parser in two chunks split at `at` and returns
/// the parser for inspection.
HttpParser ParseSplit(std::string_view data, size_t at) {
  HttpParser parser;
  std::string_view head = data.substr(0, at);
  size_t used = parser.Feed(head);
  EXPECT_LE(used, head.size());
  if (!parser.done()) {
    used += parser.Feed(data.substr(used));
  }
  return parser;
}

TEST(ParserSplit, CompletePostAtEveryByteBoundary) {
  const std::string_view data = kCanonicalPost;
  // Reference: the whole request in one feed.
  HttpParser whole;
  const size_t consumed = whole.Feed(data);
  ASSERT_EQ(whole.state(), HttpParser::State::kComplete);
  ASSERT_EQ(consumed, data.size());
  for (size_t at = 0; at <= data.size(); ++at) {
    HttpParser parser = ParseSplit(data, at);
    ASSERT_EQ(parser.state(), HttpParser::State::kComplete)
        << "split at " << at;
    const HttpRequest& req = parser.request();
    EXPECT_EQ(req.method, "POST") << "split at " << at;
    EXPECT_EQ(req.target, "/v1/whynot");
    EXPECT_EQ(req.version, "HTTP/1.1");
    EXPECT_EQ(req.Header("content-type"), "application/json");
    EXPECT_EQ(req.Header("x-ned-priority"), "batch");
    EXPECT_EQ(req.body, "{\"db\": \"crime\"}\r\n");
  }
}

TEST(ParserSplit, OneByteAtATime) {
  const std::string_view data = kCanonicalPost;
  HttpParser parser;
  for (size_t i = 0; i < data.size(); ++i) {
    const size_t used = parser.Feed(data.substr(i, 1));
    if (parser.done()) {
      EXPECT_EQ(i, data.size() - 1);
      break;
    }
    ASSERT_EQ(used, 1u) << "byte " << i;
  }
  ASSERT_EQ(parser.state(), HttpParser::State::kComplete);
  EXPECT_EQ(parser.request().body, "{\"db\": \"crime\"}\r\n");
}

TEST(ParserSplit, PipelinedPairAtEveryByteBoundary) {
  const std::string pair =
      StrCat(kCanonicalPost, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  for (size_t at = 0; at <= pair.size(); ++at) {
    HttpParser parser;
    std::string_view data = pair;
    size_t offset = 0;
    // First request: feed the first chunk, then (if needed) the rest.
    offset += parser.Feed(data.substr(0, at));
    if (!parser.done()) offset += parser.Feed(data.substr(offset));
    ASSERT_EQ(parser.state(), HttpParser::State::kComplete)
        << "split at " << at;
    EXPECT_EQ(parser.request().method, "POST");
    // Unconsumed bytes belong to the second request.
    parser.Reset();
    offset += parser.Feed(data.substr(offset));
    ASSERT_EQ(parser.state(), HttpParser::State::kComplete)
        << "split at " << at;
    EXPECT_EQ(parser.request().method, "GET");
    EXPECT_EQ(parser.request().target, "/healthz");
    EXPECT_EQ(offset, pair.size());
  }
}

// ---- parser: seeded bit-flip fuzzing ---------------------------------------

TEST(ParserFuzz, SeededBitFlipsNeverCrashAndDiagnoseCleanly) {
  const std::string_view base = kCanonicalPost;
  for (uint64_t trial = 0; trial < 150; ++trial) {
    Rng rng(0x9e3779b9'00000000ULL + trial);
    std::string mutated(base);
    // One to three single-bit flips per trial.
    const int flips = static_cast<int>(rng.UniformInt(1, 3));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
      mutated[pos] = static_cast<char>(
          mutated[pos] ^ static_cast<char>(1 << rng.UniformInt(0, 7)));
    }
    // Byte-at-a-time: the hostile split schedule on top of hostile bytes.
    HttpParser parser;
    size_t offset = 0;
    while (offset < mutated.size() && !parser.done()) {
      const size_t used =
          parser.Feed(std::string_view(mutated).substr(offset, 1));
      if (used == 0 && !parser.done()) break;  // defensive; must not loop
      offset += used;
    }
    // The only legal outcomes: a complete request (the flip landed in the
    // body or a header value), a clean 400/413, or "need more bytes" (the
    // flip inflated Content-Length). Reaching here at all proves no crash.
    if (parser.state() == HttpParser::State::kError) {
      EXPECT_TRUE(parser.error_status() == 400 || parser.error_status() == 413)
          << "trial " << trial << ": status " << parser.error_status();
      EXPECT_FALSE(parser.error_detail().empty());
    }
  }
}

TEST(ParserLimits, OversizedHeaderSectionIs413) {
  HttpLimits limits;
  limits.max_header_bytes = 128;
  HttpParser parser(limits);
  std::string flood = "GET / HTTP/1.1\r\n";
  flood += "X-Pad: " + std::string(512, 'a') + "\r\n\r\n";
  parser.Feed(flood);
  ASSERT_EQ(parser.state(), HttpParser::State::kError);
  EXPECT_EQ(parser.error_status(), 413);
}

TEST(ParserLimits, CrlfLessFloodIsBoundedBy413) {
  HttpLimits limits;
  limits.max_header_bytes = 256;
  HttpParser parser(limits);
  // No newline ever arrives: the line buffer must not grow unboundedly.
  parser.Feed(std::string(4096, 'G'));
  ASSERT_EQ(parser.state(), HttpParser::State::kError);
  EXPECT_EQ(parser.error_status(), 413);
}

TEST(ParserLimits, DeclaredOversizedBodyIs413BeforeAnyBodyByte) {
  HttpLimits limits;
  limits.max_body_bytes = 64;
  HttpParser parser(limits);
  parser.Feed("POST / HTTP/1.1\r\nContent-Length: 65\r\n\r\n");
  ASSERT_EQ(parser.state(), HttpParser::State::kError);
  EXPECT_EQ(parser.error_status(), 413);
}

TEST(ParserLimits, SmugglingVectorsAre400) {
  for (const char* request :
       {"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        "GET / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 1\r\n\r\n",
        "GET / HTTP/1.1\r\nA: b\r\n folded\r\n\r\n",
        "GET / HTTP/1.1\r\nBad Name: x\r\n\r\n",
        "GET  / HTTP/1.1\r\n\r\n"}) {
    HttpParser parser;
    parser.Feed(request);
    ASSERT_EQ(parser.state(), HttpParser::State::kError) << request;
    EXPECT_EQ(parser.error_status(), 400) << request;
  }
}

// ---- wire codec ------------------------------------------------------------

WhyNotRequest RichRequest() {
  WhyNotRequest req;
  req.key = "k-\"quoted\"\n";
  req.db_name = "crime";
  req.sql = "SELECT P.Name FROM P WHERE P.Age > 30";
  CTuple tc;
  tc.Add("P.Name", Value::Str("Hank"));
  tc.AddVar("P.Age", "x");
  tc.Where("x", CompareOp::kGt, Value::Int(30));
  req.question = WhyNotQuestion(tc);
  req.priority = Priority::kBackground;
  req.client_id = "client-7";
  req.deadline_ms = 1234;
  req.row_budget = 99;
  req.memory_budget = 1 << 20;
  req.seed = 42;
  req.bypass_answer_cache = true;
  req.collect_trace = true;
  req.engine_options.enable_early_termination = false;
  return req;
}

TEST(WireCodec, RequestRoundTripPreservesEveryField) {
  const WhyNotRequest req = RichRequest();
  const std::string body = net::RenderWhyNotRequestJson(req);
  auto parsed = net::ParseWhyNotRequestJson(body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->key, req.key);
  EXPECT_EQ(parsed->db_name, req.db_name);
  EXPECT_EQ(parsed->sql, req.sql);
  EXPECT_EQ(parsed->question.ToString(), req.question.ToString());
  EXPECT_EQ(parsed->priority, req.priority);
  EXPECT_EQ(parsed->client_id, req.client_id);
  EXPECT_EQ(parsed->deadline_ms, req.deadline_ms);
  EXPECT_EQ(parsed->row_budget, req.row_budget);
  EXPECT_EQ(parsed->memory_budget, req.memory_budget);
  EXPECT_EQ(parsed->seed, req.seed);
  EXPECT_EQ(parsed->bypass_answer_cache, req.bypass_answer_cache);
  EXPECT_EQ(parsed->collect_trace, req.collect_trace);
  EXPECT_EQ(parsed->engine_options.enable_early_termination,
            req.engine_options.enable_early_termination);
  // Render -> parse -> render is a fixed point.
  EXPECT_EQ(net::RenderWhyNotRequestJson(*parsed), body);
}

TEST(WireCodec, ValueTypesSurviveTheWire) {
  WhyNotRequest req;
  req.db_name = "d";
  req.sql = "SELECT R.a FROM R";
  CTuple tc;
  tc.Add("R.a", Value::Int(3));
  CTuple tc2;
  tc2.AddVar("R.b", "y");
  tc2.Where("y", CompareOp::kLt, Value::Real(3.0));
  WhyNotQuestion q(tc);
  q.AddCTuple(tc2);
  req.question = q;
  const std::string body = net::RenderWhyNotRequestJson(req);
  // The integral double must render with a ".0" so the parse comes back as
  // kDouble, not kInt -- the question's semantics depend on the type.
  EXPECT_NE(body.find("3.0"), std::string::npos) << body;
  auto parsed = net::ParseWhyNotRequestJson(body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->question.ToString(), req.question.ToString());
}

TEST(WireCodec, UnknownAndMalformedBodiesAreDiagnosed) {
  EXPECT_FALSE(net::ParseWhyNotRequestJson("").ok());
  EXPECT_FALSE(net::ParseWhyNotRequestJson("{").ok());
  EXPECT_FALSE(net::ParseWhyNotRequestJson("[]").ok());
  // Unknown top-level field: rejected, not silently ignored.
  EXPECT_FALSE(net::ParseWhyNotRequestJson(
                   "{\"db\": \"d\", \"sql\": \"SELECT R.a FROM R\", "
                   "\"question\": [{\"fields\": [{\"attr\": \"R.a\", "
                   "\"const\": 1}]}], \"bogus\": true}")
                   .ok());
  // "threads" (the per-request thread count older clients send) is an
  // unknown field like any other.
  EXPECT_FALSE(net::ParseWhyNotRequestJson(
                   "{\"db\": \"d\", \"sql\": \"SELECT R.a FROM R\", "
                   "\"question\": [{\"fields\": [{\"attr\": \"R.a\", "
                   "\"const\": 1}]}], \"threads\": 2}")
                   .ok());
  // Missing required fields.
  EXPECT_FALSE(net::ParseWhyNotRequestJson("{\"db\": \"d\"}").ok());
  // All wire errors map to the 400 family.
  const auto bad = net::ParseWhyNotRequestJson("{");
  EXPECT_EQ(net::HttpStatusForCode(bad.status().code()), 400);
}

// ---- socket helpers --------------------------------------------------------

/// Minimal blocking loopback client with a receive timeout, so a server
/// bug fails the test instead of hanging it.
class TestClient {
 public:
  explicit TestClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    NED_CHECK(fd_ >= 0);
    timeval tv{};
    tv.tv_sec = 10;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  bool Send(std::string_view data) {
    size_t off = 0;
    while (off < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads one full response; fails the test on timeout/EOF/parse error.
  HttpResponse Read() {
    HttpResponse response;
    char chunk[8192];
    while (true) {
      if (!buffer_.empty()) {
        auto parsed = net::ParseHttpResponse(buffer_, &response);
        NED_CHECK_MSG(parsed.ok(), "malformed server response");
        if (*parsed > 0) {
          buffer_.erase(0, *parsed);
          return response;
        }
      }
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      NED_CHECK_MSG(n > 0, "connection closed or timed out mid-response");
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// True if the peer has closed (EOF observed within `timeout_ms`).
  bool WaitForClose(int64_t timeout_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    char c;
    while (std::chrono::steady_clock::now() < deadline) {
      const ssize_t n = ::recv(fd_, &c, 1, MSG_DONTWAIT);
      if (n == 0) return true;
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) return true;
      if (n > 0) buffer_ += c;  // stray bytes (e.g. a 408) are fine
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  }

  /// True while no EOF and no bytes pending (probe without blocking).
  bool StillOpenAndQuiet() {
    char c;
    const ssize_t n = ::recv(fd_, &c, 1, MSG_DONTWAIT);
    if (n == 0) return false;
    if (n > 0) {
      buffer_ += c;
      return false;
    }
    return errno == EAGAIN || errno == EWOULDBLOCK;
  }

  std::string TakeBuffered() { return std::exchange(buffer_, std::string()); }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

std::string PostWhyNot(const WhyNotRequest& request,
                       const std::vector<std::pair<std::string, std::string>>&
                           extra_headers = {}) {
  const std::string body = net::RenderWhyNotRequestJson(request);
  std::string out = StrCat(
      "POST /v1/whynot HTTP/1.1\r\nHost: t\r\nContent-Length: ", body.size(),
      "\r\n");
  for (const auto& [k, v] : extra_headers) out += StrCat(k, ": ", v, "\r\n");
  out += StrCat("\r\n", body);
  return out;
}

constexpr char kGetHealthz[] = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";

/// Two `n`-row relations whose cross join pins a worker for a while (same
/// shape service_test uses to block the pool).
Database MakeCrossJoinDb(int n) {
  Database db;
  std::string r = "a,ra\n", s = "b,sb\n";
  for (int i = 0; i < n; ++i) {
    r += std::to_string(i) + "," + std::to_string(i % 7) + "\n";
    s += std::to_string(i) + "," + std::to_string(i % 5) + "\n";
  }
  NED_CHECK(db.LoadCsv("R", r).ok());
  NED_CHECK(db.LoadCsv("S", s).ok());
  return db;
}

std::shared_ptr<Catalog> MakeNetCatalog() {
  auto catalog = std::make_shared<Catalog>();
  NED_CHECK(catalog->Register("tiny", MakeTinyDb()).ok());
  NED_CHECK(catalog->Register("big", MakeCrossJoinDb(1500)).ok());
  return catalog;
}

WhyNotRequest TinyRequest(const std::string& key) {
  WhyNotRequest req;
  req.key = key;
  req.db_name = "tiny";
  req.sql = "SELECT R.v FROM R, S WHERE R.k = S.k";
  CTuple tc;
  tc.Add("R.v", Value::Str("c"));
  req.question = WhyNotQuestion(tc);
  return req;
}

WhyNotRequest SlowRequest(const std::string& key, int64_t deadline_ms) {
  WhyNotRequest req;
  req.key = key;
  req.db_name = "big";
  req.sql = "SELECT R.a FROM R, S WHERE R.a >= 0";
  CTuple tc;
  tc.Add("R.a", Value::Int(0));
  req.question = WhyNotQuestion(tc);
  req.deadline_ms = deadline_ms;
  return req;
}

void WaitForEmptyQueue(const WhyNotService& service) {
  while (service.queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// ---- server: routing, keep-alive, end-to-end -------------------------------

TEST(Server, RoutesHealthMetricsAndErrors) {
  WhyNotService service(MakeNetCatalog(), {});
  HttpServer server(&service);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(client.Send(kGetHealthz));
  HttpResponse health = client.Read();
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  ASSERT_TRUE(client.Send("GET /readyz HTTP/1.1\r\nHost: t\r\n\r\n"));
  EXPECT_EQ(client.Read().status, 200);

  ASSERT_TRUE(client.Send("GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n"));
  HttpResponse metrics = client.Read();
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("# TYPE"), std::string::npos);
  EXPECT_NE(metrics.body.find("ned_net_connections_accepted_total"),
            std::string::npos);

  ASSERT_TRUE(client.Send("GET /nope HTTP/1.1\r\nHost: t\r\n\r\n"));
  EXPECT_EQ(client.Read().status, 404);

  ASSERT_TRUE(client.Send("GET /v1/whynot HTTP/1.1\r\nHost: t\r\n\r\n"));
  HttpResponse not_allowed = client.Read();
  EXPECT_EQ(not_allowed.status, 405);
  EXPECT_EQ(not_allowed.Header("allow"), "POST");

  // The connection survived all five exchanges: keep-alive works.
  ASSERT_TRUE(client.Send(kGetHealthz));
  EXPECT_EQ(client.Read().status, 200);
  server.Stop();
}

TEST(Server, KeepAlivePipeliningPreservesOrder) {
  WhyNotService service(MakeNetCatalog(), {});
  HttpServer server(&service);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  // Three requests in ONE write: an async /v1/whynot sandwiched between two
  // sync endpoints. Responses must come back in request order -- the loop
  // pauses input processing while the middle one is in flight.
  const std::string burst = StrCat(kGetHealthz, PostWhyNot(TinyRequest("p1")),
                                   "GET /readyz HTTP/1.1\r\nHost: t\r\n\r\n");
  ASSERT_TRUE(client.Send(burst));
  HttpResponse first = client.Read();
  EXPECT_EQ(first.status, 200);
  EXPECT_EQ(first.body, "ok\n");
  HttpResponse second = client.Read();
  EXPECT_EQ(second.status, 200);
  auto wire = net::ParseWhyNotResponseJson(second.body);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_EQ(wire->key, "p1");
  EXPECT_EQ(wire->code, StatusCode::kOk);
  HttpResponse third = client.Read();
  EXPECT_EQ(third.status, 200);
  EXPECT_EQ(third.body, "ready\n");
  server.Stop();
}

TEST(Server, WhyNotHeadersWinOverBodyFields) {
  WhyNotService service(MakeNetCatalog(), {});
  HttpServer server(&service);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  WhyNotRequest request = TinyRequest("body-key");
  ASSERT_TRUE(client.Send(PostWhyNot(
      request, {{"X-Ned-Idempotency-Key", "header-key"},
                {"X-Ned-Priority", "background"}})));
  HttpResponse response = client.Read();
  EXPECT_EQ(response.status, 200);
  auto wire = net::ParseWhyNotResponseJson(response.body);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_EQ(wire->key, "header-key");  // the header overrode the body key
  EXPECT_EQ(wire->code, StatusCode::kOk);

  // Same key again: the idempotency book replays it (deduped at the wire).
  ASSERT_TRUE(client.Send(PostWhyNot(
      request, {{"X-Ned-Idempotency-Key", "header-key"}})));
  auto replay = net::ParseWhyNotResponseJson(client.Read().body);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->key, "header-key");
  EXPECT_TRUE(replay->deduped);
  server.Stop();
}

TEST(Server, MalformedHttpGets400ThenClose) {
  WhyNotService service(MakeNetCatalog(), {});
  HttpServer server(&service);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("BROKEN REQUEST LINE WITH SPACES\r\n\r\n"));
  HttpResponse response = client.Read();
  EXPECT_EQ(response.status, 400);
  EXPECT_TRUE(client.WaitForClose(2000));
  server.Stop();
}

TEST(Server, OversizedBodyGets413ThenClose) {
  WhyNotService service(MakeNetCatalog(), {});
  ServerOptions options;
  options.limits.max_body_bytes = 1024;
  HttpServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  // The declared length alone trips the limit -- no body bytes needed.
  ASSERT_TRUE(client.Send(
      "POST /v1/whynot HTTP/1.1\r\nHost: t\r\nContent-Length: 2048\r\n\r\n"));
  HttpResponse response = client.Read();
  EXPECT_EQ(response.status, 413);
  EXPECT_TRUE(client.WaitForClose(2000));
  server.Stop();
}

TEST(Server, UndecodableWhyNotBodyIs400ButKeepsTheConnection) {
  WhyNotService service(MakeNetCatalog(), {});
  HttpServer server(&service);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  // Valid HTTP, invalid wire body: a request error, not a protocol error.
  ASSERT_TRUE(client.Send(
      "POST /v1/whynot HTTP/1.1\r\nHost: t\r\nContent-Length: 9\r\n\r\nnot json!"));
  HttpResponse response = client.Read();
  EXPECT_EQ(response.status, 400);
  auto wire = net::ParseWhyNotResponseJson(response.body);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_NE(wire->code, StatusCode::kOk);
  // The connection is still good for the next request.
  ASSERT_TRUE(client.Send(kGetHealthz));
  EXPECT_EQ(client.Read().status, 200);
  server.Stop();
}

// ---- status mapping: 503 with Retry-After, 504 on queue expiry -------------

TEST(Server, ShedMapsTo503WithRetryAfterHeaders) {
  ManualClock clock;
  ServiceOptions service_options;
  service_options.workers = 1;
  service_options.queue_capacity = 1;
  service_options.clock = &clock;
  WhyNotService service(MakeNetCatalog(), service_options);
  HttpServer server(&service);
  ASSERT_TRUE(server.Start().ok());

  // Pin the only worker (manual-time deadline: it cannot trip on its own),
  // then fill the queue -- the wire request after that must shed.
  auto blocker = service.Submit(SlowRequest("blk", 500));
  ASSERT_TRUE(blocker.status.ok());
  WaitForEmptyQueue(service);
  auto filler = service.Submit(TinyRequest("fill"));
  ASSERT_TRUE(filler.status.ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(PostWhyNot(TinyRequest("shed-me"))));
  HttpResponse response = client.Read();
  EXPECT_EQ(response.status, 503);
  // Both header forms: spec-compliant whole seconds (never 0 for a positive
  // backoff) and the exact millisecond value clients actually obey.
  const std::string_view retry_s = response.Header("retry-after");
  const std::string_view retry_ms = response.Header("retry-after-ms");
  ASSERT_FALSE(retry_s.empty());
  ASSERT_FALSE(retry_ms.empty());
  EXPECT_GE(std::atoll(std::string(retry_s).c_str()), 1);
  EXPECT_GT(std::atoll(std::string(retry_ms).c_str()), 0);
  auto wire = net::ParseWhyNotResponseJson(response.body);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_EQ(wire->code, StatusCode::kUnavailable);
  EXPECT_GT(wire->retry_after_ms, 0);

  // Unblock and settle before teardown.
  clock.AdvanceMs(1000);
  blocker.response.wait();
  filler.response.wait();
  server.Stop();
  service.Shutdown();
}

TEST(Server, QueueExpiryMapsTo504OverTheWire) {
  ManualClock clock;
  ServiceOptions service_options;
  service_options.workers = 1;
  service_options.clock = &clock;
  WhyNotService service(MakeNetCatalog(), service_options);
  HttpServer server(&service);
  ASSERT_TRUE(server.Start().ok());

  auto blocker = service.Submit(SlowRequest("blk", 500));
  ASSERT_TRUE(blocker.status.ok());
  WaitForEmptyQueue(service);

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  WhyNotRequest doomed = TinyRequest("doomed");
  doomed.deadline_ms = 20;
  ASSERT_TRUE(client.Send(PostWhyNot(doomed)));
  // Let the request reach the queue, then expire it in manual time. The
  // watchdog resolves it kDeadlineExceeded and the completion flows back
  // through the event loop as a 504 -- the async path, not a sync error.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  clock.AdvanceMs(30);
  HttpResponse response = client.Read();
  EXPECT_EQ(response.status, 504);
  auto wire = net::ParseWhyNotResponseJson(response.body);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_EQ(wire->code, StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(wire->expired_in_queue);

  clock.AdvanceMs(1000);
  blocker.response.wait();
  server.Stop();
  service.Shutdown();
}

// ---- ManualClock-exact eviction --------------------------------------------

TEST(Server, IdleEvictionAtTheExactManualInstant) {
  ManualClock clock;
  WhyNotService service(MakeNetCatalog(), {});
  ServerOptions options;
  options.idle_timeout_ms = 5'000;
  options.poll_interval_ms = 2;
  options.clock = &clock;
  HttpServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(kGetHealthz));
  EXPECT_EQ(client.Read().status, 200);

  // One manual millisecond short of the timeout: several real poll ticks
  // pass and the connection must survive.
  clock.AdvanceMs(options.idle_timeout_ms - 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(client.StillOpenAndQuiet());
  // The final millisecond: evicted (silently -- idle close sends nothing).
  clock.AdvanceMs(1);
  EXPECT_TRUE(client.WaitForClose(2000));
  EXPECT_TRUE(client.TakeBuffered().empty());
  server.Stop();
}

TEST(Server, SlowlorisEvictedWith408AtTheExactManualInstant) {
  ManualClock clock;
  WhyNotService service(MakeNetCatalog(), {});
  ServerOptions options;
  options.header_timeout_ms = 1'000;
  options.idle_timeout_ms = 60'000;
  options.poll_interval_ms = 2;
  options.clock = &clock;
  HttpServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  // A request that starts and then... nothing. The header window arms on
  // the first byte.
  ASSERT_TRUE(client.Send("POST /v1/whynot HTTP/1.1\r\nContent-Le"));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  clock.AdvanceMs(options.header_timeout_ms - 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(client.StillOpenAndQuiet());
  clock.AdvanceMs(1);
  EXPECT_TRUE(client.WaitForClose(2000));
  // Best-effort 408 before the close.
  HttpResponse goodbye;
  const std::string bytes = client.TakeBuffered();
  auto parsed = net::ParseHttpResponse(bytes, &goodbye);
  ASSERT_TRUE(parsed.ok());
  ASSERT_GT(*parsed, 0u) << "no 408 bytes before close";
  EXPECT_EQ(goodbye.status, 408);
  server.Stop();
}

// ---- drain while connected -------------------------------------------------

TEST(Server, DrainFlipsReadyzServesInFlightAndRefusesNewConnections) {
  WhyNotService service(MakeNetCatalog(), {});
  HttpServer server(&service);
  ASSERT_TRUE(server.Start().ok());

  TestClient established(server.port());
  ASSERT_TRUE(established.connected());
  ASSERT_TRUE(established.Send("GET /readyz HTTP/1.1\r\nHost: t\r\n\r\n"));
  EXPECT_EQ(established.Read().status, 200);

  server.BeginDrain();

  // The established connection keeps being served: readyz now honestly
  // reports draining, and real work still completes end to end.
  ASSERT_TRUE(established.Send("GET /readyz HTTP/1.1\r\nHost: t\r\n\r\n"));
  HttpResponse readyz = established.Read();
  EXPECT_EQ(readyz.status, 503);
  EXPECT_EQ(readyz.body, "draining\n");
  ASSERT_TRUE(established.Send(PostWhyNot(TinyRequest("during-drain"))));
  HttpResponse inflight = established.Read();
  EXPECT_EQ(inflight.status, 200);
  auto wire = net::ParseWhyNotResponseJson(inflight.body);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_EQ(wire->code, StatusCode::kOk);

  // A new connection is accepted and immediately closed, never served.
  TestClient late(server.port());
  ASSERT_TRUE(late.connected());
  EXPECT_TRUE(late.WaitForClose(2000));

  server.Stop();
}

// ---- the 19 use cases over the wire, bit-identical to in-process -----------

/// Everything deterministic about an answer, one field per line. Timing
/// fields (queue_ms/exec_ms) and cache counters describing the computation
/// are deliberately excluded.
std::string AnswerFingerprint(const AnswerSummary& answer) {
  std::string out;
  out += "detailed:";
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
                " degradation_level=", answer.degradation_level,
                " degradation=", answer.degradation);
  return out;
}

TEST(Server, All19UseCasesMatchInProcessSubmit) {
  auto registry = UseCaseRegistry::Build(1);
  ASSERT_TRUE(registry.ok()) << registry.status().ToString();

  // Two identical but independent services: one behind the wire, one
  // driven in-process. Independence rules out answer-cache crosstalk
  // making the comparison vacuous.
  auto make_catalog = [&]() {
    auto catalog = std::make_shared<Catalog>();
    for (const char* name : {"crime", "imdb", "gov"}) {
      Database copy = registry->database(name);
      NED_CHECK(catalog->Register(name, std::move(copy)).ok());
    }
    return catalog;
  };
  ServiceOptions service_options;
  service_options.workers = 2;
  WhyNotService wire_service(make_catalog(), service_options);
  WhyNotService local_service(make_catalog(), service_options);
  HttpServer server(&wire_service);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  size_t cases = 0;
  for (const UseCase& uc : registry->use_cases()) {
    SCOPED_TRACE(uc.name);
    WhyNotRequest request;
    request.key = StrCat("uc-", uc.name);
    request.db_name = uc.db_name;
    request.sql = uc.sql;
    request.question = uc.question;
    request.deadline_ms = 30'000;

    ASSERT_TRUE(client.Send(PostWhyNot(request)));
    HttpResponse http = client.Read();
    ASSERT_EQ(http.status, 200) << http.body;
    auto wire = net::ParseWhyNotResponseJson(http.body);
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    ASSERT_EQ(wire->code, StatusCode::kOk) << wire->message;
    EXPECT_EQ(wire->key, request.key);

    auto local = local_service.Submit(request);
    ASSERT_TRUE(local.status.ok()) << local.status.ToString();
    const WhyNotResponse local_response = local.response.get();
    ASSERT_TRUE(local_response.status.ok())
        << local_response.status.ToString();

    EXPECT_EQ(AnswerFingerprint(wire->answer),
              AnswerFingerprint(local_response.answer));
    EXPECT_EQ(wire->snapshot_version, local_response.snapshot_version);
    ++cases;
  }
  EXPECT_EQ(cases, registry->use_cases().size());
  server.Stop();
  wire_service.Shutdown();
  local_service.Shutdown();
}

}  // namespace
}  // namespace ned
