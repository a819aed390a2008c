#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "net/wire.h"
#include "obs/expose.h"

namespace ned::net {

namespace {

/// Ceiling of a millisecond backoff in whole seconds, for the RFC-shaped
/// Retry-After header. Never 0 for a positive backoff: a client honoring
/// only whole seconds must actually wait.
int64_t CeilSeconds(int64_t ms) { return ms <= 0 ? 0 : (ms + 999) / 1000; }

/// Retry headers for a 503: spec-compliant whole seconds plus the exact
/// millisecond value (ned_loadgen obeys the precise one; sub-second
/// backoffs would otherwise round up 200x).
void AppendRetryHeaders(std::vector<std::pair<std::string, std::string>>* headers,
                        int64_t retry_after_ms) {
  if (retry_after_ms <= 0) return;
  headers->emplace_back("Retry-After", std::to_string(CeilSeconds(retry_after_ms)));
  headers->emplace_back("Retry-After-Ms", std::to_string(retry_after_ms));
}

constexpr std::string_view kJsonType = "application/json";
constexpr std::string_view kTextType = "text/plain; charset=utf-8";
/// Prometheus exposition format version tag.
constexpr std::string_view kPromType = "text/plain; version=0.0.4; charset=utf-8";

}  // namespace

struct HttpServer::Impl {
  /// One resolved /v1/whynot response traveling worker -> event loop.
  struct Completion {
    uint64_t conn_id = 0;
    WhyNotResponse response;
  };

  /// The worker->loop handoff. shared_ptr-owned so completion callbacks
  /// captured by the service stay valid even if the server is destroyed
  /// while requests are still resolving: Stop() marks the queue closed and
  /// later callbacks drop their completions instead of touching freed
  /// server state.
  struct CompletionQueue {
    std::mutex mu;
    bool open = true;
    int wake_fd = -1;
    std::vector<Completion> items;

    void Push(Completion completion) {
      std::lock_guard<std::mutex> lock(mu);
      if (!open) return;
      items.push_back(std::move(completion));
      // One wake byte; the loop drains the pipe and the queue together.
      // EAGAIN (pipe already full of wake bytes) is fine -- a wake is
      // already pending.
      const char byte = 1;
      if (wake_fd >= 0) {
        [[maybe_unused]] ssize_t n = ::write(wake_fd, &byte, 1);
      }
    }

    std::vector<Completion> Drain() {
      std::lock_guard<std::mutex> lock(mu);
      return std::exchange(items, {});
    }

    void Close() {
      std::lock_guard<std::mutex> lock(mu);
      open = false;
      wake_fd = -1;
      items.clear();
    }
  };

  struct Connection {
    uint64_t id = 0;
    int fd = -1;
    HttpParser parser;
    std::string inbuf;
    std::string outbuf;
    size_t out_off = 0;
    bool close_after_flush = false;
    /// An async /v1/whynot is outstanding: input processing pauses (keeps
    /// pipelined responses in request order) until the completion lands.
    bool awaiting_async = false;
    bool pending_deduped = false;
    bool pending_keep_alive = true;
    Clock::TimePoint last_activity;
    /// Set when the first byte of the current request arrives; the
    /// slowloris clock for this request.
    Clock::TimePoint request_start;
    bool request_timing_armed = false;

    explicit Connection(HttpLimits limits) : parser(limits) {}
  };

  WhyNotService* service = nullptr;
  ServerOptions options;
  const Clock* clock = nullptr;
  HttpServer* owner = nullptr;

  int listen_fd = -1;
  int wake_read_fd = -1;
  std::shared_ptr<CompletionQueue> completions = std::make_shared<CompletionQueue>();
  std::thread loop;
  std::atomic<bool> stop_requested{false};
  std::atomic<bool> accepting{true};
  std::atomic<size_t> open_count{0};

  uint64_t next_conn_id = 1;
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns;

  // Net metrics, registered in the service's unified registry so one
  // /metrics scrape covers the edge and the service alike.
  obs::Counter* accepted_total = nullptr;
  obs::Counter* refused_cap = nullptr;
  obs::Counter* refused_draining = nullptr;
  obs::Counter* requests_whynot = nullptr;
  obs::Counter* requests_metrics = nullptr;
  obs::Counter* requests_health = nullptr;
  obs::Counter* parse_errors = nullptr;
  obs::Counter* timeouts_idle = nullptr;
  obs::Counter* timeouts_header = nullptr;
  obs::Counter* slow_clients = nullptr;
  obs::Gauge* open_gauge = nullptr;

  void RegisterMetrics() {
    obs::MetricsRegistry* registry = service->metrics();
    accepted_total = registry->GetCounter("ned_net_connections_accepted_total");
    refused_cap = registry->GetCounter("ned_net_connections_refused_total",
                                       {{"reason", "cap"}});
    refused_draining = registry->GetCounter(
        "ned_net_connections_refused_total", {{"reason", "draining"}});
    requests_whynot =
        registry->GetCounter("ned_net_requests_total", {{"endpoint", "whynot"}});
    requests_metrics =
        registry->GetCounter("ned_net_requests_total", {{"endpoint", "metrics"}});
    requests_health =
        registry->GetCounter("ned_net_requests_total", {{"endpoint", "health"}});
    parse_errors = registry->GetCounter("ned_net_parse_errors_total");
    timeouts_idle =
        registry->GetCounter("ned_net_timeouts_total", {{"kind", "idle"}});
    timeouts_header =
        registry->GetCounter("ned_net_timeouts_total", {{"kind", "header"}});
    slow_clients = registry->GetCounter("ned_net_slow_clients_closed_total");
    open_gauge = registry->GetGauge("ned_net_open_connections");
  }

  Status Start() {
    listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd < 0) {
      return Status::Unavailable(StrCat("socket: ", std::strerror(errno)));
    }
    int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(options.port));
    if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
      return Status::InvalidArgument(StrCat("bad listen host ", options.host));
    }
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return Status::Unavailable(
          StrCat("bind ", options.host, ":", options.port, ": ",
                 std::strerror(errno)));
    }
    if (::listen(listen_fd, options.backlog) != 0) {
      return Status::Unavailable(StrCat("listen: ", std::strerror(errno)));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &len);
    owner->port_ = static_cast<int>(ntohs(bound.sin_port));
    int pipe_fds[2];
    if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
      return Status::Unavailable(StrCat("pipe2: ", std::strerror(errno)));
    }
    wake_read_fd = pipe_fds[0];
    {
      std::lock_guard<std::mutex> lock(completions->mu);
      completions->wake_fd = pipe_fds[1];
    }
    RegisterMetrics();
    loop = std::thread([this] { Loop(); });
    return Status::OK();
  }

  void Stop() {
    if (stop_requested.exchange(true)) {
      if (loop.joinable()) loop.join();
      return;
    }
    // The wake byte routes through the queue's pipe write end.
    completions->Push(Completion{});  // conn_id 0: pure wake, dropped on drain
    if (loop.joinable()) loop.join();
    int wake_write = -1;
    {
      std::lock_guard<std::mutex> lock(completions->mu);
      wake_write = completions->wake_fd;
    }
    completions->Close();
    if (wake_write >= 0) ::close(wake_write);
    if (wake_read_fd >= 0) ::close(wake_read_fd);
    wake_read_fd = -1;
    if (listen_fd >= 0) ::close(listen_fd);
    listen_fd = -1;
  }

  // -- Event loop -----------------------------------------------------------

  void Loop() {
    std::vector<pollfd> fds;
    std::vector<uint64_t> fd_conn;  // parallel to fds: conn id or 0
    while (!stop_requested.load(std::memory_order_relaxed)) {
      fds.clear();
      fd_conn.clear();
      fds.push_back({listen_fd, POLLIN, 0});
      fd_conn.push_back(0);
      fds.push_back({wake_read_fd, POLLIN, 0});
      fd_conn.push_back(0);
      for (auto& [id, conn] : conns) {
        short events = 0;
        if (!conn->awaiting_async && !conn->close_after_flush) events |= POLLIN;
        if (conn->out_off < conn->outbuf.size()) events |= POLLOUT;
        if (events == 0) events = POLLIN;  // at least detect hangup
        fds.push_back({conn->fd, events, 0});
        fd_conn.push_back(id);
      }
      ::poll(fds.data(), fds.size(), options.poll_interval_ms);
      if (stop_requested.load(std::memory_order_relaxed)) break;
      if (fds[1].revents & POLLIN) DrainWakePipe();
      DeliverCompletions();
      if (fds[0].revents & POLLIN) AcceptAll();
      for (size_t i = 2; i < fds.size(); ++i) {
        auto it = conns.find(fd_conn[i]);
        if (it == conns.end()) continue;  // closed earlier this tick
        Connection* conn = it->second.get();
        if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
          // POLLHUP with readable data still pending is delivered with
          // POLLIN on Linux; by the time we see a bare hangup the peer is
          // gone either way.
          if ((fds[i].revents & POLLIN) == 0) {
            CloseConn(conn->id);
            continue;
          }
        }
        if (fds[i].revents & POLLIN) {
          if (!HandleRead(conn)) continue;  // connection closed
        }
        if (fds[i].revents & POLLOUT) TryFlush(conn);
      }
      EvictTimeouts(clock->Now());
    }
    for (auto& [id, conn] : conns) ::close(conn->fd);
    conns.clear();
    open_count.store(0, std::memory_order_relaxed);
    if (open_gauge != nullptr) open_gauge->Set(0);
  }

  void DrainWakePipe() {
    char buf[256];
    while (::read(wake_read_fd, buf, sizeof(buf)) > 0) {
    }
  }

  void DeliverCompletions() {
    for (Completion& completion : completions->Drain()) {
      auto it = conns.find(completion.conn_id);
      if (it == conns.end()) continue;  // client went away; answer is cached
      Connection* conn = it->second.get();
      const WhyNotResponse& response = completion.response;
      std::vector<std::pair<std::string, std::string>> headers;
      const int status = HttpStatusForCode(response.status.code());
      if (status == 503) AppendRetryHeaders(&headers, response.retry_after_ms);
      const bool keep = conn->pending_keep_alive;
      EnqueueResponse(conn, status, kJsonType,
                      RenderWhyNotResponseJson(response, conn->pending_deduped),
                      headers, keep);
      conn->awaiting_async = false;
      if (!keep) conn->close_after_flush = true;
      conn->last_activity = clock->Now();
      // Pipelined bytes buffered behind the async request resume here.
      ProcessInput(conn);
      if (conns.count(completion.conn_id) != 0) TryFlush(conn);
    }
  }

  void AcceptAll() {
    for (;;) {
      const int fd =
          ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) return;
      if (!accepting.load(std::memory_order_relaxed)) {
        refused_draining->Increment();
        ::close(fd);
        continue;
      }
      if (conns.size() >= options.max_connections) {
        refused_cap->Increment();
        ::close(fd);
        continue;
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto conn = std::make_unique<Connection>(options.limits);
      conn->id = next_conn_id++;
      conn->fd = fd;
      conn->last_activity = clock->Now();
      accepted_total->Increment();
      conns.emplace(conn->id, std::move(conn));
      open_count.store(conns.size(), std::memory_order_relaxed);
      open_gauge->Set(static_cast<int64_t>(conns.size()));
    }
  }

  void CloseConn(uint64_t id) {
    auto it = conns.find(id);
    if (it == conns.end()) return;
    ::close(it->second->fd);
    conns.erase(it);
    open_count.store(conns.size(), std::memory_order_relaxed);
    open_gauge->Set(static_cast<int64_t>(conns.size()));
  }

  /// Returns false when the connection was closed.
  bool HandleRead(Connection* conn) {
    char buf[64 * 1024];
    for (;;) {
      const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
      if (n > 0) {
        conn->inbuf.append(buf, static_cast<size_t>(n));
        conn->last_activity = clock->Now();
        if (static_cast<size_t>(n) < sizeof(buf)) break;
        continue;
      }
      if (n == 0) {
        CloseConn(conn->id);
        return false;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      CloseConn(conn->id);
      return false;
    }
    const uint64_t id = conn->id;
    ProcessInput(conn);
    if (conns.count(id) == 0) return false;
    TryFlush(conn);
    return conns.count(id) != 0;
  }

  void ProcessInput(Connection* conn) {
    while (!conn->awaiting_async && !conn->close_after_flush &&
           !conn->inbuf.empty()) {
      const size_t consumed = conn->parser.Feed(conn->inbuf);
      conn->inbuf.erase(0, consumed);
      if (conn->parser.started() && !conn->request_timing_armed) {
        conn->request_timing_armed = true;
        conn->request_start = clock->Now();
      }
      if (conn->parser.state() == HttpParser::State::kError) {
        parse_errors->Increment();
        const int status = conn->parser.error_status();
        const Status body_status =
            status == 413
                ? Status::ResourceExhausted(conn->parser.error_detail())
                : Status::InvalidArgument(conn->parser.error_detail());
        EnqueueResponse(conn, status, kJsonType,
                        RenderSubmissionErrorJson(body_status, 0, false), {},
                        /*keep_alive=*/false);
        conn->close_after_flush = true;
        conn->inbuf.clear();
        return;
      }
      if (conn->parser.state() == HttpParser::State::kComplete) {
        conn->request_timing_armed = false;
        HandleRequest(conn, conn->parser.request());
        conn->parser.Reset();
        continue;
      }
      return;  // need more bytes
    }
  }

  void HandleRequest(Connection* conn, const HttpRequest& req) {
    const bool keep = req.KeepAlive();
    if (req.target == "/healthz" || req.target == "/readyz") {
      requests_health->Increment();
      if (req.method != "GET") {
        EnqueueMethodNotAllowed(conn, "GET", keep);
      } else if (req.target == "/healthz") {
        EnqueueResponse(conn, 200, kTextType, "ok\n", {}, keep);
      } else if (owner->ready()) {
        EnqueueResponse(conn, 200, kTextType, "ready\n", {}, keep);
      } else {
        EnqueueResponse(conn, 503, kTextType, "draining\n", {}, keep);
      }
    } else if (req.target == "/metrics") {
      requests_metrics->Increment();
      if (req.method != "GET") {
        EnqueueMethodNotAllowed(conn, "GET", keep);
      } else {
        // Collect() takes the service mutex briefly; scrapes are rare
        // relative to requests, so doing it on the loop is acceptable.
        EnqueueResponse(conn, 200, kPromType,
                        obs::FormatPrometheus(service->metrics()->Collect()),
                        {}, keep);
      }
    } else if (req.target == "/v1/whynot") {
      requests_whynot->Increment();
      if (req.method != "POST") {
        EnqueueMethodNotAllowed(conn, "POST", keep);
      } else {
        HandleWhyNot(conn, req, keep);
        return;  // response (sync error or async) already arranged
      }
    } else {
      EnqueueResponse(conn, 404, kJsonType,
                      RenderSubmissionErrorJson(
                          Status::NotFound(StrCat("no such endpoint: ",
                                                  req.target)),
                          0, false),
                      {}, keep);
    }
    if (!keep) conn->close_after_flush = true;
  }

  void HandleWhyNot(Connection* conn, const HttpRequest& req, bool keep) {
    auto parsed = ParseWhyNotRequestJson(req.body);
    if (!parsed.ok()) {
      EnqueueResponse(conn, HttpStatusForCode(parsed.status().code()),
                      kJsonType,
                      RenderSubmissionErrorJson(parsed.status(), 0, false), {},
                      keep);
      if (!keep) conn->close_after_flush = true;
      return;
    }
    WhyNotRequest request = std::move(parsed).value();
    // Headers win over body fields: a proxy can retarget priority or attach
    // an idempotency key without re-encoding the payload.
    if (std::string_view key = req.Header("x-ned-idempotency-key");
        !key.empty()) {
      request.key = std::string(key);
    }
    if (std::string_view prio = req.Header("x-ned-priority"); !prio.empty()) {
      if (prio == "interactive") {
        request.priority = Priority::kInteractive;
      } else if (prio == "batch") {
        request.priority = Priority::kBatch;
      } else if (prio == "background") {
        request.priority = Priority::kBackground;
      } else {
        EnqueueResponse(
            conn, 400, kJsonType,
            RenderSubmissionErrorJson(
                Status::InvalidArgument(
                    StrCat("unknown X-Ned-Priority \"", prio, "\"")),
                0, false),
            {}, keep);
        if (!keep) conn->close_after_flush = true;
        return;
      }
    }
    // The callback only copies the response into the loop's queue and
    // writes one wake byte -- the no-worker-ever-blocks-on-a-client rule.
    const uint64_t conn_id = conn->id;
    std::shared_ptr<CompletionQueue> queue = completions;
    WhyNotService::Submission sub = service->Submit(
        std::move(request),
        [queue, conn_id](const WhyNotResponse& response) {
          queue->Push(Completion{conn_id, response});
        });
    if (!sub.status.ok()) {
      // Shed / remembered error / permanent rejection: resolved here and
      // now, no callback will fire.
      std::vector<std::pair<std::string, std::string>> headers;
      const int status = HttpStatusForCode(sub.status.code());
      if (status == 503) AppendRetryHeaders(&headers, sub.retry_after_ms);
      EnqueueResponse(conn, status, kJsonType,
                      RenderSubmissionErrorJson(sub.status, sub.retry_after_ms,
                                                sub.breaker_fast_fail),
                      headers, keep);
      if (!keep) conn->close_after_flush = true;
      return;
    }
    // Accepted (or coalesced): the completion -- possibly already enqueued
    // by a synchronous hit -- is rendered by DeliverCompletions on this
    // thread, strictly after these flags are set.
    conn->awaiting_async = true;
    conn->pending_deduped = sub.deduped;
    conn->pending_keep_alive = keep;
  }

  void EnqueueMethodNotAllowed(Connection* conn, const char* allow, bool keep) {
    EnqueueResponse(conn, 405, kJsonType,
                    RenderSubmissionErrorJson(
                        Status::Unsupported("method not allowed"), 0, false),
                    {{"Allow", allow}}, keep);
  }

  void EnqueueResponse(Connection* conn, int status,
                       std::string_view content_type, std::string_view body,
                       std::vector<std::pair<std::string, std::string>> headers,
                       bool keep_alive) {
    conn->outbuf +=
        RenderHttpResponse(status, content_type, body, headers, keep_alive);
  }

  void TryFlush(Connection* conn) {
    while (conn->out_off < conn->outbuf.size()) {
      const ssize_t n = ::write(conn->fd, conn->outbuf.data() + conn->out_off,
                                conn->outbuf.size() - conn->out_off);
      if (n > 0) {
        conn->out_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      CloseConn(conn->id);  // broken pipe etc.
      return;
    }
    if (conn->out_off == conn->outbuf.size()) {
      conn->outbuf.clear();
      conn->out_off = 0;
      if (conn->close_after_flush) CloseConn(conn->id);
      return;
    }
    // Slow client: pending bytes past the cap close the connection -- the
    // buffer is the only memory a stalled reader can make us hold.
    if (conn->outbuf.size() - conn->out_off > options.max_write_buffer_bytes) {
      slow_clients->Increment();
      CloseConn(conn->id);
    }
  }

  void EvictTimeouts(Clock::TimePoint now) {
    std::vector<uint64_t> drop;
    for (auto& [id, conn] : conns) {
      if (conn->awaiting_async) continue;  // server's turn, not the client's
      if (conn->request_timing_armed) {
        // Slowloris: a request in progress must complete within the header
        // window, however slowly its bytes trickle.
        if (now - conn->request_start >=
            std::chrono::milliseconds(options.header_timeout_ms)) {
          timeouts_header->Increment();
          EnqueueResponse(conn.get(), 408, kJsonType,
                          RenderSubmissionErrorJson(
                              Status::DeadlineExceeded("request header timeout"),
                              0, false),
                          {}, /*keep_alive=*/false);
          TryFlush(conn.get());  // best-effort 408; eviction is unconditional
          drop.push_back(id);
        }
        continue;
      }
      if (conn->outbuf.empty() &&
          now - conn->last_activity >=
              std::chrono::milliseconds(options.idle_timeout_ms)) {
        timeouts_idle->Increment();
        drop.push_back(id);
      }
    }
    for (uint64_t id : drop) CloseConn(id);
  }
};

HttpServer::HttpServer(WhyNotService* service, ServerOptions options)
    : impl_(std::make_unique<Impl>()) {
  NED_CHECK_MSG(service != nullptr, "HttpServer needs a service");
  impl_->service = service;
  impl_->options = options;
  impl_->clock = options.clock != nullptr ? options.clock : Clock::Real();
  impl_->owner = this;
}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start() { return impl_->Start(); }

void HttpServer::Stop() { impl_->Stop(); }

void HttpServer::BeginDrain() {
  ready_.store(false, std::memory_order_relaxed);
  impl_->accepting.store(false, std::memory_order_relaxed);
}

void HttpServer::SetReady(bool ready) {
  ready_.store(ready, std::memory_order_relaxed);
}

size_t HttpServer::open_connections() const {
  return impl_->open_count.load(std::memory_order_relaxed);
}

}  // namespace ned::net
