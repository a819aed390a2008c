/// \file bench_net.cpp
/// \brief Serving-edge overhead: wire latency vs in-process Submit.
///
/// Runs the 19 paper use cases three ways against identical services --
/// in-process Submit (the floor), HTTP over a loopback keep-alive
/// connection, and HTTP with a fresh connection per request (the TCP +
/// parse overhead worst case) -- and reports p50/p99 per mode. Emits
/// BENCH_net.json and enforces the regression gate the CI job checks:
/// keep-alive wire p50 must stay under 2x the in-process p50, i.e. the
/// frontend may at most double the latency of the engine it fronts.
///
/// Usage: bench_net [--rounds N] [--out path.json]

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "datasets/use_cases.h"
#include "net/http.h"
#include "net/server.h"
#include "net/wire.h"
#include "relational/catalog.h"
#include "service/service.h"

namespace {

using ned::Catalog;
using ned::ServiceOptions;
using ned::UseCase;
using ned::UseCaseRegistry;
using ned::WhyNotRequest;
using ned::WhyNotService;
using ned::net::HttpResponse;
using ned::net::HttpServer;

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(values.size() - 1));
  return values[idx];
}

/// Minimal blocking client (same shape net_test uses).
class Client {
 public:
  explicit Client(int port) : port_(port) {}
  ~Client() { Close(); }

  bool Connect() {
    Close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port_));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Close();
      return false;
    }
    buffer_.clear();
    return true;
  }
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool RoundTrip(std::string_view request, HttpResponse* response) {
    size_t off = 0;
    while (off < request.size()) {
      const ssize_t n = ::send(fd_, request.data() + off,
                               request.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    char chunk[16 * 1024];
    while (true) {
      if (!buffer_.empty()) {
        auto parsed = ned::net::ParseHttpResponse(buffer_, response);
        if (!parsed.ok()) return false;
        if (*parsed > 0) {
          buffer_.erase(0, *parsed);
          return true;
        }
      }
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int port_;
  int fd_ = -1;
  std::string buffer_;
};

std::string RenderPost(const WhyNotRequest& request) {
  const std::string body = ned::net::RenderWhyNotRequestJson(request);
  return ned::StrCat(
      "POST /v1/whynot HTTP/1.1\r\nHost: b\r\nContent-Length: ", body.size(),
      "\r\n\r\n", body);
}

WhyNotRequest CaseRequest(const UseCase& uc, const std::string& key) {
  WhyNotRequest request;
  request.key = key;
  request.db_name = uc.db_name;
  request.sql = uc.sql;
  request.question = uc.question;
  request.deadline_ms = 30'000;
  // Every request must actually execute: the answer cache would otherwise
  // turn rounds 2..N into pure cache reads and flatter the wire overhead.
  request.bypass_answer_cache = true;
  return request;
}

struct Mode {
  std::string name;
  double p50_ms = 0;
  double p99_ms = 0;
  size_t requests = 0;
};

}  // namespace

int main(int argc, char** argv) {
  int rounds = 20;
  std::string out_path = "BENCH_net.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--rounds" && i + 1 < argc) {
      rounds = std::stoi(argv[++i]);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_net [--rounds N] [--out path.json]\n";
      return 2;
    }
  }

  auto registry = UseCaseRegistry::Build(1);
  if (!registry.ok()) {
    std::cerr << "bench_net: " << registry.status().ToString() << "\n";
    return 1;
  }
  auto make_catalog = [&]() {
    auto catalog = std::make_shared<Catalog>();
    for (const char* name : {"crime", "imdb", "gov"}) {
      ned::Database copy = registry->database(name);
      if (!catalog->Register(name, std::move(copy)).ok()) std::abort();
    }
    return catalog;
  };
  ServiceOptions options;
  options.workers = 2;
  WhyNotService service(make_catalog(), options);
  HttpServer server(&service);
  if (!server.Start().ok()) {
    std::cerr << "bench_net: server failed to start\n";
    return 1;
  }

  std::vector<Mode> modes;
  uint64_t seq = 0;

  // Mode 1: in-process Submit -- the floor the wire is measured against.
  {
    Mode mode{"in_process"};
    std::vector<double> lat;
    for (int r = 0; r < rounds; ++r) {
      for (const UseCase& uc : registry->use_cases()) {
        auto request = CaseRequest(uc, ned::StrCat("bp-", seq++));
        const auto start = std::chrono::steady_clock::now();
        auto sub = service.Submit(std::move(request));
        if (!sub.status.ok()) continue;
        sub.response.wait();
        lat.push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count());
      }
    }
    mode.requests = lat.size();
    mode.p50_ms = Percentile(lat, 0.50);
    mode.p99_ms = Percentile(lat, 0.99);
    modes.push_back(mode);
  }

  // Mode 2: the wire over one keep-alive connection.
  {
    Mode mode{"wire_keepalive"};
    std::vector<double> lat;
    Client client(server.port());
    if (!client.Connect()) {
      std::cerr << "bench_net: connect failed\n";
      return 1;
    }
    for (int r = 0; r < rounds; ++r) {
      for (const UseCase& uc : registry->use_cases()) {
        const std::string post =
            RenderPost(CaseRequest(uc, ned::StrCat("bw-", seq++)));
        HttpResponse response;
        const auto start = std::chrono::steady_clock::now();
        if (!client.RoundTrip(post, &response) || response.status != 200) {
          std::cerr << "bench_net: wire request failed (" << response.status
                    << ")\n";
          return 1;
        }
        lat.push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count());
      }
    }
    mode.requests = lat.size();
    mode.p50_ms = Percentile(lat, 0.50);
    mode.p99_ms = Percentile(lat, 0.99);
    modes.push_back(mode);
  }

  // Mode 3: a fresh connection per request (connect cost included).
  {
    Mode mode{"wire_fresh_conn"};
    std::vector<double> lat;
    for (int r = 0; r < rounds; ++r) {
      for (const UseCase& uc : registry->use_cases()) {
        const std::string post =
            RenderPost(CaseRequest(uc, ned::StrCat("bf-", seq++)));
        Client client(server.port());
        HttpResponse response;
        const auto start = std::chrono::steady_clock::now();
        if (!client.Connect() || !client.RoundTrip(post, &response) ||
            response.status != 200) {
          std::cerr << "bench_net: fresh-conn request failed\n";
          return 1;
        }
        lat.push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count());
      }
    }
    mode.requests = lat.size();
    mode.p50_ms = Percentile(lat, 0.50);
    mode.p99_ms = Percentile(lat, 0.99);
    modes.push_back(mode);
  }

  server.Stop();
  service.Shutdown();

  std::cout << "mode              requests   p50_ms   p99_ms\n";
  for (const Mode& mode : modes) {
    std::printf("%-17s %8zu %8.3f %8.3f\n", mode.name.c_str(), mode.requests,
                mode.p50_ms, mode.p99_ms);
  }
  const double in_process_p50 = modes[0].p50_ms;
  const double wire_p50 = modes[1].p50_ms;
  const double overhead = in_process_p50 > 0 ? wire_p50 / in_process_p50 : 0;
  std::printf("wire/in-process p50 ratio: %.2fx (gate: < 2.00x)\n", overhead);

  std::ofstream out(out_path);
  out << "{\n  \"benchmark\": \"net\",\n  \"cores\": "
      << std::thread::hardware_concurrency() << ",\n  \"modes\": [\n";
  for (size_t i = 0; i < modes.size(); ++i) {
    out << "    {\"name\": \"" << modes[i].name
        << "\", \"requests\": " << modes[i].requests
        << ", \"p50_ms\": " << modes[i].p50_ms
        << ", \"p99_ms\": " << modes[i].p99_ms << "}"
        << (i + 1 < modes.size() ? ",\n" : "\n");
  }
  out << "  ],\n  \"wire_over_in_process_p50\": " << overhead
      << ",\n  \"gate_wire_p50_under_2x\": " << (overhead < 2.0 ? "true" : "false")
      << "\n}\n";
  std::cout << "wrote " << out_path << "\n";

  if (overhead >= 2.0) {
    std::cerr << "bench_net: FAIL -- wire p50 " << wire_p50
              << "ms is >= 2x in-process p50 " << in_process_p50 << "ms\n";
    return 1;
  }
  return 0;
}
