/// \file ned_serve.cpp
/// \brief The HTTP serving binary: WhyNotService behind src/net/ on a port.
///
/// Builds the paper's three evaluation databases (crime/imdb/gov,
/// datasets/use_cases.h), registers them in a Catalog, and serves
/// POST /v1/whynot plus /metrics, /healthz and /readyz until a drain
/// signal arrives. The shutdown sequence is the documented operator
/// contract (docs/NETWORK.md):
///
///   SIGTERM/SIGINT -> /readyz flips 503 and new connections are refused
///   -> grace period so load balancers observe the flip -> service Drain
///   (in-flight completes, queued journaled-recoverable with persistence
///   on) -> responses flush -> exit 0 with balanced books.
///
/// `--port 0` binds an ephemeral port; the "listening on" line printed to
/// stdout carries the real one (ned_loadgen --smoke parses it).

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "common/signal_drain.h"
#include "common/strings.h"
#include "datasets/use_cases.h"
#include "net/server.h"
#include "relational/catalog.h"
#include "service/service.h"

namespace {

using ned::Catalog;
using ned::ServiceOptions;
using ned::Status;
using ned::WhyNotService;

struct Args {
  std::string host = "127.0.0.1";
  int port = 8080;
  int workers = 4;
  size_t queue = 64;
  int scale = 1;
  size_t max_connections = 256;
  int64_t idle_timeout_ms = 30'000;
  int64_t header_timeout_ms = 5'000;
  int64_t drain_grace_ms = 100;
  int64_t drain_deadline_ms = 5'000;
  int64_t default_deadline_ms = 2'000;
  std::string persist_dir;
};

void Usage() {
  std::cerr
      << "ned_serve: HTTP frontend for the why-not service\n"
         "  --host H                listen address (default 127.0.0.1)\n"
         "  --port N                listen port; 0 = ephemeral (default 8080)\n"
         "  --workers N             service worker pool size (default 4)\n"
         "  --queue N               admission queue capacity (default 64)\n"
         "  --scale N               dataset scale factor (default 1)\n"
         "  --max-connections N     open-connection cap (default 256)\n"
         "  --idle-timeout-ms N     keep-alive idle eviction (default 30000)\n"
         "  --header-timeout-ms N   slowloris bound (default 5000)\n"
         "  --deadline-ms N         default request deadline (default 2000)\n"
         "  --drain-grace-ms N      readyz-flip grace before Drain (default 100)\n"
         "  --drain-deadline-ms N   Drain deadline for running work (default 5000)\n"
         "  --persist DIR           journal + answer store root (default off)\n";
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--host" && (v = next())) {
      args->host = v;
    } else if (arg == "--port" && (v = next())) {
      args->port = std::atoi(v);
    } else if (arg == "--workers" && (v = next())) {
      args->workers = std::atoi(v);
    } else if (arg == "--queue" && (v = next())) {
      args->queue = static_cast<size_t>(std::atoll(v));
    } else if (arg == "--scale" && (v = next())) {
      args->scale = std::atoi(v);
    } else if (arg == "--max-connections" && (v = next())) {
      args->max_connections = static_cast<size_t>(std::atoll(v));
    } else if (arg == "--idle-timeout-ms" && (v = next())) {
      args->idle_timeout_ms = std::atoll(v);
    } else if (arg == "--header-timeout-ms" && (v = next())) {
      args->header_timeout_ms = std::atoll(v);
    } else if (arg == "--deadline-ms" && (v = next())) {
      args->default_deadline_ms = std::atoll(v);
    } else if (arg == "--drain-grace-ms" && (v = next())) {
      args->drain_grace_ms = std::atoll(v);
    } else if (arg == "--drain-deadline-ms" && (v = next())) {
      args->drain_deadline_ms = std::atoll(v);
    } else if (arg == "--persist" && (v = next())) {
      args->persist_dir = v;
    } else {
      Usage();
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  ned::InstallDrainSignalHandlers();

  auto registry = ned::UseCaseRegistry::Build(args.scale);
  if (!registry.ok()) {
    std::cerr << "ned_serve: failed to build datasets: "
              << registry.status().ToString() << "\n";
    return 1;
  }
  auto catalog = std::make_shared<Catalog>();
  for (const char* name : {"crime", "imdb", "gov"}) {
    ned::Database copy = registry->database(name);
    if (!catalog->Register(name, std::move(copy)).ok()) return 1;
  }

  ServiceOptions service_options;
  service_options.workers = args.workers;
  service_options.queue_capacity = args.queue;
  service_options.default_deadline_ms = args.default_deadline_ms;
  service_options.persist_dir = args.persist_dir;
  WhyNotService service(catalog, service_options);
  if (!args.persist_dir.empty()) {
    const WhyNotService::RecoveryReport rec = service.Recover();
    if (rec.replayed_records > 0) {
      std::cout << "ned_serve: recovered journal (replayed="
                << rec.replayed_records << " pending=" << rec.pending_found
                << " from_store=" << rec.served_from_store
                << " resubmitted=" << rec.resubmitted << ")\n";
    }
  }

  ned::net::ServerOptions server_options;
  server_options.host = args.host;
  server_options.port = args.port;
  server_options.max_connections = args.max_connections;
  server_options.idle_timeout_ms = args.idle_timeout_ms;
  server_options.header_timeout_ms = args.header_timeout_ms;
  ned::net::HttpServer server(&service, server_options);
  const Status started = server.Start();
  if (!started.ok()) {
    std::cerr << "ned_serve: " << started.ToString() << "\n";
    return 1;
  }
  // The harness contract: this exact line, with the bound (possibly
  // ephemeral) port, before any serving output.
  std::cout << "ned_serve: listening on " << args.host << ":" << server.port()
            << std::endl;

  while (!ned::DrainRequested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  // Drain sequence -- each step is observable from outside.
  std::cout << "ned_serve: drain requested" << std::endl;
  server.BeginDrain();  // readyz -> 503, new connections refused
  std::this_thread::sleep_for(std::chrono::milliseconds(args.drain_grace_ms));
  const WhyNotService::DrainReport report = service.Drain(args.drain_deadline_ms);
  // In-flight completions resolved during Drain still need their bytes
  // flushed to connected clients; one more grace tick covers the loop.
  std::this_thread::sleep_for(std::chrono::milliseconds(args.drain_grace_ms));
  server.Stop();
  std::cout << "ned_serve: drained (completed_inflight="
            << report.completed_inflight
            << " journaled_queued=" << report.journaled_queued
            << " cancelled=" << report.cancelled << ")" << std::endl;
  return 0;
}
