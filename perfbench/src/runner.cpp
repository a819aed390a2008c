/// \file runner.cpp
/// \brief One run: set-up, the closed loop over HTTP (timed) or its traced
/// replay, the output checks, the metrics and the run record.

#include "runner.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "cache/subtree_cache.h"
#include "canonical/canonicalizer.h"
#include "common/json.h"
#include "common/strings.h"
#include "core/nedexplain.h"
#include "exec/evaluator.h"
#include "net/http.h"
#include "net/server.h"
#include "relational/catalog.h"
#include "service/service.h"
#include "spans.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace ned::perfbench {
namespace {

using SteadyClock = std::chrono::steady_clock;

/// Far above the slowest x16 question, so no answer comes back partial.
constexpr int64_t kDeadlineMs = 120'000;
/// A run sends at least this many timed requests, so that p99 leaves ten
/// samples above it.
constexpr size_t kMinRequests = 1000;
constexpr double kMiB = 1024.0 * 1024.0;
/// A traced run replays at most this many requests per connection.
constexpr size_t kTracedSteps = 5000;

/// Input and reference-answer digests of the default seed.
struct Pinned {
  uint64_t input = 0;
  uint64_t answers = 0;
};

Pinned PinnedDigests(Workload workload) {
  switch (workload) {
    case Workload::kPaper19:
      return {0x490fb337c59f87bbULL, 0x374b98d2319669f8ULL};
    case Workload::kScaled16:
      return {0xcb7dc54c45aa4b43ULL, 0x83f081fa96233c29ULL};
    case Workload::kRepeatReload:
      return {0x40bf9d2e2ffae368ULL, 0xe5ff6893376744d9ULL};
  }
  return {};
}

/// Set-ups per timed run; setup_s reports their median.
int SetupsPerRun(Workload workload) {
  return workload == Workload::kScaled16 ? 5 : 7;
}

double MsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - start)
      .count();
}

int64_t CpuNanos(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// An ordered JSON object, for the result line and the run record.
class JsonObject {
 public:
  JsonObject& Num(std::string_view key, double v) {
    Key(key);
    json::AppendDouble(&out_, v);
    return *this;
  }
  JsonObject& Str(std::string_view key, std::string_view v) {
    Key(key);
    out_ += json::Quote(v);
    return *this;
  }
  JsonObject& Raw(std::string_view key, std::string_view raw) {
    Key(key);
    out_ += raw;
    return *this;
  }
  std::string Render() const { return out_ + "}"; }

 private:
  void Key(std::string_view key) {
    if (out_.size() > 1) out_ += ", ";
    out_ += json::Quote(key);
    out_ += ": ";
  }
  std::string out_ = "{";
};

std::string JsonStrings(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += json::Quote(items[i]);
  }
  return out + "]";
}

std::string JsonNumbers(const std::vector<double>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    json::AppendDouble(&out, items[i]);
  }
  return out + "]";
}

/// A blocking keep-alive HTTP/1.1 client over loopback.
class HttpClient {
 public:
  explicit HttpClient(int port) : port_(port) {}
  ~HttpClient() { Close(); }
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  Status Connect() {
    Close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return Status::Unavailable("socket() failed");
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port_));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Close();
      return Status::Unavailable("connect() failed");
    }
    buffer_.clear();
    return Status::OK();
  }

  /// Sends one request and reads one response. `bytes`, when given, gets
  /// the request's plus the response's size on the wire.
  Status RoundTrip(std::string_view request, net::HttpResponse* response,
                   size_t* bytes) {
    if (fd_ < 0) NED_RETURN_NOT_OK(Connect());
    for (size_t off = 0; off < request.size();) {
      const ssize_t n = ::send(fd_, request.data() + off, request.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) {
        Close();
        return Status::Unavailable("send() failed");
      }
      off += static_cast<size_t>(n);
    }
    char chunk[16 * 1024];
    while (true) {
      if (!buffer_.empty()) {
        auto parsed = net::ParseHttpResponse(buffer_, response);
        if (!parsed.ok()) {
          Close();
          return parsed.status();
        }
        if (*parsed > 0) {
          if (bytes != nullptr) *bytes = request.size() + *parsed;
          buffer_.erase(0, *parsed);
          return Status::OK();
        }
      }
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        Close();
        return Status::Unavailable("connection closed");
      }
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  int port_;
  int fd_ = -1;
  std::string buffer_;
};

WhyNotRequest MakeRequest(Workload workload, const Question& q) {
  WhyNotRequest request;
  request.db_name = q.db_name;
  request.sql = q.sql;
  request.question = q.question;
  request.deadline_ms = kDeadlineMs;
  // paper19 and scaled16 measure execution: every request runs the engine.
  request.bypass_answer_cache = workload != Workload::kRepeatReload;
  return request;
}

std::string RenderPost(const std::string& body) {
  return StrCat("POST /v1/whynot HTTP/1.1\r\nHost: perfbench\r\n",
                "Content-Length: ", body.size(), "\r\n\r\n", body);
}

/// What every phase of a run shares.
struct Plan {
  Workload workload = Workload::kPaper19;
  uint64_t seed = kDefaultSeed;
  std::vector<Question> questions;
  std::vector<WhyNotRequest> requests;  ///< per question
  std::vector<std::string> posts;       ///< per question, rendered once
  Schedule schedule;

  bool ContentVaries(int question) const {
    return workload == Workload::kRepeatReload &&
           questions[static_cast<size_t>(question)].db_name == "crime";
  }
};

Result<Plan> MakePlan(const RunConfig& config) {
  Plan plan;
  plan.workload = config.workload;
  plan.seed = config.seed;
  NED_ASSIGN_OR_RETURN(plan.questions, LoadQuestions());
  for (const Question& q : plan.questions) {
    plan.requests.push_back(MakeRequest(config.workload, q));
    plan.posts.push_back(
        RenderPost(net::RenderWhyNotRequestJson(plan.requests.back())));
  }
  plan.schedule =
      BuildSchedule(config.workload, config.seed,
                    RequestsPerConnection(config.workload, config.seconds),
                    plan.questions.size());
  return plan;
}

/// One running stack, built the way tools/ned_serve.cpp builds it, plus the
/// benchmark's client connections.
struct Stack {
  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    clients.clear();
    if (server != nullptr) server->Stop();
    server.reset();
    if (service != nullptr) service->Shutdown();
    service.reset();
    std::error_code ignored;
    if (!persist_dir.empty()) std::filesystem::remove_all(persist_dir, ignored);
  }

  std::vector<std::string> reload_csv;
  std::shared_ptr<Catalog> catalog;
  std::unique_ptr<WhyNotService> service;
  std::unique_ptr<net::HttpServer> server;
  std::vector<std::unique_ptr<HttpClient>> clients;
  std::string persist_dir;
  /// relational.load_ms: building the relations and registering them.
  double load_ms = 0;
};

Result<std::unique_ptr<Stack>> StartStack(const Plan& plan,
                                              const std::string& persist_dir) {
  auto stack = std::make_unique<Stack>();
  const auto start = SteadyClock::now();
  NED_ASSIGN_OR_RETURN(Dataset data, BuildDataset(plan.workload, plan.seed));
  stack->catalog = std::make_shared<Catalog>();
  for (auto& [name, db] : data.dbs) {
    NED_RETURN_NOT_OK(stack->catalog->Register(name, std::move(db)));
  }
  stack->load_ms = MsSince(start);
  stack->reload_csv = std::move(data.reload_csv);

  ServiceOptions options;  // the defaults, except persistence
  if (plan.workload != Workload::kScaled16) {
    std::error_code ignored;
    std::filesystem::remove_all(persist_dir, ignored);
    std::filesystem::create_directories(persist_dir, ignored);
    stack->persist_dir = persist_dir;
    options.persist_dir = persist_dir;
  }
  stack->service = std::make_unique<WhyNotService>(stack->catalog, options);
  stack->server = std::make_unique<net::HttpServer>(stack->service.get());
  NED_RETURN_NOT_OK(stack->server->Start());
  for (int c = 0; c < kConnections; ++c) {
    stack->clients.push_back(
        std::make_unique<HttpClient>(stack->server->port()));
    NED_RETURN_NOT_OK(stack->clients.back()->Connect());
  }
  return std::move(stack);
}

Status ReloadContent(Stack& stack, int content) {
  return stack.catalog->ReloadCsv(
      "crime", "C", stack.reload_csv.at(static_cast<size_t>(content)));
}

/// One connection's share of a closed-loop pass.
struct ConnStats {
  std::vector<Observation> observations;
  /// The client thread's CPU clock when it finished.
  int64_t cpu_end_ns = 0;
  std::vector<std::string> errors;
};

void DriveConnection(Stack& stack, const Plan& plan, int conn,
                     const std::vector<Step>& steps,
                     std::atomic<uint64_t>* done, ConnStats* out) {
  HttpClient& client = *stack.clients[static_cast<size_t>(conn)];
  out->observations.reserve(steps.size());
  for (const Step& step : steps) {
    if (step.reload_before >= 0) {
      const Status reloaded = ReloadContent(stack, step.reload_before);
      if (!reloaded.ok()) out->errors.push_back("reload: " + reloaded.ToString());
    }
    net::HttpResponse http;
    const auto start = SteadyClock::now();
    const Status io = client.RoundTrip(
        plan.posts[static_cast<size_t>(step.question)], &http, nullptr);
    const Result<net::WireResponse> wire =
        io.ok() ? net::ParseWhyNotResponseJson(http.body)
                : Result<net::WireResponse>(io);
    const double latency_ms = MsSince(start);
    done->fetch_add(1, std::memory_order_relaxed);
    Observation observation =
        Observe(step.question, io.ok() ? http.status : 0, wire);
    observation.latency_ms = latency_ms;
    out->observations.push_back(std::move(observation));
  }
  out->cpu_end_ns = CpuNanos(CLOCK_THREAD_CPUTIME_ID);
}

/// One look at the timed phase: requests done so far, process CPU and the
/// client threads' own CPU.
struct Sample {
  double t_s = 0;
  uint64_t done = 0;
  int64_t process_cpu_ns = 0;
  int64_t client_cpu_ns = 0;
};

/// Runs schedule[c] on connection c, one thread each, and waits for all.
/// With `samples`, the calling thread samples progress and CPU every
/// kSampleMs meanwhile.
std::vector<ConnStats> RunLoop(Stack& stack, const Plan& plan,
                               const Schedule& schedule,
                               std::vector<Sample>* samples = nullptr) {
  constexpr int kSampleMs = 20;
  std::vector<ConnStats> stats(schedule.size());
  std::atomic<uint64_t> done{0};
  std::vector<std::thread> threads;
  const auto start = SteadyClock::now();
  for (size_t c = 0; c < schedule.size(); ++c) {
    threads.emplace_back(DriveConnection, std::ref(stack), std::cref(plan),
                         static_cast<int>(c), std::cref(schedule[c]), &done,
                         &stats[c]);
  }
  if (samples != nullptr) {
    std::vector<clockid_t> clocks(threads.size());
    for (size_t c = 0; c < threads.size(); ++c) {
      pthread_getcpuclockid(threads[c].native_handle(), &clocks[c]);
    }
    uint64_t total = 0;
    for (const std::vector<Step>& steps : schedule) total += steps.size();
    // Until the last request completes every client thread is alive, so
    // its CPU clock is valid to read.
    while (true) {
      Sample sample;
      sample.done = done.load(std::memory_order_relaxed);
      if (sample.done >= total) break;
      sample.t_s = MsSince(start) / 1e3;
      sample.process_cpu_ns = CpuNanos(CLOCK_PROCESS_CPUTIME_ID);
      for (clockid_t clock : clocks) sample.client_cpu_ns += CpuNanos(clock);
      samples->push_back(sample);
      std::this_thread::sleep_for(std::chrono::milliseconds(kSampleMs));
    }
  }
  for (std::thread& thread : threads) thread.join();
  if (samples != nullptr) {
    Sample last;
    last.t_s = MsSince(start) / 1e3;
    last.done = done.load();
    last.process_cpu_ns = CpuNanos(CLOCK_PROCESS_CPUTIME_ID);
    for (const ConnStats& conn : stats) last.client_cpu_ns += conn.cpu_end_ns;
    samples->push_back(last);
  }
  return stats;
}

/// Per window of the timed phase, split into kWindows spans of equal
/// request counts: requests per second and server CPU per request. Medians
/// over windows keep a burst of CPU steal from moving a whole run.
struct Windows {
  std::vector<double> rps;
  std::vector<double> cpu_ms_per_req;
};

Windows SplitWindows(const std::vector<Sample>& samples) {
  constexpr int kWindows = 20;
  Windows windows;
  if (samples.size() < 2) return windows;
  const uint64_t total = samples.back().done;
  size_t from = 0;
  for (int w = 1; w <= kWindows; ++w) {
    const uint64_t boundary = total * static_cast<uint64_t>(w) / kWindows;
    size_t to = from + 1;
    while (to + 1 < samples.size() && samples[to].done < boundary) ++to;
    const Sample& a = samples[from];
    const Sample& b = samples[to];
    if (b.done > a.done && b.t_s > a.t_s) {
      const double requests = static_cast<double>(b.done - a.done);
      windows.rps.push_back(requests / (b.t_s - a.t_s));
      windows.cpu_ms_per_req.push_back(
          static_cast<double>((b.process_cpu_ns - a.process_cpu_ns) -
                              (b.client_cpu_ns - a.client_cpu_ns)) /
          1e6 / requests);
    }
    from = to;
    if (from + 1 >= samples.size()) break;
  }
  return windows;
}

/// One warm-up pass, the questions split across the connections. Under
/// repeat_reload one pass per crime.C content -- 0, then 1, then 0 again --
/// so both contents' answers are stored before timing starts.
void WarmUp(Stack& stack, const Plan& plan,
            std::vector<Observation>* checked,
            std::vector<std::string>* errors) {
  std::vector<int> contents = {-1};
  if (plan.workload == Workload::kRepeatReload) contents = {-1, 1, 0};
  for (int content : contents) {
    if (content >= 0) {
      const Status reloaded = ReloadContent(stack, content);
      if (!reloaded.ok()) errors->push_back("reload: " + reloaded.ToString());
    }
    Schedule pass(kConnections);
    for (size_t q = 0; q < plan.questions.size(); ++q) {
      pass[q % kConnections].push_back(Step{static_cast<int>(q), -1});
    }
    for (ConnStats& conn : RunLoop(stack, plan, pass)) {
      checked->insert(checked->end(), conn.observations.begin(),
                      conn.observations.end());
      errors->insert(errors->end(), conn.errors.begin(), conn.errors.end());
    }
  }
}

/// Everything a run's answers are checked against.
struct Checks {
  References refs;
  uint64_t input_digest = 0;
  std::vector<ScaleRow> scaling;
  /// Golden, scaling and digest mismatches; any one fails the run.
  std::vector<std::string> problems;
};

Result<Checks> RunChecks(const RunConfig& config, const Plan& plan) {
  Checks checks;
  NED_ASSIGN_OR_RETURN(Dataset data, BuildDataset(plan.workload, plan.seed));
  checks.input_digest = data.input_digest;
  NED_ASSIGN_OR_RETURN(checks.refs, ComputeReferences(plan.questions, data));
  if (plan.workload == Workload::kPaper19) {
    const Status goldens = CheckGoldens(config.root, plan.questions, data);
    if (!goldens.ok()) checks.problems.push_back(goldens.ToString());
  }
  if (plan.workload == Workload::kScaled16) {
    NED_ASSIGN_OR_RETURN(Dataset x1, BuildDataset(Workload::kPaper19, plan.seed));
    NED_ASSIGN_OR_RETURN(checks.scaling,
                         MeasureScaling(plan.questions, x1.dbs, data.dbs));
    const std::string linear = CheckLinearity(checks.scaling, kScale);
    if (!linear.empty()) checks.problems.push_back(linear);
  }
  if (plan.seed == kDefaultSeed) {
    const Pinned pinned = PinnedDigests(plan.workload);
    if (pinned.input != checks.input_digest) {
      checks.problems.push_back(StrCat("input digest ", Hex(checks.input_digest),
                                       " != pinned ", Hex(pinned.input)));
    }
    if (pinned.answers != checks.refs.answer_digest) {
      checks.problems.push_back(
          StrCat("answer digest ", Hex(checks.refs.answer_digest),
                 " != pinned ", Hex(pinned.answers)));
    }
  }
  return checks;
}

/// Judges observations; timed ones also give the latency samples.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t good_timed = 0;
  /// Timed requests' latencies; a failure counts as beyond any limit.
  std::vector<double> latencies;
  std::vector<std::string> first_failures;

  void Add(const Observation& o, const Plan& plan, const References& refs,
           bool timed) {
    ++attempted;
    const std::string why = Judge(o, refs, plan.ContentVaries(o.question));
    if (!why.empty()) {
      ++failed;
      if (first_failures.size() < 5) {
        first_failures.push_back(StrCat(
            plan.questions[static_cast<size_t>(o.question)].name, ": ", why));
      }
    }
    if (timed) {
      latencies.push_back(why.empty() ? o.latency_ms
                                      : std::numeric_limits<double>::infinity());
      if (why.empty()) ++good_timed;
    }
  }
};

std::string GitSha(const std::string& root) {
  std::ifstream head(root + "/.git/HEAD");
  std::string line;
  if (!std::getline(head, line)) return "unknown";
  if (!StartsWith(line, "ref: ")) return line;
  std::ifstream ref(root + "/.git/" + line.substr(5));
  std::string sha;
  return std::getline(ref, sha) ? sha : "unknown";
}

/// Aggregate CPU times from /proc/stat; all zero where it is unreadable.
struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};

CpuTimes ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string label;
  uint64_t fields[8] = {};
  if (!(in >> label) || label != "cpu") return {};
  for (uint64_t& field : fields) {
    if (!(in >> field)) return {};
  }
  CpuTimes times;
  times.steal = fields[7];
  for (uint64_t field : fields) times.total += field;
  return times;
}

double StealPercent(const CpuTimes& before, const CpuTimes& after) {
  if (after.total <= before.total) return 0;
  return 100.0 * static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

std::string ResultPath(const RunConfig& config, const char* suffix) {
  return StrCat(config.out_dir, "/", WorkloadName(config.workload), "-seed",
                config.seed, "-trace", config.trace ? 1 : 0, ".", suffix);
}

std::string PersistDir(const RunConfig& config) {
  return StrCat(config.out_dir, "/persist-", WorkloadName(config.workload), "-",
                ::getpid());
}

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
  if (!out) std::cerr << "ned_perfbench: cannot write " << path << "\n";
}

std::string ScalingJson(const std::vector<ScaleRow>& rows) {
  std::string out = "[";
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) out += ", ";
    JsonObject row;
    row.Str("case", rows[i].question)
        .Num("depth", rows[i].depth)
        .Num("tuples_x1", static_cast<double>(rows[i].tuples_x1))
        .Num("tuples_x16", static_cast<double>(rows[i].tuples_xs))
        .Num("ratio", rows[i].tuples_x1 == 0
                          ? 0
                          : static_cast<double>(rows[i].tuples_xs) /
                                static_cast<double>(rows[i].tuples_x1));
    out += row.Render();
  }
  return out + "]";
}

/// The run-record fields every run writes.
JsonObject RecordBase(const RunConfig& config, const Plan& plan,
                      const Checks& checks, const Tally& tally,
                      const std::vector<std::string>& errors) {
  const bool persistent = plan.workload != Workload::kScaled16;
  JsonObject record;
  record.Str("workload", WorkloadName(config.workload))
      .Raw("seed", std::to_string(config.seed))
      .Num("trace", config.trace ? 1 : 0)
      .Num("nproc", std::thread::hardware_concurrency())
      .Str("git_sha", GitSha(config.root))
      .Num("scale", plan.workload == Workload::kScaled16 ? kScale : 1)
      .Num("connections", kConnections)
      .Num("requests_per_connection",
           static_cast<double>(plan.schedule[0].size()))
      .Num("requests_attempted", static_cast<double>(tally.attempted))
      .Num("requests_failed", static_cast<double>(tally.failed))
      .Str("journal_flush",
           persistent ? "lazy fdatasync every 250 ms (service default)"
                      : "off")
      .Str("persist_dir", persistent ? PersistDir(config) : "")
      .Num("subtree_cache_budget_bytes",
           static_cast<double>(ServiceOptions().subtree_cache_bytes))
      .Str("input_digest", Hex(checks.input_digest))
      .Str("answer_digest", Hex(checks.refs.answer_digest))
      .Raw("problems", JsonStrings(checks.problems))
      .Raw("errors", JsonStrings(errors))
      .Raw("first_failures", JsonStrings(tally.first_failures));
  if (plan.workload == Workload::kScaled16) {
    record.Raw("scaling", ScalingJson(checks.scaling));
  }
  return record;
}

void Report(const RunOutput& out, const Checks& checks, const Tally& tally,
            const std::vector<std::string>& errors) {
  for (const std::string& problem : checks.problems) {
    std::cerr << "ned_perfbench: check failed: " << problem << "\n";
  }
  for (const std::string& error : errors) {
    std::cerr << "ned_perfbench: error: " << error << "\n";
  }
  for (const std::string& failure : tally.first_failures) {
    std::cerr << "ned_perfbench: failed request: " << failure << "\n";
  }
  std::cerr << "ned_perfbench: attempted=" << out.attempted
            << " failed=" << out.failed << " input_digest="
            << Hex(checks.input_digest)
            << " answer_digest=" << Hex(checks.refs.answer_digest) << "\n";
  for (const Metric& m : out.metrics) {
    std::cerr << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
}

Result<RunOutput> RunTimed(const RunConfig& config, const Plan& plan) {
  std::vector<Observation> checked;
  std::vector<std::string> errors;
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int k = 0; k < SetupsPerRun(plan.workload); ++k) {
    stack.reset();  // tearing the previous set-up down is not set-up time
    const auto start = SteadyClock::now();
    NED_ASSIGN_OR_RETURN(stack, StartStack(plan, PersistDir(config)));
    WarmUp(*stack, plan, &checked, &errors);
    setup_s.push_back(MsSince(start) / 1e3);
  }

  const CpuTimes cpu_before = ReadCpuTimes();
  std::vector<Sample> samples;
  std::vector<ConnStats> conns = RunLoop(*stack, plan, plan.schedule, &samples);
  const CpuTimes cpu_after = ReadCpuTimes();
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  stack.reset();

  NED_ASSIGN_OR_RETURN(Checks checks, RunChecks(config, plan));
  Tally tally;
  for (const Observation& o : checked) tally.Add(o, plan, checks.refs, false);
  for (const ConnStats& conn : conns) {
    for (const Observation& o : conn.observations) {
      tally.Add(o, plan, checks.refs, true);
    }
    errors.insert(errors.end(), conn.errors.begin(), conn.errors.end());
  }
  const double timed = static_cast<double>(tally.latencies.size());
  const Windows windows = SplitWindows(samples);
  const Sample& first = samples.front();
  const Sample& last = samples.back();

  RunOutput out;
  out.attempted = tally.attempted;
  out.failed = tally.failed;
  out.correct = tally.failed == 0 && errors.empty() && checks.problems.empty();
  out.metrics = {
      {"throughput_rps",
       Median(windows.rps) * static_cast<double>(tally.good_timed) / timed,
       "1/s"},
      {"latency_p50_ms", Percentile(tally.latencies, 0.50), "ms"},
      {"latency_p99_ms", Percentile(tally.latencies, 0.99), "ms"},
      {"cpu_ms_per_req", Median(windows.cpu_ms_per_req), "ms"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
  };

  JsonObject record = RecordBase(config, plan, checks, tally, errors);
  record.Raw("setup_s", JsonNumbers(setup_s))
      .Num("timed_s", last.t_s)
      .Num("timed_requests", timed)
      .Num("whole_phase_rps", static_cast<double>(last.done) / last.t_s)
      .Num("whole_phase_cpu_ms_per_req",
           static_cast<double>((last.process_cpu_ns - first.process_cpu_ns) -
                               (last.client_cpu_ns - first.client_cpu_ns)) /
               1e6 / timed)
      .Raw("window_rps", JsonNumbers(windows.rps))
      .Raw("window_cpu_ms_per_req", JsonNumbers(windows.cpu_ms_per_req))
      .Num("cpu_steal_pct", StealPercent(cpu_before, cpu_after))
      .Str("subtree_working_set", "reported by the traced run");
  WriteText(ResultPath(config, "record.json"), record.Render() + "\n");
  Report(out, checks, tally, errors);
  return out;
}

// ---- traced run -------------------------------------------------------------

/// What one probe of the engine path measured.
struct ProbeRecord {
  int question = 0;
  int depth = 0;
  size_t input_tuples = 0;
  size_t tuples = 0;
  int64_t eval_ns = 0;
  int64_t explain_ns = 0;
  int64_t bottomup_ns = 0;
};

/// The PhaseTimer phases Explain returns, and the spans they become.
const std::pair<const char*, const char*> kPhaseSpans[] = {
    {phase::kInitialization, "core.init"},
    {phase::kCompatibleFinder, "whynot.compat"},
    {phase::kSuccessorsFinder, "core.succ"},
    {phase::kBottomUp, "core.bottomup"}};

/// Replays an executed request's engine path in process, one span per
/// module entry point, with the service's engine options and `cache`.
Status Probe(const Question& q, const Database& db, SubtreeCache* cache,
             SpanLog* log, uint64_t request, ProbeRecord* out) {
  ScopedSpan root(log, "probe", request);
  std::optional<QuerySpec> spec;
  {
    ScopedSpan span(log, "sql.parse_bind", request);
    NED_ASSIGN_OR_RETURN(SqlQuery ast, ParseSql(q.sql));
    NED_ASSIGN_OR_RETURN(QuerySpec bound, BindSql(ast, db));
    spec.emplace(std::move(bound));
  }
  std::optional<QueryTree> tree;
  {
    ScopedSpan span(log, "canonical", request);
    NED_ASSIGN_OR_RETURN(QueryTree canonical, Canonicalize(*spec, db));
    tree.emplace(std::move(canonical));
  }
  std::optional<QueryInput> input;
  {
    ScopedSpan span(log, "exec.input_build", request);
    NED_ASSIGN_OR_RETURN(QueryInput built, QueryInput::Build(*tree, db));
    input.emplace(std::move(built));
  }
  {
    Evaluator evaluator(&*tree, &*input);
    const int64_t start = NowNs();
    NED_RETURN_NOT_OK(evaluator.EvalAll().status());
    const int64_t end = NowNs();
    if (log != nullptr) log->Add("exec.eval", start, end, root.id(), request);
    out->eval_ns = end - start;
    out->tuples = evaluator.tuples_produced();
  }
  NedExplainOptions options;  // the request's (default) engine options
  options.subtree_cache = cache;
  NED_ASSIGN_OR_RETURN(NedExplainEngine engine,
                       NedExplainEngine::Create(&*tree, &db, options));
  const int64_t start = NowNs();
  NED_ASSIGN_OR_RETURN(NedExplainResult result, engine.Explain(q.question));
  const int64_t end = NowNs();
  if (log != nullptr) {
    const int32_t explain =
        log->Add("core.explain", start, end, root.id(), request);
    // The PhaseTimer holds per-phase totals, not intervals: laid end to end
    // from the span's start, they leave the rest of Explain as its self time.
    int64_t at = start;
    for (const auto& [phase_name, span_name] : kPhaseSpans) {
      const int64_t ns = result.phases.Nanos(phase_name);
      log->Add(span_name, at, at + ns, explain, request);
      at += ns;
    }
  }
  {
    ScopedSpan span(log, "core.render", request);
    const AnswerSummary summary = SummarizeResult(engine, result);
    (void)summary;
  }
  out->explain_ns = end - start;
  out->bottomup_ns = result.phases.Nanos(phase::kBottomUp);
  out->input_tuples = input->TotalTuples();
  out->depth = TreeDepth(*tree);
  return Status::OK();
}

net::WireResponse FromResponse(const WhyNotResponse& r, bool deduped) {
  net::WireResponse w;
  w.key = r.key;
  w.code = r.status.code();
  w.message = r.status.message();
  w.answer = r.answer;
  w.snapshot_version = r.snapshot_version;
  w.attempt = r.attempt;
  w.queue_ms = r.queue_ms;
  w.exec_ms = r.exec_ms;
  w.retry_after_ms = r.retry_after_ms;
  w.served_from_answer_cache = r.served_from_answer_cache;
  w.served_from_answer_store = r.served_from_answer_store;
  w.expired_in_queue = r.expired_in_queue;
  w.breaker_fast_fail = r.breaker_fast_fail;
  w.deduped = deduped;
  return w;
}

WhyNotResponse ToResponse(const net::WireResponse& w) {
  WhyNotResponse r;
  r.key = w.key;
  r.status = w.code == StatusCode::kOk ? Status::OK() : Status(w.code, w.message);
  r.answer = w.answer;
  r.snapshot_version = w.snapshot_version;
  r.attempt = w.attempt;
  r.queue_ms = w.queue_ms;
  r.exec_ms = w.exec_ms;
  r.retry_after_ms = w.retry_after_ms;
  r.served_from_answer_cache = w.served_from_answer_cache;
  r.served_from_answer_store = w.served_from_answer_store;
  r.expired_in_queue = w.expired_in_queue;
  r.breaker_fast_fail = w.breaker_fast_fail;
  return r;
}

/// One traced connection's spans and findings.
struct TraceConn {
  SpanLog log;
  std::vector<Observation> observations;
  std::vector<ProbeRecord> probes;
  std::vector<double> bytes;  ///< request + response bytes per HTTP request
  std::vector<std::string> errors;
};

void TraceConnection(Stack& stack, const Plan& plan, SubtreeCache* replica,
                     int conn, const std::vector<Step>& steps, TraceConn* out) {
  HttpClient& client = *stack.clients[static_cast<size_t>(conn)];
  SpanLog& log = out->log;
  for (size_t i = 0; i < steps.size(); ++i) {
    const Step& step = steps[i];
    const size_t qi = static_cast<size_t>(step.question);
    const uint64_t id = (static_cast<uint64_t>(conn) << 32) | i;
    if (step.reload_before >= 0) {
      {
        ScopedSpan span(&log, "relational.reload", id);
        const Status reloaded = ReloadContent(stack, step.reload_before);
        if (!reloaded.ok()) out->errors.push_back(reloaded.ToString());
      }
      ScopedSpan span(&log, "relational.fingerprint", id);
      (void)stack.catalog->GetSnapshotWithFingerprint("crime");
    }
    Result<net::WireResponse> wire = Status::Internal("no response");
    int http_status = 0;
    const int32_t root = log.Open("request", id);
    int32_t server_side = -1;  // the span the server's own timings nest in
    if (i % 2 == 0) {
      // Over the wire. Each codec span also replays the server's half of the
      // codec on the same bytes.
      std::string post;
      {
        ScopedSpan span(&log, "net.request_codec", id);
        const std::string body = net::RenderWhyNotRequestJson(plan.requests[qi]);
        post = RenderPost(body);
        (void)net::ParseWhyNotRequestJson(body);
      }
      net::HttpResponse http;
      size_t bytes = 0;
      server_side = log.Open("net.roundtrip", id);
      const Status io = client.RoundTrip(post, &http, &bytes);
      log.Close(server_side);
      {
        ScopedSpan span(&log, "net.response_codec", id);
        wire = io.ok() ? net::ParseWhyNotResponseJson(http.body)
                       : Result<net::WireResponse>(io);
        if (wire.ok()) {
          (void)net::RenderWhyNotResponseJson(ToResponse(*wire), wire->deduped);
        }
      }
      http_status = io.ok() ? http.status : 0;
      if (io.ok()) out->bytes.push_back(static_cast<double>(bytes));
    } else {
      // In process, to time WhyNotService::Submit itself.
      const int32_t submit = log.Open("service.submit", id);
      WhyNotService::Submission sub = stack.service->Submit(plan.requests[qi]);
      log.Close(submit);
      server_side = log.Open("service.wait", id);
      if (sub.status.ok()) {
        wire = FromResponse(sub.response.get(), sub.deduped);
      } else {
        wire = sub.status;
      }
      log.Close(server_side);
      if (wire.ok()) {
        log.Rename(submit, wire->served_from_answer_cache ? "service.submit_hit"
                           : wire->served_from_answer_store
                               ? "service.submit_store_hit"
                               : "service.submit_admit");
      }
      http_status = net::HttpStatusForCode(wire.ok() ? wire->code
                                                     : sub.status.code());
    }
    const bool executed = wire.ok() && wire->code == StatusCode::kOk &&
                          !wire->served_from_answer_cache &&
                          !wire->served_from_answer_store && !wire->deduped;
    if (executed) {
      // The server's own split of the round trip: queue wait, then execution.
      const Span outer = log.spans()[static_cast<size_t>(server_side)];
      const int64_t exec_start = std::max(
          outer.start_ns, outer.end_ns - static_cast<int64_t>(wire->exec_ms * 1e6));
      const int64_t queue_start = std::max(
          outer.start_ns, exec_start - static_cast<int64_t>(wire->queue_ms * 1e6));
      log.Add("service.queue", queue_start, exec_start, server_side, id);
      log.Add("service.exec", exec_start, outer.end_ns, server_side, id);
    }
    log.Close(root);
    Observation observation = Observe(step.question, http_status, wire);
    const Span& request = log.spans()[static_cast<size_t>(root)];
    observation.latency_ms =
        static_cast<double>(request.end_ns - request.start_ns) / 1e6;
    out->observations.push_back(std::move(observation));
    if (executed) {
      const Question& q = plan.questions[qi];
      auto snapshot = stack.catalog->GetSnapshot(q.db_name);
      ProbeRecord record;
      record.question = step.question;
      const Status probed =
          snapshot.ok() ? Probe(q, *snapshot->db, replica, &log, id, &record)
                        : snapshot.status();
      if (probed.ok()) {
        out->probes.push_back(record);
      } else {
        out->errors.push_back("probe " + q.name + ": " + probed.ToString());
      }
    }
  }
}

/// Bytes a budget-free subtree cache holds after one Explain of every
/// question over the served data: the workload's subtree working set.
Result<size_t> SubtreeWorkingSet(const Plan& plan) {
  NED_ASSIGN_OR_RETURN(Dataset data, BuildDataset(plan.workload, plan.seed));
  SubtreeCache cache(size_t{1} << 40);
  for (const Question& q : plan.questions) {
    const Database& db = data.dbs.at(q.db_name);
    NED_ASSIGN_OR_RETURN(QueryTree tree, CompileSql(q.sql, db));
    NedExplainOptions options;
    options.subtree_cache = &cache;
    NED_ASSIGN_OR_RETURN(NedExplainEngine engine,
                         NedExplainEngine::Create(&tree, &db, options));
    NED_RETURN_NOT_OK(engine.Explain(q.question).status());
  }
  return cache.stats().bytes;
}

double Ratio(double part, double whole) { return whole > 0 ? part / whole : 0; }

/// The Sec. 3.2 check: Explain ns / (L + Out) per use case beside its depth.
std::string BoundTable(const Plan& plan, const std::vector<ProbeRecord>& probes) {
  std::map<int, std::vector<const ProbeRecord*>> by_case;
  for (const ProbeRecord& p : probes) by_case[p.question].push_back(&p);
  std::vector<std::vector<std::string>> rows;
  for (const auto& [question, records] : by_case) {
    std::vector<double> l, out, ns;
    for (const ProbeRecord* p : records) {
      l.push_back(static_cast<double>(p->input_tuples));
      out.push_back(static_cast<double>(p->tuples));
      ns.push_back(Ratio(static_cast<double>(p->explain_ns),
                         static_cast<double>(p->input_tuples + p->tuples)));
    }
    rows.push_back({plan.questions[static_cast<size_t>(question)].name,
                    std::to_string(records.front()->depth),
                    StrCat(Median(l)), StrCat(Median(out)),
                    StrCat(Median(ns)), std::to_string(records.size())});
  }
  return RenderTable({"case", "depth", "L", "Out", "explain_ns/(L+Out)",
                      "samples"},
                     rows);
}

struct Counters {
  WhyNotService::Stats stats;
  LruStats subtree;
  JournalStats journal;
};

Counters ReadCounters(const WhyNotService& service) {
  return {service.stats(), service.subtree_cache_stats(),
          service.journal_stats()};
}

}  // namespace

std::vector<std::string> DesignProblems(Workload workload, double engine_share,
                                        double subtree_hit_ratio,
                                        size_t working_set_bytes,
                                        size_t budget_bytes) {
  std::vector<std::string> problems;
  if (workload == Workload::kScaled16) {
    if (engine_share < 0.9) {
      problems.push_back(
          StrCat("scaled16: engine share ", engine_share, " < 0.9"));
    }
    if (working_set_bytes <= budget_bytes) {
      problems.push_back(StrCat(
          "scaled16: subtree working set ",
          static_cast<double>(working_set_bytes) / kMiB,
          " MiB does not exceed the ",
          static_cast<double>(budget_bytes) / kMiB, " MiB cache"));
    }
  } else if (workload == Workload::kRepeatReload) {
    if (engine_share >= 0.05) {
      problems.push_back(
          StrCat("repeat_reload: engine share ", engine_share, " >= 0.05"));
    }
  } else if (subtree_hit_ratio < 0.9) {
    problems.push_back(StrCat("paper19: subtree cache hit ratio ",
                              subtree_hit_ratio, " < 0.9"));
  }
  return problems;
}

namespace {

Result<RunOutput> RunTraced(const RunConfig& config, const Plan& plan) {
  std::vector<Observation> checked;
  std::vector<std::string> errors;
  NED_ASSIGN_OR_RETURN(std::unique_ptr<Stack> stack,
                       StartStack(plan, PersistDir(config)));
  const double load_ms = stack->load_ms;
  WarmUp(*stack, plan, &checked, &errors);
  // The probes' own subtree cache, with the service's budget, warmed by one
  // pass as the service's was.
  SubtreeCache replica(stack->service->options().subtree_cache_bytes);
  if (plan.workload != Workload::kRepeatReload) {
    for (const Question& q : plan.questions) {
      auto snapshot = stack->catalog->GetSnapshot(q.db_name);
      ProbeRecord ignored;
      if (snapshot.ok()) {
        (void)Probe(q, *snapshot->db, &replica, nullptr, 0, &ignored);
      }
    }
  }

  // The replay keeps spans for every request in memory, so it stops after
  // kTracedSteps of each connection's sequence.
  Schedule replay = plan.schedule;
  for (std::vector<Step>& steps : replay) {
    steps.resize(std::min(steps.size(), kTracedSteps));
  }
  const Counters before = ReadCounters(*stack->service);
  std::vector<TraceConn> conns(kConnections);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back(TraceConnection, std::ref(*stack), std::cref(plan),
                           &replica, c,
                           std::cref(replay[static_cast<size_t>(c)]),
                           &conns[static_cast<size_t>(c)]);
    }
    for (std::thread& thread : threads) thread.join();
  }
  const Counters after = ReadCounters(*stack->service);
  stack.reset();

  NED_ASSIGN_OR_RETURN(Checks checks, RunChecks(config, plan));
  NED_ASSIGN_OR_RETURN(size_t working_set, SubtreeWorkingSet(plan));
  Tally tally;
  for (const Observation& o : checked) tally.Add(o, plan, checks.refs, false);
  std::vector<const SpanLog*> logs;
  std::vector<ProbeRecord> probes;
  std::vector<double> bytes;
  for (const TraceConn& conn : conns) {
    for (const Observation& o : conn.observations) {
      tally.Add(o, plan, checks.refs, true);
    }
    logs.push_back(&conn.log);
    probes.insert(probes.end(), conn.probes.begin(), conn.probes.end());
    bytes.insert(bytes.end(), conn.bytes.begin(), conn.bytes.end());
    errors.insert(errors.end(), conn.errors.begin(), conn.errors.end());
  }
  const std::vector<Span> spans = MergeLogs(logs);
  const PerRequest total = SumByRequest(spans, false);
  const PerRequest self = SumByRequest(spans, true);
  auto us = [](const PerRequest& sums, const char* name) {
    auto it = sums.find(name);
    return it == sums.end() ? 0.0 : Median(it->second) / 1e3;
  };
  std::vector<double> tuples, ns_per_tuple, bottomup_over_eval, ns_per_l_out;
  for (const ProbeRecord& p : probes) {
    tuples.push_back(static_cast<double>(p.tuples));
    ns_per_tuple.push_back(Ratio(static_cast<double>(p.eval_ns),
                                 static_cast<double>(p.tuples)));
    bottomup_over_eval.push_back(Ratio(static_cast<double>(p.bottomup_ns),
                                       static_cast<double>(p.eval_ns)));
    ns_per_l_out.push_back(Ratio(static_cast<double>(p.explain_ns),
                                 static_cast<double>(p.input_tuples + p.tuples)));
  }
  // The engine's share of request time: the probes' Explain + render time,
  // over that plus their compile time plus the request time outside the
  // server's execution (wire, codec, queue). Both sides come from one
  // client's spans, so contention between probe and server does not skew it.
  double engine_ns = 0;
  double other_ns = 0;
  for (const Span& span : spans) {
    const double ns = static_cast<double>(span.end_ns - span.start_ns);
    if (span.name == "core.explain" || span.name == "core.render") {
      engine_ns += ns;
    } else if (span.name == "sql.parse_bind" || span.name == "canonical" ||
               span.name == "request") {
      other_ns += ns;
    } else if (span.name == "service.exec") {
      other_ns -= ns;
    }
  }
  const double engine_share = Ratio(engine_ns, engine_ns + other_ns);
  const WhyNotService::Stats& s0 = before.stats;
  const WhyNotService::Stats& s1 = after.stats;
  const double subtree_hits =
      static_cast<double>(after.subtree.hits - before.subtree.hits);
  const double subtree_misses =
      static_cast<double>(after.subtree.misses - before.subtree.misses);
  const double answer_hits =
      static_cast<double>(s1.answer_cache_hits - s0.answer_cache_hits);
  const double answer_misses =
      static_cast<double>(s1.answer_cache_misses - s0.answer_cache_misses);
  const double store_hits =
      static_cast<double>(s1.answer_store_hits - s0.answer_store_hits);
  const double store_misses =
      static_cast<double>(s1.answer_store_misses - s0.answer_store_misses);
  const double traced = static_cast<double>(tally.latencies.size());

  // The workload's design, confirmed: a broken threshold fails the run.
  const std::vector<std::string> broken = DesignProblems(
      plan.workload, engine_share,
      Ratio(subtree_hits, subtree_hits + subtree_misses), working_set,
      ServiceOptions().subtree_cache_bytes);
  checks.problems.insert(checks.problems.end(), broken.begin(), broken.end());

  RunOutput out;
  out.attempted = tally.attempted;
  out.failed = tally.failed;
  out.correct = tally.failed == 0 && errors.empty() && checks.problems.empty();
  out.metrics = {
      {"net.request_codec_us", us(total, "net.request_codec"), "us"},
      {"net.response_codec_us", us(total, "net.response_codec"), "us"},
      {"net.edge_us", us(self, "net.roundtrip"), "us"},
      {"net.bytes_per_req", Median(bytes), "bytes"},
      {"service.submit_hit_us", us(total, "service.submit_hit"), "us"},
      {"service.submit_store_hit_us", us(total, "service.submit_store_hit"),
       "us"},
      {"service.submit_admit_us", us(total, "service.submit_admit"), "us"},
      {"service.queue_us", us(total, "service.queue"), "us"},
      {"service.exec_us", us(total, "service.exec"), "us"},
      {"sql.parse_bind_us", us(total, "sql.parse_bind"), "us"},
      {"canonical.us", us(total, "canonical"), "us"},
      {"exec.input_build_us", us(total, "exec.input_build"), "us"},
      {"exec.eval_us", us(total, "exec.eval"), "us"},
      {"exec.tuples_per_req", Median(tuples), "count"},
      {"exec.ns_per_tuple", Median(ns_per_tuple), "ns"},
      {"core.init_us", us(total, "core.init"), "us"},
      {"whynot.compat_us", us(total, "whynot.compat"), "us"},
      {"core.succ_us", us(total, "core.succ"), "us"},
      {"core.bottomup_us", us(total, "core.bottomup"), "us"},
      {"core.other_us", us(self, "core.explain"), "us"},
      {"core.bottomup_over_eval", Median(bottomup_over_eval), "ratio"},
      {"core.ns_per_l_plus_out", Median(ns_per_l_out), "ns"},
      {"core.render_us", us(total, "core.render"), "us"},
      {"core.engine_share", engine_share, "ratio"},
      {"cache.subtree_hit_ratio",
       Ratio(subtree_hits, subtree_hits + subtree_misses), "ratio"},
      {"cache.subtree_mb", static_cast<double>(after.subtree.bytes) / kMiB,
       "MiB"},
      {"cache.subtree_evictions",
       static_cast<double>(after.subtree.evictions - before.subtree.evictions),
       "count"},
      {"cache.subtree_working_set_mb",
       static_cast<double>(working_set) / kMiB, "MiB"},
      {"cache.answer_hit_ratio", Ratio(answer_hits, answer_hits + answer_misses),
       "ratio"},
      {"persist.store_hit_ratio", Ratio(store_hits, store_hits + store_misses),
       "ratio"},
      {"persist.journal_bytes_per_req",
       Ratio(static_cast<double>(after.journal.bytes_written -
                                 before.journal.bytes_written),
             traced),
       "bytes"},
      {"persist.journal_syncs",
       static_cast<double>(after.journal.syncs - before.journal.syncs),
       "count"},
      {"relational.reload_ms", us(total, "relational.reload") / 1e3, "ms"},
      {"relational.fingerprint_ms", us(total, "relational.fingerprint") / 1e3,
       "ms"},
      {"relational.load_ms", load_ms, "ms"},
  };

  const double budget = static_cast<double>(ServiceOptions().subtree_cache_bytes);
  const std::string design = StrCat(
      "engine share of request time (core.engine_share): ", engine_share,
      "\n  scaled16 expects >= 0.90, repeat_reload < 0.05\n",
      "subtree working set: ", static_cast<double>(working_set) / kMiB,
      " MiB; cache budget: ", budget / kMiB,
      " MiB (paper19 fits, scaled16 exceeds)\n",
      "service subtree-cache hit ratio in the traced phase: ",
      Ratio(subtree_hits, subtree_hits + subtree_misses),
      " (paper19 expects >= 0.9)\n");
  WriteText(ResultPath(config, "layers.txt"),
            StrCat("traced run: workload ", WorkloadName(plan.workload),
                   ", seed ", plan.seed, ", ", traced, " requests\n\n",
                   "== self time per span ==\n", SelfTimeTable(spans),
                   "\n== Sec. 3.2: Explain ns / (L + Out) per use case ==\n",
                   BoundTable(plan, probes), "\n== design checks ==\n",
                   design));
  const Status written = WriteSpans(ResultPath(config, "spans.jsonl"), spans);
  if (!written.ok()) errors.push_back(written.ToString());

  JsonObject record = RecordBase(config, plan, checks, tally, errors);
  record.Num("traced_requests", traced)
      .Num("subtree_working_set_bytes", static_cast<double>(working_set))
      .Num("relational_load_ms", load_ms);
  WriteText(ResultPath(config, "record.json"), record.Render() + "\n");
  std::cerr << design;
  Report(out, checks, tally, errors);
  return out;
}

}  // namespace

size_t RequestsPerConnection(Workload workload, int seconds) {
  // Requests per second of --seconds, sized on a 4-vCPU VM so that a run
  // measures about --seconds. scaled16 serves about 25 requests per second,
  // so the kMinRequests floor makes its runs longer.
  size_t per_second = 0;
  switch (workload) {
    case Workload::kPaper19:
      per_second = 800;
      break;
    case Workload::kScaled16:
      per_second = 20;
      break;
    case Workload::kRepeatReload:
      per_second = 20000;
      break;
  }
  const size_t total =
      std::max(kMinRequests, per_second * static_cast<size_t>(seconds));
  return (total + kConnections - 1) / kConnections;
}

Result<RunOutput> Run(const RunConfig& config) {
  NED_ASSIGN_OR_RETURN(Plan plan, MakePlan(config));
  return config.trace ? RunTraced(config, plan) : RunTimed(config, plan);
}

std::string RenderResult(const RunOutput& output) {
  JsonObject metrics;
  for (const Metric& m : output.metrics) {
    JsonObject value;
    value.Num("value", m.value).Str("unit", m.unit);
    metrics.Raw(m.name, value.Render());
  }
  JsonObject result;
  result.Raw("correct", output.correct ? "true" : "false")
      .Num("attempted", static_cast<double>(output.attempted))
      .Num("failed", static_cast<double>(output.failed))
      .Raw("metrics", metrics.Render());
  return result.Render();
}

}  // namespace ned::perfbench
