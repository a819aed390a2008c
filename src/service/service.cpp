#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <string_view>
#include <utility>

#include "common/strings.h"
#include "persist/wire.h"
#include "sql/binder.h"

namespace ned {

namespace {

double MsSince(Clock::TimePoint start, Clock::TimePoint end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

/// Completed responses the idempotency book keeps (FIFO evicted).
constexpr size_t kCompletedBookCapacity = 1 << 16;

/// Suggested backoff for shed work: kBaseBackoffMs * (1 + queued/workers),
/// capped at ServiceOptions::max_backoff_ms.
constexpr int64_t kBaseBackoffMs = 5;

/// How often the watchdog fails queued requests whose deadline passed.
constexpr int64_t kWatchdogIntervalMs = 2;

/// Compiled plans the memo keeps per database. A full table is emptied, so
/// a stream of distinct SQL texts costs at worst one compile per request.
constexpr size_t kPlanCacheCapacity = 256;

/// True for an error the same content would produce again: not transient
/// (kUnavailable) and not a resource limit, which depends on the budgets
/// and the clock, not on the content.
bool IsPermanentError(const Status& status) {
  return !status.ok() && status.code() != StatusCode::kUnavailable &&
         !IsResourceLimit(status);
}

/// Packs the NedExplainOptions bits that change answer content into the
/// answer-tier key. keep_tabq_dump is excluded: it only affects the
/// NedExplainResult dump, never the AnswerSummary the tier holds.
uint32_t EngineOptionBits(const NedExplainOptions& opts) {
  return (opts.enable_early_termination ? 1u : 0u) |
         (opts.compute_secondary ? 2u : 0u);
}

/// Parses the N of an "auto-N" service-assigned key; 0 when `key` has any
/// other shape (client-chosen keys are never shaped like this unless the
/// client opted into the collision).
uint64_t AutoKeyNumber(const std::string& key) {
  constexpr std::string_view kPrefix = "auto-";
  if (key.size() <= kPrefix.size() ||
      key.compare(0, kPrefix.size(), kPrefix) != 0) {
    return 0;
  }
  uint64_t n = 0;
  for (size_t i = kPrefix.size(); i < key.size(); ++i) {
    const char c = key[i];
    if (c < '0' || c > '9') return 0;
    n = n * 10 + static_cast<uint64_t>(c - '0');
  }
  return n;
}

}  // namespace

/// One admitted request: everything its execution needs, pinned at
/// admission. The shared_ptr is held by the scheduler, the in-flight map
/// and (transiently) the executing worker; Drain reaches the ExecContext
/// through the in-flight map under the service mutex.
struct WhyNotService::Job {
  WhyNotRequest request;
  Catalog::Snapshot snapshot;
  /// The answer tier's content key; empty when the tier is off or the
  /// request bypasses it (bypass flag, chaos knobs).
  std::string answer_key;
  /// Set by Execute when it put the answer into the tier: the tier's own
  /// pointer, which the idempotency book then shares.
  std::shared_ptr<const AnswerSummary> answer;
  /// Set by Execute when the answer was durably stored; recorded in the
  /// COMPLETE journal record so recovery knows the store has it.
  bool stored_answer = false;
  /// Set by Drain on queued requests it fails: suppresses the
  /// SHED record a non-final finalize would otherwise journal, leaving the
  /// ACCEPT unresolved on purpose -- that is what makes the request
  /// recoverable.
  bool keep_recoverable = false;
  /// Per-request span trace; null unless the request set collect_trace.
  /// Single-threaded by design: the submit thread writes the admission
  /// spans, then exactly one worker writes the rest -- the handoff is
  /// sequenced by mu_ (admit under lock, pop under lock), and expired/
  /// drained jobs are likewise owned by one thread after leaving the
  /// scheduler.
  std::shared_ptr<obs::Trace> trace;
  /// Open "queue_wait" span id; closed at dispatch (or defensively by
  /// Finalize for jobs that never reach a worker). -1 = none.
  int32_t queue_wait_span = -1;
  std::shared_ptr<ExecContext> ctx;
  Clock::TimePoint submit_time;
  Clock::TimePoint deadline;
  /// 1-based admission count of this key, taken from attempts_ in the hold
  /// that admits the job; spans transient-failure retries.
  int attempt = 0;
  bool running = false;  // guarded by mu_
  std::promise<WhyNotResponse> promise;
  std::shared_future<WhyNotResponse> future;
  /// Push-style completion observers (see WhyNotService::CompletionCallback).
  /// Appended under mu_ (by the admitting Submit and by deduping Submits
  /// that coalesce onto this job); moved out under the same mu_ hold in
  /// which Finalize retires the job from inflight_, so no append can race
  /// the move. Invoked after the promise resolves.
  std::vector<WhyNotService::CompletionCallback> callbacks;
};

/// One Submit on its way through the admission stages: the request, what
/// the stages derived from it, and the outcome once a stage resolves it.
struct WhyNotService::Admission {
  WhyNotRequest request;
  CompletionCallback* on_complete = nullptr;
  /// Null unless the request set collect_trace; `span` is "admission".
  std::shared_ptr<obs::Trace> trace;
  int32_t span = -1;
  size_t memory_budget = 0;
  std::string answer_key;
  /// The snapshot pin's outcome; `snapshot` is set only when it is OK.
  Status pinned = Status::OK();
  Catalog::Snapshot snapshot;
  /// The tier lookup's outcome: an answer, nullptr on a miss, or the
  /// permanent error this content produced before.
  Result<AnswerStore::Ptr> hit = AnswerStore::Ptr();
  bool hit_from_disk = false;
  Submission sub;

  /// Resolves the submission synchronously with a final `response`.
  void Resolve(WhyNotResponse response, bool deduped) {
    std::promise<WhyNotResponse> ready;
    ready.set_value(std::move(response));
    sub.status = Status::OK();
    sub.deduped = deduped;
    sub.response = ready.get_future().share();
  }

  /// The outcome, with the admission-side trace when nothing took it over.
  Submission Finish() {
    if (trace != nullptr) {
      trace->CloseSpan(span);
      sub.trace = trace;
    }
    return std::move(sub);
  }
};

WhyNotService::WhyNotService(std::shared_ptr<Catalog> catalog,
                             ServiceOptions options)
    : catalog_(std::move(catalog)),
      options_(options),
      clock_(options.clock != nullptr ? options.clock : Clock::Real()),
      subtree_cache_(options.subtree_cache_bytes > 0
                         ? std::make_unique<SubtreeCache>(
                               options.subtree_cache_bytes)
                         : nullptr),
      scheduler_(SchedulerOptions{options.queue_capacity,
                                  options.per_client_limit}) {
  NED_CHECK_MSG(catalog_ != nullptr, "service needs a catalog");
  NED_CHECK_MSG(options_.workers > 0, "service needs at least one worker");
  NED_CHECK_MSG(options_.queue_capacity > 0, "queue capacity must be > 0");
  RegisterMetrics();
  if (!options_.persist_dir.empty()) {
    // Durability must be trustworthy or absent: an unopenable journal or
    // store directory is a deployment error, not something to run without.
    JournalOptions jopts;
    jopts.dir = options_.persist_dir + "/journal";
    jopts.fsync = options_.journal_fsync;
    jopts.fsync_interval_ms = options_.journal_fsync_interval_ms;
    auto journal = Journal::Open(jopts, &recovered_records_);
    NED_CHECK_MSG(journal.ok(),
                  "cannot open request journal: " + journal.status().message());
    journal_ = std::move(*journal);
    // Auto-assigned keys must stay unique across the restart boundary: the
    // replayed records carry "auto-N" keys minted by previous incarnations
    // (Recover() restores their completed-book entries and resubmits their
    // pending requests under those same keys), so a counter restarting at 0
    // would hand a new empty-key submission an already-taken key and dedupe
    // it onto another request's answer. Seed past everything the journal
    // remembers.
    for (const JournalRecord& record : recovered_records_) {
      next_auto_key_ = std::max(
          next_auto_key_.load(),
          AutoKeyNumber(JournalRecordKey(record.type, record.payload)));
    }
  }
  AnswerStoreOptions sopts;
  sopts.memory_bytes = options_.answer_cache_bytes;
  if (!options_.persist_dir.empty() && options_.persist_answers) {
    sopts.dir = options_.persist_dir + "/store";
    sopts.fsync = options_.persist_fsync_store;
  }
  if (sopts.memory_bytes > 0 || !sopts.dir.empty()) {
    auto store = AnswerStore::Open(sopts);
    NED_CHECK_MSG(store.ok(),
                  "cannot open answer store: " + store.status().message());
    answer_store_ = std::move(*store);
  }
  workers_.reserve(static_cast<size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  watchdog_ = std::thread([this] { WatchdogLoop(); });
}

WhyNotService::~WhyNotService() { Shutdown(); }

void WhyNotService::RegisterMetrics() {
  // Metric catalog lives in docs/OBSERVABILITY.md; names and label sets are
  // part of the exposition golden contract -- change them deliberately.
  auto req = [this](const char* event) {
    return registry_.GetCounter("ned_service_requests_total",
                                {{"event", event}});
  };
  stat_.submitted = req("submitted");
  stat_.accepted = req("accepted");
  stat_.completed = req("completed");
  stat_.rejected_shutdown = req("rejected_shutdown");
  stat_.deduped_inflight = req("deduped_inflight");
  stat_.served_from_cache = req("served_from_completed");
  stat_.transient_failures = req("transient_failure");
  stat_.expired_in_queue = req("expired_in_queue");
  stat_.breaker_fast_fails = req("breaker_fast_fail");
  stat_.partial_not_cached = req("partial_not_cached");
  auto shed = [this](const char* reason) {
    return registry_.GetCounter("ned_service_shed_total", {{"reason", reason}});
  };
  stat_.shed_queue_full = shed("queue_full");
  stat_.shed_client_quota = shed("client_quota");
  auto cache = [this](const char* event) {
    return registry_.GetCounter("ned_answer_cache_total", {{"event", event}});
  };
  stat_.answer_cache_hits = cache("hit");
  stat_.answer_cache_misses = cache("miss");
  stat_.answer_cache_inserts = cache("insert");
  stat_.answer_cache_bypass = cache("bypass");
  auto store = [this](const char* event) {
    return registry_.GetCounter("ned_answer_store_total", {{"event", event}});
  };
  stat_.answer_store_hits = store("hit");
  stat_.answer_store_misses = store("miss");
  stat_.answer_store_puts = store("put");
  auto journal = [this](const char* event) {
    return registry_.GetCounter("ned_journal_total", {{"event", event}});
  };
  stat_.journaled_accepts = journal("accept");
  stat_.journaled_completes = journal("complete");
  stat_.journaled_sheds = journal("shed");
  stat_.journal_append_failures = journal("append_failure");
  auto plan = [this](const char* event) {
    return registry_.GetCounter("ned_plan_cache_total", {{"event", event}});
  };
  stat_.plan_cache_hits = plan("hit");
  stat_.plan_cache_misses = plan("miss");

  queue_us_ = registry_.GetHistogram("ned_request_queue_us", {},
                                     obs::DefaultLatencyBoundsUs());
  exec_us_ = registry_.GetHistogram("ned_request_exec_us", {},
                                    obs::DefaultLatencyBoundsUs());
  total_us_ = registry_.GetHistogram("ned_request_total_us", {},
                                     obs::DefaultLatencyBoundsUs());

  registry_.RegisterCollector([this] { CollectMirrors(); });
}

void WhyNotService::CollectMirrors() {
  // Mirror gauges: subsystems keep their own internally-locked stats; the
  // collector copies them into the registry at Collect() time instead of
  // threading registry handles through every constructor. Runs outside the
  // registry's lock; takes mu_ briefly for the scheduler-side view.
  {
    std::lock_guard<std::mutex> lock(mu_);
    registry_.GetGauge("ned_queue_depth")
        ->Set(static_cast<int64_t>(scheduler_.size()));
    registry_.GetGauge("ned_inflight_requests")
        ->Set(static_cast<int64_t>(inflight_.size()));
  }
  auto mirror_cache = [this](const char* which, const LruStats& s) {
    auto gauge = [&](const char* field) {
      return registry_.GetGauge(StrCat("ned_cache_", field),
                                {{"cache", which}});
    };
    gauge("hits")->Set(static_cast<int64_t>(s.hits));
    gauge("misses")->Set(static_cast<int64_t>(s.misses));
    gauge("inserts")->Set(static_cast<int64_t>(s.inserts));
    gauge("evictions")->Set(static_cast<int64_t>(s.evictions));
    gauge("entries")->Set(static_cast<int64_t>(s.entries));
    gauge("bytes")->Set(static_cast<int64_t>(s.bytes));
  };
  if (subtree_cache_ != nullptr) {
    mirror_cache("subtree", subtree_cache_->stats());
  }
  if (answer_store_ != nullptr && answer_store_->has_memory()) {
    mirror_cache("answer", answer_store_->memory_stats());
  }
  if (journal_ != nullptr) {
    const JournalStats j = journal_->stats();
    registry_.GetGauge("ned_journal_appends")
        ->Set(static_cast<int64_t>(j.appends));
    registry_.GetGauge("ned_journal_syncs")
        ->Set(static_cast<int64_t>(j.syncs));
    registry_.GetGauge("ned_journal_bytes_written")
        ->Set(static_cast<int64_t>(j.bytes_written));
  }
}

int64_t WhyNotService::SuggestedBackoffLocked() const {
  const int64_t load_factor =
      1 + static_cast<int64_t>(scheduler_.size()) / options_.workers;
  return std::min(kBaseBackoffMs * load_factor, options_.max_backoff_ms);
}

void WhyNotService::RememberCompletedLocked(
    WhyNotResponse* response,
    std::shared_ptr<const AnswerSummary> tier_answer) {
  // A tier answer is moved aside while the response is copied, so the entry
  // holds the tier's pointer instead of a second copy of the answer.
  const bool shared = tier_answer != nullptr;
  AnswerSummary delivered;
  if (shared) std::swap(delivered, response->answer);
  completed_fifo_.push_back(response->key);
  completed_[response->key] = Completed{*response, std::move(tier_answer)};
  if (shared) std::swap(delivered, response->answer);
  while (completed_fifo_.size() > kCompletedBookCapacity) {
    completed_.erase(completed_fifo_.front());
    completed_fifo_.pop_front();
  }
}

void WhyNotService::JournalShedLocked(const std::string& key) {
  if (journal_ == nullptr) return;
  if (journal_->Append(JournalRecordType::kShed, EncodeShed(key)).ok()) {
    stat_.journaled_sheds->Increment();
  } else {
    stat_.journal_append_failures->Increment();
  }
}

WhyNotService::Submission WhyNotService::Submit(WhyNotRequest request) {
  CompletionCallback none;
  return SubmitImpl(std::move(request), &none);
}

WhyNotService::Submission WhyNotService::Submit(WhyNotRequest request,
                                                CompletionCallback on_complete) {
  Submission sub = SubmitImpl(std::move(request), &on_complete);
  // SubmitImpl nulled the callback iff it attached it to a job (the job's
  // Finalize will fire it). A callback still here on an OK submission means
  // the request resolved synchronously -- cache/store/idempotency hit -- so
  // the future is already ready and the exactly-once contract is honored by
  // delivering inline, outside every service lock.
  if (on_complete && sub.status.ok()) on_complete(sub.response.get());
  return sub;
}

WhyNotService::Submission WhyNotService::SubmitImpl(
    WhyNotRequest request, CompletionCallback* on_complete) {
  Admission a;
  a.request = std::move(request);
  a.on_complete = on_complete;
  if (a.request.collect_trace) {
    a.trace = std::make_shared<obs::Trace>(clock_);
    a.span = a.trace->OpenSpan("admission");
  }
  a.memory_budget = a.request.memory_budget != 0
                        ? a.request.memory_budget
                        : options_.default_memory_budget;
  stat_.submitted->Increment();
  if (a.request.key.empty()) {
    a.request.key = StrCat("auto-", ++next_auto_key_);
  }
  // Content work -- the snapshot pin with its fingerprint hash, the key,
  // the tier's entry-file read -- runs with mu_ released, so none of it
  // blocks admission, finalization or the watchdog. Everything after it is
  // one mu_ hold, in the order that decides precedence: a known key wins
  // over a failed pin and over any tier outcome.
  PinAndLookUp(&a);
  std::unique_lock<std::mutex> lock(mu_);
  if (KnownKeyLocked(&a)) return a.Finish();
  if (!a.pinned.ok()) {
    a.sub.status = std::move(a.pinned);  // permanent: do not retry
    return a.Finish();
  }
  if (ServeTierHitLocked(&a)) {
    lock.unlock();
    // Promoted only once served, so a lookup that a known key overrode
    // leaves the memory half as it was.
    if (a.hit_from_disk) answer_store_->Promote(a.answer_key, *a.hit);
    return a.Finish();
  }
  const std::shared_ptr<Job> job = MakeJob(&a);
  if (JournalAcceptFailsLocked(&a, *job) || EnqueueShedsLocked(&a, job)) {
    return a.Finish();
  }
  lock.unlock();
  work_cv_.notify_one();
  return a.Finish();
}

void WhyNotService::Attach(Admission* a, Job* job) {
  if (*a->on_complete) {
    job->callbacks.push_back(std::move(*a->on_complete));
    *a->on_complete = nullptr;
  }
  a->sub.status = Status::OK();
  a->sub.response = job->future;
}

bool WhyNotService::KnownKeyLocked(Admission* a) {
  if (!accepting_) {
    stat_.rejected_shutdown->Increment();
    a->sub.status = Status::Unavailable("service shutting down");
    return true;
  }
  // Idempotency: a completed key re-serves its response; an in-flight key
  // coalesces onto the pending execution. Neither runs twice.
  if (auto it = completed_.find(a->request.key); it != completed_.end()) {
    stat_.served_from_cache->Increment();
    WhyNotResponse response = it->second.response;
    if (it->second.tier_answer != nullptr) {
      response.answer = *it->second.tier_answer;
    }
    a->Resolve(std::move(response), /*deduped=*/true);
    return true;
  }
  if (auto it = inflight_.find(a->request.key); it != inflight_.end()) {
    // Coalesce onto the pending execution: its Finalize fires every
    // registered callback (we hold mu_, so the job cannot retire between
    // the find above and the attach).
    stat_.deduped_inflight->Increment();
    Attach(a, it->second.get());
    a->sub.deduped = true;
    return true;
  }
  return false;
}

void WhyNotService::PinAndLookUp(Admission* a) {
  const WhyNotRequest& req = a->request;
  // Chaos-injected requests bypass the tier: their faults must execute.
  const bool use_tier = answer_store_ != nullptr && !req.bypass_answer_cache &&
                        req.inject_fault_at_step == 0 &&
                        req.inject_transient_failures == 0;
  // Pin the catalog snapshot at admission: this request sees the database
  // as of now, whatever reloads happen while it waits or runs. A tier
  // lookup also needs the content fingerprint its key embeds (cached per
  // version -- only the first pin after a reload hashes).
  auto snapshot = [&] {
    obs::SpanScope span(a->trace.get(), "snapshot_pin");
    return use_tier ? catalog_->GetSnapshotWithFingerprint(req.db_name)
                    : catalog_->GetSnapshot(req.db_name);
  }();
  if (!snapshot.ok()) {
    a->pinned = snapshot.status();
    return;
  }
  a->snapshot = std::move(*snapshot);
  if (!use_tier) return;
  // The key embeds the content fingerprint, so an answer can only be
  // served for the data it was computed on: a reload that changed the data
  // stops producing the old keys, and one that restored answered content
  // hits again.
  a->answer_key = MakeDurableAnswerKey(
      req.db_name, a->snapshot.content_fingerprint, req.sql,
      req.question.ToString(), req.row_budget, a->memory_budget,
      EngineOptionBits(req.engine_options));
  obs::SpanScope span(a->trace.get(), "answer_cache_lookup");
  a->hit = answer_store_->Get(a->answer_key, a->trace.get(), &a->hit_from_disk);
}

bool WhyNotService::ServeTierHitLocked(Admission* a) {
  // Every tier count is taken here, after the known-key stage, so a
  // resubmitted key counts nothing.
  if (a->answer_key.empty()) {
    if (answer_store_ != nullptr && answer_store_->has_memory()) {
      stat_.answer_cache_bypass->Increment();
    }
    return false;
  }
  if (!a->hit.ok()) {
    // This content failed permanently before and would fail the same way
    // again: reject it with that error, before admission, the journal or a
    // worker. Neither an answer hit nor a miss.
    stat_.breaker_fast_fails->Increment();
    a->sub.status = a->hit.status();
    a->sub.breaker_fast_fail = true;
    return true;
  }
  const AnswerStore::Ptr& hit = *a->hit;
  const bool memory_hit = hit != nullptr && !a->hit_from_disk;
  if (answer_store_->has_memory()) {
    (memory_hit ? stat_.answer_cache_hits : stat_.answer_cache_misses)
        ->Increment();
  }
  if (answer_store_->durable() && !memory_hit) {
    (hit != nullptr ? stat_.answer_store_hits : stat_.answer_store_misses)
        ->Increment();
  }
  if (hit == nullptr) return false;
  // Served without admission or execution, so the exactly-once books are
  // untouched; the key still enters the idempotency book, so resubmitting
  // it re-serves this response.
  WhyNotResponse response;
  response.key = a->request.key;
  response.status = Status::OK();
  response.snapshot_version = a->snapshot.version;
  response.served_from_answer_cache = memory_hit;
  response.served_from_answer_store = !memory_hit;
  RememberCompletedLocked(&response, hit);
  response.answer = *hit;
  a->Resolve(std::move(response), /*deduped=*/false);
  return true;
}

bool WhyNotService::ShedLocked(Admission* a, obs::Counter* counter,
                               std::string why) {
  counter->Increment();
  a->sub.status = Status::Unavailable(std::move(why));
  a->sub.retry_after_ms = SuggestedBackoffLocked();
  return true;
}

std::shared_ptr<WhyNotService::Job> WhyNotService::MakeJob(Admission* a) {
  auto job = std::make_shared<Job>();
  job->request = std::move(a->request);
  job->snapshot = std::move(a->snapshot);
  job->answer_key = std::move(a->answer_key);
  job->submit_time = clock_->Now();
  const int64_t deadline_ms = job->request.deadline_ms != 0
                                  ? job->request.deadline_ms
                                  : options_.default_deadline_ms;
  job->deadline = job->submit_time + std::chrono::milliseconds(deadline_ms);
  job->ctx = std::make_shared<ExecContext>();
  if (options_.clock != nullptr) job->ctx->set_clock(clock_);
  job->ctx->set_deadline(job->deadline);
  job->ctx->set_row_budget(job->request.row_budget);  // 0 = unlimited
  if (a->memory_budget != 0) job->ctx->set_memory_budget(a->memory_budget);
  if (job->request.inject_fault_at_step != 0) {
    job->ctx->InjectFailureAt(job->request.inject_fault_at_step);
  }
  job->future = job->promise.get_future().share();
  return job;
}

bool WhyNotService::JournalAcceptFailsLocked(Admission* a, const Job& job) {
  // Write-ahead: the ACCEPT record is journaled before admission, so a
  // crash at any later instant finds the request recoverable. Appended
  // under mu_, which also orders it before any COMPLETE the workers could
  // journal (they need mu_ to pop the job). Fail-closed: if the journal
  // cannot append, the request is shed rather than accepted unjournaled.
  if (journal_ == nullptr) return false;
  Status journaled;
  {
    obs::SpanScope span(a->trace.get(), "journal_append");
    journaled = journal_->Append(JournalRecordType::kAccept,
                                 EncodeRequest(job.request));
  }
  if (!journaled.ok()) {
    return ShedLocked(a, stat_.journal_append_failures,
                      StrCat("journal unavailable: ", journaled.message()));
  }
  stat_.journaled_accepts->Increment();
  return false;
}

bool WhyNotService::EnqueueShedsLocked(Admission* a,
                                       const std::shared_ptr<Job>& job) {
  // Admission through the priority scheduler: strict class priority, EDF
  // within a class, per-client fair share. The occupancy slot taken here is
  // held until Finalize releases it. A shed here resolves the just-written
  // ACCEPT with a SHED record -- the client saw the rejection, so the
  // request must not resurrect at recovery.
  const WhyNotRequest& req = job->request;
  switch (scheduler_.TryAdmit(
      Scheduler::Entry{job, req.priority, job->deadline, req.client_id})) {
    case Scheduler::Admit::kQueueFull:
      JournalShedLocked(req.key);
      return ShedLocked(a, stat_.shed_queue_full,
                        StrCat("overloaded: queue full (", scheduler_.size(),
                               " queued)"));
    case Scheduler::Admit::kClientQuota:
      JournalShedLocked(req.key);
      return ShedLocked(
          a, stat_.shed_client_quota,
          StrCat("fair share: client \"", req.client_id, "\" has ",
                 scheduler_.occupancy(req.client_id),
                 " requests in flight (limit ", options_.per_client_limit,
                 ")"));
    case Scheduler::Admit::kOk:
      break;
  }
  inflight_.emplace(req.key, job);
  job->attempt = ++attempts_[req.key];
  stat_.accepted->Increment();
  Attach(a, job.get());
  if (a->trace != nullptr) {
    // Admission ends here; the trace moves to the job, whose queue_wait
    // span stays open until a worker dispatches it (or Finalize closes it
    // for jobs that never reach one). The handoff is sequenced by mu_:
    // workers pop under the same lock this admission holds.
    a->trace->CloseSpan(a->span);
    job->queue_wait_span = a->trace->OpenSpan("queue_wait");
    job->trace = std::move(a->trace);
    job->ctx->set_trace(job->trace.get());
  }
  return false;
}

void WhyNotService::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Job> job;
    std::vector<Scheduler::Entry> expired;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stopping_ || !scheduler_.empty(); });
      if (scheduler_.empty()) {
        if (stopping_) return;
        continue;
      }
      // Fail-fast pass before dispatch: entries whose deadline passed while
      // queued would only burn this worker computing an answer nobody is
      // waiting for.
      expired = scheduler_.TakeExpired(clock_->Now());
      if (auto entry = scheduler_.Pop()) {
        job = std::move(entry->item);
        job->running = true;
      }
    }
    for (const Scheduler::Entry& entry : expired) FailExpired(entry.item);
    if (job != nullptr) Execute(job);
  }
}

void WhyNotService::FailExpired(const std::shared_ptr<Job>& job) {
  WhyNotResponse response;
  response.key = job->request.key;
  response.snapshot_version = job->snapshot.version;
  response.queue_ms = MsSince(job->submit_time, clock_->Now());
  response.expired_in_queue = true;
  response.status = Status::DeadlineExceeded(
      StrCat("deadline passed after ",
             static_cast<int64_t>(response.queue_ms), "ms in queue"));
  Finalize(job, std::move(response), /*final=*/true);
}

void WhyNotService::Execute(const std::shared_ptr<Job>& job) {
  const WhyNotRequest& req = job->request;
  obs::Trace* const trace = job->trace.get();
  WhyNotResponse response;
  response.key = req.key;
  response.snapshot_version = job->snapshot.version;
  const Clock::TimePoint exec_start = clock_->Now();
  response.queue_ms = MsSince(job->submit_time, exec_start);
  if (trace != nullptr && job->queue_wait_span >= 0) {
    trace->CloseSpan(job->queue_wait_span);
    job->queue_wait_span = -1;
  }
  const int32_t exec_span =
      trace != nullptr ? trace->OpenSpan("execute") : -1;
  response.attempt = job->attempt;
  const auto finish = [&](bool final) {
    if (trace != nullptr) trace->CloseSpan(exec_span);
    Finalize(job, std::move(response), final);
  };
  // A permanent error depends only on the content, like an answer does, so
  // the tier remembers it under the answer's key: the next Submit of this
  // content fails fast instead of executing again.
  const auto fail = [&](Status status) {
    response.status = std::move(status);
    response.exec_ms = MsSince(exec_start, clock_->Now());
    if (!job->answer_key.empty() && IsPermanentError(response.status)) {
      answer_store_->PutError(job->answer_key, response.status);
    }
    finish(/*final=*/true);
  };
  // Injected transient infrastructure fault: retryable, unlike engine
  // checkpoint faults which produce final (partial) answers below.
  if (response.attempt <= req.inject_transient_failures) {
    response.status = Status::Unavailable(
        StrCat("injected transient fault (attempt ", response.attempt, ")"));
    stat_.transient_failures->Increment();
    {
      std::lock_guard<std::mutex> lock(mu_);
      response.retry_after_ms = SuggestedBackoffLocked();
    }
    response.exec_ms = MsSince(exec_start, clock_->Now());
    finish(/*final=*/false);
    return;
  }

  // Crash isolation: every failure below lands in `response.status` for
  // this request alone; the worker and its siblings carry on.
  const Database& db = *job->snapshot.db;
  auto tree = [&] {
    obs::SpanScope span(trace, "compile");
    return CompiledPlan(*job);
  }();
  if (!tree.ok()) return fail(tree.status());
  // Every engine run this service executes shares the service-wide subtree
  // cache; its keys pin relation data versions, so snapshots never bleed
  // into each other.
  NedExplainOptions engine_options = req.engine_options;
  if (subtree_cache_ != nullptr) {
    engine_options.subtree_cache = subtree_cache_.get();
  }
  auto engine = NedExplainEngine::Create(tree->get(), &db, engine_options);
  if (!engine.ok()) return fail(engine.status());
  auto result = [&] {
    // The engine's own phase spans (Initialization, per-ctuple, per-level
    // TabQ, ...) nest under this one via the ExecContext trace.
    obs::SpanScope span(trace, "engine");
    return engine->Explain(req.question, job->ctx.get());
  }();
  // Resource limits come back as OK partials, not as errors.
  if (!result.ok()) return fail(result.status());
  response.exec_ms = MsSince(exec_start, clock_->Now());
  response.status = Status::OK();
  {
    obs::SpanScope span(trace, "render");
    response.answer = SummarizeResult(*engine, *result);
  }
  // Completeness gate: only answers that reflect the data -- not the budgets
  // of the run that produced them -- enter the answer tier. A partial
  // answer is honest for its requester but must never be replayed as
  // authoritative for another. So every hit, from memory or disk, is
  // byte-identical to an uninterrupted recomputation.
  if (!job->answer_key.empty()) {
    if (!response.answer.complete) {
      stat_.partial_not_cached->Increment();
    } else {
      PutAnswer(job.get(), response.answer);
    }
  }
  finish(/*final=*/true);
}

Result<std::shared_ptr<const QueryTree>> WhyNotService::CompiledPlan(
    const Job& job) {
  // A compiled tree depends only on the SQL text and the schemas it names,
  // and one snapshot version of one database fixes those schemas, so every
  // request with the same (database, version, text) can share one tree.
  // Nothing mutates a QueryTree after QueryTree::Create.
  const WhyNotRequest& req = job.request;
  const uint64_t version = job.snapshot.version;
  {
    std::lock_guard<std::mutex> lock(plan_mu_);
    auto table = plans_.find(req.db_name);
    if (table != plans_.end() && table->second.version == version) {
      auto it = table->second.plans.find(req.sql);
      if (it != table->second.plans.end()) {
        stat_.plan_cache_hits->Increment();
        return it->second;
      }
    }
  }
  stat_.plan_cache_misses->Increment();
  // Compiled with no lock held; concurrent misses may both compile. A
  // failure is returned, never remembered: permanent errors are the answer
  // tier's to remember.
  NED_ASSIGN_OR_RETURN(QueryTree tree, CompileSql(req.sql, *job.snapshot.db));
  auto plan = std::make_shared<const QueryTree>(std::move(tree));
  std::lock_guard<std::mutex> lock(plan_mu_);
  PlanTable& table = plans_[req.db_name];
  // A request pinned to an older snapshot inserts nothing; a newer one
  // replaces the table, releasing the stale plans.
  if (version < table.version) return plan;
  if (version > table.version) {
    table.version = version;
    table.plans.clear();
  }
  if (table.plans.size() >= kPlanCacheCapacity) table.plans.clear();
  table.plans.emplace(req.sql, plan);
  return plan;
}

void WhyNotService::PutAnswer(Job* job, const AnswerSummary& answer) {
  job->answer = std::make_shared<const AnswerSummary>(answer);
  if (answer_store_->has_memory()) stat_.answer_cache_inserts->Increment();
  if (!answer_store_->durable()) {
    (void)answer_store_->Put(job->answer_key, job->answer);
    return;
  }
  // The entry file is written off the service mutex (the store locks
  // itself), so its IO never blocks admission.
  obs::SpanScope span(job->trace.get(), "store_put");
  if (answer_store_->Put(job->answer_key, job->answer).ok()) {
    job->stored_answer = true;
    stat_.answer_store_puts->Increment();
  }
}

void WhyNotService::Finalize(const std::shared_ptr<Job>& job,
                             WhyNotResponse response, bool final) {
  obs::Trace* const trace = job->trace.get();
  if (trace != nullptr && job->queue_wait_span >= 0) {
    // Jobs that never reached a worker (expired in queue or drained)
    // arrive here with the queue_wait span still open.
    trace->CloseSpan(job->queue_wait_span);
    job->queue_wait_span = -1;
  }
  const int32_t finalize_span =
      trace != nullptr ? trace->OpenSpan("finalize") : -1;
  std::vector<CompletionCallback> callbacks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Taken under the same hold that retires the key: once inflight_ no
    // longer knows this job, no deduping Submit can append another
    // observer, so this move captures every callback exactly once.
    callbacks = std::move(job->callbacks);
    inflight_.erase(job->request.key);
    // The fair-share occupancy slot taken at TryAdmit frees here, whatever
    // path the job took (executed, expired or drained).
    scheduler_.Release(job->request.client_id);
    // Journal the resolution before the promise resolves: once a client
    // observes a response, the journal must already know this ACCEPT is
    // settled (final -> COMPLETE, transient failure -> SHED -- the client
    // got a retryable answer and will resubmit under a fresh ACCEPT).
    // Queued requests failed by Drain set keep_recoverable: no
    // record at all, leaving the ACCEPT open for Recover().
    //
    // If the append itself fails (journal broken mid-flight), the promise
    // still resolves: withholding a computed answer would be a lost ack,
    // which the contract ranks worse than the duplicate this creates --
    // the unresolved ACCEPT makes the next Recover() re-run (or re-serve)
    // a request its client already saw settle. Exactly-once degrades to
    // at-least-once for exactly the requests in flight when the journal
    // died, surfaced via stats_.journal_append_failures (documented in
    // docs/DURABILITY.md).
    if (journal_ != nullptr) {
      if (final) {
        Status appended;
        {
          obs::SpanScope span(trace, "journal_append");
          appended = journal_->Append(
              JournalRecordType::kComplete,
              EncodeComplete({job->request.key, response.status.code(),
                              job->stored_answer, job->answer_key}));
        }
        if (appended.ok()) {
          stat_.journaled_completes->Increment();
        } else {
          stat_.journal_append_failures->Increment();
        }
      } else if (!job->keep_recoverable) {
        JournalShedLocked(job->request.key);
      }
    }
    if (final) {
      stat_.completed->Increment();
      if (response.expired_in_queue) stat_.expired_in_queue->Increment();
      attempts_.erase(job->request.key);
      RememberCompletedLocked(&response, job->answer);
    }
    // Not final: the key leaves the books entirely, so a retry with the
    // same key re-executes (its attempt counter persists in attempts_).
  }
  if (final) {
    // End-to-end latency distributions: final outcomes only, so retried
    // attempts do not double-count their queue time.
    queue_us_->Observe(static_cast<int64_t>(response.queue_ms * 1000.0));
    exec_us_->Observe(static_cast<int64_t>(response.exec_ms * 1000.0));
    total_us_->Observe(static_cast<int64_t>(
        (response.queue_ms + response.exec_ms) * 1000.0));
  }
  if (trace != nullptr) {
    trace->CloseSpan(finalize_span);
    response.trace = job->trace;
  }
  if (callbacks.empty()) {
    job->promise.set_value(std::move(response));
  } else {
    // Resolve the future first so callbacks observe a ready future (they
    // receive the same value by reference); the copy is only paid when an
    // observer is actually registered.
    job->promise.set_value(response);
    for (CompletionCallback& callback : callbacks) callback(response);
  }
}

void WhyNotService::WatchdogLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    watchdog_cv_.wait_for(lock, std::chrono::milliseconds(kWatchdogIntervalMs));
    // Queued-but-expired entries are failed fast from here, so expiry does
    // not wait for a worker to come free (under saturation workers can stay
    // busy for a long time -- exactly when queues expire). Running requests
    // need no scan: their ExecContext checks the same deadline.
    std::vector<Scheduler::Entry> expired =
        scheduler_.TakeExpired(clock_->Now());
    if (!expired.empty()) {
      lock.unlock();
      for (const Scheduler::Entry& entry : expired) FailExpired(entry.item);
      lock.lock();
    }
  }
}

void WhyNotService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    accepting_ = false;
    stopping_ = true;
  }
  // Workers leave only once the queue is empty, so everything queued runs.
  work_cv_.notify_all();
  watchdog_cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  if (watchdog_.joinable()) watchdog_.join();
  if (journal_ != nullptr) (void)journal_->Sync();
  // The exactly-once invariant: every accepted request was finalized -- no
  // response lost (a promise with waiters would otherwise hang them) and,
  // by construction of Finalize, none resolved twice.
  std::lock_guard<std::mutex> lock(mu_);
  NED_CHECK_MSG(inflight_.empty(),
                "shutdown left accepted requests without responses");
  NED_CHECK(scheduler_.empty());
}

WhyNotService::DrainReport WhyNotService::Drain(int64_t deadline_ms) {
  DrainReport report;
  std::vector<std::shared_ptr<Job>> queued;
  Clock::TimePoint deadline;
  {
    std::lock_guard<std::mutex> lock(mu_);
    accepting_ = false;
    deadline = clock_->Now() + std::chrono::milliseconds(deadline_ms);
    // After DrainAll every remaining in-flight job is on (or headed to) a
    // worker: workers pop under mu_, so a job is either still queued here
    // or already marked running.
    for (Scheduler::Entry& entry : scheduler_.DrainAll()) {
      queued.push_back(std::move(entry.item));
    }
    report.completed_inflight = inflight_.size() - queued.size();
  }
  for (const auto& job : queued) {
    // Resolve the waiting client retryably, but leave the journal ACCEPT
    // open: Recover() re-enqueues (or store-serves) these next start.
    job->keep_recoverable = true;
    WhyNotResponse response;
    response.key = job->request.key;
    response.status = Status::Unavailable(
        "service draining; request journaled for recovery");
    Finalize(job, std::move(response), /*final=*/false);
    ++report.journaled_queued;
  }
  // Let running requests finish. Real time paces the polling; the deadline
  // itself is read from the injected clock so ManualClock tests control
  // exactly when the cancellation rung fires.
  bool cancelled = false;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (inflight_.empty()) break;
      if (!cancelled && clock_->Now() >= deadline) {
        for (auto& [key, job] : inflight_) {
          if (job->running) {
            job->ctx->RequestCancel();
            ++report.cancelled;
          }
        }
        cancelled = true;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Shutdown();  // nothing is left to run: this joins, syncs and checks
  return report;
}

WhyNotService::RecoveryReport WhyNotService::Recover() {
  RecoveryReport report;
  if (journal_ == nullptr) return report;
  std::vector<JournalRecord> records;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (recovery_done_) return report;  // idempotent: never double-enqueue
    recovery_done_ = true;
    records.swap(recovered_records_);
  }

  // Replay to a per-key last-state: ACCEPT -> pending, COMPLETE/SHED ->
  // settled. A key can cycle (ACCEPT, SHED on transient failure, ACCEPT
  // again...), so later records override earlier ones.
  enum class Kind { kPending, kCompleted, kShed };
  struct KeyState {
    Kind kind = Kind::kPending;
    std::string accept_payload;
    WhyNotRequest request;
    bool request_ok = false;
    CompleteRecord complete;
  };
  std::vector<std::string> order;
  std::unordered_map<std::string, KeyState> states;
  const auto state_of = [&](const std::string& key) -> KeyState& {
    auto [it, inserted] = states.emplace(key, KeyState{});
    if (inserted) order.push_back(key);
    return it->second;
  };
  for (const JournalRecord& record : records) {
    ++report.replayed_records;
    switch (record.type) {
      case JournalRecordType::kAccept: {
        WhyNotRequest request;
        const bool decoded = DecodeRequest(record.payload, &request).ok();
        // An undecodable ACCEPT (version skew, hostile bytes past the CRC's
        // reach) still yields its key if possible, so the record can at
        // least be settled -- never fabricated into a request.
        const std::string key =
            decoded ? request.key
                    : JournalRecordKey(record.type, record.payload);
        if (key.empty()) {
          ++report.dropped;
          break;
        }
        KeyState& state = state_of(key);
        state.kind = Kind::kPending;
        state.accept_payload = record.payload;
        state.request = std::move(request);
        state.request_ok = decoded;
        break;
      }
      case JournalRecordType::kComplete: {
        CompleteRecord complete;
        if (!DecodeComplete(record.payload, &complete).ok()) break;
        KeyState& state = state_of(complete.key);
        state.kind = Kind::kCompleted;
        state.complete = std::move(complete);
        break;
      }
      case JournalRecordType::kShed: {
        const std::string key = JournalRecordKey(record.type, record.payload);
        if (!key.empty()) state_of(key).kind = Kind::kShed;
        break;
      }
    }
  }

  for (const std::string& key : order) {
    KeyState& state = states.at(key);
    switch (state.kind) {
      case Kind::kShed:
        break;  // settled: the client saw the rejection
      case Kind::kCompleted: {
        // Restore the idempotency book only when the disk half can actually
        // re-serve the answer; completions whose answers were never stored
        // (partial answers, errors) simply recompute on resubmission.
        // (A journal written with persist_answers on may be recovered with
        // it off: those completions recompute too.) The entry file is read
        // directly, without promotion: recovery does not warm the memory
        // half.
        const CompleteRecord& complete = state.complete;
        if (!complete.stored || complete.answer_key.empty() ||
            answer_store_ == nullptr || !answer_store_->durable()) {
          break;
        }
        auto stored = answer_store_->Lookup(complete.answer_key);
        if (!stored.ok()) break;
        WhyNotResponse response;
        response.key = key;
        response.status = Status::OK();
        response.answer = std::move(stored).value();
        response.served_from_answer_store = true;
        std::lock_guard<std::mutex> lock(mu_);
        RememberCompletedLocked(&response, nullptr);
        ++report.restored_completed;
        // Re-journal into the fresh segment so the restored book survives
        // the compaction below (and the next crash).
        (void)journal_->Append(
            JournalRecordType::kComplete,
            EncodeComplete({key, StatusCode::kOk, true, complete.answer_key}));
        break;
      }
      case Kind::kPending: {
        ++report.pending_found;
        if (!state.request_ok) {
          // Cannot re-execute what cannot be decoded; settle it so it does
          // not accumulate across restarts.
          std::lock_guard<std::mutex> lock(mu_);
          JournalShedLocked(key);
          ++report.dropped;
          break;
        }
        // Re-enqueued work rides at background priority: recovered requests
        // have no waiting client, so they must never displace live traffic.
        state.request.priority = Priority::kBackground;
        const Submission sub = Submit(state.request);
        if (sub.status.ok()) {
          // Submit either re-admitted it (fresh ACCEPT journaled) or served
          // it from the store/completed book restored above.
          if (sub.response.valid() &&
              sub.response.wait_for(std::chrono::seconds(0)) ==
                  std::future_status::ready &&
              (sub.response.get().served_from_answer_store ||
               sub.response.get().served_from_answer_cache || sub.deduped)) {
            ++report.served_from_store;
          } else {
            ++report.resubmitted;
          }
        } else if (sub.status.code() == StatusCode::kUnavailable) {
          // Shed (queue full under recovery load): keep it pending for the
          // next recovery by re-journaling the original ACCEPT.
          std::lock_guard<std::mutex> lock(mu_);
          (void)journal_->Append(JournalRecordType::kAccept,
                                 state.accept_payload);
          ++report.deferred;
        } else {
          // Permanent rejection (database since dropped, ...): settle it.
          std::lock_guard<std::mutex> lock(mu_);
          JournalShedLocked(key);
          ++report.dropped;
        }
        break;
      }
    }
  }

  // Compaction: everything still live was re-journaled into the fresh
  // segment (restored COMPLETEs, deferred ACCEPTs, resubmitted requests'
  // fresh ACCEPTs), so the pre-crash segments are now redundant history.
  (void)journal_->Sync();
  (void)journal_->DropOldSegments();
  return report;
}

WhyNotService::Stats WhyNotService::stats() const {
  // Lock-free: each field is one relaxed atomic load. The snapshot is not
  // cross-field consistent (it never was -- callers previously raced the
  // increments too), but every individual counter is exact.
  Stats s;
  s.submitted = stat_.submitted->value();
  s.accepted = stat_.accepted->value();
  s.shed_queue_full = stat_.shed_queue_full->value();
  s.shed_client_quota = stat_.shed_client_quota->value();
  s.rejected_shutdown = stat_.rejected_shutdown->value();
  s.deduped_inflight = stat_.deduped_inflight->value();
  s.served_from_cache = stat_.served_from_cache->value();
  s.completed = stat_.completed->value();
  s.transient_failures = stat_.transient_failures->value();
  s.expired_in_queue = stat_.expired_in_queue->value();
  s.breaker_fast_fails = stat_.breaker_fast_fails->value();
  s.answer_cache_hits = stat_.answer_cache_hits->value();
  s.answer_cache_misses = stat_.answer_cache_misses->value();
  s.answer_cache_inserts = stat_.answer_cache_inserts->value();
  s.answer_cache_bypass = stat_.answer_cache_bypass->value();
  s.partial_not_cached = stat_.partial_not_cached->value();
  s.journaled_accepts = stat_.journaled_accepts->value();
  s.journaled_completes = stat_.journaled_completes->value();
  s.journaled_sheds = stat_.journaled_sheds->value();
  s.journal_append_failures = stat_.journal_append_failures->value();
  s.answer_store_hits = stat_.answer_store_hits->value();
  s.answer_store_misses = stat_.answer_store_misses->value();
  s.answer_store_puts = stat_.answer_store_puts->value();
  s.plan_cache_hits = stat_.plan_cache_hits->value();
  s.plan_cache_misses = stat_.plan_cache_misses->value();
  return s;
}

size_t WhyNotService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return scheduler_.size();
}

size_t WhyNotService::client_occupancy(const std::string& client_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return scheduler_.occupancy(client_id);
}

LruStats WhyNotService::subtree_cache_stats() const {
  return subtree_cache_ != nullptr ? subtree_cache_->stats() : LruStats{};
}

LruStats WhyNotService::answer_cache_stats() const {
  return answer_store_ != nullptr ? answer_store_->memory_stats() : LruStats{};
}

JournalStats WhyNotService::journal_stats() const {
  return journal_ != nullptr ? journal_->stats() : JournalStats{};
}

AnswerStoreStats WhyNotService::answer_store_stats() const {
  return answer_store_ != nullptr ? answer_store_->stats()
                                  : AnswerStoreStats{};
}

}  // namespace ned
