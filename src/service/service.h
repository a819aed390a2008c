/// \file service.h
/// \brief WhyNotService: a concurrent, resource-governed why-not server.
///
/// Turns the single-request engine into a bounded multi-request service:
/// requests (SQL + why-not predicate + per-request deadline/budget) are
/// admitted onto a bounded priority queue and executed on a fixed worker
/// pool, each under its own ExecContext, against the immutable Catalog
/// snapshot pinned at admission. The contract, in order of the guarantees
/// it gives:
///
///  1. Admission control / load shedding. A full queue, a breached memory
///     watermark (summed memory budgets of admitted-but-unfinished
///     requests) or an exhausted per-client quota rejects the submission
///     *synchronously* with a retryable kUnavailable carrying a suggested
///     backoff -- the queue never grows unboundedly and overload cannot
///     push accepted requests past their deadlines.
///  2. Priority scheduling (service/scheduler.h). Requests carry a priority
///     class and client id; dispatch is strict-priority between classes and
///     earliest-deadline-first within one, and per-client fair-share quotas
///     keep one hot client from starving the rest. A request whose deadline
///     passes while still queued is failed fast with kDeadlineExceeded
///     (`expired_in_queue`) instead of wasting a worker.
///  3. Snapshot isolation. Each request pins the Catalog snapshot current
///     at admission and evaluates against it even if the database is
///     reloaded or swapped mid-flight.
///  4. Deadline enforcement. The request's deadline covers queue wait plus
///     execution. A queued request is failed fast once it passes (see 2);
///     a running one is stopped by its ExecContext, which checks the
///     deadline at the engine's cooperative checkpoints. The bound is only
///     as tight as the gap between two checkpoints: no thread interrupts
///     work between them.
///  5. Crash isolation and exactly-once responses. Any Status error or
///     tripped limit is contained in its request's response; every accepted
///     request resolves its future exactly once (Shutdown NED_CHECKs that
///     none is lost), and idempotent request keys deduplicate concurrent
///     duplicates and re-serve completed ones without re-execution. A new
///     key asking an answered question is served from the content-keyed
///     answer tier (persist/answer_store.h) without admission or execution,
///     and one whose content failed permanently before (a bind or type
///     error) fails fast there with the remembered error -- poison costs one
///     execution per content and budget class.
///  6. Crash-safe durability (opt-in via ServiceOptions::persist_dir; see
///     docs/DURABILITY.md). Accepted requests are write-ahead journaled
///     before admission and marked COMPLETE/SHED before their futures
///     resolve; the answer tier gains its disk half. Drain() + Recover()
///     extend the exactly-once contract across process restarts --
///     including SIGKILL, proven by tools/ned_crashtest.
///
/// Fault injection for the chaos harness comes in two flavours with
/// distinct semantics: engine checkpoint faults (`inject_fault_at_step`)
/// surface as honest *partial answers* (final, not retried), while service
/// transient faults (`inject_transient_failures`) surface as retryable
/// kUnavailable responses that the retry policy (retry.h) resolves.

#ifndef NED_SERVICE_SERVICE_H_
#define NED_SERVICE_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "algebra/query_tree.h"
#include "cache/subtree_cache.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "core/nedexplain.h"
#include "core/report.h"
#include "exec/exec_context.h"
#include "persist/answer_store.h"
#include "persist/journal.h"
#include "relational/catalog.h"
#include "service/request.h"
#include "service/scheduler.h"

namespace ned {

/// Sizing and policy knobs for one service instance.
struct ServiceOptions {
  /// Fixed worker pool size.
  int workers = 4;
  /// Bounded queue: submissions beyond this depth are shed.
  size_t queue_capacity = 64;
  /// Max admitted-but-unfinished (queued + running) requests per client id;
  /// 0 = unlimited. See SchedulerOptions::per_client_limit.
  size_t per_client_limit = 0;
  /// When non-zero, also shed while the summed memory budgets of admitted
  /// but unfinished requests exceed this watermark. Requests with no memory
  /// budget (request and default both 0) are invisible to it, so give
  /// `default_memory_budget` a value when using the watermark.
  size_t memory_watermark_bytes = 0;
  /// Applied when a request leaves deadline_ms == 0.
  int64_t default_deadline_ms = 2000;
  /// Applied when a request leaves the budget == 0 (0 = unlimited).
  size_t default_row_budget = 0;
  size_t default_memory_budget = 0;
  /// Suggested-backoff shape for shed work: base * (1 + queued/workers),
  /// capped. Clients may use it directly or feed it to RetryPolicy.
  int64_t base_backoff_ms = 5;
  int64_t max_backoff_ms = 500;
  /// Byte budget of the answer tier's memory half (persist/answer_store.h):
  /// complete answers and permanent errors keyed by content (db, content
  /// fingerprint, normalized SQL, question, budgets class, engine options),
  /// served at Submit without admission or execution. 0 disables the
  /// memory half, and with it the error memory. Distinct from the
  /// idempotency book, which keys on the *request key*.
  size_t answer_cache_bytes = 8u << 20;
  /// Byte budget of the SubtreeCache shared by every engine run this service
  /// executes (memoized materialized subtree outputs, keyed by structure +
  /// relation data versions). 0 disables it.
  size_t subtree_cache_bytes = 32u << 20;
  /// Time source for deadlines and queue expiry. nullptr = the real steady
  /// clock. Tests inject a ManualClock here to
  /// make time-driven behaviour deterministic.
  const Clock* clock = nullptr;
  /// Root directory of the durability layer (docs/DURABILITY.md). Empty =
  /// no persistence (the default; nothing below applies). When set, the
  /// service write-ahead journals every accepted request under
  /// `<persist_dir>/journal`, and the answer tier writes its entries to
  /// `<persist_dir>/store` (its disk half); Recover() replays them after a
  /// restart.
  std::string persist_dir;
  /// Journal fsync policy and cadence (see persist/journal.h). Each service
  /// start appends to one fresh journal segment, never rotated; Recover()
  /// deletes the older ones once it has re-journaled their live state. The
  /// default kEveryNMs survives process death (including SIGKILL) with no
  /// fsync on the Submit path; kEveryRecord additionally survives power
  /// loss.
  FsyncPolicy journal_fsync = FsyncPolicy::kEveryNMs;
  /// Lazy-mode flush cadence: the power-loss exposure window, and the only
  /// cost the journal puts on serving (the flusher's fdatasync competes for
  /// CPU with workers -- measurable on single-core hosts). 250ms keeps that
  /// contention out of Submit p99 while staying 4x tighter than e.g.
  /// Redis's everysec. Process death (SIGKILL) needs no fsync at all.
  int journal_fsync_interval_ms = 250;
  /// When false, run journal-only durability: exactly-once admission and
  /// the idempotency book still survive restarts, but the answer tier has
  /// no disk half -- a recovered completion simply recomputes on
  /// resubmission. The store's per-request cost (temp file +
  /// rename inside the completion path) is the bulk of what full
  /// persistence adds to Submit latency, so deployments that only need
  /// at-most-once semantics can turn it off.
  bool persist_answers = true;
  /// fsync answer-store entry files (power-loss durability).
  bool persist_fsync_store = false;
};

// WhyNotRequest lives in service/request.h (shared with the durability
// layer's request codec).

/// The final outcome of one execution attempt. `status` OK means the
/// request produced an answer -- possibly partial, see `answer.complete` --
/// while kUnavailable means a transient service-side failure worth
/// retrying; anything else is a permanent request error (bad SQL, unknown
/// database).
struct WhyNotResponse {
  std::string key;
  Status status;
  AnswerSummary answer;
  /// Catalog snapshot version the request was evaluated against.
  uint64_t snapshot_version = 0;
  /// 1-based execution attempt (counts transient-failure attempts).
  int attempt = 0;
  double queue_ms = 0;
  double exec_ms = 0;
  /// Suggested client backoff when `status` is retryable.
  int64_t retry_after_ms = 0;
  /// True when the answer was replayed from the answer tier's memory half
  /// at Submit (no admission, no execution; attempt stays 0).
  bool served_from_answer_cache = false;
  /// True when the answer was replayed from the answer tier's disk half
  /// (src/persist/answer_store.h) -- same no-admission, no-execution
  /// semantics as a memory hit, but the answer survived a restart.
  bool served_from_answer_store = false;
  /// True when the request's deadline passed while it was still queued:
  /// `status` is kDeadlineExceeded and no worker ever ran it.
  bool expired_in_queue = false;
  /// Reserved: the service never sets it, because a remembered permanent
  /// error fails the Submit itself (Submission::breaker_fast_fail).
  /// perfbench still copies it to and from net::WireResponse.
  bool breaker_fast_fail = false;
  /// Per-request span trace (admission, queue wait, the engine's Fig. 5
  /// phases, finalize). Non-null only when the request set `collect_trace`;
  /// immutable once the response resolves. See docs/OBSERVABILITY.md.
  std::shared_ptr<const obs::Trace> trace;

  bool retryable() const { return status.code() == StatusCode::kUnavailable; }
};

/// The concurrent why-not service. All public methods are thread-safe.
class WhyNotService {
 public:
  /// Outcome of Submit. `status` OK: the request is admitted (or coalesced
  /// onto an identical in-flight/completed key) and `response` will resolve
  /// exactly once. kUnavailable: shed -- retry after `retry_after_ms`.
  /// Anything else (e.g. kNotFound for an unknown database, or a fast-fail
  /// replaying a remembered permanent error): permanent rejection, do not
  /// retry.
  struct Submission {
    Status status;
    int64_t retry_after_ms = 0;
    std::shared_future<WhyNotResponse> response;
    /// True when this submission attached to an existing key instead of
    /// admitting new work.
    bool deduped = false;
    /// True when the answer tier rejected the submission synchronously with
    /// the permanent error this content produced before (no admission, no
    /// execution). The name predates the tier's error memory.
    bool breaker_fast_fail = false;
    /// Admission-side span trace for submissions resolved synchronously
    /// (sheds, remembered-error fast-fails, cache/store hits). Requests that were
    /// admitted instead deliver their full trace on the WhyNotResponse.
    /// Non-null only when the request set `collect_trace`.
    std::shared_ptr<const obs::Trace> trace;
  };

  /// Monotonic counters; `Check` invariants are asserted from them.
  /// Snapshot struct only: the live values are registry-backed atomics
  /// (obs::Counter), so stats() is a lock-free thin read -- previously
  /// these were plain fields guarded by mu_ that tools read off-lock.
  struct Stats {
    uint64_t submitted = 0;
    uint64_t accepted = 0;
    uint64_t shed_queue_full = 0;
    uint64_t shed_memory = 0;
    /// Sheds charged to a single client's fair-share quota.
    uint64_t shed_client_quota = 0;
    uint64_t rejected_shutdown = 0;
    uint64_t deduped_inflight = 0;
    uint64_t served_from_cache = 0;
    uint64_t completed = 0;
    uint64_t transient_failures = 0;
    /// Accepted requests failed fast with kDeadlineExceeded because their
    /// deadline passed in the queue. Final responses: counted in
    /// `completed`, so the exactly-once books still balance.
    uint64_t expired_in_queue = 0;
    /// Submissions failed fast with a remembered permanent error (at
    /// Submit, not accepted). Never counted as answer-tier hits or misses.
    uint64_t breaker_fast_fails = 0;
    /// Answer-tier traffic: `answer_cache_*` counts its memory half (hits,
    /// misses, inserts, and requests that bypass the tier), `answer_store_*`
    /// its disk half. Hits are served at Submit and are neither `accepted`
    /// nor `completed`, so the exactly-once books (`accepted == completed +
    /// transient_failures`) hold with the tier on -- ned_stress asserts
    /// this.
    uint64_t answer_cache_hits = 0;
    uint64_t answer_cache_misses = 0;
    uint64_t answer_cache_inserts = 0;
    uint64_t answer_cache_bypass = 0;
    /// Completed-but-partial answers that were *not* inserted (the
    /// completeness gate; see docs/CACHING.md).
    uint64_t partial_not_cached = 0;
    /// Durability-layer traffic (all zero with persistence off). Disk hits
    /// of the answer tier are served at Submit like memory hits: neither
    /// `accepted` nor `completed`, so the exactly-once books still balance.
    uint64_t journaled_accepts = 0;
    uint64_t journaled_completes = 0;
    uint64_t journaled_sheds = 0;
    /// Appends refused by a broken/failed journal. Fail-closed: the
    /// submission is shed with kUnavailable, never silently unjournaled.
    uint64_t journal_append_failures = 0;
    uint64_t answer_store_hits = 0;
    uint64_t answer_store_misses = 0;
    uint64_t answer_store_puts = 0;
    /// Compiled-plan memo traffic, one per executed compile step: a hit
    /// reuses the tree compiled for the same (database, snapshot version,
    /// SQL text); a miss compiles, including every request pinned to an
    /// older snapshot than the memo's. See docs/CACHING.md.
    uint64_t plan_cache_hits = 0;
    uint64_t plan_cache_misses = 0;
  };

  /// Outcome of Drain (see method comment).
  struct DrainReport {
    /// Requests that were running at drain start and completed normally.
    size_t completed_inflight = 0;
    /// Queued requests resolved kUnavailable whose journal ACCEPT was left
    /// unresolved on purpose -- Recover() re-enqueues them next start.
    size_t journaled_queued = 0;
    /// Running requests cancelled because the drain deadline passed; their
    /// responses are honest partial answers, COMPLETE-journaled as usual.
    size_t cancelled = 0;
  };

  /// Outcome of Recover (see method comment).
  struct RecoveryReport {
    uint64_t replayed_records = 0;
    /// Completed-book entries restored from COMPLETE records whose answers
    /// are resident in the durable store.
    uint64_t restored_completed = 0;
    /// ACCEPTed-but-neither-COMPLETEd-nor-SHED requests found.
    uint64_t pending_found = 0;
    /// Pending requests answered straight from the durable store (no
    /// re-execution: exactly-once across the restart).
    uint64_t served_from_store = 0;
    /// Pending requests re-enqueued at background priority.
    uint64_t resubmitted = 0;
    /// Pending requests that could not be re-admitted (queue full); their
    /// ACCEPT is re-journaled so the next recovery retries them.
    uint64_t deferred = 0;
    /// Pending records dropped: undecodable payload or a database no longer
    /// registered. SHED-journaled so they do not accumulate.
    uint64_t dropped = 0;
  };

  WhyNotService(std::shared_ptr<Catalog> catalog, ServiceOptions options = {});
  ~WhyNotService();

  WhyNotService(const WhyNotService&) = delete;
  WhyNotService& operator=(const WhyNotService&) = delete;

  /// Invoked exactly once with the resolved response of an accepted
  /// submission -- see Submit below. Runs on whichever thread resolves the
  /// request: a worker (normal completion), the watchdog path, Drain, or
  /// the submitting thread itself (idempotency/cache/store hits resolved
  /// synchronously). The future is already ready when it runs. Keep it
  /// cheap and non-blocking: it executes inside the service's completion
  /// path, so a slow callback stalls a worker -- the HTTP frontend only
  /// copies the response into its event-loop queue and wakes the loop
  /// (src/net/server.cpp), which is the intended usage shape.
  using CompletionCallback = std::function<void(const WhyNotResponse&)>;

  /// Admission control; never blocks on a full queue (sheds instead).
  Submission Submit(WhyNotRequest request);

  /// Submit with push-style completion: iff the returned Submission has an
  /// OK status, `on_complete` fires exactly once with the final
  /// WhyNotResponse (equal to what `response.get()` yields). Non-OK
  /// submissions (sheds, remembered errors, permanent rejections) resolve
  /// synchronously on the Submission itself and never invoke the callback.
  /// This is what lets the HTTP frontend hand a worker-completed answer
  /// back to its event loop without ever parking a thread on a future.
  Submission Submit(WhyNotRequest request, CompletionCallback on_complete);

  /// Stops the service. drain=true executes everything already queued;
  /// drain=false fails queued requests with kUnavailable and cancels
  /// running ones (their responses are honest partial answers). Either way
  /// every accepted request's future resolves before Shutdown returns --
  /// asserted via NED_CHECK. Idempotent. With persistence on, queued
  /// requests failed by drain=false keep their unresolved journal ACCEPT,
  /// so Recover() picks them up next start.
  void Shutdown(bool drain = true);

  /// Graceful stop for planned restarts (SIGTERM handlers): stops
  /// admission, lets requests already *running* finish (cancelling any
  /// still running past `deadline_ms`, which yields honest partial
  /// answers), and resolves *queued* requests with retryable kUnavailable
  /// while leaving their journal ACCEPTs unresolved -- with persistence on
  /// they are recovered, deduplicated and re-run by Recover() on the next
  /// start. Terminal like Shutdown: every accepted future resolves before
  /// return, and the journal is synced. See docs/DURABILITY.md for the
  /// Drain-vs-Shutdown contract.
  DrainReport Drain(int64_t deadline_ms);

  /// Replays the journal found at construction: restores the idempotency
  /// completed-book from COMPLETE records whose answers are resident in the
  /// durable store, then for every pending (accepted-not-completed) request
  /// either serves it from the store (same content: no re-execution) or
  /// re-enqueues it at background priority. Old journal segments are
  /// compacted away after the surviving state is re-journaled. Idempotent:
  /// a second call is a no-op returning an empty report -- recovery never
  /// double-enqueues. No-op (empty report) with persistence off.
  RecoveryReport Recover();

  Stats stats() const;
  size_t queue_depth() const;
  const ServiceOptions& options() const { return options_; }

  /// The service's unified metrics registry (src/obs/): every counter in
  /// Stats, latency histograms (ned_request_{queue,exec,total}_us) and
  /// mirror gauges for the scheduler, cache and journal internals,
  /// refreshed by a collector at Collect() time.
  /// Collect() takes the service mutex via that collector -- never call it
  /// while holding locks that order after mu_. See docs/OBSERVABILITY.md
  /// for the catalog.
  obs::MetricsRegistry* metrics() const { return &registry_; }

  /// Queued + running requests currently charged to `client_id`.
  size_t client_occupancy(const std::string& client_id) const;

  /// Occupancy/hit counters of the SubtreeCache and of the answer tier's
  /// memory half (all-zero when the corresponding byte budget is 0).
  LruStats subtree_cache_stats() const;
  LruStats answer_cache_stats() const;

  /// Durability-layer introspection: the journal and the answer tier's
  /// disk half (zero-value structs with persistence off).
  bool persistence_enabled() const { return journal_ != nullptr; }
  JournalStats journal_stats() const;
  AnswerStoreStats answer_store_stats() const;

 private:
  struct Job;
  struct Admission;
  using Scheduler = PriorityScheduler<std::shared_ptr<Job>>;

  /// One idempotency-book entry: a final response. An answer the tier
  /// holds (tier hits and puts) is shared through `tier_answer`, not
  /// copied: `response.answer` is then left empty.
  struct Completed {
    WhyNotResponse response;
    std::shared_ptr<const AnswerSummary> tier_answer;
  };

  /// Registry handles behind the Stats snapshot: one obs::Counter per
  /// field, registered once at construction. Increment sites need no lock;
  /// readers (stats(), exposition) are race-free by construction.
  struct StatCounters {
    obs::Counter* submitted = nullptr;
    obs::Counter* accepted = nullptr;
    obs::Counter* shed_queue_full = nullptr;
    obs::Counter* shed_memory = nullptr;
    obs::Counter* shed_client_quota = nullptr;
    obs::Counter* rejected_shutdown = nullptr;
    obs::Counter* deduped_inflight = nullptr;
    obs::Counter* served_from_cache = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* transient_failures = nullptr;
    obs::Counter* expired_in_queue = nullptr;
    obs::Counter* breaker_fast_fails = nullptr;
    obs::Counter* answer_cache_hits = nullptr;
    obs::Counter* answer_cache_misses = nullptr;
    obs::Counter* answer_cache_inserts = nullptr;
    obs::Counter* answer_cache_bypass = nullptr;
    obs::Counter* partial_not_cached = nullptr;
    obs::Counter* journaled_accepts = nullptr;
    obs::Counter* journaled_completes = nullptr;
    obs::Counter* journaled_sheds = nullptr;
    obs::Counter* journal_append_failures = nullptr;
    obs::Counter* answer_store_hits = nullptr;
    obs::Counter* answer_store_misses = nullptr;
    obs::Counter* answer_store_puts = nullptr;
    obs::Counter* plan_cache_hits = nullptr;
    obs::Counter* plan_cache_misses = nullptr;
  };

  /// One database's compiled plans: the trees compiled against snapshot
  /// `version`, by exact SQL text.
  struct PlanTable {
    uint64_t version = 0;
    std::unordered_map<std::string, std::shared_ptr<const QueryTree>> plans;
  };

  /// Submit's body: a driver over the admission stages below, each of which
  /// returns true when it resolved the submission. `on_complete` (never
  /// null; may hold an empty function) is moved onto the Job -- and nulled
  /// out -- when the submission attaches to admitted/in-flight work; left
  /// untouched for synchronous resolutions, which the public wrapper
  /// delivers inline.
  Submission SubmitImpl(WhyNotRequest request, CompletionCallback* on_complete);
  bool KnownKeyLocked(Admission* a);
  bool PinAndLookUp(Admission* a);
  bool ServeTierHitLocked(Admission* a);
  bool LoadShedsLocked(Admission* a);
  bool JournalAcceptFailsLocked(Admission* a, const Job& job);
  bool EnqueueShedsLocked(Admission* a, const std::shared_ptr<Job>& job);
  /// Every shed's outcome: kUnavailable with the suggested backoff.
  bool ShedLocked(Admission* a, obs::Counter* counter, std::string why);
  /// Attaches the submission (and its callback) to `job`'s pending answer.
  static void Attach(Admission* a, Job* job);
  std::shared_ptr<Job> MakeJob(Admission* a);
  /// Registers every metric family and the mirror-gauge collector; runs
  /// once in the constructor before any thread starts.
  void RegisterMetrics();
  /// Refreshes the mirror gauges from subsystem stats (takes mu_ briefly).
  void CollectMirrors();
  void WorkerLoop();
  void WatchdogLoop();
  void Execute(const std::shared_ptr<Job>& job);
  /// The job's compiled tree: the memo's when it holds one for the job's
  /// (database, snapshot version, SQL text), else a fresh CompileSql, which
  /// is remembered when it succeeds on the newest version seen.
  Result<std::shared_ptr<const QueryTree>> CompiledPlan(const Job& job);
  /// Puts a complete, full-fidelity answer into the tier.
  void PutAnswer(Job* job, const AnswerSummary& answer);
  /// Finalizes a queued job whose deadline passed before any worker ran it.
  void FailExpired(const std::shared_ptr<Job>& job);
  /// Resolves the job's promise and drops it from the in-flight books.
  /// `final` records the response in the idempotency book; transient
  /// failures instead clear the key so a retry re-executes.
  void Finalize(const std::shared_ptr<Job>& job, WhyNotResponse response,
                bool final);
  int64_t SuggestedBackoffLocked() const;
  /// Inserts `response` into the idempotency book with FIFO eviction,
  /// sharing its answer when `tier_answer` (the tier's copy of it) is
  /// given. The response keeps its answer.
  void RememberCompletedLocked(
      WhyNotResponse* response,
      std::shared_ptr<const AnswerSummary> tier_answer);
  /// Journals a SHED record for `key` (best-effort; counts failures).
  void JournalShedLocked(const std::string& key);

  const std::shared_ptr<Catalog> catalog_;
  const ServiceOptions options_;
  /// Never null: options.clock or the real steady clock.
  const Clock* const clock_;
  /// Unified metrics registry; declared before every subsystem and thread
  /// so its handles outlive all increment sites. Mutable: registration and
  /// collection are internally synchronized, and const accessors (stats())
  /// read through it.
  mutable obs::MetricsRegistry registry_;
  StatCounters stat_;
  /// End-to-end latency histograms, observed at finalize (µs, default
  /// bucket ladder). Queue covers submit->dispatch, exec covers the worker,
  /// total is their sum.
  obs::Histogram* queue_us_ = nullptr;
  obs::Histogram* exec_us_ = nullptr;
  obs::Histogram* total_us_ = nullptr;
  /// Internally locked; nullptr when disabled by options.
  const std::unique_ptr<SubtreeCache> subtree_cache_;
  /// Null when options.persist_dir is empty. Internally locked; appends
  /// from Submit/Finalize hold mu_ first (the lock order service mu_ ->
  /// journal mutex is acyclic).
  std::unique_ptr<Journal> journal_;
  /// The answer tier; null when it has neither a memory budget nor a
  /// directory. Internally locked and only ever called with mu_ released,
  /// so neither its IO nor the fingerprint behind its key blocks admission.
  std::unique_ptr<AnswerStore> answer_store_;
  /// Records replayed by Journal::Open at construction, consumed by the
  /// first Recover() call.
  std::vector<JournalRecord> recovered_records_;

  // Each mutex starts a cache line of its own, so the lock word never shares
  // one with the read-mostly members above it. Without this, the layout
  // decided it: deleting one 8-byte ServiceOptions field once cost
  // repeat_reload 1.2-1.3% of its throughput and CPU per request, and 8
  // bytes of padding put back restored it.

  /// The compiled-plan memo, by database name; guarded by plan_mu_, which
  /// is never held while compiling and never taken together with mu_.
  alignas(64) std::mutex plan_mu_;
  std::unordered_map<std::string, PlanTable> plans_;

  alignas(64) mutable std::mutex mu_;
  bool recovery_done_ = false;  // guarded by mu_
  std::condition_variable work_cv_;
  std::condition_variable watchdog_cv_;
  bool accepting_ = true;
  bool stopping_ = false;
  /// Priority/EDF queue + per-client occupancy; guarded by mu_.
  Scheduler scheduler_;
  /// Accepted, not yet finalized (queued or running), by idempotency key.
  std::unordered_map<std::string, std::shared_ptr<Job>> inflight_;
  /// Execution-attempt counters per key (spans transient-failure retries).
  std::unordered_map<std::string, int> attempts_;
  /// The idempotency book: completed responses by request key, FIFO
  /// evicted beyond a fixed capacity.
  std::unordered_map<std::string, Completed> completed_;
  std::deque<std::string> completed_fifo_;
  /// Summed memory budgets of in-flight requests (watermark accounting).
  size_t admitted_bytes_ = 0;
  uint64_t next_auto_key_ = 0;

  std::vector<std::thread> workers_;
  std::thread watchdog_;
};

}  // namespace ned

#endif  // NED_SERVICE_SERVICE_H_
