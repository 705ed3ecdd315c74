#pragma once
// The scheduling service (layer 3 of src/service/): a high-throughput
// request engine over the SchedulerRegistry, with ONE submission path:
//
//   Ticket t = service.submit(req);   // every request goes through here
//   ServiceResult r = t.wait();       // response, or typed ServiceError
//
// submit() admits the request into the deadline-aware priority queue
// (service/request_queue.hpp) under its priority/deadline_ms fields and
// pairs it with one thread-pool job; whenever a pool worker frees up it
// takes the most urgent admitted request (Interactive before Batch
// before Bulk, EDF within a class, aging against starvation). The
// compute engine behind it is unchanged:
//
//   request --> intern tree --> cache lookup --> hit? answer
//                                  |
//                                miss --> in-flight table: someone already
//                                         computing this key? wait for them
//                                  |
//                                first --> registry scheduler + simulator,
//                                          insert into cache, wake waiters
//
// Failures are values: a ticket resolves to Result<ScheduleResponse,
// ServiceError> with a machine-readable code (service/errors.hpp) —
// kUnknownAlgorithm, kInvalidResources, kDeadlineExpired, kQueueFull,
// kCancelled, kSchedulerFailure, kStoreFull. Cancelling a still-queued
// ticket removes it from the queue (counted in QueueStats) and resolves
// it with kCancelled; cancelling anything else is a no-op returning
// false. A batch is N submit() calls followed by N wait() calls in
// submission order; unwrap() (service/request.hpp) turns a settled
// result back into a response or the exception that caused it.
//
// Guarantees:
//  * Determinism: a response carries exactly the (makespan, peak memory,
//    schedule) a direct SchedulerRegistry call would produce — schedulers
//    are deterministic, results are computed once and shared. Priority
//    and deadline fields are never part of the cache key: they change
//    when a request is answered, not what the answer is.
//  * Deduplication: identical (tree, algo, p, cap) work in flight at the
//    same time is computed once; concurrent duplicates block until the
//    computing thread publishes. Sequential-only algorithms normalize
//    p to 1 in the key, so a cross-p sweep hits one entry. With the
//    cache disabled (cache_bytes = 0) there is no sharing of any kind:
//    every request pays its own compute — the honest uncached baseline.
//  * Failure isolation: errors are per-ticket values; one bad request
//    cannot poison a batch. Failed computations are never cached, and
//    concurrent twins of a failed in-flight computation receive the same
//    error.
//  * Drain: the destructor waits until every admitted request has been
//    answered — it counts servicers, not tickets, so tickets abandoned
//    without wait() (and cancelled tickets) neither leak an in-flight
//    entry nor deadlock the drain.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sched/registry.hpp"
#include "service/instance_store.hpp"
#include "service/request.hpp"
#include "service/request_queue.hpp"
#include "service/result_cache.hpp"
#include "service/ticket.hpp"
#include "util/result.hpp"

namespace treesched {

struct ServiceConfig {
  /// Result-cache budget; 0 disables caching (every request recomputes).
  std::size_t cache_bytes = ResultCache::kDefaultByteBudget;
  unsigned cache_shards = 16;
  /// Validate every computed schedule (sched/validate.hpp, including the
  /// request's memory cap) before caching it — defense in depth at ~2x
  /// compute cost; off by default, the simulator already rejects
  /// precedence violations.
  bool validate = false;
  /// Admission-queue tuning (all submissions flow through the queue).
  RequestQueueConfig queue;
  /// Instance-store byte budget (0 = unbudgeted); when set, intern()
  /// throws StoreFull and try_intern() returns kStoreFull past it.
  InstanceStoreConfig store;
  /// Metrics registry the service records into (stage histograms,
  /// per-algorithm distributions) and bridges its legacy stats onto
  /// (cache/queue/store/pool collectors for the Prometheus exposition).
  /// null = the service creates a private one; share a registry to
  /// co-export front-end counters from the same scrape endpoint.
  std::shared_ptr<obs::MetricsRegistry> registry;
};

class SchedulingService {
 public:
  explicit SchedulingService(ServiceConfig config = {});

  /// Waits for every admitted request to be answered (all tickets
  /// settle) before tearing down. Tickets nobody waits on and cancelled
  /// tickets are covered: the drain counts servicer jobs, one per
  /// admission, each of which runs to completion.
  ~SchedulingService();

  /// Interns a tree into the instance store; the handle is what requests
  /// carry. Repeated interns of identical trees share one instance. A
  /// new tree past ServiceConfig::store.max_bytes is rejected with the
  /// typed kStoreFull error.
  [[nodiscard]] Result<TreeHandle, ServiceError> try_intern(Tree tree);

  /// Legacy surface of try_intern: throws StoreFull on rejection.
  TreeHandle intern(Tree tree);

  /// THE submission path: admits `req` under its priority/deadline_ms
  /// fields and returns the ticket that will resolve to its
  /// ServiceResult. Called from a pool worker (a nested fan-out), the
  /// request is computed synchronously instead of queued — the worker
  /// participates like a parallel_for caller, which rules out
  /// self-deadlock; such requests resolve immediately, are invisible to
  /// queue_stats(), and cannot be cancelled.
  [[nodiscard]] Ticket submit(ScheduleRequest req);

  /// Latency fast path: answers `req` immediately iff it is a pure
  /// result-cache hit — no admission queue, no pool job, no ticket.
  /// Safe to call from a front-end's I/O thread; a hit costs one shard
  /// lock. nullopt means "not answerable here" (cache disabled, the
  /// algorithm never resolved, resources that would fail validation, or
  /// a plain miss): fall back to submit(), which produces the typed
  /// error or computes — and records the one authoritative cache miss
  /// (a probe miss counts nothing).
  [[nodiscard]] std::optional<ScheduleResponse> try_cached(
      const ScheduleRequest& req);

  [[nodiscard]] CacheStats cache_stats() const { return cache_.stats(); }
  [[nodiscard]] QueueStats queue_stats() const { return queue_->stats(); }
  [[nodiscard]] InstanceStore::Stats store_stats() const {
    return store_.stats();
  }
  [[nodiscard]] const ServiceConfig& config() const { return config_; }

  /// The registry this service records into (the configured one, or the
  /// private default). Snapshot it for the Prometheus exposition; its
  /// collectors reference this service, so don't snapshot a registry
  /// that outlives the service it was configured into.
  [[nodiscard]] obs::MetricsRegistry& registry() const { return *registry_; }
  [[nodiscard]] const std::shared_ptr<obs::MetricsRegistry>&
  registry_ptr() const {
    return registry_;
  }

  /// Drops all cached results (counters survive; interned trees stay).
  void clear_cache() { cache_.clear(); }

 private:
  struct InFlight {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    CachedResultPtr result;
    std::exception_ptr error;
  };

  /// The single enforcement point: resolves, validates, computes (via
  /// cache + in-flight dedup) and classifies every failure into a
  /// ServiceError. Never throws. Mutable `req` because it stamps the
  /// compute stages and hands the stamps back in the response.
  ServiceResult evaluate(ScheduleRequest& req);

  /// Wires the stage/algorithm histograms and the legacy-stats bridge
  /// into registry_. Called once from the constructor.
  void init_metrics();

  /// Feeds the per-class and aggregate stage histograms from a settled
  /// request's stamps (queued requests only; inline worker submissions
  /// have no admit/dequeue stamps and skip the queue stages).
  void record_stage_metrics(const ScheduleRequest& req);

  /// The (stateless, shared) scheduler for `algo`, created through the
  /// registry on first use.
  std::shared_ptr<const Scheduler> resolve(const std::string& algo);

  /// Cache identity of `req` (normalizes p for sequential-only algos).
  ResultKey key_for(const ScheduleRequest& req, const Scheduler& sched) const;

  /// Computes (or waits for a concurrent twin computing) `key`.
  /// `shared_from_twin` is set when the result came from a concurrent
  /// twin's computation rather than our own.
  CachedResultPtr compute_deduplicated(const ResultKey& key,
                                       const ScheduleRequest& req,
                                       const Scheduler& sched,
                                       bool& shared_from_twin);
  CachedResultPtr compute(const ScheduleRequest& req, const Scheduler& sched);

  /// Services one admission-queue pop: answers every expired entry with
  /// kDeadlineExpired and computes the live one, if any. One call per
  /// admitted entry is enqueued on the shared pool; any call may answer a
  /// request other than the one whose admission enqueued it — that is
  /// what makes class preemption work on a FIFO pool — and a call whose
  /// entry was cancelled finds correspondingly less work.
  void drain_one();

  ServiceConfig config_;
  std::shared_ptr<obs::MetricsRegistry> registry_;
  /// Collector liveness guard: collectors capture a weak_ptr to this and
  /// bail once the service is gone, so a shared registry that outlives
  /// the service degrades to missing samples instead of UB.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  /// Stage histograms, indexed by priority class; [kPriorityClasses] is
  /// the class="all" aggregate (the one the decomposition test and the
  /// stats-verb quantiles read). Raw unit: nanoseconds.
  obs::Histogram* h_queue_wait_[kPriorityClasses + 1] = {};
  obs::Histogram* h_dispatch_ = nullptr;
  obs::Histogram* h_compute_[kPriorityClasses + 1] = {};
  obs::Histogram* h_e2e_[kPriorityClasses + 1] = {};
  InstanceStore store_;
  ResultCache cache_;
  /// Shared with every queued Ticket so cancel() stays safe even after
  /// the service is destroyed (the queue is drained by then, so such a
  /// cancel finds nothing and returns false).
  std::shared_ptr<RequestQueue> queue_;

  /// Read-mostly after warm-up: every request resolves its scheduler, so
  /// the found path takes only a shared lock.
  mutable std::shared_mutex schedulers_mutex_;
  std::unordered_map<std::string, std::shared_ptr<const Scheduler>>
      schedulers_;

  std::mutex inflight_mutex_;
  std::unordered_map<ResultKey, std::shared_ptr<InFlight>, ResultKeyHash>
      inflight_;

  /// Active servicers — pool-submitted drain jobs plus in-progress inline
  /// worker computations, each registered before its entry is admitted;
  /// the destructor waits for zero so nothing outlives the service.
  std::mutex async_mutex_;
  std::condition_variable async_cv_;
  std::size_t async_outstanding_ = 0;
};

/// The queue/cache/store counters a `stats` protocol line reports, in a
/// stable order — the single source both wire front-ends (stdin and
/// TCP) share, so their stats vocabularies cannot silently diverge.
/// Front-ends prepend their transport-specific keys (connection counts,
/// window depth) before these. The legacy fourteen keys lead unchanged;
/// after them come the per-class queue keys, the shared pool's
/// counters, and the stage-histogram summaries
/// (<key>_count/_p50_us/_p90_us/_p99_us) from the service's registry.
std::vector<std::pair<std::string, std::uint64_t>> service_stats_pairs(
    const SchedulingService& service);

}  // namespace treesched
