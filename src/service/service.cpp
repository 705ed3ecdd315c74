#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/simulator.hpp"
#include "obs/trace.hpp"
#include "sched/validate.hpp"
#include "util/thread_pool.hpp"

namespace treesched {

namespace {
using obs::Stage;

constexpr const char* kClassLabel[kPriorityClasses + 1] = {
    "interactive", "batch", "bulk", "all"};
}  // namespace

SchedulingService::SchedulingService(ServiceConfig config)
    : config_(config),
      registry_(config.registry ? config.registry
                                : std::make_shared<obs::MetricsRegistry>()),
      store_(config.store),
      cache_(config.cache_bytes, config.cache_shards),
      queue_(std::make_shared<RequestQueue>(config.queue)) {
  init_metrics();
}

void SchedulingService::init_metrics() {
  auto stage_hist = [&](const char* stage, std::size_t cls,
                        const std::string& stats_key) -> obs::Histogram* {
    std::string labels = "stage=\"";
    labels += stage;
    labels += "\",class=\"";
    labels += kClassLabel[cls];
    labels += "\"";
    return &registry_->histogram(
        "treesched_stage_seconds", labels,
        "Per-stage request latency by priority class",
        obs::Histogram::latency_bounds_ns(), 1e-9, stats_key);
  };
  for (std::size_t c = 0; c <= kPriorityClasses; ++c) {
    // Only the class="all" aggregates carry stats keys: the stats verb
    // stays bounded while Prometheus gets every class series.
    const bool agg = c == kPriorityClasses;
    h_queue_wait_[c] =
        stage_hist("queue_wait", c, agg ? "stage_queue_wait" : "");
    h_compute_[c] = stage_hist("compute", c, agg ? "stage_compute" : "");
    h_e2e_[c] = c == kPriorityClasses
                    ? &registry_->histogram(
                          "treesched_request_e2e_seconds", "",
                          "Admission-to-settlement request latency",
                          obs::Histogram::latency_bounds_ns(), 1e-9, "e2e")
                    : &registry_->histogram(
                          "treesched_request_e2e_seconds",
                          std::string("class=\"") + kClassLabel[c] + "\"",
                          "Admission-to-settlement request latency",
                          obs::Histogram::latency_bounds_ns(), 1e-9, "");
  }
  h_dispatch_ = stage_hist("dispatch", kPriorityClasses, "stage_dispatch");

  // Legacy-stats bridge: cache/queue/store/pool accessors stay the
  // source of truth; this collector projects them into the exposition
  // at snapshot time. All of them read atomics or take their own locks,
  // so a scrape from any thread is safe.
  registry_->register_collector(
      [this, alive = std::weak_ptr<bool>(alive_)](obs::RegistrySnapshot& out) {
        if (alive.expired()) return;
        const CacheStats cs = cache_stats();
        const QueueStats qs = queue_stats();
        const InstanceStore::Stats ss = store_stats();
        const ThreadPool::Stats ps = ThreadPool::shared().stats();
        auto counter = [&](const char* name, const char* help,
                           std::string labels, double v) {
          out.samples.push_back(obs::MetricSample{
              name, std::move(labels), help, obs::MetricKind::kCounter, v, ""});
        };
        auto gauge = [&](const char* name, const char* help,
                         std::string labels, double v) {
          out.samples.push_back(obs::MetricSample{
              name, std::move(labels), help, obs::MetricKind::kGauge, v, ""});
        };
        for (std::size_t c = 0; c < kPriorityClasses; ++c) {
          const ClassQueueStats& q = qs.by_class[c];
          std::string cls = "class=\"";
          cls += kClassLabel[c];
          cls += "\"";
          counter("treesched_queue_admitted_total",
                  "Requests pushed at admission, accepted or rejected", cls,
                  static_cast<double>(q.admitted));
          counter("treesched_queue_rejected_total",
                  "Requests turned away at admission (queue full)", cls,
                  static_cast<double>(q.rejected));
          counter("treesched_queue_completed_total",
                  "Requests popped live and handed to a worker", cls,
                  static_cast<double>(q.completed));
          counter("treesched_queue_expired_total",
                  "Requests whose deadline lapsed while queued", cls,
                  static_cast<double>(q.expired));
          counter("treesched_queue_cancelled_total",
                  "Requests removed while queued by cancel", cls,
                  static_cast<double>(q.cancelled));
          counter("treesched_queue_aged_total",
                  "Priority-class promotions granted to waiting requests",
                  cls, static_cast<double>(q.aged));
          gauge("treesched_queue_pending", "Currently queued requests", cls,
                static_cast<double>(q.pending));
        }
        counter("treesched_cache_hits_total", "Result-cache hits", "",
                static_cast<double>(cs.hits));
        counter("treesched_cache_misses_total", "Result-cache misses", "",
                static_cast<double>(cs.misses));
        counter("treesched_cache_evictions_total", "Result-cache evictions",
                "", static_cast<double>(cs.evictions));
        gauge("treesched_cache_entries", "Cached results resident", "",
              static_cast<double>(cs.entries));
        gauge("treesched_cache_bytes", "Result-cache bytes resident", "",
              static_cast<double>(cs.bytes));
        gauge("treesched_store_trees", "Interned trees resident", "",
              static_cast<double>(ss.unique_trees));
        gauge("treesched_store_bytes", "Instance-store bytes resident", "",
              static_cast<double>(ss.bytes));
        counter("treesched_store_rejected_total",
                "Trees rejected by the instance-store byte budget", "",
                static_cast<double>(ss.rejected));
        gauge("treesched_pool_threads", "Shared thread-pool workers", "",
              static_cast<double>(ps.threads));
        counter("treesched_pool_submitted_total",
                "Jobs enqueued on the shared pool", "",
                static_cast<double>(ps.submitted));
        counter("treesched_pool_executed_total",
                "Jobs finished on the shared pool", "",
                static_cast<double>(ps.executed));
        gauge("treesched_pool_pending", "Jobs enqueued, not yet picked up",
              "", static_cast<double>(ps.pending));
      });
}

void SchedulingService::record_stage_metrics(const ScheduleRequest& req) {
  const auto& st = req.stamps;
  if (!st.has(Stage::kAdmit) || !st.has(Stage::kComputeEnd)) return;
  const auto cls = static_cast<std::size_t>(req.priority);
  const std::uint64_t queue_wait = st.between(Stage::kAdmit, Stage::kDequeue);
  const std::uint64_t dispatch =
      st.between(Stage::kDequeue, Stage::kComputeStart);
  const std::uint64_t compute =
      st.between(Stage::kComputeStart, Stage::kComputeEnd);
  const std::uint64_t e2e = st.between(Stage::kAdmit, Stage::kComputeEnd);
  h_queue_wait_[cls]->record(queue_wait);
  h_queue_wait_[kPriorityClasses]->record(queue_wait);
  h_dispatch_->record(dispatch);
  h_compute_[cls]->record(compute);
  h_compute_[kPriorityClasses]->record(compute);
  h_e2e_[cls]->record(e2e);
  h_e2e_[kPriorityClasses]->record(e2e);
  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.enabled()) {
    tracer.record("queue_wait", st.at(Stage::kAdmit), queue_wait,
                  req.tree.uid);
  }
}

SchedulingService::~SchedulingService() {
  // One registered servicer covers every queued entry from before it is
  // admitted until it is answered (nested worker submissions never touch
  // the queue — they compute synchronously), so once the count reaches
  // zero the queue is empty, every ticket has settled, and nothing still
  // references this service — tearing down cannot strand a ticket or
  // leave a drain touching freed state. Cancelled entries leave their
  // servicer job with less work, never with a dangling reference, and
  // abandoned tickets are irrelevant here: the drain counts servicers,
  // not waiters.
  std::unique_lock<std::mutex> lock(async_mutex_);
  async_cv_.wait(lock, [&] { return async_outstanding_ == 0; });
}

Result<TreeHandle, ServiceError> SchedulingService::try_intern(Tree tree) {
  return store_.try_intern(std::move(tree));
}

TreeHandle SchedulingService::intern(Tree tree) {
  return store_.intern(std::move(tree));
}

std::shared_ptr<const Scheduler> SchedulingService::resolve(
    const std::string& algo) {
  {
    const std::shared_lock<std::shared_mutex> lock(schedulers_mutex_);
    const auto it = schedulers_.find(algo);
    if (it != schedulers_.end()) return it->second;
  }
  const std::unique_lock<std::shared_mutex> lock(schedulers_mutex_);
  const auto it = schedulers_.find(algo);  // re-check: we raced a writer
  if (it != schedulers_.end()) return it->second;
  // Throws std::invalid_argument listing the known names on a typo.
  std::shared_ptr<const Scheduler> sched =
      SchedulerRegistry::instance().create(algo);
  schedulers_.emplace(algo, sched);
  return sched;
}

ResultKey SchedulingService::key_for(const ScheduleRequest& req,
                                     const Scheduler& sched) const {
  ResultKey key;
  key.tree_uid = req.tree.uid;
  key.algo = req.algo;
  // Sequential-only algorithms ignore p, so every p maps to one cache
  // entry — a campaign's cross-p sweep of Liu/BestPostorder/... computes
  // each tree once and hits thereafter.
  key.p = sched.capabilities().sequential_only ? 1 : req.p;
  key.memory_cap = req.memory_cap;
  return key;
}

std::optional<ScheduleResponse> SchedulingService::try_cached(
    const ScheduleRequest& req) {
  if (!cache_.enabled() || !req.tree) return std::nullopt;
  std::shared_ptr<const Scheduler> sched;
  {
    const std::shared_lock<std::shared_mutex> lock(schedulers_mutex_);
    const auto it = schedulers_.find(req.algo);
    // Never resolved means never computed, so there cannot be a cache
    // entry — and an unknown algorithm's typed error stays on the slow
    // path instead of being re-diagnosed per probe.
    if (it == schedulers_.end()) return std::nullopt;
    sched = it->second;
  }
  try {
    // Sequential-only algorithms normalize p to 1 in the key, so an
    // invalid p could still collide with a cached entry: requests the
    // slow path would reject must never be answered from the cache.
    validate_resources(Resources{req.p, req.memory_cap},
                       sched->capabilities(), req.algo);
  } catch (...) {
    return std::nullopt;
  }
  CachedResultPtr result = cache_.peek(key_for(req, *sched));
  if (!result) return std::nullopt;
  ScheduleResponse resp;
  resp.makespan = result->makespan;
  resp.peak_memory = result->peak_memory;
  resp.cache_hit = true;
  resp.stamps = req.stamps;  // no queue/compute stages on the fast path
  if (req.want_schedule) {
    resp.schedule = std::shared_ptr<const Schedule>(result, &result->schedule);
  }
  return resp;
}

ServiceResult SchedulingService::evaluate(ScheduleRequest& req) {
  req.stamps.stamp(Stage::kComputeStart);
  if (!req.tree) {
    return ServiceError{
        ErrorCode::kInvalidResources,
        "service: request carries no tree (intern one first)", nullptr};
  }
  std::shared_ptr<const Scheduler> sched;
  try {
    sched = resolve(req.algo);
  } catch (const std::exception& e) {
    return ServiceError{ErrorCode::kUnknownAlgorithm, e.what(),
                        std::current_exception()};
  } catch (...) {
    return ServiceError{ErrorCode::kUnknownAlgorithm,
                        "non-standard exception resolving " + req.algo,
                        std::current_exception()};
  }
  try {
    // Fail invalid resources before they reach the cache or in-flight
    // table; same uniform message the scheduler itself would produce.
    validate_resources(Resources{req.p, req.memory_cap},
                       sched->capabilities(), req.algo);
  } catch (const std::exception& e) {
    return ServiceError{ErrorCode::kInvalidResources, e.what(),
                        std::current_exception()};
  } catch (...) {
    return ServiceError{ErrorCode::kInvalidResources,
                        "non-standard exception validating resources for " +
                            req.algo,
                        std::current_exception()};
  }

  try {
    bool hit = false;
    CachedResultPtr result;
    if (cache_.enabled()) {
      const ResultKey key = key_for(req, *sched);
      result = cache_.get(key);
      if (result) {
        hit = true;
      } else {
        result = compute_deduplicated(key, req, *sched, hit);
      }
    } else {
      // Cache disabled: the honest uncached path. No in-flight sharing
      // either — every request pays its own compute, which is exactly
      // what bench_service's baseline must measure.
      result = compute(req, *sched);
    }

    ScheduleResponse resp;
    resp.makespan = result->makespan;
    resp.peak_memory = result->peak_memory;
    resp.cache_hit = hit;
    if (req.want_schedule) {
      resp.schedule =
          std::shared_ptr<const Schedule>(result, &result->schedule);
    }
    req.stamps.stamp(Stage::kComputeEnd);
    resp.stamps = req.stamps;
    record_stage_metrics(req);
    return resp;
  } catch (const std::exception& e) {
    return ServiceError{ErrorCode::kSchedulerFailure, e.what(),
                        std::current_exception()};
  } catch (...) {
    // The Scheduler interface does not forbid non-std exceptions. They
    // must still become values here: escaping would skip the servicer's
    // release() (deadlocking the destructor's drain) and terminate the
    // pool worker.
    return ServiceError{ErrorCode::kSchedulerFailure,
                        "non-standard exception from " + req.algo,
                        std::current_exception()};
  }
}

CachedResultPtr SchedulingService::compute_deduplicated(
    const ResultKey& key, const ScheduleRequest& req, const Scheduler& sched,
    bool& shared_from_twin) {
  std::shared_ptr<InFlight> flight;
  bool leader = false;
  {
    const std::lock_guard<std::mutex> lock(inflight_mutex_);
    auto& slot = inflight_[key];
    if (!slot) {
      slot = std::make_shared<InFlight>();
      leader = true;
    }
    flight = slot;
  }

  if (!leader) {
    // A twin request is already computing this key: wait for its result
    // instead of duplicating the work. (If the leader published to the
    // cache and retired before we reached the in-flight table, we become
    // a leader ourselves and recompute — a rare, benign duplication.)
    std::unique_lock<std::mutex> lock(flight->mutex);
    flight->cv.wait(lock, [&] { return flight->done; });
    if (flight->error) std::rethrow_exception(flight->error);
    shared_from_twin = true;  // answered without computing: a cache_hit
    return flight->result;
  }

  CachedResultPtr result;
  std::exception_ptr error;
  try {
    result = compute(req, sched);
    cache_.put(key, result);
  } catch (...) {
    error = std::current_exception();
  }
  {
    const std::lock_guard<std::mutex> lock(inflight_mutex_);
    inflight_.erase(key);
  }
  {
    const std::lock_guard<std::mutex> lock(flight->mutex);
    flight->result = result;
    flight->error = error;
    flight->done = true;
  }
  flight->cv.notify_all();
  if (error) std::rethrow_exception(error);
  return result;
}

CachedResultPtr SchedulingService::compute(const ScheduleRequest& req,
                                           const Scheduler& sched) {
  const std::uint64_t started = obs::now_ns();
  Schedule s =
      sched.schedule(*req.tree, Resources{req.p, req.memory_cap});
  if (config_.validate) {
    const ScheduleCheck v =
        check_schedule(*req.tree, s, req.p, req.memory_cap);
    if (!v.ok) {
      throw std::logic_error("service: invalid schedule from " + req.algo +
                             ": " + v.error);
    }
  }
  const SimulationResult sim = simulate(*req.tree, s);
  auto result = std::make_shared<CachedResult>();
  result->makespan = sim.makespan;
  result->peak_memory = sim.peak_memory;
  result->schedule = std::move(s);

  // Per-algorithm distributions (ISSUE 7 satellite): actual scheduler
  // compute only — cache hits and twin-shared results never get here,
  // so these histograms answer "what does algorithm X cost" without a
  // campaign rerun. Registry get-or-create takes a lock, which is noise
  // against a real scheduler run.
  const std::uint64_t took = obs::now_ns() - started;
  const std::string algo_label = "algo=\"" + req.algo + "\"";
  registry_
      ->histogram("treesched_algo_compute_seconds", algo_label,
                  "Scheduler compute time by algorithm",
                  obs::Histogram::latency_bounds_ns(), 1e-9)
      .record(took);
  registry_
      ->histogram("treesched_algo_peak_memory_bytes", algo_label,
                  "Schedule peak memory by algorithm",
                  obs::Histogram::bytes_bounds(), 1.0)
      .record(static_cast<std::uint64_t>(sim.peak_memory));
  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.enabled()) {
    tracer.record(tracer.intern_name("compute:" + req.algo), started, took,
                  req.tree.uid);
  }
  return result;
}

void SchedulingService::drain_one() {
  RequestQueue::PopResult popped = queue_->pop();
  for (RequestQueue::Entry& e : popped.expired) {
    std::ostringstream os;
    os << "deadline expired: " << to_string(e.submitted) << " request ("
       << e.request.algo << ", deadline " << e.request.deadline_ms
       << " ms) spent "
       << std::chrono::duration<double, std::milli>(
              RequestQueue::Clock::now() - e.admitted)
              .count()
       << " ms queued";
    detail::complete_ticket(
        e.ticket,
        ServiceError{ErrorCode::kDeadlineExpired, os.str(), nullptr});
  }
  if (popped.entry) {
    popped.entry->request.stamps.stamp(Stage::kDequeue);
    detail::complete_ticket(popped.entry->ticket,
                            evaluate(popped.entry->request));
  }
}

Ticket SchedulingService::submit(ScheduleRequest req) {
  auto state = std::make_shared<detail::TicketState>();

  if (ThreadPool::shared().on_worker_thread()) {
    // A nested submission (a batch item or campaign fanning out from a
    // pool worker) already holds a worker: routing it through the queue
    // could deadlock — its drain job may only ever be runnable on this
    // very thread — and any inline-draining scheme must then re-balance
    // pops against entries (an entry taken by someone else's job leaves
    // that job's entry short a servicer). Compute synchronously instead,
    // like a parallel_for caller participating in its own work: the
    // request never waits, so its class and deadline are trivially
    // honored, and it is invisible to queue_stats() (never queued, so
    // never cancellable either).
    detail::complete_ticket(state, evaluate(req));
    return Ticket(std::move(state), nullptr, 0);
  }

  req.stamps.stamp(Stage::kAdmit);
  // The servicer is registered in async_outstanding_ BEFORE the entry is
  // admitted: at no instant does the queue hold an entry whose answerer
  // the destructor cannot see.
  {
    const std::lock_guard<std::mutex> lock(async_mutex_);
    ++async_outstanding_;
  }
  auto release = [this] {
    // Notify under the mutex: the moment it unlocks, the destructor may
    // observe zero and free `this`, so the cv must not be touched after.
    const std::lock_guard<std::mutex> lock(async_mutex_);
    --async_outstanding_;
    async_cv_.notify_all();
  };
  const std::optional<std::uint64_t> seq = queue_->push(std::move(req), state);
  if (!seq) {
    release();
    // Rejected at admission; the ticket already carries kQueueFull.
    return Ticket(std::move(state), nullptr, 0);
  }
  ThreadPool::shared().submit([this, release] {
    drain_one();
    release();
  });
  return Ticket(std::move(state), queue_, *seq);
}

std::vector<std::pair<std::string, std::uint64_t>> service_stats_pairs(
    const SchedulingService& service) {
  const CacheStats cs = service.cache_stats();
  const QueueStats qs = service.queue_stats();
  const InstanceStore::Stats ss = service.store_stats();
  std::uint64_t admitted = 0, completed = 0, expired = 0, cancelled = 0,
                rejected = 0;
  for (const ClassQueueStats& c : qs.by_class) {
    admitted += c.admitted;
    completed += c.completed;
    expired += c.expired;
    cancelled += c.cancelled;
    rejected += c.rejected;
  }
  std::vector<std::pair<std::string, std::uint64_t>> pairs = {
      {"queue_pending", qs.pending()},
      {"queue_admitted", admitted},
      {"queue_completed", completed},
      {"queue_expired", expired},
      {"queue_cancelled", cancelled},
      {"queue_rejected", rejected},
      {"cache_hits", cs.hits},
      {"cache_misses", cs.misses},
      {"cache_entries", cs.entries},
      {"cache_bytes", cs.bytes},
      {"cache_evictions", cs.evictions},
      {"store_trees", ss.unique_trees},
      {"store_bytes", ss.bytes},
      {"store_rejected", ss.rejected},
  };
  // Everything after the legacy block is additive vocabulary (ISSUE 7):
  // per-class queue keys (both front-ends get them from this one
  // function — that is the parity guarantee), the shared pool, and the
  // stage-histogram summaries from the service's registry.
  static constexpr const char* kClassKey[kPriorityClasses] = {
      "interactive", "batch", "bulk"};
  for (std::size_t c = 0; c < kPriorityClasses; ++c) {
    const ClassQueueStats& q = qs.by_class[c];
    const std::string suffix = std::string("_") + kClassKey[c];
    pairs.emplace_back("queue_pending" + suffix, q.pending);
    pairs.emplace_back("queue_admitted" + suffix, q.admitted);
    pairs.emplace_back("queue_completed" + suffix, q.completed);
    pairs.emplace_back("queue_expired" + suffix, q.expired);
    pairs.emplace_back("queue_cancelled" + suffix, q.cancelled);
    pairs.emplace_back("queue_rejected" + suffix, q.rejected);
    pairs.emplace_back("queue_aged" + suffix, q.aged);
    pairs.emplace_back(
        "queue_wait_p99_us" + suffix,
        static_cast<std::uint64_t>(std::max(0.0, q.wait_ms_p99 * 1000.0)));
  }
  const ThreadPool::Stats ps = ThreadPool::shared().stats();
  pairs.emplace_back("pool_threads", ps.threads);
  pairs.emplace_back("pool_submitted", ps.submitted);
  pairs.emplace_back("pool_executed", ps.executed);
  pairs.emplace_back("pool_pending", ps.pending);
  for (auto& kv : service.registry().snapshot().stats_pairs()) {
    pairs.push_back(std::move(kv));
  }
  return pairs;
}

}  // namespace treesched
