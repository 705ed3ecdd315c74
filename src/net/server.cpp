#include "net/server.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

#include "campaign/dataset.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace treesched::net {

namespace {

HostConfig host_config(const ServerConfig& c) {
  HostConfig h = shared_host_config(c);
  h.tier = "server";
  h.cancel_too_late = "running";
  h.local = c.local;
  h.listener = ListenerConfig{
      .bind = c.bind, .port = c.port, .unix_path = c.unix_path};
  return h;
}

}  // namespace

Server::Server(SchedulingService& service, ServerConfig config)
    : SessionHost(host_config(config)),
      service_(service),
      config_(std::move(config)) {
  init_metrics();
  serve_metrics(service_.registry());
}

Server::~Server() {
  *alive_ = false;  // the service's registry outlives this server
  close_sessions();
}

void Server::init_metrics() {
  obs::MetricsRegistry& reg = service_.registry();
  // The bridge reads loop-thread counters without synchronization — see
  // the declaration comment for why every snapshot consumer is that
  // same thread. Empty stats_key throughout: the `stats` verb reports
  // these counters directly (transport keys lead the stats line).
  reg.register_collector(
      [this, alive = std::weak_ptr<bool>(alive_)](obs::RegistrySnapshot& out) {
        if (alive.expired()) return;
        const SessionCounters& sc = session_counters_;
        auto counter = [&](const char* name, const char* help, double v) {
          out.samples.push_back(obs::MetricSample{
              name, "", help, obs::MetricKind::kCounter, v, ""});
        };
        auto gauge = [&](const char* name, const char* help, double v) {
          out.samples.push_back(obs::MetricSample{
              name, "", help, obs::MetricKind::kGauge, v, ""});
        };
        counter("treesched_server_accepted_total", "Connections accepted",
                static_cast<double>(sc.accepted));
        counter("treesched_server_rejected_conns_total",
                "Connections turned away at max_conns",
                static_cast<double>(sc.rejected_conns));
        counter("treesched_server_requests_total",
                "Requests framed (text lines and binary payloads alike)",
                static_cast<double>(sc.lines));
        counter("treesched_server_submitted_total",
                "Tickets submitted to the service",
                static_cast<double>(submitted_));
        counter("treesched_server_v3_conns_total",
                "Connections that negotiated binary protocol v3",
                static_cast<double>(sc.v3_conns));
        counter("treesched_server_frames_total",
                "Well-formed v3 frames parsed",
                static_cast<double>(sc.frames_in));
        counter("treesched_server_frames_bad_total",
                "Protocol-violating v3 frames",
                static_cast<double>(sc.frames_bad));
        counter("treesched_server_batch_requests_total",
                "Requests that arrived inside batch frames",
                static_cast<double>(sc.batch_requests));
        counter("treesched_server_parse_errors_total",
                "Requests rejected by the grammar",
                static_cast<double>(sc.parse_errors));
        gauge("treesched_server_connections", "Open connections",
              static_cast<double>(session_count()));
        gauge("treesched_server_outstanding",
              "Submitted tickets not yet settled",
              static_cast<double>(outstanding()));
      });
  register_slo_gauges(
      reg, "treesched_slo_error_ratio",
      "Errored share of responses over the sliding last-minute window");
  h_net_e2e_ = &reg.histogram(
      "treesched_net_e2e_seconds", "",
      "Accept-to-flush wall time of one served request",
      obs::Histogram::latency_bounds_ns(), 1e-9, "net_e2e");
  for (int c = 0; c < kPriorityClasses; ++c) {
    std::string labels = "class=\"";
    labels.append(to_string(static_cast<Priority>(c))).append("\"");
    // The per-class rolling p99 SLO gauges ride these histograms'
    // sliding windows (exported as treesched_net_e2e_seconds_window).
    h_e2e_class_[c] = &reg.histogram(
        "treesched_net_e2e_seconds", labels,
        "Accept-to-flush wall time of one served request",
        obs::Histogram::latency_bounds_ns(), 1e-9, "");
  }
  for (int c = 0; c <= kPriorityClasses; ++c) {
    const char* label =
        c == kPriorityClasses ? "all" : to_string(static_cast<Priority>(c));
    std::string labels = "stage=\"write_stall\",class=\"";
    labels.append(label).append("\"");
    h_write_stall_[c] = &reg.histogram(
        "treesched_stage_seconds", labels,
        "Per-stage latency of one request's lifecycle",
        obs::Histogram::latency_bounds_ns(), 1e-9,
        c == kPriorityClasses ? "stage_write_stall" : "");
  }
}

void Server::schedule(Session& session, std::uint64_t key,
                      const RequestView& req, const TraceContext& ctx) {
  Result<TreeHandle, ServiceError> handle = intern_spec(req.tree_spec);
  if (!handle.ok()) {
    session.settle(key, ResponseLine::error(handle.error().code,
                                            handle.error().message));
    return;
  }
  // The single owned copy of the request's strings: everything upstream
  // of this point was views into the read buffer.
  Reply meta;
  meta.tree_hash = handle.value().hash;
  meta.n = handle.value()->size();
  meta.algo = std::string(req.algo);
  meta.p = req.p;
  meta.priority = req.priority;
  meta.trace_id = ctx.trace_id;
  ScheduleRequest sreq;
  // Accept and parse are stamped at burst granularity: sub-burst parse
  // time is noise at the histograms' microsecond resolution, and sharing
  // the stamp keeps the hot path at one clock read per read burst.
  sreq.stamps.stamp(obs::Stage::kAccept, session.burst_ns());
  sreq.stamps.stamp(obs::Stage::kParse, session.burst_ns());
  sreq.tree = handle.value();
  sreq.algo = meta.algo;
  sreq.p = req.p;
  sreq.memory_cap = req.memory_cap;
  sreq.priority = req.priority;
  sreq.deadline_ms = req.deadline_ms;

  // Cache-hit fast path, right here on the I/O thread: a hit settles
  // the window entry immediately — no ticket, no queue, no pool job, no
  // eventfd round trip — and flushes with the read burst, so a cache-hot
  // batch frame answers in one coalesced write. Ordering is preserved
  // because the answer still rides the pending window.
  if (auto hit = service_.try_cached(sreq)) {
    reply(session, key, meta, ServiceResult(std::move(*hit)));
    return;
  }

  ++submitted_;
  const JobKey job_key{session.id(), key};
  Job& job = jobs_[job_key];
  job.reply = std::move(meta);
  job.ticket = service_.submit(std::move(sreq));
  // Attached after the job is registered: an already-settled ticket
  // (service-level queue_full) fires inline and posts, and the posted
  // job_settled finds its job. The callback runs on whichever thread
  // settles the ticket; the copy hands the result to the loop thread,
  // and the job is retired only there, so the drain cannot finish while
  // a completion is still in flight toward the loop.
  job.ticket.on_complete([this, job_key](const ServiceResult& result) {
    loop().post([this, job_key, result] {
      job_settled(job_key.first, job_key.second, result);
    });
  });
}

void Server::job_settled(std::uint64_t conn_id, std::uint64_t key,
                         const ServiceResult& result) {
  const auto it = jobs_.find(JobKey{conn_id, key});
  if (it == jobs_.end()) return;
  if (Session* s = session(conn_id)) reply(*s, key, it->second.reply, result);
  jobs_.erase(it);
  if (draining()) maybe_finish();
}

void Server::reply(Session& session, std::uint64_t key, const Reply& meta,
                    const ServiceResult& result) {
  if (!result.ok()) {
    session.settle(key, ResponseLine::error(result.error().code,
                                            result.error().message));
    return;
  }
  const ScheduleResponse& resp = result.value();
  ResponseLine line;
  line.ok = true;
  line.tree_hash = meta.tree_hash;
  line.n = meta.n;
  line.algo = meta.algo;
  line.p = meta.p;
  line.makespan = resp.makespan;
  line.peak_memory = resp.peak_memory;
  line.cache_hit = resp.cache_hit;
  line.priority = meta.priority;
  // Requests born before stamping (in-process callers' cached entries)
  // carry no stamps worth a histogram.
  std::optional<ResponseTiming> timing;
  if (resp.stamps.has(obs::Stage::kAccept)) {
    timing.emplace();
    timing->stamps = resp.stamps;
    timing->priority = meta.priority;
    timing->algo = meta.algo;
    timing->cache_hit = resp.cache_hit;
    timing->trace_id = meta.trace_id;
  }
  session.settle(key, std::move(line), std::move(timing));
}

bool Server::cancel(Session& session, std::uint64_t key) {
  // On success the ticket settled with code=cancelled; its completion is
  // already posted to the loop and answers the entry.
  const auto it = jobs_.find(JobKey{session.id(), key});
  return it != jobs_.end() && it->second.ticket.cancel();
}

void Server::abandon(std::uint64_t conn_id, std::uint64_t key) {
  // A vanished client's queued work must not occupy a worker. Tickets a
  // worker already picked up run to completion; their settlements find
  // the session gone and only retire the job.
  const auto it = jobs_.find(JobKey{conn_id, key});
  if (it != jobs_.end()) (void)it->second.ticket.cancel();
}

std::vector<std::pair<std::string, std::uint64_t>> Server::stats_pairs()
    const {
  const SessionCounters& sc = session_counters_;
  const CacheStats cs = service_.cache_stats();
  const QueueStats qs = service_.queue_stats();
  const InstanceStore::Stats ss = service_.store_stats();
  std::uint64_t admitted = 0, completed = 0, expired = 0, cancelled = 0,
                rejected = 0;
  for (const ClassQueueStats& c : qs.by_class) {
    admitted += c.admitted;
    completed += c.completed;
    expired += c.expired;
    cancelled += c.cancelled;
    rejected += c.rejected;
  }
  // Transport counters, then the legacy fourteen service keys in their
  // fixed order; after them only additive vocabulary: per-class queue
  // keys, the shared pool, and the stage-histogram summaries
  // (<key>_count/_p50_us/_p90_us/_p99_us) from the service's registry.
  std::vector<std::pair<std::string, std::uint64_t>> out = {
      {"conns", session_count()},
      {"accepted", sc.accepted},
      {"rejected_conns", sc.rejected_conns},
      {"lines", sc.lines},
      {"submitted", submitted_},
      {"outstanding", outstanding()},
      {"v3_conns", sc.v3_conns},
      {"frames_in", sc.frames_in},
      {"frames_bad", sc.frames_bad},
      {"batch_requests", sc.batch_requests},
      {"parse_errors", sc.parse_errors},
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
  static constexpr const char* kClassKey[kPriorityClasses] = {
      "interactive", "batch", "bulk"};
  for (std::size_t c = 0; c < kPriorityClasses; ++c) {
    const ClassQueueStats& q = qs.by_class[c];
    const std::string suffix = std::string("_") + kClassKey[c];
    out.emplace_back("queue_pending" + suffix, q.pending);
    out.emplace_back("queue_admitted" + suffix, q.admitted);
    out.emplace_back("queue_completed" + suffix, q.completed);
    out.emplace_back("queue_expired" + suffix, q.expired);
    out.emplace_back("queue_cancelled" + suffix, q.cancelled);
    out.emplace_back("queue_rejected" + suffix, q.rejected);
    out.emplace_back("queue_aged" + suffix, q.aged);
    out.emplace_back(
        "queue_wait_p99_us" + suffix,
        static_cast<std::uint64_t>(std::max(0.0, q.wait_ms_p99 * 1000.0)));
  }
  const ThreadPool::Stats ps = ThreadPool::shared().stats();
  out.emplace_back("pool_threads", ps.threads);
  out.emplace_back("pool_submitted", ps.submitted);
  out.emplace_back("pool_executed", ps.executed);
  out.emplace_back("pool_pending", ps.pending);
  for (auto& kv : service_.registry().snapshot().stats_pairs()) {
    out.push_back(std::move(kv));
  }
  return out;
}

void Server::trace_dump(Session& session, std::uint64_t key,
                        std::string path) {
  obs::Tracer& tracer = obs::Tracer::global();
  std::ofstream out{path};
  if (!out) {
    session.settle(key, ResponseLine::error(
                            ErrorCode::kBadRequest,
                            "cannot open trace path \"" + path +
                                "\" for writing"));
    return;
  }
  const std::uint64_t written = tracer.write_chrome_trace(out);
  if (!out) {
    session.settle(key, ResponseLine::error(
                            ErrorCode::kBadRequest,
                            "short write dumping trace to \"" + path + "\""));
    return;
  }
  ResponseLine line;
  line.kind = ResponseLine::Kind::kTrace;
  line.ok = true;
  line.stats = {
      {"enabled", tracer.enabled() ? 1 : 0},
      {"spans", tracer.recorded()},
      {"dropped", tracer.dropped()},
      {"written", written},
  };
  session.settle(key, std::move(line));
}

void Server::record_flushed(const ResponseTiming& timing) {
  using obs::Stage;
  const obs::StageStamps& st = timing.stamps;
  const std::uint64_t e2e = st.between(Stage::kAccept, Stage::kFlush);
  const std::uint64_t stall = st.between(Stage::kSerialize, Stage::kFlush);
  h_net_e2e_->record(e2e);
  int cls = static_cast<int>(timing.priority);
  if (cls < 0 || cls >= kPriorityClasses) cls = kPriorityClasses;
  if (cls != kPriorityClasses) h_e2e_class_[cls]->record(e2e);
  h_write_stall_[cls]->record(stall);
  if (cls != kPriorityClasses) h_write_stall_[kPriorityClasses]->record(stall);
  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.enabled() && st.has(Stage::kAccept)) {
    // The net-layer residency spans, stamped from the stage record at
    // flush time so the hot path pays nothing while tracing is off.
    // Both carry the propagated trace id — the hook a merged cluster
    // dump correlates router and backend timelines by.
    tracer.record("net/accept", st.at(Stage::kAccept), e2e, timing.trace_id);
    if (st.has(Stage::kSerialize)) {
      tracer.record("net/flush", st.at(Stage::kSerialize), stall,
                    timing.trace_id);
    }
  }
  if (config_.slow_ms <= 0.0 ||
      static_cast<double>(e2e) < config_.slow_ms * 1e6) {
    return;
  }
  obs::EventLog::global().emit(
      "slow_request", timing.trace_id,
      {obs::EventLog::Field::u64("id", timing.id.value_or(0)),
       obs::EventLog::Field::str("class", to_string(timing.priority)),
       obs::EventLog::Field::str("algo", timing.algo),
       obs::EventLog::Field::u64("e2e_us", e2e / 1000),
       obs::EventLog::Field::u64("cache_hit", timing.cache_hit ? 1 : 0)});
  // One stderr line per slow request, built whole in one fputs so it
  // cannot interleave mid-line with other writers of the process's
  // stderr (schedule_service's --stats summary, error reports).
  std::string line = "[treesched] slow request";
  if (timing.id) line.append(" id=").append(std::to_string(*timing.id));
  if (!timing.algo.empty()) line.append(" algo=").append(timing.algo);
  line.append(" class=").append(to_string(timing.priority));
  if (timing.cache_hit) line.append(" cache_hit=1");
  char buf[64];
  std::snprintf(buf, sizeof(buf), " e2e=%.3fms",
                static_cast<double>(e2e) / 1e6);
  line.append(buf);
  const auto stage_delta = [&](const char* name, Stage from, Stage to) {
    if (!st.has(from) || !st.has(to)) return;
    std::snprintf(buf, sizeof(buf), " %s=%.3fms", name,
                  static_cast<double>(st.between(from, to)) / 1e6);
    line.append(buf);
  };
  stage_delta("parse", Stage::kAccept, Stage::kParse);
  stage_delta("admit", Stage::kParse, Stage::kAdmit);
  stage_delta("queue_wait", Stage::kAdmit, Stage::kDequeue);
  stage_delta("dispatch", Stage::kDequeue, Stage::kComputeStart);
  stage_delta("compute", Stage::kComputeStart, Stage::kComputeEnd);
  stage_delta("settle", Stage::kComputeEnd, Stage::kSerialize);
  stage_delta("write_stall", Stage::kSerialize, Stage::kFlush);
  line.push_back('\n');
  std::fputs(line.c_str(), stderr);
}

Result<TreeHandle, ServiceError> Server::intern_spec(std::string_view spec) {
  // Heterogeneous find: the hot path (a spec seen before, which is what
  // a steady workload looks like) costs zero allocations even when the
  // spec is a view into a v3 frame buffer.
  const auto it = spec_memo_.find(spec);
  if (it != spec_memo_.end()) return it->second;
  try {
    // A network spec is raw client input: bound generator sizes before
    // any allocation and confine (or refuse) file: reads. The limits
    // throw BEFORE read_tree_file or a generator runs, so the error text
    // can never carry filesystem contents. A local server's specs come
    // from its operator and resolve unbounded (TreeSpecOptions{}).
    TreeSpecOptions limits;
    if (!config_.local) {
      limits.max_nodes = config_.max_spec_nodes;
      limits.allow_file = !config_.tree_dir.empty();
      limits.file_dir = config_.tree_dir;
      limits.max_file_bytes = config_.max_spec_bytes;
    }
    // try_intern keeps store rejection typed (kStoreFull); only spec
    // resolution itself (file IO, generator args) still throws.
    Result<TreeHandle, ServiceError> handle =
        service_.try_intern(tree_from_spec(std::string(spec), limits));
    if (handle.ok()) spec_memo_.emplace(std::string(spec), handle.value());
    return handle;
  } catch (const std::exception& e) {
    return ServiceError{ErrorCode::kBadRequest, e.what(),
                        std::current_exception()};
  }
}

}  // namespace treesched::net
