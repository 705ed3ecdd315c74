#include "cluster/router.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "campaign/dataset.hpp"
#include "obs/event_log.hpp"
#include "service/instance_store.hpp"

namespace treesched::cluster {

namespace {

/// "host:port" -> parts. Throws std::invalid_argument so a typo in
/// --nodes fails the process at startup, never at first request.
std::pair<std::string, std::uint16_t> parse_node(const std::string& spec) {
  const auto pos = spec.rfind(':');
  if (pos == std::string::npos || pos == 0 || pos + 1 == spec.size()) {
    throw std::invalid_argument("backend node \"" + spec +
                                "\" is not host:port");
  }
  const std::string host = spec.substr(0, pos);
  int port = 0;
  try {
    port = std::stoi(spec.substr(pos + 1));
  } catch (const std::exception&) {
    port = -1;
  }
  if (port <= 0 || port > 65535) {
    throw std::invalid_argument("backend node \"" + spec +
                                "\" has an invalid port");
  }
  return {host, static_cast<std::uint16_t>(port)};
}

net::HostConfig host_config(const RouterConfig& c) {
  net::HostConfig h = net::shared_host_config(c);
  h.tier = "router";
  h.cancel_too_late = "forwarded";
  h.listener = net::ListenerConfig{.bind = c.bind, .port = c.port,
                                   .unix_path = {}};
  return h;
}

}  // namespace

Router::Router(RouterConfig config)
    : SessionHost(host_config(config)),
      config_(std::move(config)),
      ring_(config_.vnodes) {
  if (config_.nodes.empty()) {
    throw std::invalid_argument("router needs at least one backend node");
  }
  if (config_.max_pending == 0 || config_.upstream_window == 0) {
    throw std::invalid_argument(
        "max_pending and upstream_window must be >= 1");
  }
  for (const std::string& spec : config_.nodes) {
    auto [host, port] = parse_node(spec);
    const std::string name = host + ":" + std::to_string(port);
    const std::size_t index = ring_.add(name);
    if (index != upstreams_.size()) {
      throw std::invalid_argument("duplicate backend node " + name);
    }
    upstreams_.push_back(
        std::make_unique<Upstream>(*this, index, std::move(host), port));
    routed_.push_back(0);
    trace_pull_failures_.push_back(0);
  }
  init_metrics();
  serve_metrics(registry_);
}

Router::~Router() {
  *alive_ = false;
  close_sessions();
  close_fd(health_timer_fd_);
}

void Router::init_metrics() {
  // Same bridge idiom as the server's: plain loop-thread counters read
  // by a collector, sound because every snapshot consumer (the stats
  // verb, the /metrics endpoint) runs on this same loop thread.
  registry_.register_collector(
      [this, alive = std::weak_ptr<bool>(alive_)](obs::RegistrySnapshot& out) {
        if (alive.expired()) return;
        const RouterCounters& rc = counters_;
        const net::SessionCounters& sc = session_counters_;
        auto counter = [&](const char* name, const char* help, double v) {
          out.samples.push_back(obs::MetricSample{
              name, "", help, obs::MetricKind::kCounter, v, ""});
        };
        auto gauge = [&](const char* name, const char* help, double v) {
          out.samples.push_back(obs::MetricSample{
              name, "", help, obs::MetricKind::kGauge, v, ""});
        };
        counter("treesched_router_accepted_total",
                "Client connections accepted",
                static_cast<double>(sc.accepted));
        counter("treesched_router_requests_total",
                "Client requests framed",
                static_cast<double>(sc.lines));
        counter("treesched_router_forwarded_total",
                "Forwards handed to a backend node",
                static_cast<double>(rc.forwarded));
        counter("treesched_router_responses_total",
                "Backend answers delivered to clients",
                static_cast<double>(rc.responses));
        counter("treesched_router_retried_total",
                "Forwards re-routed after a node death",
                static_cast<double>(rc.retried));
        counter("treesched_router_node_unavailable_total",
                "Requests answered with the typed node_unavailable error",
                static_cast<double>(rc.node_unavailable));
        counter("treesched_router_queue_full_total",
                "Requests refused by upstream backpressure",
                static_cast<double>(rc.queue_full));
        counter("treesched_router_node_failures_total",
                "Backend node-death events",
                static_cast<double>(rc.node_failures));
        counter("treesched_router_parse_errors_total",
                "Requests rejected by the grammar",
                static_cast<double>(sc.parse_errors));
        gauge("treesched_router_connections", "Open client connections",
              static_cast<double>(session_count()));
        std::size_t up = 0;
        for (const auto& node : upstreams_) {
          if (node->state() == Upstream::State::kUp) ++up;
        }
        gauge("treesched_router_nodes_up", "Backend nodes currently up",
              static_cast<double>(up));
        for (std::size_t i = 0; i < upstreams_.size(); ++i) {
          const std::string node_label =
              "node=\"" + upstreams_[i]->name() + "\"";
          out.samples.push_back(obs::MetricSample{
              "treesched_router_node_routed_total", node_label,
              "Forwards routed to this backend node",
              obs::MetricKind::kCounter, static_cast<double>(routed_[i]),
              ""});
          out.samples.push_back(obs::MetricSample{
              "treesched_router_node_disconnects_total", node_label,
              "Death events of this backend node",
              obs::MetricKind::kCounter,
              static_cast<double>(upstreams_[i]->disconnects()), ""});
          out.samples.push_back(obs::MetricSample{
              "treesched_router_node_retries_total", node_label,
              "Forwards this node's deaths handed back with retry budget",
              obs::MetricKind::kCounter,
              static_cast<double>(upstreams_[i]->retries()), ""});
          out.samples.push_back(obs::MetricSample{
              "treesched_router_node_last_error_code", node_label,
              "Numeric reason of this node's last death (0 = never died)",
              obs::MetricKind::kGauge,
              static_cast<double>(upstreams_[i]->last_error_code()), ""});
        }
      });
  // Windowed SLO error ratio per priority class, same contract as the
  // server tier's.
  register_slo_gauges(registry_, "treesched_router_slo_error_ratio",
                      "Errored share of settled requests over the sliding "
                      "last-minute window");
  h_upstream_ = &registry_.histogram(
      "treesched_router_upstream_seconds", "",
      "Forward send to backend answer, one routed request",
      obs::Histogram::latency_bounds_ns(), 1e-9, "upstream");
  for (int c = 0; c < kPriorityClasses; ++c) {
    std::string labels = "class=\"";
    labels.append(to_string(static_cast<Priority>(c))).append("\"");
    // The router's rolling per-class p99 gauges ride these histograms'
    // sliding windows (treesched_router_upstream_seconds_window).
    h_upstream_class_[c] = &registry_.histogram(
        "treesched_router_upstream_seconds", labels,
        "Forward send to backend answer, one routed request",
        obs::Histogram::latency_bounds_ns(), 1e-9, "");
  }
}

void Router::on_run() {
  // Periodic health driver: connects, pings, timeouts, stats polls. It
  // stays armed through the drain — a node that dies mid-drain must
  // still fail over or error out the forwards it holds, or the drain
  // would hang on answers that can never come.
  health_timer_fd_ =
      add_timer(std::max(1.0, config_.health_interval_ms), true, [this] {
        const std::uint64_t now = obs::now_ns();
        for (auto& node : upstreams_) node->health_tick(now);
      });
  if (health_timer_fd_ < 0) {
    throw std::system_error(errno, std::generic_category(), "timerfd");
  }
  // First connects happen now, not a health interval from now.
  const std::uint64_t now = obs::now_ns();
  for (auto& node : upstreams_) node->health_tick(now);
}

void Router::after_run() { close_fd(health_timer_fd_); }

Result<std::uint64_t, ServiceError> Router::fingerprint_spec(
    std::string_view spec) {
  const auto it = spec_memo_.find(spec);
  if (it != spec_memo_.end()) return it->second;
  try {
    // Same bounds a node enforces: hostile specs are the router's
    // problem too, and they must fail BEFORE any allocation or read.
    TreeSpecOptions limits;
    limits.max_nodes = config_.max_spec_nodes;
    limits.allow_file = !config_.tree_dir.empty();
    limits.file_dir = config_.tree_dir;
    limits.max_file_bytes = config_.max_spec_bytes;
    // Build the tree just long enough to fingerprint it — the routing
    // key must be bit-identical to what the node's store will compute,
    // and hashing the resolved tree (not the spec text) is what makes
    // `random:500:1` and an equivalent file: spec land on one node.
    const Tree tree = tree_from_spec(std::string(spec), limits);
    const std::uint64_t fp = tree_fingerprint(tree);
    if (spec_memo_.size() >= config_.spec_memo_max) spec_memo_.clear();
    spec_memo_.emplace(std::string(spec), fp);
    return fp;
  } catch (const std::exception& e) {
    return ServiceError{ErrorCode::kBadRequest, e.what(),
                        std::current_exception()};
  }
}

Result<std::size_t, ServiceError> Router::route(Forward fwd) {
  std::size_t total = 0;
  std::size_t live = 0;
  for (const auto& node : upstreams_) {
    total += node->load();
    if (node->state() != Upstream::State::kDown) ++live;
  }
  if (live == 0) {
    return ServiceError{ErrorCode::kNodeUnavailable,
                        "no backend node is up", nullptr};
  }
  // Bounded-load consistent hashing: the first live clockwise node
  // under ceil(c * (total+1) / live) in-flight forwards takes the key.
  // At least one live node sits at or below the average, so the walk
  // only falls through when queues (not the bound) are the constraint.
  const std::size_t bound = static_cast<std::size_t>(std::ceil(
      config_.load_factor * static_cast<double>(total + 1) /
      static_cast<double>(live)));
  std::size_t chosen = SIZE_MAX;
  std::size_t fallback = SIZE_MAX;
  ring_.walk(fwd.fingerprint, [&](std::size_t node) {
    const Upstream& up = *upstreams_[node];
    if (!up.routable()) return false;
    if (fallback == SIZE_MAX) fallback = node;
    if (up.load() < bound) {
      chosen = node;
      return true;
    }
    return false;
  });
  if (chosen == SIZE_MAX) chosen = fallback;
  if (chosen == SIZE_MAX) {
    return ServiceError{
        ErrorCode::kQueueFull,
        "every live backend is at its queue bound (" +
            std::to_string(config_.upstream_queue) +
            " queued forwards); the cluster is saturated",
        nullptr};
  }
  ++counters_.forwarded;
  ++routed_[chosen];
  upstreams_[chosen]->enqueue(std::move(fwd));
  return chosen;
}

void Router::schedule(net::Session& session, std::uint64_t key,
                      const RequestView& req, const net::TraceContext& ctx) {
  const Result<std::uint64_t, ServiceError> fp =
      fingerprint_spec(req.tree_spec);
  if (!fp.ok()) {
    session.settle(key,
                   ResponseLine::error(fp.error().code, fp.error().message));
    return;
  }
  // The distributed trace id: a traced client's own id wins (the
  // correlator must be end-to-end); otherwise the router mints one per
  // request while its tracer is on. Zero = untraced, and the forward's
  // frame stays byte-identical to the pre-trace wire format.
  std::uint64_t trace_id = ctx.trace_id;
  if (trace_id == 0 && obs::Tracer::global().enabled()) {
    trace_id = next_trace_id();
  }

  Forward fwd;
  fwd.kind = Forward::Kind::kSchedule;
  fwd.conn_id = session.id();
  fwd.key = key;
  fwd.fingerprint = fp.value();
  fwd.retries_left = config_.retries;
  fwd.trace_id = trace_id;
  fwd.priority = static_cast<int>(req.priority);
  // The canonical forward line: the client's request re-spelled WITHOUT
  // its id= tag — the upstream id is the router's own (appended fresh
  // at each send, so a retry can never collide with the first attempt)
  // and the session restores the client's tag at settle.
  fwd.line.reserve(req.tree_spec.size() + req.algo.size() + 48);
  fwd.line.append(req.tree_spec);
  fwd.line.push_back(' ');
  fwd.line.append(req.algo);
  fwd.line.push_back(' ');
  fwd.line.append(std::to_string(req.p));
  if (req.memory_cap != 0) {
    fwd.line.push_back(' ');
    fwd.line.append(std::to_string(req.memory_cap));
  }
  if (req.priority != Priority::kBatch) {
    fwd.line.append(" priority=");
    fwd.line.append(to_string(req.priority));
  }
  if (req.deadline_ms > 0.0) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), " deadline_ms=%.17g", req.deadline_ms);
    fwd.line.append(buf);
  }

  const Result<std::size_t, ServiceError> routed = route(std::move(fwd));
  if (routed.ok()) return;
  const ServiceError& err = routed.error();
  if (err.code == ErrorCode::kQueueFull) {
    ++counters_.queue_full;
    obs::EventLog::global().emit(
        "queue_full", trace_id,
        {obs::EventLog::Field::u64("conn", session.id()),
         obs::EventLog::Field::str("scope", "cluster")});
  } else {
    ++counters_.node_unavailable;
  }
  session.settle(key, ResponseLine::error(err.code, err.message));
}

bool Router::withdraw(std::uint64_t conn_id, std::uint64_t key) {
  for (auto& node : upstreams_) {
    if (node->cancel_queued(conn_id, key)) {
      ++counters_.cancelled;
      return true;
    }
  }
  return false;
}

bool Router::cancel(net::Session& session, std::uint64_t key) {
  // Cancels stop at the router: a forward still queued here is removed
  // and answered `cancelled`; one already on the backend's wire is NOT
  // chased (see withdraw()). Its answer arrives and is delivered
  // normally — the same observable contract as the server's "already
  // running" case.
  if (!withdraw(session.id(), key)) return false;
  session.settle(key, ResponseLine::error(ErrorCode::kCancelled,
                                          "cancelled while queued in the "
                                          "router"));
  return true;
}

void Router::abandon(std::uint64_t conn_id, std::uint64_t key) {
  // A vanished client's forwards that are still queued router-side are
  // pulled back (freeing the queue slots); ones already on the wire run
  // to completion on their node and the answers are dropped at
  // delivery — the same shape as the server cancelling a dead client's
  // queued tickets while running ones finish.
  (void)withdraw(conn_id, key);
}

void Router::on_upstream_response(const Forward& fwd, ResponseLine&& resp) {
  ++counters_.responses;
  if (fwd.sent_ns != 0) {
    const std::uint64_t rtt = obs::now_ns() - fwd.sent_ns;
    if (h_upstream_ != nullptr) h_upstream_->record(rtt);
    if (fwd.priority >= 0 && fwd.priority < kPriorityClasses &&
        h_upstream_class_[fwd.priority] != nullptr) {
      h_upstream_class_[fwd.priority]->record(rtt);
    }
    obs::Tracer& tracer = obs::Tracer::global();
    if (tracer.enabled()) {
      // The router-side half of the cross-process trace: this span's
      // arg (the trace id) matches the backend's net/accept span for
      // the same request in a merged dump.
      tracer.record("router/upstream", fwd.sent_ns, rtt, fwd.trace_id);
    }
  }
  settle(fwd.conn_id, fwd.key, std::move(resp));
}

void Router::on_upstream_failed(Forward&& fwd) {
  const std::uint64_t conn_id = fwd.conn_id;
  const std::uint64_t key = fwd.key;
  if (fwd.retries_left > 0) {
    --fwd.retries_left;
    ++counters_.retried;
    obs::EventLog::global().emit(
        "retry", fwd.trace_id,
        {obs::EventLog::Field::u64("conn", fwd.conn_id),
         obs::EventLog::Field::u64("retries_left",
                                   static_cast<std::uint64_t>(
                                       fwd.retries_left))});
    const Result<std::size_t, ServiceError> routed = route(std::move(fwd));
    if (routed.ok()) return;
    ++counters_.node_unavailable;
    settle(conn_id, key,
           ResponseLine::error(
               ErrorCode::kNodeUnavailable,
               "the node serving this request died and no alternate "
               "could take it: " +
                   routed.error().message));
    return;
  }
  ++counters_.node_unavailable;
  settle(conn_id, key,
         ResponseLine::error(ErrorCode::kNodeUnavailable,
                             "the node serving this request died (retry "
                             "budget exhausted)"));
}

void Router::trace_toggled(bool enabled) {
  for (auto& node : upstreams_) {
    if (node->state() != Upstream::State::kUp) continue;
    Forward ctl;
    ctl.kind = Forward::Kind::kTraceCtl;
    ctl.line = enabled ? "trace start" : "trace stop";
    node->enqueue(std::move(ctl));
  }
}

void Router::trace_status(
    std::vector<std::pair<std::string, std::uint64_t>>& stats) const {
  for (std::size_t i = 0; i < trace_pull_failures_.size(); ++i) {
    stats.emplace_back("node" + std::to_string(i) + "_pull_failures",
                       trace_pull_failures_[i]);
  }
}

void Router::trace_dump(net::Session& session, std::uint64_t key,
                        std::string path) {
  if (trace_dump_) {
    session.settle(key, ResponseLine::error(
                            ErrorCode::kBadRequest,
                            "a merged trace dump is already in progress"));
    return;
  }
  trace_dump_ = std::make_unique<TraceDump>();
  trace_dump_->conn_id = session.id();
  trace_dump_->key = key;
  trace_dump_->path = std::move(path);
  // The router's own spans merge as pid 1; each backend node gets
  // pid 2 + its dense index, so the Perfetto timeline shows one row
  // group per process with stable names.
  obs::ProcessSpans self;
  self.name = "router";
  self.pid = 1;
  for (const obs::SpanView& sv : obs::Tracer::global().snapshot()) {
    self.spans.push_back(obs::MergedSpan{
        sv.name != nullptr ? sv.name : "", sv.start_ns, sv.dur_ns, sv.arg,
        sv.tid});
  }
  trace_dump_->procs.push_back(std::move(self));
  for (auto& node : upstreams_) {
    if (node->state() != Upstream::State::kUp) continue;
    Forward pull;
    pull.kind = Forward::Kind::kTracePull;
    pull.line = "trace pull";
    ++trace_dump_->awaiting;
    node->enqueue(std::move(pull));
  }
  // No live backend: still a valid dump of the router's own timeline.
  if (trace_dump_->awaiting == 0) finish_trace_dump();
}

void Router::on_trace_pull(
    std::size_t node,
    std::vector<std::pair<std::string, std::uint64_t>>&& pairs) {
  if (!trace_dump_ || trace_dump_->awaiting == 0) return;
  std::vector<obs::MergedSpan> spans;
  if (decode_span_pairs(pairs, spans)) {
    obs::ProcessSpans proc;
    proc.name = "node " +
                (node < upstreams_.size() ? upstreams_[node]->name()
                                          : std::to_string(node));
    proc.pid = static_cast<std::uint32_t>(2 + node);
    proc.spans = std::move(spans);
    trace_dump_->procs.push_back(std::move(proc));
    ++trace_dump_->pulled;
  } else {
    // A backend answered garbage: the dump still finishes without it.
    if (node < trace_pull_failures_.size()) ++trace_pull_failures_[node];
    ++trace_dump_->pull_failures;
  }
  if (--trace_dump_->awaiting == 0) finish_trace_dump();
}

void Router::on_trace_pull_failed(std::size_t node) {
  if (node < trace_pull_failures_.size()) ++trace_pull_failures_[node];
  if (!trace_dump_ || trace_dump_->awaiting == 0) return;
  ++trace_dump_->pull_failures;
  if (--trace_dump_->awaiting == 0) finish_trace_dump();
}

void Router::finish_trace_dump() {
  std::unique_ptr<TraceDump> dump = std::move(trace_dump_);
  if (!dump) return;
  ResponseLine line;
  line.kind = ResponseLine::Kind::kTrace;
  std::ofstream os(dump->path, std::ios::binary | std::ios::trunc);
  if (!os) {
    line.ok = false;
    line.code = ErrorCode::kBadRequest;
    line.message = "cannot open trace dump file";
  } else {
    const std::size_t written =
        obs::write_merged_chrome_trace(os, dump->procs);
    os.flush();
    if (!os) {
      line.ok = false;
      line.code = ErrorCode::kBadRequest;
      line.message = "short write on trace dump file";
    } else {
      line.ok = true;
      line.stats = {
          {"enabled", obs::Tracer::global().enabled() ? 1u : 0u},
          {"spans", written},
          {"dropped", obs::Tracer::global().dropped()},
          {"nodes_merged", dump->pulled},
          {"pull_failures", dump->pull_failures},
      };
    }
  }
  settle(dump->conn_id, dump->key, std::move(line));
}

void Router::settle(std::uint64_t conn_id, std::uint64_t key,
                    ResponseLine line) {
  // A client that vanished takes its answers with it.
  if (net::Session* s = session(conn_id)) s->settle(key, std::move(line));
}

std::vector<std::pair<std::string, std::uint64_t>> Router::stats_pairs()
    const {
  const RouterCounters& rc = counters_;
  const net::SessionCounters& sc = session_counters_;
  std::size_t up = 0;
  for (const auto& node : upstreams_) {
    if (node->state() == Upstream::State::kUp) ++up;
  }
  std::vector<std::pair<std::string, std::uint64_t>> out = {
      {"conns", session_count()},
      {"nodes", upstreams_.size()},
      {"nodes_up", up},
      {"accepted", sc.accepted},
      {"rejected_conns", sc.rejected_conns},
      {"lines", sc.lines},
      {"forwarded", rc.forwarded},
      {"responses", rc.responses},
      {"retried", rc.retried},
      {"node_unavailable", rc.node_unavailable},
      {"queue_full", rc.queue_full},
      {"node_failures", rc.node_failures},
      {"connects", rc.connects},
      {"orphan_responses", rc.orphan_responses},
      {"cancelled", rc.cancelled},
      {"v3_conns", sc.v3_conns},
      {"frames_in", sc.frames_in},
      {"frames_bad", sc.frames_bad},
      {"batch_requests", sc.batch_requests},
      {"parse_errors", sc.parse_errors},
  };
  for (std::size_t i = 0; i < upstreams_.size(); ++i) {
    const std::string prefix = "node" + std::to_string(i) + "_";
    out.emplace_back(prefix + "routed", routed_[i]);
    out.emplace_back(prefix + "up",
                     upstreams_[i]->state() == Upstream::State::kUp ? 1 : 0);
    out.emplace_back(prefix + "inflight", upstreams_[i]->inflight());
    out.emplace_back(prefix + "queued", upstreams_[i]->queued());
    out.emplace_back(prefix + "disconnects", upstreams_[i]->disconnects());
    out.emplace_back(prefix + "retries", upstreams_[i]->retries());
    out.emplace_back(prefix + "last_error_code",
                     upstreams_[i]->last_error_code());
  }
  // Cluster-wide service view: sum the last polled stats snapshot of
  // every node under a backend_ prefix. std::map keeps the key order
  // stable run to run; a node that is down contributes nothing (its
  // snapshot cleared with the socket).
  std::map<std::string, std::uint64_t> agg;
  for (const auto& node : upstreams_) {
    for (const auto& [key, value] : node->last_stats()) agg[key] += value;
  }
  for (const auto& [key, value] : agg) {
    out.emplace_back("backend_" + key, value);
  }
  return out;
}

}  // namespace treesched::cluster
