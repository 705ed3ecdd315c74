#pragma once
// Cluster router (src/cluster/): a protocol-transparent front-end that
// shards the scheduling service across N backend schedule_server nodes
// by tree fingerprint, so every request for the same tree lands on the
// same node — and its warm result cache — no matter which client sent
// it. Clients speak the unchanged text-v2 / binary-v3 protocols to the
// router exactly as they would to one node; the cluster is invisible
// except for being larger.
//
//   Client ──v2/v3──> net::Session ──route()──> Upstream ──v3──> node
//      ^                    |   ^                     │
//      └──── response ──────┘   └──── settle() <──────┘ (id remapped)
//
// The client side is the same net::Session the single-node server uses
// (net/session.hpp); the router is the tier behind it. It resolves the
// spec to its routing fingerprint, routes, and settles the session's
// window entry when the node's answer comes back — the session puts the
// client's own tag back on it. `cancel` stops at the router: a forward
// still queued here is withdrawn and answered `cancelled`; one already
// on the wire acks "request already forwarded or answered" (see
// withdraw() for why cancels are never forwarded). ping answers
// locally (it probes THIS hop), stats aggregates router and backend
// counters, and trace drives the router's own span recorder, with
// start/stop broadcast to every node and `dump` merging all of them.
//
// Routing: the router resolves each request's tree spec to the SAME
// 64-bit content fingerprint the backends intern by (it builds the tree
// once, fingerprints it, memoizes spec -> fingerprint, and drops the
// tree — the router stores no trees and runs no scheduler), then walks
// the consistent-hash ring (cluster/ring.hpp) from that fingerprint:
// the first live node under the bounded-load threshold
// ceil(load_factor * (total_in_flight + 1) / live_nodes) takes the
// request. The bound keeps a hot fingerprint from melting its primary
// while still sending nearly every key to its ring-deterministic home.
//
// Like the single-node server, the router is ONE epoll I/O thread and
// never computes: client sockets, backend sockets, the health timer,
// the metrics endpoint, and the signal fd all ride one EventLoop, so
// every structure here is plain loop-thread state — no locks anywhere.
//
// Failure semantics (the part worth reading twice): a node death —
// connect refused, socket error, EOF, or a ping overdue past
// ping_timeout_ms — hands every in-flight and queued forward back to
// the router. Each is retried on the next live ring alternate (the
// requests are deterministic pure functions of the request line, so
// re-execution is safe) up to `retries` times, then answered with the
// typed node_unavailable error. Clients always get an answer: typed
// errors, never a hang, never a dropped response. The dead node
// reconnects with backoff and resumes taking its arc of the ring.
//
// `stats` answers with the router's own counters, per-node routing
// counters, and a backend_-prefixed aggregate summed over each node's
// periodically-polled stats. The same numbers export through the PR-7
// metrics registry on --metrics-port (GET /metrics, Prometheus text).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/ring.hpp"
#include "cluster/upstream.hpp"
#include "net/session.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/errors.hpp"
#include "service/request.hpp"
#include "util/result.hpp"

namespace treesched::cluster {

struct RouterConfig {
  /// IPv4 address the client-facing listener binds.
  std::string bind = "127.0.0.1";
  /// Client-facing TCP port; 0 = kernel-assigned (see Router::port()).
  std::uint16_t port = 0;
  /// Backend endpoints, "host:port" each. At least one; duplicates are
  /// rejected (one ring identity = one socket).
  std::vector<std::string> nodes;
  /// Virtual points per node on the consistent-hash ring.
  int vnodes = 64;
  /// Bounded-load factor c: a node already carrying more than
  /// ceil(c * (total + 1) / live) in-flight forwards is skipped for the
  /// next ring alternate. Larger = stickier placement, spikier load.
  double load_factor = 1.25;
  /// Client-facing limits, same meaning (and defaults) as the
  /// single-node server's (net/limits.hpp).
  std::size_t max_conns = 256;
  std::size_t max_pending = net::kDefaultMaxPending;
  std::size_t max_wbuf = net::kDefaultMaxWbuf;
  std::size_t max_line = net::kDefaultMaxLine;
  std::size_t max_frame = net::kDefaultMaxFrame;
  /// Install a signalfd for SIGTERM/SIGINT and drain gracefully (the
  /// caller must block both signals first, like schedule_server does).
  bool handle_signals = false;
  /// Prometheus endpoint: -1 = none, 0 = ephemeral, else the port.
  int metrics_port = -1;
  std::string metrics_bind = "127.0.0.1";
  /// Directory `trace dump=<file>` may write (router-side spans); empty
  /// disables dumps — same confinement contract as the server's.
  std::string trace_dir;
  /// Structured JSON-lines event sink: a path (O_APPEND) or "-" for
  /// stdout; empty disables. Process-wide — the first open wins.
  std::string log_json;
  /// Directory `file:` tree specs may be read from WHEN FINGERPRINTING.
  /// The router resolves specs itself to compute the routing key, so it
  /// needs the same tree files the backends have (a shared directory in
  /// practice). Empty refuses file: specs at the router.
  std::string tree_dir;
  /// Spec bounds enforced at fingerprint time, before any allocation or
  /// read — the router is as exposed to hostile specs as a node is.
  std::uint64_t max_spec_nodes = 2'000'000;
  std::uint64_t max_spec_bytes = 16 << 20;
  /// Graceful-drain ceiling in ms; 0 = wait forever. Same contract as
  /// the server: past it, clients that never read are closed.
  double drain_timeout_ms = 0.0;
  /// Per-node forwarding window: at most this many forwards in flight
  /// on one backend socket; excess queues router-side.
  std::size_t upstream_window = 128;
  /// Per-node queue bound; a full queue makes the node ineligible and,
  /// with every alternate also full, answers queue_full (backpressure).
  std::size_t upstream_queue = 1024;
  /// Per-node socket write-buffer bound: past it queued forwards stay
  /// queued (a backend that stops reading stalls its queue, not us).
  std::size_t upstream_max_wbuf = 1 << 20;
  /// Retry-on-alternate budget after a node death. The forwarded
  /// requests are deterministic (same line -> same answer), so
  /// re-execution on another node is safe.
  int retries = 1;
  /// Health cadence: ping each node this often; a node whose pong is
  /// ping_timeout_ms overdue is declared dead. Reconnects back off by
  /// reconnect_backoff_ms.
  double health_interval_ms = 250.0;
  double ping_timeout_ms = 2000.0;
  double reconnect_backoff_ms = 500.0;
  /// Every this many health ticks, poll each node's `stats` for the
  /// aggregated stats verb. 0 disables polling.
  unsigned stats_poll_ticks = 4;
  /// Spec -> fingerprint memo bound (entries). The memo clears wholesale
  /// when full — crude, but the router must never grow without bound on
  /// a stream of distinct specs.
  std::size_t spec_memo_max = 65536;
};

/// Monotonic router counters (loop-thread state, reported by `stats`
/// and bridged into the metrics registry) beside the client-protocol
/// ones every front-end keeps (net::SessionCounters).
struct RouterCounters {
  std::uint64_t forwarded = 0;        ///< forwards handed to an upstream
  std::uint64_t responses = 0;        ///< backend answers delivered
  std::uint64_t retried = 0;          ///< forwards re-routed after a death
  std::uint64_t node_unavailable = 0; ///< requests answered with the typed
                                      ///< node_unavailable error
  std::uint64_t queue_full = 0;       ///< requests refused by backpressure
  std::uint64_t node_failures = 0;    ///< node-death events
  std::uint64_t connects = 0;         ///< successful backend connects
  std::uint64_t orphan_responses = 0; ///< backend answers with no waiting
                                      ///< forward (late after a retry)
  std::uint64_t cancelled = 0;        ///< forwards cancelled while queued
};

class Router : public net::SessionHost {
 public:
  /// Binds the client listener and resolves the node list (throws
  /// std::invalid_argument / std::system_error) but does not serve yet.
  /// run() serves until stop()/SIGTERM, then drains: the listener
  /// closes, every accepted request is answered (by a backend or a
  /// typed error), buffers flush, and run() returns.
  explicit Router(RouterConfig config);
  ~Router() override;

  [[nodiscard]] const RouterConfig& config() const { return config_; }
  /// The router's own registry (scraped by --metrics-port).
  [[nodiscard]] obs::MetricsRegistry& registry() { return registry_; }

 private:
  friend class Upstream;

  struct SpecHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view spec) const {
      return std::hash<std::string_view>{}(spec);
    }
  };

  // --- SessionHost dispatch (loop thread) -----------------------------
  /// Fingerprints the spec, re-spells the request as its canonical
  /// forward line and routes it; the entry settles when the node
  /// answers, or at once with a typed error.
  void schedule(net::Session& session, std::uint64_t key,
                const RequestView& req,
                const net::TraceContext& ctx) override;
  bool cancel(net::Session& session, std::uint64_t key) override;
  void abandon(std::uint64_t conn_id, std::uint64_t key) override;
  /// Router counters, per-node routing counters, then the
  /// backend_-prefixed aggregate.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  stats_pairs() const override;
  /// Kicks off one merged cluster dump: pulls every live backend's span
  /// ring, merges with the router's own, writes Chrome JSON to `path`,
  /// then settles the entry — possibly from a later event-loop turn.
  /// A dump already in flight answers a typed error instead.
  void trace_dump(net::Session& session, std::uint64_t key,
                  std::string path) override;
  /// Broadcasts `trace start`/`trace stop` to every live backend
  /// (fire-and-forget; nodes that are down catch up on reconnect when
  /// tracing is still enabled).
  void trace_toggled(bool enabled) override;
  /// Per backend node, the `trace pull`s lost to node deaths — what a
  /// truncated or partial merged dump traces back to.
  void trace_status(std::vector<std::pair<std::string, std::uint64_t>>&
                        stats) const override;
  /// Starts the health timer (and the first connects).
  void on_run() override;
  void after_run() override;

  RouterCounters& counters() { return counters_; }
  /// Spec -> routing fingerprint: builds the tree once under the same
  /// limits a node enforces, fingerprints it, memoizes, DROPS the tree.
  /// Typed kBadRequest on an unresolvable spec.
  Result<std::uint64_t, ServiceError> fingerprint_spec(
      std::string_view spec);
  /// Routes one forward: bounded-load ring walk over live nodes, then
  /// Upstream::enqueue. Returns the chosen node index, or the typed
  /// error (kNodeUnavailable when no node is up, kQueueFull when every
  /// live alternate is at its queue bound).
  Result<std::size_t, ServiceError> route(Forward fwd);
  /// Removes the still-queued forward of window entry (conn_id, key)
  /// from whichever node holds it. False once it is on the wire (or
  /// answered) — then only the backend could stop it, and the router
  /// deliberately never forwards cancels: a failed remote cancel acks
  /// UNTAGGED, which is unattributable on a multiplexed upstream
  /// connection shared by many clients.
  bool withdraw(std::uint64_t conn_id, std::uint64_t key);
  /// Fresh nonzero distributed trace id for one client request. Plain
  /// counter — ids only need to be unique within this router's trace
  /// window, and the origin field already namespaces processes.
  std::uint64_t next_trace_id() { return next_trace_id_++; }

  // --- Upstream-facing surface (loop thread only) ---------------------
  /// Upstream wire ids, unique across every backend socket for the
  /// router's lifetime — a retried forward gets a fresh uid, so a slow
  /// answer from the first attempt can never alias the second.
  std::uint64_t next_uid() { return next_uid_++; }
  /// A backend answered forward `fwd`: record latency, deliver to the
  /// client connection (dropped if the client is gone).
  void on_upstream_response(const Forward& fwd, ResponseLine&& resp);
  /// Forward `fwd`'s node died before answering: retry on the next live
  /// ring alternate, or settle the typed node_unavailable error.
  void on_upstream_failed(Forward&& fwd);
  /// Node `node` answered a `trace pull`: decode its spans into the
  /// in-flight merged dump (no-op when none is waiting on it).
  void on_trace_pull(std::size_t node,
                     std::vector<std::pair<std::string, std::uint64_t>>&&
                         pairs);
  /// Node `node` died with a `trace pull` outstanding: count it and let
  /// the in-flight merged dump finish without that node.
  void on_trace_pull_failed(std::size_t node);

  void init_metrics();
  /// Settles a client window entry (dropped if the client is gone).
  void settle(std::uint64_t conn_id, std::uint64_t key, ResponseLine line);
  /// Writes the merged Chrome JSON and settles the dump's client window
  /// entry; called when the last awaited pull answered or failed.
  void finish_trace_dump();

  /// One in-flight merged cluster dump (at most one at a time: the
  /// second `trace dump` gets a typed error instead of interleaving).
  struct TraceDump {
    std::uint64_t conn_id = 0;  ///< client window entry to settle
    std::uint64_t key = 0;
    std::string path;           ///< confined output file
    std::size_t awaiting = 0;   ///< backend pulls not yet answered
    std::size_t pulled = 0;     ///< backend rings merged successfully
    std::size_t pull_failures = 0;  ///< pulls lost to node deaths
    std::vector<obs::ProcessSpans> procs;  ///< router first, then nodes
  };

  RouterConfig config_;
  obs::MetricsRegistry registry_;
  int health_timer_fd_ = -1;

  HashRing ring_;
  std::vector<std::unique_ptr<Upstream>> upstreams_;
  std::vector<std::uint64_t> routed_;  ///< per-node forwards routed

  std::unordered_map<std::string, std::uint64_t, SpecHash, std::equal_to<>>
      spec_memo_;
  RouterCounters counters_;
  std::uint64_t next_uid_ = 1;
  std::uint64_t next_trace_id_ = 1;

  std::unique_ptr<TraceDump> trace_dump_;
  /// Lifetime per-node `trace pull` failures (trace status reports
  /// these as nodeK_pull_failures).
  std::vector<std::uint64_t> trace_pull_failures_;

  obs::Histogram* h_upstream_ = nullptr;  ///< forward send -> answer
  /// Per-class upstream-latency histograms; their sliding windows back
  /// the router's rolling per-class p99 gauges.
  obs::Histogram* h_upstream_class_[kPriorityClasses] = {};
};

}  // namespace treesched::cluster
