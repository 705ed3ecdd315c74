#pragma once
// The networked scheduling server (src/net/): an epoll-driven front-end
// serving many concurrent clients over TCP or a unix-domain socket,
// multiplexed onto ONE I/O thread. Each connection speaks either
// protocol — text v2 (service/request_line.hpp) or binary v3
// (net/frame.hpp) — negotiated by the first bytes the client sends.
//
//   net -> service -> sched:
//
//   Client ──TCP──> Session ──submit()──> SchedulingService ─> pool
//      ^              |  ^                       │
//      └── response ──┘  └── EventLoop::post <───┘ Ticket::on_complete
//
// The transport and the client protocol are net::Session's (net/
// session.hpp); the server is the tier behind it. It interns the spec,
// answers cache hits on the I/O thread, and submits the rest as
// Tickets whose completions re-enter the loop through
// Ticket::on_complete -> EventLoop::post, which wakes the epoll wait.
// The I/O thread never blocks and never computes.
// All scheduler compute rides the service's thread pool, exactly as for
// in-process callers — the server is a transport, not a second engine.
//
// Lifecycle: the constructor binds (port 0 = ephemeral, read back via
// port()); run() serves until stop() or — with handle_signals —
// SIGTERM/SIGINT, then drains: the listener closes, sessions stop
// reading, every accepted request is answered or cancelled, write
// buffers flush, and run() returns only when no ticket is outstanding,
// so destroying the server (and then the service) is always safe.
//
// Scale limits are explicit and typed: at most max_conns sockets (the
// excess is greeted with a queue_full error line and closed), at most
// max_pending unsettled requests per connection (excess requests answer
// queue_full), at most max_wbuf buffered response bytes per connection
// (past it the connection stops reading until the client drains), at
// most max_line text-line / max_frame binary-frame bytes per request.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "net/session.hpp"
#include "obs/metrics.hpp"
#include "service/service.hpp"

namespace treesched::net {

struct ServerConfig {
  /// IPv4 address the TCP listener binds; "0.0.0.0" opens it to the
  /// network, the loopback default keeps it local.
  std::string bind = "127.0.0.1";
  /// TCP port; 0 = kernel-assigned (see Server::port()).
  std::uint16_t port = 0;
  /// Nonempty = serve on a unix-domain socket at this path instead of
  /// TCP (bind/port are ignored). Same protocols, no TCP stack.
  std::string unix_path;
  /// Accepted-connection bound; excess connections are answered with
  /// one queue_full error line and closed.
  std::size_t max_conns = 256;
  /// Per-connection limits (defaults and their rationale: net/limits.hpp):
  /// unsettled requests before queue_full, write-buffer high watermark,
  /// longest text line, largest binary frame.
  std::size_t max_pending = kDefaultMaxPending;
  std::size_t max_wbuf = kDefaultMaxWbuf;
  std::size_t max_line = kDefaultMaxLine;
  std::size_t max_frame = kDefaultMaxFrame;
  /// Install a signalfd for SIGTERM/SIGINT and drain gracefully on
  /// either. The caller must block both signals in every thread BEFORE
  /// spawning any (schedule_server does; in-process tests use stop()).
  bool handle_signals = false;
  /// Prometheus scrape endpoint: -1 = no endpoint, 0 = ephemeral port
  /// (read back via Server::metrics_port()), otherwise the port to
  /// bind. Serves `GET /metrics` on the server's own I/O thread — a
  /// scrape and the request path never race.
  int metrics_port = -1;
  /// Bind address of the scrape endpoint (loopback by default — opening
  /// the metrics port to the network is a deliberate act).
  std::string metrics_bind = "127.0.0.1";
  /// Slow-request log threshold in milliseconds: a request whose
  /// accept-to-flush time exceeds it logs its full stage breakdown to
  /// stderr. 0 = disabled.
  double slow_ms = 0.0;
  /// Structured event-log sink: a file path (opened O_APPEND) or "-"
  /// for stdout. Empty = disabled. Rare operational events (drain,
  /// queue_full, slow requests) emit one JSON line each, carrying the
  /// propagated trace id when the request had one. Process-wide: the
  /// first server to open it wins; see obs/event_log.hpp.
  std::string log_json;
  /// Directory `trace dump=<file>` may write into. Empty (the default)
  /// disables dumps entirely: the verb names a server-side file, and an
  /// unauthenticated network client must never choose where the server
  /// writes. When set, dump paths are resolved inside this directory —
  /// absolute paths and ".." components are rejected.
  std::string trace_dir;
  /// Directory `file:` tree specs may read from. Empty (the default)
  /// refuses file: specs entirely — the spec names a server-side file,
  /// and an unauthenticated network client must never choose what the
  /// server opens. When set, spec paths are resolved inside this
  /// directory exactly like trace_dir confines trace dumps.
  std::string tree_dir;
  /// Upper bound on the node count a generator spec (random:/synthetic:/
  /// grid:) may request; larger requests answer bad_request before any
  /// allocation. 0 = unlimited (trusted networks only — a client could
  /// request a multi-gigabyte tree in one line).
  std::uint64_t max_spec_nodes = 2'000'000;
  /// Upper bound on the on-disk size of a `file:` tree spec, checked
  /// BEFORE the file is read (max_spec_nodes bounds the parsed tree;
  /// this bounds the read itself). 0 = unlimited.
  std::uint64_t max_spec_bytes = 16 << 20;
  /// Hard ceiling on the graceful drain, in milliseconds: a SIGTERM/
  /// stop() drain normally waits for every client to read its last
  /// answers, but a client that never reads would hold the process up
  /// forever. Past the timeout the remaining connections are closed
  /// (their queued tickets cancelled) and the drain completes. 0 = wait
  /// forever (the pre-timeout behavior).
  double drain_timeout_ms = 0.0;
};

class Server : public SessionHost {
 public:
  /// Binds the listener (throws std::system_error on failure) but does
  /// not serve yet; run() and stop() are SessionHost's.
  Server(SchedulingService& service, ServerConfig config = {});
  ~Server() override;

  [[nodiscard]] const ServerConfig& config() const { return config_; }

 private:
  /// Heterogeneous hasher so a string_view spec (the zero-copy parse)
  /// probes the memo without materializing a std::string first.
  struct SpecHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view spec) const {
      return std::hash<std::string_view>{}(spec);
    }
  };

  /// What replying to one request needs besides its ServiceResult.
  struct Reply {
    TreeHash tree_hash = 0;
    NodeId n = 0;
    std::string algo;
    int p = 1;
    Priority priority = Priority::kBatch;
    std::uint64_t trace_id = 0;  ///< propagated v3 trace context (0 = none)
  };
  /// One submitted ticket, keyed by (session id, window key).
  struct Job {
    Ticket ticket;
    Reply reply;
  };
  using JobKey = std::pair<std::uint64_t, std::uint64_t>;

  // --- SessionHost dispatch (I/O thread) ------------------------------
  void schedule(Session& session, std::uint64_t key, const RequestView& req,
                const TraceContext& ctx) override;
  bool cancel(Session& session, std::uint64_t key) override;
  void abandon(std::uint64_t conn_id, std::uint64_t key) override;
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  stats_pairs() const override;
  /// Writes the dump synchronously on the I/O thread, stalling every
  /// session (and the metrics endpoint) for its duration. Accepted
  /// deliberately: the dump is bounded (4096 spans per thread ring) and
  /// happens only when the operator configured a trace directory and
  /// asked for one — a diagnostic moment, not a serving-path operation.
  void trace_dump(Session& session, std::uint64_t key,
                  std::string path) override;
  /// A response's last byte reached the kernel: record the transport
  /// stage histograms (accept-to-flush, serialize-to-flush by priority
  /// class), the net-layer trace spans, and, past config.slow_ms, log
  /// the stage breakdown (stderr + structured event log).
  void record_flushed(const ResponseTiming& timing) override;
  /// Submitted tickets whose completion has not yet been processed on
  /// the loop thread. The drain waits for zero, which guarantees no
  /// Ticket::on_complete callback can touch a dead Server.
  [[nodiscard]] std::uint64_t outstanding() const override {
    return jobs_.size();
  }

  /// Spec -> interned handle, memoized server-wide (all parsing happens
  /// on the I/O thread, so the memo needs no lock). The lookup is
  /// copy-free; the spec string is owned only on first sight. Failures
  /// are typed values: kBadRequest for an unresolvable spec, kStoreFull
  /// (via try_intern) past the store budget.
  Result<TreeHandle, ServiceError> intern_spec(std::string_view spec);
  /// Loop thread: job (conn_id, key) settled; answer its session (if
  /// still open) and retire the job.
  void job_settled(std::uint64_t conn_id, std::uint64_t key,
                   const ServiceResult& result);
  /// Settles window entry `key` of `session` with `result`.
  static void reply(Session& session, std::uint64_t key, const Reply& meta,
                    const ServiceResult& result);
  /// Creates the transport histograms and bridges the counters into the
  /// service's registry. The bridge reads plain I/O-thread state; that
  /// is sound because every snapshot consumer in this process (the
  /// `stats` verb, the /metrics endpoint) runs on the loop thread too.
  void init_metrics();

  SchedulingService& service_;
  ServerConfig config_;
  std::unordered_map<std::string, TreeHandle, SpecHash, std::equal_to<>>
      spec_memo_;
  std::map<JobKey, Job> jobs_;
  std::uint64_t submitted_ = 0;  ///< tickets submitted to the service

  /// Transport stage histograms (owned by the service's registry).
  /// h_write_stall_[kPriorityClasses] is the class="all" aggregate that
  /// carries the stats-verb key.
  obs::Histogram* h_net_e2e_ = nullptr;
  obs::Histogram* h_write_stall_[kPriorityClasses + 1] = {};
  /// Per-class accept-to-flush histograms (class="..." labels beside
  /// the unlabeled aggregate above). Their sliding windows ARE the
  /// per-class rolling p99 the /metrics `_window` gauges export.
  obs::Histogram* h_e2e_class_[kPriorityClasses] = {};
};

}  // namespace treesched::net
