#pragma once
// One client connection of either front-end tier (src/net/), and the
// host both tiers build on. The scheduling server (net/server.hpp) and
// the cluster router (cluster/router.hpp) speak the same client
// protocol through this one Session; a SessionHost subclass supplies
// only what a tier does with a request.
//
//   Client ──v2/v3──> Session ──schedule()──> Server: intern, cache, submit
//      ^                 |  ^                 Router: fingerprint, route
//      └─── answers ─────┘  └──── settle(key) <── ticket / backend answer
//
// The session owns the transport and protocol work. All of it runs on
// the host's I/O (event-loop) thread:
//  * Negotiation: a session starts in kDetect and buffers a prelude of
//    at most 4 bytes. A first byte of 0xB3 commits the client to the v3
//    magic (net/frame.hpp) — the full match switches to binary, a
//    mismatch answers one binary bad_request frame and closes. Any
//    other first byte is text v2: the prelude replays through the
//    LineFramer, and `nc` clients never notice v3 exists.
//  * Parsing: every request — a text line or a v3 request/batch payload
//    — goes through one parse_request_view call (service/request_view
//    .hpp), in place over the read buffer. The one owned copy of a
//    request is made by the tier: the ScheduleRequest crossing into the
//    service, or the router's forward line.
//  * The pending window: untagged requests answer in submission order,
//    id=-tagged ones the moment they settle; `cancel` asks the tier to
//    withdraw work it still holds. ping, stats and trace answer at once,
//    out of band of the window — except `trace dump`, which waits in it.
//  * Framing limits: an oversized line answers a typed bad_request and
//    the stream resynchronizes on the newline; a bad frame answers once
//    and closes (framing is unrecoverable).
//  * Admission: at most max_pending unsettled requests; excess requests
//    answer queue_full without reaching the tier.
//  * Output: answers from one read burst — and answers settled by the
//    tier within one event-loop dispatch batch — coalesce in the write
//    buffer and leave in one send(). Past max_wbuf the session stops
//    reading until the client drains it below half, so a slow reader
//    stalls itself, never the host.
//  * Half-close (EOF): remaining requests are answered and flushed, then
//    the session closes — like EOF on the stdin front-end. An EOF that
//    truncates a frame or the magic answers bad_request first.
//  * Abrupt disconnect: the tier withdraws what it still can (queued
//    tickets, router-queued forwards); running work finishes and its
//    answer is dropped.
//
// The host owns the listener, the sessions, the max_conns greeting, the
// signalfd, and the graceful drain with its optional hard timeout.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "net/limits.hpp"
#include "net/line_framer.hpp"
#include "net/listener.hpp"
#include "net/metrics_http.hpp"
#include "obs/metrics.hpp"
#include "obs/stages.hpp"
#include "service/request.hpp"
#include "service/request_line.hpp"
#include "service/request_view.hpp"

namespace treesched::net {

class SessionHost;

/// Stage record of one flushed response, handed to
/// SessionHost::record_flushed when the response's last byte reaches
/// the kernel. Carries what the slow-request log prints: the full stamp
/// set plus enough identity to find the request again.
struct ResponseTiming {
  obs::StageStamps stamps;
  Priority priority = Priority::kBatch;
  std::optional<std::uint64_t> id;  ///< the client's tag (set by settle)
  std::string algo;  ///< short names; stays within SSO on the hot path
  bool cache_hit = false;
  /// Router-stamped distributed trace id (0 = untraced); rides the net
  /// spans and the slow-request / event-log lines so one id follows a
  /// request across tiers.
  std::uint64_t trace_id = 0;
};

/// Protocol counters every front-end reports under the same stats keys.
struct SessionCounters {
  std::uint64_t accepted = 0;        ///< connections accepted
  std::uint64_t rejected_conns = 0;  ///< turned away at max_conns
  std::uint64_t lines = 0;           ///< requests framed (text lines and
                                     ///< binary request payloads alike)
  std::uint64_t v3_conns = 0;        ///< connections that negotiated v3
  std::uint64_t frames_in = 0;       ///< well-formed v3 frames parsed
  std::uint64_t frames_bad = 0;      ///< protocol-violating frames
  std::uint64_t batch_requests = 0;  ///< requests that arrived in batches
  std::uint64_t parse_errors = 0;    ///< requests rejected by the grammar
};

class Session {
 public:
  /// Takes ownership of `fd` (non-blocking, already accepted) and
  /// registers it with the host's event loop.
  Session(SessionHost& host, int fd, std::uint64_t id);

  /// Asks the tier to withdraw every unsettled request, then closes the
  /// socket. Answers that arrive later find the session gone and drop.
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }

  /// Clock stamp of the current read burst: one now_ns() serves every
  /// request framed out of one readable event, so a 16-deep batch frame
  /// costs one clock read, not sixteen.
  [[nodiscard]] std::uint64_t burst_ns() const { return burst_ns_; }

  /// Epoll dispatch: reads on EPOLLIN, flushes on EPOLLOUT, aborts on
  /// EPOLLHUP/EPOLLERR. May defer-close itself.
  void handle_events(std::uint32_t events);

  /// Window entry `key` is answered: `line` goes out under the client's
  /// own tag (whatever id it carries is replaced) once its turn comes.
  /// `timing`, when given, is stamped at serialize and flush and handed
  /// to SessionHost::record_flushed. Unknown or settled keys are
  /// ignored. Settling outside a read burst arms one deferred flush per
  /// dispatch batch.
  void settle(std::uint64_t key, ResponseLine line,
              std::optional<ResponseTiming> timing = std::nullopt);

  /// Host drain: stop reading, answer the pending window, flush, close.
  void begin_drain();

 private:
  enum class Mode { kDetect, kText, kBinary };

  /// One request of the pending window, in submission (= key) order.
  struct Pending {
    std::uint64_t key = 0;
    std::optional<std::uint64_t> id;  ///< the client's tag
    int priority = -1;     ///< SLO class of a schedule entry (-1 = none)
    bool counted = false;  ///< holds a max_pending slot until settled
    std::optional<ResponseLine> result;
    std::optional<ResponseTiming> timing;
  };

  // --- input path ----------------------------------------------------
  void on_readable();
  void on_eof();
  /// kDetect/kText bytes: resolves the protocol, then frames.
  void handle_bytes(const char* data, std::size_t len);
  /// Records the per-connection protocol-negotiation span (tracer on).
  void note_detected();
  void feed_text(const char* data, std::size_t len);
  void handle_line(const LineFramer::Line& line);
  void drain_frames();
  void handle_frame(const Frame& frame);
  /// One request, text or binary: the in-place parse, then dispatch.
  /// `ctx` is the frame's trace context (all-zero for text).
  void handle_request(std::string_view text, const TraceContext& ctx);
  void handle_schedule(const RequestView& req, const TraceContext& ctx);
  void handle_cancel(std::uint64_t cancel_id);
  /// ping / stats: answered at once, out of band of the window.
  void answer_control(RequestLine::Kind kind, std::optional<std::uint64_t> id);
  /// `trace start|stop|status|pull|dump=<path>`: drives the process-wide
  /// obs::Tracer; `dump` is the tier's (SessionHost::trace_dump).
  void handle_trace(const RequestView& req);
  /// Marks the session protocol-dead: answers bad_request, stops
  /// reading, and lets the window settle and flush before closing.
  void protocol_violation(std::string message);

  // --- output path ---------------------------------------------------
  /// Emits every answerable response: the settled in-order prefix, plus
  /// settled tagged entries anywhere in the window.
  void flush_ready();
  void emit(Pending& pending);
  /// Answers at once, out of band of the window.
  void emit_error(std::optional<std::uint64_t> id, ErrorCode code,
                  const std::string& message);
  /// Answers in stream order: a window entry settled from birth.
  void push_settled_error(std::optional<std::uint64_t> id, ErrorCode code,
                          std::string message);
  [[nodiscard]] bool has_pending_tag(std::uint64_t tag) const;
  /// Appends one response to wbuf_ in the session's protocol: a
  /// formatted text line or a binary frame.
  void send_response(const ResponseLine& line);
  void schedule_flush();
  void flush_deferred();

  void send_buffered();     ///< send() as much of wbuf_ as possible
  void update_interest();   ///< recompute EPOLLIN/EPOLLOUT mask
  void abort_connection();  ///< reset path: defer close
  /// Half-close/drain path: close once nothing is pending or buffered.
  void finish_if_drained();
  [[nodiscard]] std::size_t buffered() const {
    return wbuf_.size() - wbuf_head_;
  }

  SessionHost& host_;
  const int fd_;
  const std::uint64_t id_;
  Mode mode_ = Mode::kDetect;
  std::string prelude_;  ///< undetermined first bytes (at most 4)
  LineFramer framer_;
  FrameReader reader_;
  /// A vector, not a deque: a window is short, and the cleared vector
  /// keeps its capacity, so a steady stream of requests allocates no
  /// window storage at all.
  std::vector<Pending> pending_;
  std::size_t inflight_ = 0;  ///< counted entries not yet settled
  std::uint64_t next_key_ = 1;

  std::string wbuf_;
  std::size_t wbuf_head_ = 0;  ///< sent prefix (compacted lazily)
  std::uint32_t interest_ = 0;

  // --- stage timing ---------------------------------------------------
  std::uint64_t burst_ns_ = 0;
  std::uint64_t emit_now_ns_ = 0;  ///< 0 = unread this emit burst
  /// Total bytes ever handed to the kernel (wbuf_ compacts; this never
  /// rewinds). A FlushMark whose target is <= cum_sent_ has fully left
  /// the process.
  std::uint64_t cum_sent_ = 0;
  struct FlushMark {
    std::uint64_t target = 0;  ///< cum_sent_ value that completes it
    ResponseTiming timing;
  };
  std::deque<FlushMark> flush_q_;

  bool reading_ = false;       ///< inside on_readable (it flushes at end)
  bool read_closed_ = false;   ///< EOF seen or drain begun
  bool closing_ = false;       ///< defer_close already requested
  bool paused_reads_ = false;  ///< backpressure: EPOLLIN off until drained
  bool flush_scheduled_ = false;  ///< a deferred flush is armed
};

/// What Server and Router share about serving clients, copied out of
/// their configs (field meanings as documented there).
struct HostConfig {
  /// Names this process in client-visible messages ("server at max
  /// connections", "trace dump is disabled on this router", ...).
  const char* tier = "server";
  /// What a request the tier can no longer withdraw is doing: the
  /// cancel ack says "request already <this> or answered".
  const char* cancel_too_late = "running";
  ListenerConfig listener;
  std::size_t max_conns = 256;
  std::size_t max_pending = kDefaultMaxPending;
  std::size_t max_wbuf = kDefaultMaxWbuf;
  std::size_t max_line = kDefaultMaxLine;
  std::size_t max_frame = kDefaultMaxFrame;
  bool handle_signals = false;
  int metrics_port = -1;
  std::string metrics_bind = "127.0.0.1";
  std::string trace_dir;
  std::string log_json;
  double drain_timeout_ms = 0.0;
};

/// The HostConfig fields that ServerConfig and RouterConfig spell the
/// same way; each tier adds its name, cancel wording and listener.
template <class TierConfig>
HostConfig shared_host_config(const TierConfig& c) {
  HostConfig h;
  h.max_conns = c.max_conns;
  h.max_pending = c.max_pending;
  h.max_wbuf = c.max_wbuf;
  h.max_line = c.max_line;
  h.max_frame = c.max_frame;
  h.handle_signals = c.handle_signals;
  h.metrics_port = c.metrics_port;
  h.metrics_bind = c.metrics_bind;
  h.trace_dir = c.trace_dir;
  h.log_json = c.log_json;
  h.drain_timeout_ms = c.drain_timeout_ms;
  return h;
}

/// The listener, sessions and lifecycle of one front-end process, plus
/// the dispatch interface a tier implements. Everything runs on the one
/// I/O thread that calls run(), except stop().
class SessionHost {
 public:
  SessionHost(const SessionHost&) = delete;
  SessionHost& operator=(const SessionHost&) = delete;

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }
  /// Printable endpoint: "<bind>:<port>" or "unix:<path>".
  [[nodiscard]] const std::string& address() const {
    return listener_.address();
  }
  /// The bound scrape port; 0 when no endpoint was configured.
  [[nodiscard]] std::uint16_t metrics_port() const {
    return metrics_http_ ? metrics_http_->port() : 0;
  }

  /// Serves until stop() or (with handle_signals) SIGTERM/SIGINT, then
  /// drains: the listener closes, sessions stop reading, every accepted
  /// request is answered (or withdrawn), write buffers flush, and run()
  /// returns once no session is left and outstanding() is zero. Blocks;
  /// the calling thread becomes the I/O thread.
  void run();

  /// Begins a graceful drain from any thread.
  void stop();

 protected:
  friend class Session;

  /// Binds the listener (throws std::system_error on failure) and opens
  /// the event-log sink, but does not serve yet.
  explicit SessionHost(HostConfig config);
  virtual ~SessionHost();

  // --- the tier's dispatch (loop thread) ------------------------------
  /// A schedule request was admitted as window entry `key` of
  /// `session`. The tier settles the entry — now, or later through the
  /// session it looks up by id — exactly once.
  virtual void schedule(Session& session, std::uint64_t key,
                        const RequestView& req, const TraceContext& ctx) = 0;
  /// `cancel id=` named unsettled entry `key`: true when the tier
  /// withdrew the work and settles the entry (code=cancelled), false
  /// when it is too late to stop.
  virtual bool cancel(Session& session, std::uint64_t key) = 0;
  /// The session is closing with entry `key` unsettled: withdraw what
  /// can still be withdrawn; settle nothing.
  virtual void abandon(std::uint64_t conn_id, std::uint64_t key) = 0;
  /// The `stats` verb's payload.
  [[nodiscard]] virtual std::vector<std::pair<std::string, std::uint64_t>>
  stats_pairs() const = 0;
  /// `trace dump=` with its path already confined to trace_dir: write
  /// the dump and settle window entry `key` with the answer.
  virtual void trace_dump(Session& session, std::uint64_t key,
                          std::string path) = 0;
  /// `trace start`/`trace stop` flipped the process-wide tracer.
  virtual void trace_toggled(bool /*enabled*/) {}
  /// Extra `trace status` counters, appended after the tracer's own.
  virtual void trace_status(
      std::vector<std::pair<std::string, std::uint64_t>>& /*stats*/) const {}
  /// A response that carried a ResponseTiming fully left the process.
  virtual void record_flushed(const ResponseTiming& /*timing*/) {}
  /// Work whose completion may still call back into this host; the
  /// drain waits for zero (after the last session closes).
  [[nodiscard]] virtual std::uint64_t outstanding() const { return 0; }
  /// Hooks around the event loop inside run().
  virtual void on_run() {}
  virtual void after_run() {}

  // --- shared machinery for the tiers (loop thread) -------------------
  EventLoop& loop() { return loop_; }
  /// The live session with this id, or nullptr once it closed.
  Session* session(std::uint64_t conn_id);
  [[nodiscard]] std::size_t session_count() const { return sessions_.size(); }
  [[nodiscard]] bool draining() const { return draining_; }
  /// Posts the removal of session `conn_id` (safe from inside any of its
  /// own methods; idempotent).
  void defer_close(std::uint64_t conn_id);
  /// Finishes the drain once nothing is left (call after settling work
  /// that outstanding() counts).
  void maybe_finish();
  /// Serves `GET /metrics` for `registry` when metrics_port >= 0.
  void serve_metrics(obs::MetricsRegistry& registry);
  /// SLO accounting: one settled schedule request of priority class
  /// `cls` (kPriorityClasses = unclassified), error or success.
  void note_settled(int cls, bool ok);
  /// Exports the windowed per-class error ratio of note_settled as the
  /// gauge family `name`.
  void register_slo_gauges(obs::MetricsRegistry& registry, const char* name,
                           const char* help);
  /// Arms a timerfd on the loop firing `fn` after `ms` (every `ms` when
  /// `repeat`). Returns the fd (-1 on failure); close with close_fd().
  int add_timer(double ms, bool repeat, std::function<void()> fn);
  /// Unregisters and closes `fd` if open; leaves it -1.
  void close_fd(int& fd);
  /// Destroys every session. A tier calls it from its destructor, while
  /// the abandon() it dispatches to still exists (after a normal run()
  /// no session is left and this is a no-op).
  void close_sessions() { sessions_.clear(); }

  const HostConfig host_config_;
  SessionCounters session_counters_;
  /// Collector liveness guard: metrics bridges registered by a tier bail
  /// once the host is gone, so a registry that outlives it stays safe
  /// to snapshot. A tier clears it first thing in its destructor.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

 private:
  void accept_ready();
  void begin_drain();

  EventLoop loop_;
  Listener listener_;
  std::unique_ptr<MetricsHttp> metrics_http_;
  int signal_fd_ = -1;
  int drain_timer_fd_ = -1;  ///< armed by begin_drain past drain_timeout_ms
  bool listener_active_ = false;
  bool draining_ = false;
  std::unordered_map<std::uint64_t, std::unique_ptr<Session>> sessions_;
  std::uint64_t next_conn_id_ = 1;
  /// Sliding last-minute settled/errored counts per priority class
  /// ([kPriorityClasses] = all), read by the error-ratio gauges.
  obs::SlidingCounter slo_responses_[kPriorityClasses + 1];
  obs::SlidingCounter slo_errors_[kPriorityClasses + 1];
};

}  // namespace treesched::net
