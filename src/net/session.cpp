#include "net/session.hpp"

#include <signal.h>
#include <sys/epoll.h>
#include <sys/signalfd.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <system_error>

#include "obs/event_log.hpp"
#include "obs/trace.hpp"
#include "service/errors.hpp"
#include "util/confine.hpp"

namespace treesched::net {

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

Session::Session(SessionHost& host, int fd, std::uint64_t id)
    : host_(host),
      fd_(fd),
      id_(id),
      framer_(host.host_config_.max_line),
      reader_(host.host_config_.max_frame),
      // The accept moment doubles as the first burst stamp, so a request
      // that somehow precedes the first readable event still has one.
      burst_ns_(obs::now_ns()) {
  interest_ = EPOLLIN;
  host_.loop_.add(fd_, interest_,
                  [this](std::uint32_t events) { handle_events(events); });
}

Session::~Session() {
  for (const Pending& p : pending_) {
    if (!p.result.has_value()) host_.abandon(id_, p.key);
  }
  host_.loop_.remove(fd_);
  ::close(fd_);
}

void Session::handle_events(std::uint32_t events) {
  if (events & EPOLLERR) {
    abort_connection();
    return;
  }
  if (events & EPOLLOUT) {
    send_buffered();
    if (closing_) return;
  }
  if (events & EPOLLIN) {
    on_readable();
    if (closing_) return;
  } else if (events & EPOLLHUP) {
    // Peer fully closed and nothing left to read: any buffered answers
    // are undeliverable.
    abort_connection();
    return;
  }
  update_interest();
  finish_if_drained();
}

void Session::on_readable() {
  burst_ns_ = obs::now_ns();
  reading_ = true;
  std::array<char, 16384> chunk;
  while (!read_closed_ && !closing_) {
    // v3 reads straight into the FrameReader's buffer — payloads are
    // parsed in place, never copied into an intermediate line buffer.
    // Text (and the undetermined prelude) goes through a stack chunk.
    const bool binary = mode_ == Mode::kBinary;
    char* dst = binary ? reader_.write_ptr() : chunk.data();
    const std::size_t capacity =
        binary ? reader_.write_capacity() : chunk.size();
    const ssize_t n = ::read(fd_, dst, capacity);
    if (n > 0) {
      const auto got = static_cast<std::size_t>(n);
      if (binary) {
        reader_.commit(got);
        drain_frames();
      } else {
        handle_bytes(dst, got);
      }
      if (closing_) break;
      // Backpressure: a client that outpaces its own reading stops
      // being read until it drains us below the low watermark.
      if (buffered() > host_.host_config_.max_wbuf) break;
      // Short read = socket drained; skip the would-be-EAGAIN pass
      // (level-triggered epoll re-signals anything that raced in).
      if (got < capacity) break;
      continue;
    }
    if (n == 0) {
      on_eof();
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    abort_connection();  // ECONNRESET and friends
    break;
  }
  reading_ = false;
  if (closing_) return;
  flush_ready();
  send_buffered();
}

void Session::on_eof() {
  // Orderly EOF (half-close): the client said "no more requests, now
  // answer me".
  read_closed_ = true;
  if (mode_ == Mode::kBinary) {
    if (reader_.buffered() > 0) {
      // Half-close truncating a frame: the tail can never complete.
      ++host_.session_counters_.frames_bad;
      emit_error(std::nullopt, ErrorCode::kBadRequest,
                 "connection half-closed mid-frame (" +
                     std::to_string(reader_.buffered()) + " unframed bytes)");
    }
  } else if (mode_ == Mode::kDetect && !prelude_.empty()) {
    // The client greeted with 0xB3 (anything else resolves to text
    // immediately) but hung up before completing the magic.
    mode_ = Mode::kBinary;
    ++host_.session_counters_.frames_bad;
    emit_error(std::nullopt, ErrorCode::kBadRequest,
               "connection closed inside the protocol magic");
  } else if (const auto last = framer_.finish()) {
    // A final unterminated line still counts — the same grace
    // std::getline gives the stdin front-end.
    handle_line(*last);
  }
}

void Session::handle_bytes(const char* data, std::size_t len) {
  if (mode_ == Mode::kText) {
    feed_text(data, len);
    return;
  }
  // kDetect: buffer until the first byte (and, for 0xB3, the full
  // 4-byte magic) resolves the protocol.
  prelude_.append(data, len);
  if (prelude_.front() != kFrameMagic.front()) {
    // 0xB3 is not printable ASCII, so no v2 text line starts with it:
    // this connection is text. Replay the prelude through the framer.
    mode_ = Mode::kText;
    note_detected();
    const std::string prelude = std::move(prelude_);
    prelude_ = {};
    feed_text(prelude.data(), prelude.size());
    return;
  }
  if (prelude_.size() < kFrameMagic.size()) return;  // magic still partial
  if (std::string_view(prelude_).substr(0, kFrameMagic.size()) !=
      kFrameMagic) {
    mode_ = Mode::kBinary;  // they spoke 0xB3: answer in kind, then close
    ++host_.session_counters_.frames_bad;
    protocol_violation("bad protocol magic");
    return;
  }
  mode_ = Mode::kBinary;
  ++host_.session_counters_.v3_conns;
  note_detected();
  if (prelude_.size() > kFrameMagic.size()) {
    reader_.feed(prelude_.data() + kFrameMagic.size(),
                 prelude_.size() - kFrameMagic.size());
  }
  prelude_ = {};
  drain_frames();
}

void Session::note_detected() {
  // One span per connection marking protocol negotiation (burst start
  // to resolution) — the first hop of a cross-tier trace timeline.
  obs::Tracer& tracer = obs::Tracer::global();
  if (!tracer.enabled()) return;
  tracer.record("net/detect", burst_ns_, obs::now_ns() - burst_ns_, id_);
}

void Session::feed_text(const char* data, std::size_t len) {
  for (const LineFramer::Line& line : framer_.feed(data, len)) {
    handle_line(line);
    if (closing_ || read_closed_) return;
  }
}

void Session::handle_line(const LineFramer::Line& line) {
  ++host_.session_counters_.lines;
  if (line.overflow) {
    push_settled_error(std::nullopt, ErrorCode::kBadRequest,
                       "request line of " + std::to_string(line.wire_bytes) +
                           " bytes exceeds the " +
                           std::to_string(framer_.max_line()) +
                           "-byte limit");
    return;
  }
  // A view, not a copy: the comment is cut off and the rest parses in
  // place, exactly like a v3 payload.
  std::string_view text = line.text;
  text = text.substr(0, text.find('#'));
  if (text.find_first_not_of(" \t\r") == std::string_view::npos) return;
  handle_request(text, TraceContext{});
  flush_ready();
}

void Session::drain_frames() {
  Frame frame;
  while (!closing_ && !read_closed_) {
    const FrameReader::Status status = reader_.next(frame);
    if (status == FrameReader::Status::kNeedMore) return;
    if (status == FrameReader::Status::kBad) {
      ++host_.session_counters_.frames_bad;
      protocol_violation(reader_.bad_reason());
      return;
    }
    ++host_.session_counters_.frames_in;
    handle_frame(frame);
  }
}

void Session::handle_frame(const Frame& frame) {
  SessionCounters& counters = host_.session_counters_;
  switch (frame.opcode) {
    case Opcode::kRequest:
    case Opcode::kBatch: {
      // The trace extension leads the payload (for a batch, before the
      // entry count); every entry of a batch shares the frame's context.
      TraceContext ctx;
      std::string_view rest;
      std::string error;
      if (!split_trace_context(frame, ctx, rest, error)) {
        ++counters.frames_bad;
        protocol_violation(std::move(error));
        return;
      }
      if (frame.opcode == Opcode::kRequest) {
        ++counters.lines;
        handle_request(rest, ctx);
        return;
      }
      std::vector<std::string_view> entries;
      if (!decode_batch(rest, entries, error)) {
        ++counters.frames_bad;
        protocol_violation(std::move(error));
        return;
      }
      counters.batch_requests += entries.size();
      // One frame, many pipelined requests: every answer lands in wbuf_
      // and the whole batch flushes in a coalesced write.
      for (const std::string_view entry : entries) {
        ++counters.lines;
        handle_request(entry, ctx);
        if (closing_ || read_closed_) return;
      }
      return;
    }
    case Opcode::kCancel: {
      std::uint64_t cancel_id = 0;
      if (!decode_cancel(frame, cancel_id)) {
        ++counters.frames_bad;
        protocol_violation("cancel frame payload is not one u64 id");
        return;
      }
      handle_cancel(cancel_id);
      return;
    }
    case Opcode::kPing:
    case Opcode::kStats: {
      std::optional<std::uint64_t> id;
      if (!decode_control_id(frame, id)) {
        ++counters.frames_bad;
        protocol_violation("control frame payload contradicts its flags");
        return;
      }
      answer_control(frame.opcode == Opcode::kPing ? RequestLine::Kind::kPing
                                                   : RequestLine::Kind::kStats,
                     id);
      return;
    }
    default:
      ++counters.frames_bad;
      protocol_violation("unknown opcode " +
                         std::to_string(static_cast<int>(frame.opcode)));
      return;
  }
}

void Session::handle_request(std::string_view text, const TraceContext& ctx) {
  RequestView req;
  std::string error;
  bool parsed = false;
  {
    // The parse span carries the propagated trace id, so a cross-tier
    // timeline shows where each hop spent its grammar time.
    obs::ScopedSpan span(obs::Tracer::global(), "net/parse", ctx.trace_id);
    parsed = parse_request_view(text, req, error);
  }
  if (!parsed) {
    // A grammar error is the client's problem, not a protocol
    // violation: answer bad_request in stream order and keep going.
    // Untagged: a positional client correlates answers by position.
    ++host_.session_counters_.parse_errors;
    push_settled_error(std::nullopt, ErrorCode::kBadRequest,
                       std::move(error));
    return;
  }
  switch (req.kind) {
    case RequestLine::Kind::kSchedule:
      handle_schedule(req, ctx);
      return;
    case RequestLine::Kind::kCancel:
      handle_cancel(*req.id);
      return;
    case RequestLine::Kind::kTrace:
      handle_trace(req);
      return;
    case RequestLine::Kind::kPing:
    case RequestLine::Kind::kStats:
      answer_control(req.kind, req.id);
      return;
  }
}

void Session::answer_control(RequestLine::Kind kind,
                             std::optional<std::uint64_t> id) {
  // Health checks bypass the window: a process drowning in Bulk work
  // still answers its load balancer at once. ping probes THIS hop; the
  // router's stats carry its backends' state.
  ResponseLine line;
  line.ok = true;
  line.id = id;
  if (kind == RequestLine::Kind::kPing) {
    line.kind = ResponseLine::Kind::kPong;
  } else {
    line.kind = ResponseLine::Kind::kStats;
    line.stats = host_.stats_pairs();
  }
  send_response(line);
}

void Session::handle_schedule(const RequestView& req,
                              const TraceContext& ctx) {
  if (req.id && has_pending_tag(*req.id)) {
    push_settled_error(std::nullopt, ErrorCode::kBadRequest,
                       "duplicate id=" + std::to_string(*req.id) +
                           " (a request with this tag is still pending)");
    return;
  }
  const std::size_t window = host_.host_config_.max_pending;
  if (inflight_ >= window) {
    // The per-connection admission bound: typed, immediate, and cheap —
    // the tier never sees the request.
    obs::EventLog::global().emit(
        "queue_full", ctx.trace_id,
        {obs::EventLog::Field::u64("conn", id_),
         obs::EventLog::Field::u64("window", window)});
    host_.note_settled(static_cast<int>(req.priority), false);
    std::string msg = "connection window full (" + std::to_string(window) +
                      " requests in flight); read some answers first";
    if (req.id) {
      emit_error(req.id, ErrorCode::kQueueFull, msg);
    } else {
      push_settled_error(std::nullopt, ErrorCode::kQueueFull, std::move(msg));
    }
    return;
  }
  Pending& entry = pending_.emplace_back();
  entry.key = next_key_++;
  entry.id = req.id;
  entry.priority = static_cast<int>(req.priority);
  entry.counted = true;
  ++inflight_;
  host_.schedule(*this, entry.key, req, ctx);
}

void Session::handle_cancel(std::uint64_t cancel_id) {
  Pending* target = nullptr;
  for (Pending& p : pending_) {
    if (p.id && *p.id == cancel_id) {
      target = &p;
      break;
    }
  }
  // Acks are untagged (a late cancel racing the answer must not put a
  // second id=N response on the wire) and held in stream order.
  if (!target) {
    push_settled_error(std::nullopt, ErrorCode::kBadRequest,
                       "cancel id=" + std::to_string(cancel_id) +
                           ": no pending request with this id");
    return;
  }
  // On success the tier settles the entry with code=cancelled — now, or
  // when the withdrawn work reports back.
  if (target->result.has_value() || !host_.cancel(*this, target->key)) {
    push_settled_error(std::nullopt, ErrorCode::kBadRequest,
                       "cancel id=" + std::to_string(cancel_id) +
                           ": request already " +
                           host_.host_config_.cancel_too_late +
                           " or answered");
  }
}

void Session::handle_trace(const RequestView& req) {
  // The tracer is process-wide: every session drives the same one,
  // which is the point — one client turns tracing on, load comes from
  // anywhere, and a dump sees it all.
  obs::Tracer& tracer = obs::Tracer::global();
  const std::string tier = host_.host_config_.tier;
  if (req.trace_action == "dump") {
    // A dump writes a file on this host, so it is off unless the
    // operator opted in with a trace directory, and the client's path
    // is confined to it (the same rule as `file:` tree specs).
    const std::string& trace_dir = host_.host_config_.trace_dir;
    if (trace_dir.empty()) {
      emit_error(req.id, ErrorCode::kBadRequest,
                 "trace dump is disabled on this " + tier +
                     " (start it with --trace-dir to allow dumps)");
      return;
    }
    std::string resolved;
    if (!confine_relative_path(trace_dir, req.trace_path, resolved)) {
      emit_error(req.id, ErrorCode::kBadRequest,
                 "trace dump path must be a relative name inside the " +
                     tier +
                     "'s trace directory (no absolute paths, no \"..\")");
      return;
    }
    // The dump rides the window like a request (the router's merged
    // dump waits on every live node), so untagged answers behind it keep
    // their order. It is pushed before the tier starts: a dump that
    // settles synchronously must already find its entry.
    Pending& entry = pending_.emplace_back();
    entry.key = next_key_++;
    entry.id = req.id;
    host_.trace_dump(*this, entry.key, std::move(resolved));
    return;
  }
  ResponseLine line;
  line.kind = ResponseLine::Kind::kTrace;
  line.ok = true;
  line.id = req.id;
  if (req.trace_action == "pull") {
    // The spans themselves, encoded as stats pairs — the primitive the
    // router's merged dump is built on (a router can itself be a
    // backend). Bounded so the reply always fits the frame budget.
    obs::encode_span_pairs(tracer.snapshot(), obs::kTracePullMaxSpans,
                           line.stats);
    send_response(line);
    return;
  }
  if (req.trace_action == "start" || req.trace_action == "stop") {
    const bool enable = req.trace_action == "start";
    if (enable) {
      tracer.enable();
    } else {
      tracer.disable();
    }
    host_.trace_toggled(enable);
  }
  line.stats = {
      {"enabled", tracer.enabled() ? 1 : 0},
      {"spans", tracer.recorded()},
      {"dropped", tracer.dropped()},
  };
  if (req.trace_action == "status") {
    // Per-recording-thread overwrite counts: a truncated dump can name
    // the thread that lost spans instead of one opaque total.
    for (const auto& [tid, drops] : tracer.dropped_by_ring()) {
      line.stats.emplace_back("ring" + std::to_string(tid) + "_dropped",
                              drops);
    }
    host_.trace_status(line.stats);
  }
  send_response(line);
}

void Session::settle(std::uint64_t key, ResponseLine line,
                     std::optional<ResponseTiming> timing) {
  // Keys enter the window in increasing order and erasure keeps it, so
  // the entry is found by binary search.
  const auto it = std::lower_bound(
      pending_.begin(), pending_.end(), key,
      [](const Pending& p, std::uint64_t k) { return p.key < k; });
  if (it == pending_.end() || it->key != key || it->result.has_value()) {
    return;
  }
  if (it->priority >= 0) host_.note_settled(it->priority, line.ok);
  if (it->counted) {
    it->counted = false;
    --inflight_;
  }
  line.id = it->id;
  if (timing) timing->id = it->id;
  it->result = std::move(line);
  it->timing = std::move(timing);
  if (!reading_) schedule_flush();
}

void Session::schedule_flush() {
  if (flush_scheduled_ || closing_) return;
  flush_scheduled_ = true;
  // Many answers can settle in one dispatch batch (a burst of ticket
  // completions, one upstream read); order and write them ONCE at its
  // end. The session may be destroyed before the deferred call runs (an
  // abort posts its removal), so the closure re-resolves it by id.
  SessionHost& host = host_;
  const std::uint64_t conn_id = id_;
  host.loop_.defer([&host, conn_id] {
    if (Session* s = host.session(conn_id)) s->flush_deferred();
  });
}

void Session::flush_deferred() {
  flush_scheduled_ = false;
  if (closing_) return;
  flush_ready();
  send_buffered();
  if (closing_) return;
  update_interest();
  finish_if_drained();
}

void Session::flush_ready() {
  emit_now_ns_ = 0;  // one lazy clock read serves the whole emit burst
  // The settled in-order prefix answers first…
  const auto open = std::find_if(
      pending_.begin(), pending_.end(),
      [](const Pending& p) { return !p.result.has_value(); });
  for (auto it = pending_.begin(); it != open; ++it) emit(*it);
  // …then any settled id=-tagged entry behind it (the tag makes an
  // out-of-order answer attributable).
  const auto answerable = [](const Pending& p) {
    return p.id.has_value() && p.result.has_value();
  };
  for (auto it = open; it != pending_.end(); ++it) {
    if (answerable(*it)) emit(*it);
  }
  pending_.erase(std::remove_if(open, pending_.end(), answerable),
                 pending_.end());
  pending_.erase(pending_.begin(), open);
}

void Session::emit(Pending& pending) {
  send_response(*pending.result);
  if (!pending.timing) return;
  if (emit_now_ns_ == 0) emit_now_ns_ = obs::now_ns();
  FlushMark mark;
  mark.timing = std::move(*pending.timing);
  mark.timing.stamps.stamp(obs::Stage::kSerialize, emit_now_ns_);
  // The response is flushed once this many bytes have left the process.
  mark.target = cum_sent_ + buffered();
  flush_q_.push_back(std::move(mark));
}

void Session::emit_error(std::optional<std::uint64_t> id, ErrorCode code,
                         const std::string& message) {
  ResponseLine line = ResponseLine::error(code, message);
  line.id = id;
  send_response(line);
}

void Session::push_settled_error(std::optional<std::uint64_t> id,
                                 ErrorCode code, std::string message) {
  Pending& entry = pending_.emplace_back();
  entry.key = next_key_++;
  entry.id = id;
  entry.result = ResponseLine::error(code, std::move(message));
  entry.result->id = id;
}

void Session::protocol_violation(std::string message) {
  // Unlike a bad text line (where the next newline resynchronizes),
  // framing is unrecoverable after a bad frame: answer once, stop
  // reading, let the settled window flush, then close. The hostile
  // bytes past the violation are never examined.
  emit_error(std::nullopt, ErrorCode::kBadRequest, message);
  read_closed_ = true;
}

bool Session::has_pending_tag(std::uint64_t tag) const {
  for (const Pending& p : pending_) {
    if (p.id && *p.id == tag) return true;
  }
  return false;
}

void Session::send_response(const ResponseLine& line) {
  if (mode_ == Mode::kBinary) {
    FrameWriter writer(wbuf_);
    writer.response(line);
  } else {
    wbuf_ += format_response_line(line);
    wbuf_.push_back('\n');
  }
}

void Session::send_buffered() {
  while (wbuf_head_ < wbuf_.size()) {
    const ssize_t n = ::send(fd_, wbuf_.data() + wbuf_head_, buffered(),
                             MSG_NOSIGNAL);
    if (n > 0) {
      wbuf_head_ += static_cast<std::size_t>(n);
      cum_sent_ += static_cast<std::uint64_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // EPIPE/ECONNRESET: the client is gone; buffered answers are
    // undeliverable and its unsettled work is withdrawn.
    abort_connection();
    return;
  }
  if (wbuf_head_ == wbuf_.size()) {
    wbuf_.clear();
    wbuf_head_ = 0;
  } else if (wbuf_head_ > 65536 && wbuf_head_ * 2 > wbuf_.size()) {
    wbuf_.erase(0, wbuf_head_);
    wbuf_head_ = 0;
  }
  // Every response whose last byte just reached the kernel is flushed:
  // stamp once (the whole drained batch shares one clock read) and hand
  // the stage record to the host.
  if (!flush_q_.empty() && cum_sent_ >= flush_q_.front().target) {
    const std::uint64_t now = obs::now_ns();
    do {
      FlushMark& mark = flush_q_.front();
      mark.timing.stamps.stamp(obs::Stage::kFlush, now);
      host_.record_flushed(mark.timing);
      flush_q_.pop_front();
    } while (!flush_q_.empty() && cum_sent_ >= flush_q_.front().target);
  }
}

void Session::update_interest() {
  if (closing_) return;
  // Hysteresis: stop reading past the high watermark, resume only once
  // the client has drained us below half — no flapping per send cycle.
  const std::size_t max_wbuf = host_.host_config_.max_wbuf;
  if (buffered() > max_wbuf) {
    paused_reads_ = true;
  } else if (buffered() <= max_wbuf / 2) {
    paused_reads_ = false;
  }
  std::uint32_t want = 0;
  if (!read_closed_ && !paused_reads_) want |= EPOLLIN;
  if (buffered() > 0) want |= EPOLLOUT;
  if (want != interest_) {
    host_.loop_.modify(fd_, want);
    interest_ = want;
  }
}

void Session::begin_drain() {
  // Stop reading — requests already framed keep their answers, new
  // bytes are ignored — and close once the window answers and flushes.
  read_closed_ = true;
  flush_ready();
  send_buffered();
  update_interest();
  finish_if_drained();
}

void Session::abort_connection() {
  if (closing_) return;
  closing_ = true;
  host_.defer_close(id_);
}

void Session::finish_if_drained() {
  if (closing_ || !read_closed_) return;
  if (pending_.empty() && buffered() == 0) {
    closing_ = true;
    host_.defer_close(id_);
  }
}

// ---------------------------------------------------------------------------
// SessionHost
// ---------------------------------------------------------------------------

SessionHost::SessionHost(HostConfig config)
    : host_config_(std::move(config)), listener_(host_config_.listener) {
  if (!host_config_.log_json.empty() && !obs::EventLog::global().enabled()) {
    std::string error;
    if (!obs::EventLog::global().open(host_config_.log_json, error)) {
      throw std::system_error(std::make_error_code(std::errc::io_error),
                              "cannot open --log-json sink: " + error);
    }
  }
}

SessionHost::~SessionHost() {
  *alive_ = false;
  if (signal_fd_ >= 0) ::close(signal_fd_);
  if (drain_timer_fd_ >= 0) ::close(drain_timer_fd_);
}

void SessionHost::serve_metrics(obs::MetricsRegistry& registry) {
  if (host_config_.metrics_port < 0) return;
  metrics_http_ = std::make_unique<MetricsHttp>(
      loop_, registry,
      ListenerConfig{
          .bind = host_config_.metrics_bind,
          .port = static_cast<std::uint16_t>(host_config_.metrics_port),
          .unix_path = {}});
}

void SessionHost::run() {
  loop_.add(listener_.fd(), EPOLLIN,
            [this](std::uint32_t) { accept_ready(); });
  listener_active_ = true;
  if (metrics_http_) metrics_http_->start();
  if (host_config_.handle_signals) {
    sigset_t mask;
    sigemptyset(&mask);
    sigaddset(&mask, SIGTERM);
    sigaddset(&mask, SIGINT);
    signal_fd_ = ::signalfd(-1, &mask, SFD_NONBLOCK | SFD_CLOEXEC);
    if (signal_fd_ < 0) {
      throw std::system_error(errno, std::generic_category(), "signalfd");
    }
    loop_.add(signal_fd_, EPOLLIN, [this](std::uint32_t) {
      signalfd_siginfo info;
      while (::read(signal_fd_, &info, sizeof(info)) > 0) {
      }
      begin_drain();
    });
  }
  on_run();
  loop_.run();
  // Drained: no session and nothing outstanding — every accepted
  // request was answered or withdrawn, and no completion can reach this
  // host again. (run()'s caller is the loop thread, so tearing down the
  // scrape endpoint here is in-contract.)
  if (metrics_http_) metrics_http_->stop();
  close_fd(signal_fd_);
  close_fd(drain_timer_fd_);
  after_run();
}

void SessionHost::stop() {
  loop_.post([this] { begin_drain(); });
}

void SessionHost::accept_ready() {
  listener_.accept_ready([this](int fd) {
    if (draining_) {
      ::close(fd);
      return;
    }
    if (sessions_.size() >= host_config_.max_conns) {
      ++session_counters_.rejected_conns;
      // Best-effort courtesy line: a one-shot write on a fresh socket
      // virtually always fits the send buffer.
      const std::string text =
          format_response_line(ResponseLine::error(
              ErrorCode::kQueueFull,
              std::string(host_config_.tier) + " at max connections (" +
                  std::to_string(host_config_.max_conns) + ")")) +
          "\n";
      (void)::send(fd, text.data(), text.size(), MSG_NOSIGNAL);
      ::close(fd);
      return;
    }
    ++session_counters_.accepted;
    const std::uint64_t id = next_conn_id_++;
    sessions_.emplace(id, std::make_unique<Session>(*this, fd, id));
  });
}

Session* SessionHost::session(std::uint64_t conn_id) {
  const auto it = sessions_.find(conn_id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

void SessionHost::defer_close(std::uint64_t conn_id) {
  loop_.post([this, conn_id] {
    sessions_.erase(conn_id);  // idempotent; the destructor withdraws
    if (draining_) maybe_finish();
  });
}

void SessionHost::begin_drain() {
  if (draining_) return;
  draining_ = true;
  obs::EventLog::global().emit(
      "drain_begin", 0,
      {obs::EventLog::Field::u64("conns", sessions_.size()),
       obs::EventLog::Field::u64("outstanding", outstanding())});
  if (listener_active_) {
    loop_.remove(listener_.fd());
    listener_active_ = false;
  }
  if (host_config_.drain_timeout_ms > 0.0 && drain_timer_fd_ < 0) {
    // The drain's hard ceiling: a client that never reads its answers
    // keeps its write buffer from flushing, which would hold run() up
    // forever. Past the timeout every remaining session closes —
    // undelivered answers are dropped, queued work withdrawn — and the
    // drain finishes as usual.
    drain_timer_fd_ = add_timer(host_config_.drain_timeout_ms, false, [this] {
      // Snapshot the ids: defer_close posts erasures, and destructors
      // must not run while we iterate the map.
      std::vector<std::uint64_t> ids;
      ids.reserve(sessions_.size());
      for (const auto& [id, s] : sessions_) ids.push_back(id);
      for (const std::uint64_t id : ids) defer_close(id);
    });
  }
  for (auto& [id, s] : sessions_) s->begin_drain();
  maybe_finish();
}

void SessionHost::maybe_finish() {
  if (sessions_.empty() && outstanding() == 0) {
    obs::EventLog::global().emit("drain_complete", 0, {});
    loop_.stop();
  }
}

int SessionHost::add_timer(double ms, bool repeat, std::function<void()> fn) {
  const int fd = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (fd < 0) return -1;
  const auto ns = static_cast<std::uint64_t>(ms * 1e6);
  itimerspec spec{};
  spec.it_value.tv_sec = static_cast<time_t>(ns / 1'000'000'000ULL);
  spec.it_value.tv_nsec = static_cast<long>(ns % 1'000'000'000ULL);
  if (spec.it_value.tv_sec == 0 && spec.it_value.tv_nsec == 0) {
    spec.it_value.tv_nsec = 1;  // zero would disarm the timer
  }
  if (repeat) spec.it_interval = spec.it_value;
  ::timerfd_settime(fd, 0, &spec, nullptr);
  loop_.add(fd, EPOLLIN, [fd, fn = std::move(fn)](std::uint32_t) {
    std::uint64_t expirations = 0;
    while (::read(fd, &expirations, sizeof(expirations)) > 0) {
    }
    fn();
  });
  return fd;
}

void SessionHost::close_fd(int& fd) {
  if (fd < 0) return;
  loop_.remove(fd);
  ::close(fd);
  fd = -1;
}

void SessionHost::note_settled(int cls, bool ok) {
  if (cls < 0 || cls > kPriorityClasses) cls = kPriorityClasses;
  slo_responses_[cls].inc();
  if (!ok) slo_errors_[cls].inc();
  if (cls != kPriorityClasses) {
    slo_responses_[kPriorityClasses].inc();
    if (!ok) slo_errors_[kPriorityClasses].inc();
  }
}

void SessionHost::register_slo_gauges(obs::MetricsRegistry& registry,
                                      const char* name, const char* help) {
  // Errors over settled requests across the sliding last-minute window,
  // one gauge per priority class plus "all" (0 when idle).
  registry.register_collector([this, name, help,
                               alive = std::weak_ptr<bool>(alive_)](
                                  obs::RegistrySnapshot& out) {
    if (alive.expired()) return;
    for (int c = 0; c <= kPriorityClasses; ++c) {
      const char* label =
          c == kPriorityClasses ? "all" : to_string(static_cast<Priority>(c));
      const std::uint64_t total = slo_responses_[c].windowed();
      const std::uint64_t errors = slo_errors_[c].windowed();
      out.samples.push_back(obs::MetricSample{
          name, std::string("class=\"") + label + "\"", help,
          obs::MetricKind::kGauge,
          total == 0 ? 0.0
                     : static_cast<double>(errors) / static_cast<double>(total),
          ""});
    }
  });
}

}  // namespace treesched::net
