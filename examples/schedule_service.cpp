// Streaming front-end for the scheduling service, speaking protocol v2:
// reads newline-delimited requests from a file or stdin, submits each one
// as a Ticket through SchedulingService::submit(), and streams response
// lines as results become available.
//
// Request line:     <tree-spec> <algo> <p> [<memory-cap>]
//                       [priority=interactive|batch|bulk]
//                       [deadline_ms=<positive float>] [id=<n>]
//                   cancel id=<n>
//                   ping [id=<n>]        answered `pong [id=<n>]` at once
//                   stats [id=<n>]       queue/cache/store counters at once
//                   trace start|stop|status|dump=<path> [id=<n>]
//                                        drives the process-wide tracer
// (service/request_line.hpp is the grammar's single home; unknown
// key=value fields are rejected with an error naming the field.)
// Tree specs:       file:<path>             a treesched-tree v1 file
//                   random:<n>:<seed>       random weighted tree
//                   grid:<nx>:<z>           2D-grid assembly tree
//                   synthetic:<n>:<seed>    assembly-like synthetic tree
// '#' starts a comment; blank lines are skipped (both still produce no
// response line).
//
// Response lines (format_response_line):
//   ok [id=<n>] tree=<hash> n=<nodes> algo=<name> p=<p> makespan=<f>
//      peak_memory=<bytes> cache=hit|miss priority=<class>
//   error [id=<n>] code=<error-code> <message>
//
// Ordering: untagged requests are answered in submission order. An
// id=-tagged request may be answered the moment it completes — out of
// order — because the tag makes the line attributable; the same tag is
// what `cancel id=<n>` uses to cancel it while still queued (a
// successful cancel answers the request with code=cancelled; a cancel
// naming an unknown/already-answered/running request answers
// code=bad_request). Protocol violations answer code=bad_request without
// aborting the stream.
//
//   $ printf 'random:500:1 ParSubtrees 8 id=1\nrandom:500:1 ParSubtrees 8\n' \
//       | ./schedule_service --stats
//
// --cache-mb 0 disables the result cache (every request recomputes).
// --max-pending bounds the in-flight window: past it the reader blocks
// on the oldest pending answer before accepting more lines, so a huge
// input file cannot flood the queue (backpressure, v1's --batch role).
// --metrics-port N serves `GET /metrics` (Prometheus text exposition of
// the service's registry) on 127.0.0.1:N from a dedicated thread; 0
// picks an ephemeral port (printed to stderr). --slow-ms T logs the
// stage breakdown of any request slower than T ms to stderr.
// This front-end reads trusted local stdin, so unlike schedule_server it
// keeps unrestricted file: specs and unbounded generator specs.

#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/event_loop.hpp"
#include "net/metrics_http.hpp"
#include "obs/metrics.hpp"
#include "obs/stages.hpp"
#include "obs/trace.hpp"
#include "service/request_line.hpp"
#include "service/service.hpp"
#include "campaign/dataset.hpp"
#include "util/cli.hpp"

namespace {

using namespace treesched;

/// One in-flight request: its ticket plus the echo fields of the eventual
/// ok line — or a pre-settled error (parse/spec failure of an untagged
/// line) held in the stream so it still answers in submission order.
struct Pending {
  Ticket ticket;
  std::optional<std::uint64_t> id;
  TreeHash tree_hash = 0;
  NodeId n = 0;
  std::string algo;
  int p = 1;
  Priority priority = Priority::kBatch;
  /// Set for lines that failed before reaching submit(): the canned
  /// error answer, emitted at this line's position.
  std::optional<ServiceError> settled_error;
};

class Stream {
 public:
  Stream(SchedulingService& service, std::size_t max_pending,
         double slow_ms)
      : service_(service), max_pending_(max_pending), slow_ms_(slow_ms) {}

  /// Handles one nonempty, comment-stripped input line; prints any
  /// response lines that become available.
  void consume(const std::string& line) {
    ++lines_;
    RequestLine parsed;
    bool parse_ok = true;
    try {
      parsed = parse_request_line(line);
    } catch (const std::exception& e) {
      // Untagged: a positional client correlates responses by line, so
      // the error must keep its place in the stream, not jump the queue.
      ++parse_errors_;
      push_settled_error(std::nullopt, ErrorCode::kBadRequest, e.what());
      parse_ok = false;
    }
    if (parse_ok) {
      switch (parsed.kind) {
        case RequestLine::Kind::kCancel:
          handle_cancel(*parsed.id);
          break;
        case RequestLine::Kind::kPing:
          handle_ping(parsed);
          break;
        case RequestLine::Kind::kStats:
          handle_stats(parsed);
          break;
        case RequestLine::Kind::kTrace:
          handle_trace(parsed);
          break;
        case RequestLine::Kind::kSchedule:
          handle_schedule(parsed);
          break;
      }
    }
    drain(false);
    // Backpressure — on every path, settled-error lines included: never
    // hold more than max_pending_ unanswered lines; block on the oldest
    // until the window shrinks (its answer streams out in order).
    while (pending_.size() > max_pending_) emit_front(/*block=*/true);
  }

  /// EOF: answer everything still pending, in submission order.
  void finish() { drain(true); }

 private:
  void handle_schedule(const RequestLine& parsed) {
    if (parsed.id && by_id_.count(*parsed.id)) {
      // Untagged on purpose (tagging it id=N would collide with the
      // still-pending request N's eventual answer) and held in stream
      // order like every untagged answer. The message names the id.
      push_settled_error(std::nullopt, ErrorCode::kBadRequest,
                         "duplicate id=" + std::to_string(*parsed.id) +
                             " (a request with this tag is still pending)");
      return;
    }
    Pending pending;
    pending.id = parsed.id;
    pending.algo = parsed.algo;
    pending.p = parsed.p;
    pending.priority = parsed.priority;
    ScheduleRequest req;
    try {
      req.tree = handle_for(parsed.tree_spec);
    } catch (const std::exception& e) {
      // Spec resolution (file IO, generator args) is a protocol-level
      // failure; store rejection surfaces its own kStoreFull code.
      // Answer in place for tagged lines, in order for untagged ones.
      const StoreFull* full = dynamic_cast<const StoreFull*>(&e);
      const ErrorCode code =
          full ? ErrorCode::kStoreFull : ErrorCode::kBadRequest;
      if (parsed.id) {
        emit_error(parsed.id, code, e.what());
      } else {
        push_settled_error(parsed.id, code, e.what());
      }
      return;
    }
    pending.tree_hash = req.tree.hash;
    pending.n = req.tree->size();
    // One clock read stamps both front-end stages: the stdin path has
    // no network accept, so "accept" is the moment the line was read.
    const std::uint64_t now = obs::now_ns();
    req.stamps.stamp(obs::Stage::kAccept, now);
    req.stamps.stamp(obs::Stage::kParse, now);
    req.algo = parsed.algo;
    req.p = parsed.p;
    req.memory_cap = parsed.memory_cap;
    req.priority = parsed.priority;
    req.deadline_ms = parsed.deadline_ms;
    pending.ticket = service_.submit(std::move(req));
    if (pending.id) by_id_.insert(*pending.id);
    pending_.push_back(std::move(pending));
  }

  void handle_cancel(std::uint64_t id) {
    Pending* target = nullptr;
    for (Pending& p : pending_) {
      if (p.id && *p.id == id) {
        target = &p;
        break;
      }
    }
    if (!target) {
      // Untagged (a late cancel racing the answer must not put a second
      // id=N line on the wire) and held in stream order like every
      // untagged answer.
      push_settled_error(std::nullopt, ErrorCode::kBadRequest,
                         "cancel id=" + std::to_string(id) +
                             ": no pending request with this id");
      return;
    }
    if (!target->ticket.cancel()) {
      // Already running or already answered: the documented no-op. The
      // request's own answer line stands and keeps the id=N tag to
      // itself — this untagged, stream-ordered ack names the id in the
      // message.
      push_settled_error(std::nullopt, ErrorCode::kBadRequest,
                         "cancel id=" + std::to_string(id) +
                             ": request already running or answered");
    }
    // On success the ticket settled with code=cancelled; the next drain
    // emits that line as the request's answer.
  }

  /// Control lines answer immediately, out of band of the pending
  /// window — same contract as the TCP front-end: a stream drowning in
  /// queued work still gets its health check through.
  void handle_ping(const RequestLine& parsed) {
    ResponseLine line;
    line.kind = ResponseLine::Kind::kPong;
    line.ok = true;
    line.id = parsed.id;
    std::cout << format_response_line(line) << "\n";
  }

  void handle_stats(const RequestLine& parsed) {
    ResponseLine line;
    line.kind = ResponseLine::Kind::kStats;
    line.ok = true;
    line.id = parsed.id;
    // The stream's transport counters, then the shared service
    // vocabulary (service_stats_pairs keeps both front-ends aligned).
    line.stats = {{"pending", pending_.size()},
                  {"lines", lines_},
                  {"parse_errors", parse_errors_}};
    for (auto& pair : service_stats_pairs(service_)) {
      line.stats.push_back(std::move(pair));
    }
    std::cout << format_response_line(line) << "\n";
  }

  /// Same contract as the TCP front-end's trace verb: drives the
  /// process-wide tracer, answers a stats-shaped `trace` line at once.
  void handle_trace(const RequestLine& parsed) {
    obs::Tracer& tracer = obs::Tracer::global();
    std::uint64_t written = 0;
    bool dumped = false;
    if (parsed.trace_action == "start") {
      tracer.enable();
    } else if (parsed.trace_action == "stop") {
      tracer.disable();
    } else if (parsed.trace_action == "dump") {
      std::ofstream out{parsed.trace_path};
      if (!out) {
        emit_error(parsed.id, ErrorCode::kBadRequest,
                   "cannot open trace path \"" + parsed.trace_path +
                       "\" for writing");
        return;
      }
      written = tracer.write_chrome_trace(out);
      if (!out) {
        emit_error(parsed.id, ErrorCode::kBadRequest,
                   "short write dumping trace to \"" + parsed.trace_path +
                       "\"");
        return;
      }
      dumped = true;
    }  // "status" mutates nothing
    ResponseLine line;
    line.kind = ResponseLine::Kind::kTrace;
    line.ok = true;
    line.id = parsed.id;
    line.stats = {
        {"enabled", tracer.enabled() ? 1 : 0},
        {"spans", tracer.recorded()},
        {"dropped", tracer.dropped()},
    };
    if (dumped) line.stats.emplace_back("written", written);
    std::cout << format_response_line(line) << "\n";
  }

  /// Answers the oldest pending entry and removes it; with block=false
  /// returns false (and leaves the stream untouched) while that entry is
  /// still pending. The single home of the front-emission bookkeeping.
  bool emit_front(bool block) {
    Pending& front = pending_.front();
    const std::optional<ServiceResult> result =
        front.settled_error
            ? std::optional<ServiceResult>(*front.settled_error)
            : (block ? std::optional<ServiceResult>(front.ticket.wait())
                     : front.ticket.try_get());
    if (!result) return false;
    emit(front, *result);
    if (front.id) by_id_.erase(*front.id);
    pending_.pop_front();
    return true;
  }

  void push_settled_error(std::optional<std::uint64_t> id, ErrorCode code,
                          std::string message) {
    Pending pending;
    pending.id = id;
    pending.settled_error =
        ServiceError{code, std::move(message), nullptr};
    pending_.push_back(std::move(pending));
  }

  /// Prints every answerable response: the in-order prefix always, plus
  /// any completed id-tagged entry anywhere in the window (the tag makes
  /// an out-of-order line attributable). `block` waits everything out.
  void drain(bool block) {
    while (!pending_.empty()) {
      if (!emit_front(block)) break;
    }
    if (by_id_.empty()) {
      // No tagged entries pending: the out-of-order scan below could
      // only ever skip, so don't walk (and lock) the whole window.
      std::cout.flush();
      return;
    }
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (!it->id) {
        ++it;
        continue;  // untagged: must keep submission order
      }
      std::optional<ServiceResult> result = it->ticket.try_get();
      if (!result) {
        ++it;
        continue;
      }
      emit(*it, *result);
      by_id_.erase(*it->id);
      it = pending_.erase(it);
    }
    std::cout.flush();
  }

  void emit(const Pending& pending, const ServiceResult& result) {
    ResponseLine line;
    line.id = pending.id;
    if (result.ok()) {
      const ScheduleResponse& resp = result.value();
      line.ok = true;
      line.tree_hash = pending.tree_hash;
      line.n = pending.n;
      line.algo = pending.algo;
      line.p = pending.p;
      line.makespan = resp.makespan;
      line.peak_memory = resp.peak_memory;
      line.cache_hit = resp.cache_hit;
      line.priority = pending.priority;
    } else {
      line.ok = false;
      line.code = result.error().code;
      line.message = result.error().message;
    }
    std::cout << format_response_line(line) << "\n";
    if (slow_ms_ > 0.0 && result.ok()) slow_log(pending, result.value());
  }

  /// Stage breakdown to stderr for requests over --slow-ms. The stream
  /// has no flush stage — e2e here is accept to compute end.
  void slow_log(const Pending& pending, const ScheduleResponse& resp) {
    using obs::Stage;
    const obs::StageStamps& st = resp.stamps;
    if (!st.has(Stage::kAccept) || !st.has(Stage::kComputeEnd)) return;
    const std::uint64_t e2e = st.between(Stage::kAccept, Stage::kComputeEnd);
    if (static_cast<double>(e2e) < slow_ms_ * 1e6) return;
    std::string msg = "[treesched] slow request";
    if (pending.id) msg.append(" id=").append(std::to_string(*pending.id));
    msg.append(" algo=").append(pending.algo);
    msg.append(" class=").append(to_string(pending.priority));
    char buf[64];
    std::snprintf(buf, sizeof(buf), " e2e=%.3fms",
                  static_cast<double>(e2e) / 1e6);
    msg.append(buf);
    const auto stage_delta = [&](const char* name, Stage from, Stage to) {
      if (!st.has(from) || !st.has(to)) return;
      std::snprintf(buf, sizeof(buf), " %s=%.3fms", name,
                    static_cast<double>(st.between(from, to)) / 1e6);
      msg.append(buf);
    };
    stage_delta("admit", Stage::kParse, Stage::kAdmit);
    stage_delta("queue_wait", Stage::kAdmit, Stage::kDequeue);
    stage_delta("dispatch", Stage::kDequeue, Stage::kComputeStart);
    stage_delta("compute", Stage::kComputeStart, Stage::kComputeEnd);
    msg.push_back('\n');
    std::fputs(msg.c_str(), stderr);
  }

  void emit_error(std::optional<std::uint64_t> id, ErrorCode code,
                  const std::string& message) {
    ResponseLine line;
    line.ok = false;
    line.id = id;
    line.code = code;
    line.message = message;
    std::cout << format_response_line(line) << "\n";
  }

  TreeHandle handle_for(const std::string& spec) {
    const auto it = by_spec_.find(spec);
    if (it != by_spec_.end()) return it->second;
    const TreeHandle handle = service_.intern(tree_from_spec(spec));
    by_spec_.emplace(spec, handle);
    return handle;
  }

  SchedulingService& service_;
  const std::size_t max_pending_;
  std::unordered_map<std::string, TreeHandle> by_spec_;
  std::deque<Pending> pending_;
  /// Tags of pending requests, for duplicate-id detection (cancel scans
  /// the deque itself — the pending window is small).
  std::unordered_set<std::uint64_t> by_id_;
  std::uint64_t lines_ = 0;
  std::uint64_t parse_errors_ = 0;
  const double slow_ms_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace treesched;
  try {
    CliArgs args(argc, argv);
    const std::string input = args.get("input", "-");
    ServiceConfig config;
    config.cache_bytes =
        static_cast<std::size_t>(args.get_int("cache-mb", 256)) << 20;
    config.validate = args.get_bool("validate", false);
    config.queue.age_after =
        std::chrono::milliseconds(args.get_int("age-ms", 250));
    config.store.max_bytes =
        static_cast<std::size_t>(args.get_int("store-mb", 0)) << 20;
    const auto max_pending =
        static_cast<std::size_t>(args.get_int("max-pending", 256));
    const bool stats = args.get_bool("stats", false);
    const int metrics_port = static_cast<int>(args.get_int("metrics-port", -1));
    const double slow_ms = args.get_double("slow-ms", 0.0);
    args.reject_unknown();
    if (max_pending == 0) {
      throw std::invalid_argument("--max-pending must be >= 1");
    }

    SchedulingService service(config);
    Stream stream(service, max_pending, slow_ms);

    // Optional scrape endpoint on its own loop thread. It serves the
    // service's registry only — every collector behind it reads
    // mutex-guarded or atomic state, so a scrape never races the main
    // thread's stream bookkeeping (which stays stats-verb-only).
    std::unique_ptr<net::EventLoop> metrics_loop;
    std::unique_ptr<net::MetricsHttp> metrics_http;
    std::thread metrics_thread;
    if (metrics_port >= 0) {
      metrics_loop = std::make_unique<net::EventLoop>();
      metrics_http = std::make_unique<net::MetricsHttp>(
          *metrics_loop, service.registry(),
          net::ListenerConfig{
              .bind = "127.0.0.1",
              .port = static_cast<std::uint16_t>(metrics_port),
              .unix_path = {}});
      metrics_http->start();
      metrics_thread = std::thread([&] { metrics_loop->run(); });
      std::cerr << "metrics on " << metrics_http->address() << "\n";
    }

    std::ifstream file;
    if (input != "-") {
      file.open(input);
      if (!file) throw std::runtime_error("cannot open " + input);
    }
    std::istream& in = input == "-" ? std::cin : file;

    std::string line;
    while (std::getline(in, line)) {
      const auto hash_pos = line.find('#');
      if (hash_pos != std::string::npos) line.resize(hash_pos);
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      stream.consume(line);
    }
    stream.finish();

    if (metrics_thread.joinable()) {
      metrics_loop->stop();
      metrics_thread.join();
      metrics_http->stop();  // loop idle: tears down scrape sockets
    }

    if (stats) {
      const CacheStats cs = service.cache_stats();
      const InstanceStore::Stats ss = service.store_stats();
      std::cerr << "cache: " << cs.hits << " hits, " << cs.misses
                << " misses (" << std::fixed << std::setprecision(1)
                << 100.0 * cs.hit_rate() << "% hit rate), " << cs.entries
                << " entries, " << cs.bytes << " bytes, " << cs.evictions
                << " evictions\n"
                << "store: " << ss.unique_trees << " unique trees, "
                << ss.hits << " intern hits, " << ss.bytes << " bytes held, "
                << ss.rejected << " rejected by budget\n";
      const QueueStats qs = service.queue_stats();
      for (int cls = 0; cls < kPriorityClasses; ++cls) {
        const ClassQueueStats& c =
            qs.by_class[static_cast<std::size_t>(cls)];
        if (c.admitted == 0) continue;
        std::cerr << "queue[" << to_string(static_cast<Priority>(cls))
                  << "]: " << c.admitted << " admitted, " << c.completed
                  << " completed, " << c.expired << " expired, "
                  << c.cancelled << " cancelled, " << c.rejected
                  << " rejected, " << c.aged
                  << " aged; wait ms p50/p90/p99 = " << std::setprecision(2)
                  << c.wait_ms_p50 << "/" << c.wait_ms_p90 << "/"
                  << c.wait_ms_p99 << "\n";
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
