#pragma once
// Prometheus scrape endpoint (src/net/): a deliberately tiny HTTP
// listener riding an existing EventLoop, answering `GET /metrics` with
// the text exposition of one MetricsRegistry and nothing else. It is an
// operations port, not a web server: one request per connection,
// `Connection: close`, no keep-alive, no chunking, no TLS — exactly
// what a scraper or `curl` needs and nothing a hostile client could
// lean on. Any other path answers 404, any other method 405, anything
// that is not HTTP answers 400; oversized request heads are cut off at
// kMaxHead.
//
// Threading: everything here runs on the loop thread of the EventLoop
// handed in — the same thread that owns the scheduling server's
// connections when the endpoint shares its loop. That is what makes it
// safe to snapshot collectors that read loop-thread state (the server's
// SessionCounters bridge): the scrape and the counter writes are
// serialized by construction, not by locks.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "net/event_loop.hpp"
#include "net/listener.hpp"
#include "obs/metrics.hpp"

namespace treesched::net {

class MetricsHttp {
 public:
  /// Buffered-request-bytes cap, enforced unconditionally: a client
  /// that sends more without finishing its headers is answered 400, and
  /// reading stops the moment a response is queued — body bytes past
  /// the head are never buffered.
  static constexpr std::size_t kMaxHead = 8192;

  /// Binds immediately (throws std::system_error on failure, so a bad
  /// --metrics-port fails at startup, not at first scrape). Serving
  /// starts with start().
  MetricsHttp(EventLoop& loop, obs::MetricsRegistry& registry,
              ListenerConfig config);
  ~MetricsHttp();

  MetricsHttp(const MetricsHttp&) = delete;
  MetricsHttp& operator=(const MetricsHttp&) = delete;

  /// The bound port — the kernel's pick when configured with 0.
  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }
  [[nodiscard]] const std::string& address() const {
    return listener_.address();
  }

  /// Registers the listener with the loop. Call on the loop thread, or
  /// before the loop runs.
  void start();
  /// Unregisters the listener and drops every open scrape connection.
  /// Loop thread only. Idempotent; the destructor calls it.
  void stop();

 private:
  struct Conn {
    int fd = -1;
    std::string rbuf;
    std::string wbuf;
    std::size_t whead = 0;
    bool responded = false;
    std::uint32_t interest = 0;
  };

  void accept_ready();
  void conn_events(std::uint64_t id, std::uint32_t events);
  /// True once the head is complete and a response was queued.
  void respond(Conn& conn);
  void queue_response(Conn& conn, int status, const char* reason,
                      const char* content_type, std::string body);
  void send_buffered(std::uint64_t id, Conn& conn);
  void close_conn(std::uint64_t id);

  EventLoop& loop_;
  obs::MetricsRegistry& registry_;
  Listener listener_;
  bool active_ = false;
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::uint64_t next_id_ = 1;
};

}  // namespace treesched::net
