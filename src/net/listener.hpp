#pragma once
// Non-blocking listening socket (src/net/): TCP on a configurable bind
// address (default 127.0.0.1; port 0 = kernel-assigned ephemeral, read
// back through port()) or a unix-domain socket at a filesystem path —
// for same-box clients and benches that want the loopback TCP stack out
// of the measurement. Accepted fds are handed to the server already
// O_NONBLOCK'd (and TCP_NODELAY'd when TCP), ready for the event loop.
//
// The bind happens in the constructor, so a caller that starts the
// loop on a background thread (tests, bench_service's loopback
// experiment) can read port() immediately — no listen/connect race.

#include <cstdint>
#include <functional>
#include <string>

namespace treesched::net {

struct ListenerConfig {
  /// IPv4 address to bind (TCP mode). "0.0.0.0" opens the listener to
  /// the network — loopback is the safe default.
  std::string bind = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral (TCP mode)
  /// Nonempty = listen on a unix-domain socket at this path instead of
  /// TCP (`bind`/`port` are ignored). A stale socket file left by a
  /// previous run is removed; the file is unlinked again on teardown.
  std::string unix_path;
};

class Listener {
 public:
  /// Binds and listens, throwing std::system_error on failure
  /// (EADDRINUSE and friends).
  explicit Listener(const ListenerConfig& config);
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  /// The bound TCP port — the kernel's pick when constructed with 0;
  /// 0 in unix-socket mode.
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] bool is_unix() const { return !unix_path_.empty(); }
  /// Printable endpoint: "<bind>:<port>" or "unix:<path>".
  [[nodiscard]] const std::string& address() const { return address_; }

  /// Accepts every pending connection (until EAGAIN), invoking `sink`
  /// with each new non-blocking fd. Call from the EPOLLIN handler.
  void accept_ready(const std::function<void(int fd)>& sink);

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::string unix_path_;
  std::string address_;
};

}  // namespace treesched::net
