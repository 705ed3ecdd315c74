// Networked front-end for the scheduling service: an epoll-driven
// server (src/net/) speaking text protocol v2 — the same
// request/response line grammar as the stdin front-end (examples/
// schedule_service) — and binary protocol v3 (net/frame.hpp),
// negotiated per connection by its first bytes.
//
//   $ ./schedule_server --port 3713 &
//   listening on 127.0.0.1:3713
//   $ printf 'random:500:1 ParSubtrees 8 id=1\nping\n' | nc 127.0.0.1 3713
//   ok id=1 tree=... makespan=... priority=batch
//   pong
//
// --port 0 picks an ephemeral port (printed on stdout, for scripts);
// --bind sets the TCP address (default 127.0.0.1); --unix /path.sock
// serves on a unix-domain socket instead of TCP (same protocols, no TCP
// stack — what the bench's UDS experiment measures).
// --max-conns bounds accepted sockets; --max-pending bounds unsettled
// requests per connection (excess answers the typed queue_full error);
// --max-frame-kb bounds one v3 frame; --store-mb / --cache-mb budget
// the instance store and result cache.
// --metrics-port N serves `GET /metrics` (Prometheus text exposition)
// on 127.0.0.1:N, riding the server's own I/O thread; 0 picks an
// ephemeral port (printed as "metrics on ..."). --slow-ms T logs the
// full stage breakdown of any request slower than T ms to stderr.
// --trace-dir DIR allows the `trace dump=<file>` verb to write Chrome
// trace JSON into DIR (relative names only); without it dumps are
// refused — a network client must not name server-side files.
// --log-json PATH appends structured JSON-lines events (drains, slow
// requests, queue rejections) to PATH; "-" = stdout.
// --tree-dir DIR allows `file:` tree specs to read trees from DIR
// (relative names only); without it file: specs are refused — a network
// client must not choose what the server opens. --max-spec-nodes N
// bounds generator specs (random:/synthetic:/grid:) before allocation
// (default 2000000; 0 = unlimited, trusted networks only);
// --max-spec-bytes N bounds the on-disk size of a file: spec before it
// is read (default 16 MiB; 0 = unlimited). --drain-timeout-ms T caps
// the graceful drain: past T, clients that never read their last
// answers are closed instead of holding the process up (0 = wait
// forever).
// SIGTERM/SIGINT drain gracefully: the listener closes, every accepted
// request is answered or cancelled, buffers flush, then the process
// exits 0 — kill -TERM is the production stop.

#include <signal.h>

#include <iostream>

#include "net/server.hpp"
#include "service/service.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace treesched;
  try {
    CliArgs args(argc, argv);
    net::ServerConfig server_config;
    server_config.port = static_cast<std::uint16_t>(args.get_int("port", 0));
    server_config.bind = args.get("bind", "127.0.0.1");
    server_config.unix_path = args.get("unix", "");
    server_config.max_frame = static_cast<std::size_t>(args.get_int(
        "max-frame-kb", std::int64_t{net::kDefaultMaxFrame >> 10})) << 10;
    server_config.max_conns =
        static_cast<std::size_t>(args.get_int("max-conns", 256));
    server_config.max_pending = static_cast<std::size_t>(
        args.get_int("max-pending", std::int64_t{net::kDefaultMaxPending}));
    server_config.max_wbuf = static_cast<std::size_t>(args.get_int(
        "max-wbuf-kb", std::int64_t{net::kDefaultMaxWbuf >> 10})) << 10;
    server_config.handle_signals = true;
    server_config.metrics_port = static_cast<int>(args.get_int("metrics-port", -1));
    server_config.slow_ms = args.get_double("slow-ms", 0.0);
    server_config.trace_dir = args.get("trace-dir", "");
    server_config.log_json = args.get("log-json", "");
    server_config.tree_dir = args.get("tree-dir", "");
    server_config.max_spec_nodes =
        static_cast<std::uint64_t>(args.get_int("max-spec-nodes", 2'000'000));
    server_config.max_spec_bytes = static_cast<std::uint64_t>(
        args.get_int("max-spec-bytes", 16 << 20));
    server_config.drain_timeout_ms = args.get_double("drain-timeout-ms", 0.0);
    ServiceConfig service_config;
    service_config.cache_bytes =
        static_cast<std::size_t>(args.get_int("cache-mb", 256)) << 20;
    service_config.validate = args.get_bool("validate", false);
    service_config.store.max_bytes =
        static_cast<std::size_t>(args.get_int("store-mb", 0)) << 20;
    args.reject_unknown();
    if (server_config.max_pending == 0) {
      throw std::invalid_argument("--max-pending must be >= 1");
    }

    // Block SIGTERM/SIGINT before ANY thread exists (the service's
    // first submit spawns the shared pool, which inherits the mask), so
    // only the server's signalfd ever sees them.
    sigset_t mask;
    sigemptyset(&mask);
    sigaddset(&mask, SIGTERM);
    sigaddset(&mask, SIGINT);
    if (pthread_sigmask(SIG_BLOCK, &mask, nullptr) != 0) {
      throw std::runtime_error("pthread_sigmask failed");
    }

    SchedulingService service(service_config);
    net::Server server(service, server_config);
    // Machine-read by scripts (the e2e test binds port 0): keep the
    // format stable and flushed before serving starts.
    std::cout << "listening on " << server.address() << std::endl;
    if (server.metrics_port() != 0) {
      std::cout << "metrics on 127.0.0.1:" << server.metrics_port()
                << std::endl;
    }
    server.run();
    std::cerr << "drained: all accepted requests answered or cancelled\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
