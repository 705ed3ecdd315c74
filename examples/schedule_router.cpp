// Cluster front-end for the scheduling service: a router process
// (src/cluster/) that accepts the same text-v2 / binary-v3 protocols as
// schedule_server and shards every request across N backend nodes by
// tree fingerprint over a bounded-load consistent-hash ring — identical
// trees always reach the same node and its warm result cache,
// cluster-wide.
//
//   $ ./schedule_server --port 3714 &          # node A
//   $ ./schedule_server --port 3715 &          # node B
//   $ ./schedule_router --port 3713 --nodes 127.0.0.1:3714,127.0.0.1:3715 &
//   listening on 127.0.0.1:3713
//   $ printf 'random:500:1 ParSubtrees 8 id=1\n' | nc 127.0.0.1 3713
//   ok id=1 tree=... makespan=... priority=batch
//
// --nodes host:port,... names the backends (required). --port 0 picks
// an ephemeral client port (printed on stdout, for scripts); --bind
// sets the address. --vnodes and --load-factor shape the ring;
// --upstream-window / --upstream-queue / --upstream-wbuf-kb bound each
// backend pipe; --retries is the retry-on-alternate budget after a node
// death. --health-interval-ms / --ping-timeout-ms / --backoff-ms drive
// failure detection and reconnects. Client-side limits (--max-conns,
// --max-pending, --max-wbuf-kb, --max-frame-kb) and spec hygiene
// (--tree-dir, --max-spec-nodes, --max-spec-bytes) match
// schedule_server's flags — the router resolves specs itself to compute
// routing fingerprints, so it needs the same tree files the nodes see.
// --metrics-port serves GET /metrics (0 = ephemeral, printed);
// --trace-dir allows `trace dump=` — on the router this is the MERGED
// cluster dump (its own spans plus every live node's, one pid each);
// --log-json PATH appends structured JSON-lines events (node deaths,
// reconnects, retries, drains) to PATH; "-" = stdout.
// --drain-timeout-ms caps the SIGTERM drain exactly like the server's.
//
// Failure semantics: a dead node's unanswered requests are retried on
// the next ring alternate (they are deterministic — re-execution is
// safe) or answered with the typed node_unavailable error. Clients
// always get an answer; SIGTERM/SIGINT drain gracefully.

#include <signal.h>

#include <iostream>

#include "cluster/router.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace treesched;
  try {
    CliArgs args(argc, argv);
    cluster::RouterConfig config;
    config.port = static_cast<std::uint16_t>(args.get_int("port", 0));
    config.bind = args.get("bind", "127.0.0.1");
    config.nodes = split_csv(args.get("nodes", ""));
    config.vnodes = static_cast<int>(args.get_int("vnodes", 64));
    config.load_factor = args.get_double("load-factor", 1.25);
    config.max_conns = static_cast<std::size_t>(args.get_int("max-conns", 256));
    config.max_pending = static_cast<std::size_t>(
        args.get_int("max-pending", std::int64_t{net::kDefaultMaxPending}));
    config.max_wbuf = static_cast<std::size_t>(args.get_int(
        "max-wbuf-kb", std::int64_t{net::kDefaultMaxWbuf >> 10})) << 10;
    config.max_frame = static_cast<std::size_t>(args.get_int(
        "max-frame-kb", std::int64_t{net::kDefaultMaxFrame >> 10})) << 10;
    config.handle_signals = true;
    config.metrics_port = static_cast<int>(args.get_int("metrics-port", -1));
    config.trace_dir = args.get("trace-dir", "");
    config.log_json = args.get("log-json", "");
    config.tree_dir = args.get("tree-dir", "");
    config.max_spec_nodes =
        static_cast<std::uint64_t>(args.get_int("max-spec-nodes", 2'000'000));
    config.max_spec_bytes = static_cast<std::uint64_t>(
        args.get_int("max-spec-bytes", 16 << 20));
    config.drain_timeout_ms = args.get_double("drain-timeout-ms", 0.0);
    config.upstream_window =
        static_cast<std::size_t>(args.get_int("upstream-window", 128));
    config.upstream_queue =
        static_cast<std::size_t>(args.get_int("upstream-queue", 1024));
    config.upstream_max_wbuf =
        static_cast<std::size_t>(args.get_int("upstream-wbuf-kb", 1024)) << 10;
    config.retries = static_cast<int>(args.get_int("retries", 1));
    config.health_interval_ms = args.get_double("health-interval-ms", 250.0);
    config.ping_timeout_ms = args.get_double("ping-timeout-ms", 2000.0);
    config.reconnect_backoff_ms = args.get_double("backoff-ms", 500.0);
    args.reject_unknown();
    if (config.nodes.empty()) {
      throw std::invalid_argument(
          "--nodes host:port[,host:port...] is required");
    }

    // Block SIGTERM/SIGINT before the loop starts so only the router's
    // signalfd ever sees them (same contract as schedule_server).
    sigset_t mask;
    sigemptyset(&mask);
    sigaddset(&mask, SIGTERM);
    sigaddset(&mask, SIGINT);
    if (pthread_sigmask(SIG_BLOCK, &mask, nullptr) != 0) {
      throw std::runtime_error("pthread_sigmask failed");
    }

    cluster::Router router(std::move(config));
    // Machine-read by scripts (the e2e test binds port 0): keep the
    // format stable and flushed before serving starts.
    std::cout << "listening on " << router.address() << std::endl;
    if (router.metrics_port() != 0) {
      std::cout << "metrics on 127.0.0.1:" << router.metrics_port()
                << std::endl;
    }
    router.run();
    std::cerr << "drained: all accepted requests answered\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
