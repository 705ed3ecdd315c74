// Streaming front-end for the scheduling service, speaking protocol v2:
// reads newline-delimited requests from a file or stdin and streams
// response lines to stdout as results become available.
//
// It is schedule_server without the network: an in-process net::Server
// configured `local` serves ONE net::Session over a socketpair. A feed
// thread copies the input into one end and half-closes it at EOF (a
// thread, because epoll cannot watch a regular file); the main thread
// copies answers from that end to stdout until the session closes. The
// window, ordering, cancel, ping/stats/trace verbs, spec memo and slow
// log are therefore the server's (net/session.hpp has the rules,
// service/request_line.hpp the grammar). '#' starts a comment, blank
// lines are skipped, a final line without its newline is answered, and
// a line over 64 KiB answers bad_request.
//
//   $ printf 'random:500:1 ParSubtrees 8 id=1\nrandom:500:1 ParSubtrees 8\n' \
//       | ./schedule_service --stats
//
// The input is the operator's and trusted like a command line: `file:`
// specs read any path, generator specs are unbounded, and `trace dump=`
// writes the path as given. --max-pending N (default 256) keeps at most
// N requests unsettled; past it the session stops reading until one
// settles. --cache-mb 0 disables the result cache. --metrics-port N
// serves `GET /metrics` on 127.0.0.1:N (0 = ephemeral, named on
// stderr); --slow-ms T logs the stage breakdown of requests slower than
// T ms to stderr; --stats prints cache, store and queue counters to
// stderr at exit.

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <exception>
#include <chrono>
#include <iomanip>
#include <iostream>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "net/server.hpp"
#include "service/service.hpp"
#include "util/cli.hpp"

namespace {

using namespace treesched;

/// Copies `from` into `to` until EOF on `from` or a failed read or write.
/// A socket takes send(MSG_NOSIGNAL): a session gone early is a stopped
/// copy, not a SIGPIPE.
void copy_all(int from, int to, bool to_socket) noexcept {
  std::array<char, 1 << 16> buf;
  for (;;) {
    const ssize_t got = ::read(from, buf.data(), buf.size());
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return;
    const char* data = buf.data();
    auto left = static_cast<std::size_t>(got);
    while (left > 0) {
      const ssize_t put = to_socket ? ::send(to, data, left, MSG_NOSIGNAL)
                                    : ::write(to, data, left);
      if (put < 0 && errno == EINTR) continue;
      if (put <= 0) return;
      data += put;
      left -= static_cast<std::size_t>(put);
    }
  }
}

void print_stats(const SchedulingService& service) {
  const CacheStats cs = service.cache_stats();
  const InstanceStore::Stats ss = service.store_stats();
  std::cerr << "cache: " << cs.hits << " hits, " << cs.misses << " misses ("
            << std::fixed << std::setprecision(1) << 100.0 * cs.hit_rate()
            << "% hit rate), " << cs.entries << " entries, " << cs.bytes
            << " bytes, " << cs.evictions << " evictions\n"
            << "store: " << ss.unique_trees << " unique trees, " << ss.hits
            << " intern hits, " << ss.bytes << " bytes held, " << ss.rejected
            << " rejected by budget\n";
  const QueueStats qs = service.queue_stats();
  for (int cls = 0; cls < kPriorityClasses; ++cls) {
    const ClassQueueStats& c = qs.by_class[static_cast<std::size_t>(cls)];
    if (c.admitted == 0) continue;
    std::cerr << "queue[" << to_string(static_cast<Priority>(cls))
              << "]: " << c.admitted << " admitted, " << c.completed
              << " completed, " << c.expired << " expired, " << c.cancelled
              << " cancelled, " << c.rejected << " rejected, " << c.aged
              << " aged; wait ms p50/p90/p99 = " << std::setprecision(2)
              << c.wait_ms_p50 << "/" << c.wait_ms_p90 << "/"
              << c.wait_ms_p99 << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace treesched;
  try {
    CliArgs args(argc, argv);
    const std::string input = args.get("input", "-");
    const auto mib = [&](const char* flag, std::int64_t fallback) {
      return static_cast<std::size_t>(args.get_int(flag, fallback, 0, 1 << 30))
             << 20;
    };
    ServiceConfig config;
    config.cache_bytes = mib("cache-mb", 256);
    config.validate = args.get_bool("validate", false);
    config.queue.age_after = std::chrono::milliseconds(
        args.get_int("age-ms", 250, 0, std::int64_t{1} << 31));
    config.store.max_bytes = mib("store-mb", 0);
    net::ServerConfig server_config;
    server_config.local = true;
    server_config.max_pending = static_cast<std::size_t>(
        args.get_int("max-pending", 256, 1, 1 << 24));
    server_config.metrics_port =
        static_cast<int>(args.get_int("metrics-port", -1, -1, 65535));
    server_config.slow_ms = args.get_double("slow-ms", 0.0);
    const bool stats = args.get_bool("stats", false);
    args.reject_unknown();

    int in_fd = STDIN_FILENO;
    if (input != "-") {
      in_fd = ::open(input.c_str(), O_RDONLY | O_CLOEXEC);
      if (in_fd < 0) throw std::runtime_error("cannot open " + input);
    }
    int ends[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, ends) != 0 ||
        ::fcntl(ends[0], F_SETFL, O_NONBLOCK) != 0) {
      throw std::system_error(errno, std::generic_category(), "socketpair");
    }

    SchedulingService service(config);
    net::Server server(service, server_config);
    server.adopt(ends[0]);
    if (server.metrics_port() != 0) {
      std::cerr << "metrics on 127.0.0.1:" << server.metrics_port() << "\n";
    }
    std::exception_ptr loop_error;
    std::thread loop([&] {
      try {
        server.run();
      } catch (...) {
        loop_error = std::current_exception();
        ::shutdown(ends[1], SHUT_RDWR);  // ends both copies below
      }
    });
    std::thread feed;
    try {
      feed = std::thread([in_fd, out = ends[1]] {
        copy_all(in_fd, out, /*to_socket=*/true);
        ::shutdown(out, SHUT_WR);  // EOF: answer what is pending, then close
      });
    } catch (...) {
      server.stop();  // the session drains what it has and closes
      loop.join();
      throw;
    }
    copy_all(ends[1], STDOUT_FILENO, /*to_socket=*/false);
    server.stop();
    loop.join();
    feed.join();
    ::close(ends[1]);
    if (in_fd != STDIN_FILENO) ::close(in_fd);
    if (loop_error) std::rethrow_exception(loop_error);

    if (stats) print_stats(service);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
