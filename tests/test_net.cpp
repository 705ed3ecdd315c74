// The networked front-end (src/net/): LineFramer robustness under
// adversarial chunkings (the framing satellite), and in-process
// end-to-end coverage of the epoll server over real loopback sockets —
// tagged out-of-order answers, ping/stats control lines, per-connection
// queue_full admission, oversized-line survival, cancel, half-close,
// abrupt disconnect, write backpressure, and graceful drain.

#include "net/line_framer.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "campaign/dataset.hpp"
#include "front_end_scenarios.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "service/service.hpp"
#include "trees/io.hpp"
#include "util/thread_pool.hpp"

namespace treesched {
namespace {

using net::Client;
using net::LineFramer;
using net::Server;
using net::ServerConfig;

// ---------------------------------------------------------------------------
// LineFramer: byte-by-byte and adversarial chunkings.
// ---------------------------------------------------------------------------

std::vector<LineFramer::Line> feed_str(LineFramer& framer,
                                       const std::string& chunk) {
  return framer.feed(chunk.data(), chunk.size());
}

TEST(LineFramer, ByteByByteProducesTheSameLines) {
  const std::string input = "random:60:1 Liu 1 id=7\ncancel id=7\nping\n";
  LineFramer framer;
  std::vector<std::string> lines;
  for (const char c : input) {
    for (LineFramer::Line& line : framer.feed(&c, 1)) {
      EXPECT_FALSE(line.overflow);
      lines.push_back(std::move(line.text));
    }
  }
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "random:60:1 Liu 1 id=7");
  EXPECT_EQ(lines[1], "cancel id=7");
  EXPECT_EQ(lines[2], "ping");
  EXPECT_EQ(framer.partial_bytes(), 0u);
}

TEST(LineFramer, ManyLinesInOneChunkAndSplitsMidToken) {
  LineFramer framer;
  // Three lines, the last unterminated and split mid-token.
  auto lines = feed_str(framer, "a b\nc d\ne f");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].text, "a b");
  EXPECT_EQ(lines[1].text, "c d");
  EXPECT_EQ(framer.partial_bytes(), 3u);
  // The token "f" continues in the next chunk — "e f" + "g" = "e fg".
  lines = feed_str(framer, "g h\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].text, "e fg h");
}

TEST(LineFramer, StripsCarriageReturns) {
  LineFramer framer;
  const auto lines = feed_str(framer, "ping\r\npong\r\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].text, "ping");
  EXPECT_EQ(lines[1].text, "pong");
}

TEST(LineFramer, OversizedLineOverflowsAndTheStreamRecovers) {
  LineFramer framer(/*max_line=*/8);
  // 20 payload bytes, then a clean line — fed in awkward chunks.
  auto lines = feed_str(framer, "0123456789");
  EXPECT_TRUE(lines.empty());
  EXPECT_EQ(framer.partial_bytes(), 8u) << "buffering stops at the limit";
  lines = feed_str(framer, "abcdefghij\nok line\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(lines[0].overflow);
  EXPECT_EQ(lines[0].text, "01234567") << "truncated to max_line";
  EXPECT_EQ(lines[0].wire_bytes, 20u) << "counts the discarded bytes too";
  EXPECT_FALSE(lines[1].overflow);
  EXPECT_EQ(lines[1].text, "ok line");
}

TEST(LineFramer, FinishFlushesTheUnterminatedTail) {
  LineFramer framer;
  EXPECT_FALSE(framer.finish().has_value()) << "nothing buffered";
  (void)feed_str(framer, "stats");
  const auto last = framer.finish();
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->text, "stats");
  EXPECT_FALSE(framer.finish().has_value()) << "finish() consumes";
}

// ---------------------------------------------------------------------------
// End-to-end: a real Server on 127.0.0.1, in-process, driven by Client.
// ---------------------------------------------------------------------------

/// Service + server + I/O thread, torn down in the right order.
class ServerHarness {
 public:
  explicit ServerHarness(ServerConfig config = {},
                         ServiceConfig service_config = {})
      : service_(service_config), server_(service_, config) {
    thread_ = std::thread([this] { server_.run(); });
  }

  ~ServerHarness() { stop(); }

  void stop() {
    if (thread_.joinable()) {
      server_.stop();
      thread_.join();
    }
  }

  [[nodiscard]] std::uint16_t port() const { return server_.port(); }
  [[nodiscard]] SchedulingService& service() { return service_; }

 private:
  SchedulingService service_;
  Server server_;
  std::thread thread_;
};

Client connect(const ServerHarness& harness) {
  return Client("127.0.0.1", harness.port());
}

/// Heavy-enough request lines to keep pool workers busy; distinct p per
/// index keeps every cache key distinct.
std::string heavy_line(int index, const std::string& extra = "") {
  return "synthetic:20000:1 ParDeepestFirst " + std::to_string(2 + index) +
         " priority=interactive" + extra;
}

TEST(ScheduleServer, AnswersAndCachesOverTheWire) {
  ServerHarness harness;
  Client client = connect(harness);
  const ResponseLine first = client.request("random:300:1 Liu 1 id=1");
  ASSERT_TRUE(first.ok);
  EXPECT_EQ(first.id, 1u);
  EXPECT_EQ(first.algo, "Liu");
  EXPECT_EQ(first.n, 300);
  EXPECT_GT(first.makespan, 0.0);
  const ResponseLine second = client.request("random:300:1 Liu 1 id=2");
  ASSERT_TRUE(second.ok);
  EXPECT_TRUE(second.cache_hit) << "same key must hit the result cache";
  EXPECT_EQ(second.makespan, first.makespan) << "bit-identical answers";
}

TEST(ScheduleServer, TaggedAnswersMayArriveOutOfOrder) {
  ServerHarness harness;
  Client client = connect(harness);
  // One write, two tagged requests: answers may stream in either order;
  // the tags keep them attributable.
  client.send_line("random:400:2 ParSubtrees 4 id=10");
  client.send_line("random:200:3 Liu 1 id=11");
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 2; ++i) {
    const auto line = client.recv_line();
    ASSERT_TRUE(line.has_value());
    const ResponseLine resp = parse_response_line(*line);
    EXPECT_TRUE(resp.ok);
    ASSERT_TRUE(resp.id.has_value());
    ids.push_back(*resp.id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{10, 11}));
}

TEST(ScheduleServer, PingAndStatsAnswerImmediately) {
  ServerHarness harness;
  Client client = connect(harness);
  const ResponseLine pong = client.request("ping id=5");
  EXPECT_EQ(pong.kind, ResponseLine::Kind::kPong);
  EXPECT_EQ(pong.id, 5u);

  (void)client.request("random:100:1 Liu 1 id=1");
  const ResponseLine stats = client.request("stats id=6");
  EXPECT_EQ(stats.kind, ResponseLine::Kind::kStats);
  EXPECT_EQ(stats.id, 6u);
  std::uint64_t conns = 0, admitted = 0;
  bool saw_conns = false, saw_admitted = false;
  for (const auto& [key, value] : stats.stats) {
    if (key == "conns") {
      conns = value;
      saw_conns = true;
    }
    if (key == "queue_admitted") {
      admitted = value;
      saw_admitted = true;
    }
  }
  ASSERT_TRUE(saw_conns);
  ASSERT_TRUE(saw_admitted);
  EXPECT_EQ(conns, 1u);
  EXPECT_GE(admitted, 1u);
}

TEST(ScheduleServer, TraceDumpIsRefusedWithoutATraceDir) {
  // A dump names a file the SERVER writes; with no --trace-dir
  // configured (the default) any network client asking for one must get
  // a typed refusal, never a file.
  ServerHarness harness;
  Client client = connect(harness);
  const ResponseLine err = client.request("trace dump=t.json id=1");
  ASSERT_FALSE(err.ok);
  EXPECT_EQ(err.code, ErrorCode::kBadRequest);
  EXPECT_EQ(err.id, 1u);
  // The connection survives, and the no-file trace verbs still answer.
  const ResponseLine status = client.request("trace status id=2");
  EXPECT_EQ(status.kind, ResponseLine::Kind::kTrace);
  EXPECT_TRUE(status.ok);
  EXPECT_EQ(status.id, 2u);
}

TEST(ScheduleServer, TraceDumpIsConfinedToTheConfiguredDir) {
  std::string dir = ::testing::TempDir();
  if (dir.empty() || dir.back() != '/') dir += '/';
  ServerConfig config;
  config.trace_dir = dir;
  ServerHarness harness(config);
  Client client = connect(harness);
  // Every way out of the directory is a typed error, never a write.
  for (const char* line : {"trace dump=/etc/evil id=1",
                           "trace dump=../evil.json id=2",
                           "trace dump=a/../evil.json id=3",
                           "trace dump=./evil.json id=4"}) {
    const ResponseLine err = client.request(line);
    ASSERT_FALSE(err.ok) << line;
    EXPECT_EQ(err.code, ErrorCode::kBadRequest) << line;
  }
  // A plain relative name lands inside the configured directory.
  const std::string path = dir + "net_trace_dump.json";
  std::remove(path.c_str());
  const ResponseLine ok = client.request("trace dump=net_trace_dump.json id=5");
  EXPECT_EQ(ok.kind, ResponseLine::Kind::kTrace);
  EXPECT_TRUE(ok.ok);
  EXPECT_EQ(ok.id, 5u);
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "dump did not land in the trace dir: " << path;
  std::remove(path.c_str());
}

TEST(ScheduleServer, FileSpecsAreRefusedWithoutATreeDir) {
  // A file: spec names a file the SERVER reads; with no --tree-dir
  // configured (the default) any network client asking for one must get
  // a typed refusal — and the error text must never carry file contents.
  ServerHarness harness;
  Client client = connect(harness);
  const ResponseLine err = client.request("file:/etc/passwd Liu 1 id=1");
  ASSERT_FALSE(err.ok);
  EXPECT_EQ(err.code, ErrorCode::kBadRequest);
  EXPECT_EQ(err.id, 1u);
  EXPECT_EQ(err.message.find("root:"), std::string::npos)
      << "error text leaked file contents: " << err.message;
  EXPECT_NE(err.message.find("tree-dir"), std::string::npos)
      << "the refusal should point at the --tree-dir opt-in";
  // No tree was read or interned, and the connection survives.
  EXPECT_EQ(harness.service().store_stats().unique_trees, 0u);
  const ResponseLine ok = client.request("random:100:1 Liu 1 id=2");
  EXPECT_TRUE(ok.ok);
  EXPECT_EQ(ok.id, 2u);
}

TEST(ScheduleServer, FileSpecsAreConfinedToTheConfiguredTreeDir) {
  std::string dir = ::testing::TempDir();
  if (dir.empty() || dir.back() != '/') dir += '/';
  const std::string path = dir + "net_spec_tree.txt";
  write_tree_file(path, tree_from_spec("random:40:7"));
  ServerConfig config;
  config.tree_dir = dir;
  ServerHarness harness(config);
  Client client = connect(harness);
  // Every way out of the directory is a typed error, never a read.
  for (const char* line : {"file:/etc/passwd Liu 1 id=1",
                           "file:../evil.txt Liu 1 id=2",
                           "file:a/../../evil.txt Liu 1 id=3",
                           "file:./net_spec_tree.txt Liu 1 id=4"}) {
    const ResponseLine err = client.request(line);
    ASSERT_FALSE(err.ok) << line;
    EXPECT_EQ(err.code, ErrorCode::kBadRequest) << line;
    EXPECT_EQ(err.message.find("root:"), std::string::npos) << line;
  }
  // A plain relative name inside the tree dir is served.
  const ResponseLine ok = client.request("file:net_spec_tree.txt Liu 1 id=5");
  ASSERT_TRUE(ok.ok) << ok.message;
  EXPECT_EQ(ok.id, 5u);
  EXPECT_EQ(ok.n, 40);
  EXPECT_GT(ok.makespan, 0.0);
  std::remove(path.c_str());
}

TEST(ScheduleServer, FileTreeOverTheMemoryBoundIsABadRequest) {
  std::string dir = ::testing::TempDir();
  if (dir.empty() || dir.back() != '/') dir += '/';
  const std::string path = dir + "net_huge_tree.txt";
  {
    std::ofstream os(path);
    os << "treesched-tree v1\n2\n-1 18446744073709551615 0 1\n0 1 0 1\n";
  }
  ServerConfig config;
  config.tree_dir = dir;
  ServerHarness harness(config);
  Client client = connect(harness);
  const ResponseLine err =
      client.request("file:net_huge_tree.txt MemoryBounded 4 id=1");
  ASSERT_FALSE(err.ok);
  EXPECT_EQ(err.code, ErrorCode::kBadRequest);
  EXPECT_EQ(harness.service().store_stats().unique_trees, 0u);
  std::remove(path.c_str());
}

TEST(ScheduleServer, HostileGeneratorSpecsAreRejectedBeforeAllocation) {
  ServerHarness harness;  // default --max-spec-nodes = 2'000'000
  Client client = connect(harness);
  // Each hostile spec gets exactly one typed bad_request: a 2-billion-node
  // ask (would be ~tens of GiB), a negative count, and a non-numeric one.
  for (const char* line : {"random:2000000000:1 Liu 1 id=1",
                           "random:-5:1 Liu 1 id=2",
                           "synthetic:999999999999999999999:1 Liu 1 id=3",
                           "grid:80000:80000:2 Liu 1 id=4"}) {
    const ResponseLine err = client.request(line);
    ASSERT_FALSE(err.ok) << line;
    EXPECT_EQ(err.code, ErrorCode::kBadRequest) << line;
  }
  // Nothing was allocated or interned, and the same socket still works.
  EXPECT_EQ(harness.service().store_stats().unique_trees, 0u);
  const ResponseLine ok = client.request("random:100:1 Liu 1 id=9");
  EXPECT_TRUE(ok.ok);
  EXPECT_EQ(ok.id, 9u);
}

TEST(ScheduleServer, OversizedLineAnswersBadRequestAndTheConnectionSurvives) {
  ServerConfig config;
  config.max_line = 128;
  ServerHarness harness(config);
  scenarios::oversized_line_survives(harness.port());
}

TEST(ScheduleServer, PerConnectionWindowRejectsWithTypedQueueFull) {
  ServerConfig config;
  config.max_pending = 1;
  ServerHarness harness(config);
  Client client = connect(harness);
  // Both lines in ONE write: they are framed and admitted within one
  // read batch, and completions only ever re-enter the loop as posted
  // events — so the second line deterministically sees a full window.
  client.send_line("synthetic:20000:1 ParDeepestFirst 2 id=1");
  client.send_line("random:100:9 Liu 1 id=2");
  bool saw_ok = false, saw_queue_full = false;
  for (int i = 0; i < 2; ++i) {
    const auto line = client.recv_line();
    ASSERT_TRUE(line.has_value());
    const ResponseLine resp = parse_response_line(*line);
    if (resp.ok) {
      EXPECT_EQ(resp.id, 1u);
      saw_ok = true;
    } else {
      EXPECT_EQ(resp.code, ErrorCode::kQueueFull);
      EXPECT_EQ(resp.id, 2u);
      saw_queue_full = true;
    }
  }
  EXPECT_TRUE(saw_ok);
  EXPECT_TRUE(saw_queue_full);
}

TEST(ScheduleServer, CancelStillQueuedAnswersCancelled) {
  ServerConfig config;
  config.max_pending = 1024;
  ServerHarness harness(config);
  Client client = connect(harness);
  // The saturate() pattern over the wire: every pool worker pinned by
  // interactive work with queued entries to spare, so the Bulk request
  // behind them is still queued when the cancel arrives.
  const std::size_t backlog = 2 * ThreadPool::shared().size() + 6;
  for (std::size_t i = 0; i < backlog; ++i) {
    client.send_line(heavy_line(static_cast<int>(i),
                                " id=" + std::to_string(100 + i)));
  }
  client.send_line("random:100:1 Liu 1 priority=bulk id=7");
  client.send_line("cancel id=7");
  client.shutdown_write();
  std::size_t answers = 0;
  bool id7_cancelled = false;
  while (const auto line = client.recv_line()) {
    const ResponseLine resp = parse_response_line(*line);
    ++answers;
    if (resp.id && *resp.id == 7) {
      EXPECT_FALSE(resp.ok);
      EXPECT_EQ(resp.code, ErrorCode::kCancelled);
      id7_cancelled = resp.code == ErrorCode::kCancelled;
    }
  }
  EXPECT_EQ(answers, backlog + 1) << "every request answered exactly once";
  EXPECT_TRUE(id7_cancelled);
}

TEST(ScheduleServer, CancelOfUnknownIdAnswersBadRequestAck) {
  ServerHarness harness;
  Client client = connect(harness);
  const ResponseLine ack = client.request("cancel id=404");
  ASSERT_FALSE(ack.ok);
  EXPECT_EQ(ack.code, ErrorCode::kBadRequest);
  EXPECT_FALSE(ack.id.has_value())
      << "late-cancel acks must never duplicate an id on the wire";
}

TEST(ScheduleServer, HalfCloseAnswersEverythingThenEof) {
  ServerHarness harness;
  scenarios::half_close_answers_everything(harness.port());
}

TEST(ScheduleServer, UnterminatedFinalLineStillAnswersAtEof) {
  ServerHarness harness;
  Client client = connect(harness);
  // "ping" with no trailing newline, then half-close: the framer's
  // finish() grants it the same grace getline gives the stdin service.
  const std::string bare = "ping";
  ASSERT_EQ(::send(client.fd(), bare.data(), bare.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bare.size()));
  client.shutdown_write();
  const auto line = client.recv_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "pong");
  EXPECT_FALSE(client.recv_line().has_value());
}

TEST(ScheduleServer, AbruptDisconnectCancelsAndTheServerSurvives) {
  ServerHarness harness;
  {
    Client doomed = connect(harness);
    const std::size_t backlog = 2 * ThreadPool::shared().size() + 6;
    for (std::size_t i = 0; i < backlog; ++i) {
      doomed.send_line(heavy_line(static_cast<int>(i)));
    }
    for (int i = 0; i < 8; ++i) {
      doomed.send_line("random:100:1 Liu 1 priority=bulk id=" +
                       std::to_string(i));
    }
    doomed.close();  // mid-batch, nothing read: the abrupt path
  }
  // The server keeps serving other clients…
  Client alive = connect(harness);
  const ResponseLine pong = alive.request("ping");
  EXPECT_EQ(pong.kind, ResponseLine::Kind::kPong);
  const ResponseLine ok = alive.request("random:100:2 Liu 1 id=1");
  EXPECT_TRUE(ok.ok);
  // …and the harness destructor's stop() verifies the drain: run()
  // returns only once the vanished client's tickets are all settled
  // (cancelled or computed), so a leak would hang this test.
}

TEST(ScheduleServer, WriteBackpressureDeliversEverythingToASlowReader) {
  ServerConfig config;
  config.max_wbuf = 2048;
  config.max_pending = 4096;
  ServerHarness harness(config);
  scenarios::slow_reader_gets_every_answer(harness.port());
}

TEST(ScheduleServer, StopDrainsPendingAnswersBeforeReturning) {
  auto harness = std::make_unique<ServerHarness>();
  Client client = connect(*harness);
  constexpr int kRequests = 6;
  for (int i = 0; i < kRequests; ++i) {
    client.send_line(heavy_line(i, " id=" + std::to_string(i)));
  }
  // Give the server a beat to frame them, then drain while they
  // compute: every framed request must still be answered.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  harness->stop();
  std::size_t answers = 0;
  while (const auto line = client.recv_line()) {
    const ResponseLine resp = parse_response_line(*line);
    EXPECT_TRUE(resp.ok);
    ++answers;
  }
  EXPECT_EQ(answers, static_cast<std::size_t>(kRequests))
      << "graceful drain answers what was accepted before closing";
}

TEST(ScheduleServer, MaxConnsGreetsTheExcessWithQueueFull) {
  ServerConfig config;
  config.max_conns = 2;
  ServerHarness harness(config);
  Client first = connect(harness);
  Client second = connect(harness);
  // Poke both so the server has surely accepted them before the third
  // connection arrives (accept order is deterministic per listen
  // backlog, but the ping round-trips make it explicit).
  (void)first.request("ping");
  (void)second.request("ping");
  Client third = connect(harness);
  const auto line = third.recv_line();
  ASSERT_TRUE(line.has_value());
  const ResponseLine resp = parse_response_line(*line);
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.code, ErrorCode::kQueueFull);
  EXPECT_FALSE(third.recv_line().has_value()) << "closed after the greeting";
}

}  // namespace
}  // namespace treesched