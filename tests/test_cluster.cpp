// The cluster router (src/cluster/): the consistent-hash ring's wire
// contracts (pinned point hash, determinism across add order, balance,
// the ~1/N remap property, the failover walk), the engineered
// fingerprint-collision intern test, and in-process end-to-end coverage
// over real loopback sockets — routing consistency against an
// independently built ring, cluster-wide cache hits through the router,
// node death mid-request with retry-on-alternate, the typed
// node_unavailable error, upstream backpressure, router-side cancel,
// the drain-timeout bound on both the router and the server, and the
// router's side of the client transport (the wire scenarios the server
// passes, run through a router).

#include "cluster/ring.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/dataset.hpp"
#include "front_end_scenarios.hpp"
#include "cluster/router.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "service/instance_store.hpp"
#include "service/service.hpp"
#include "util/hash.hpp"

namespace treesched {
namespace {

using cluster::HashRing;
using cluster::Router;
using cluster::RouterConfig;
using net::Client;
using net::Server;
using net::ServerConfig;

// ---------------------------------------------------------------------------
// HashRing: the placement function is a wire-level contract.
// ---------------------------------------------------------------------------

TEST(HashRing, PointHashIsThePinnedFnvSplitmixChain) {
  // The ring's point hash must be FNV-1a over the node name folded
  // through the repo's mix64 — never std::hash — because a second
  // router (or this test) has to agree with the first byte-for-byte.
  const auto reference = [](std::string_view node, int replica) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : node) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
    return mix64(h ^ mix64(static_cast<std::uint64_t>(replica)));
  };
  for (const std::string_view name :
       {"127.0.0.1:3714", "127.0.0.1:3715", "node-a", ""}) {
    for (int r = 0; r < 8; ++r) {
      EXPECT_EQ(HashRing::point_hash(name, r), reference(name, r))
          << name << " replica " << r;
    }
  }
  EXPECT_NE(HashRing::point_hash("a", 0), HashRing::point_hash("a", 1));
  EXPECT_NE(HashRing::point_hash("a", 0), HashRing::point_hash("b", 0));
}

TEST(HashRing, PlacementIsDeterministicAcrossInstancesAndAddOrder) {
  const std::vector<std::string> names{"n0", "n1", "n2", "n3"};
  HashRing forward(64);
  HashRing reversed(64);
  for (const auto& n : names) forward.add(n);
  for (auto it = names.rbegin(); it != names.rend(); ++it) reversed.add(*it);
  for (std::uint64_t i = 0; i < 5000; ++i) {
    const std::uint64_t key = mix64(i);
    const auto a = forward.pick(key);
    const auto b = reversed.pick(key);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    // Dense indices depend on add order; the placed NAME must not.
    ASSERT_EQ(forward.node_name(*a), reversed.node_name(*b)) << "key " << i;
  }
}

TEST(HashRing, VirtualNodesBalanceTheKeySpace) {
  constexpr std::size_t kNodes = 4;
  constexpr std::uint64_t kKeys = 100000;
  HashRing ring(64);
  for (std::size_t i = 0; i < kNodes; ++i) {
    ring.add("10.0.0." + std::to_string(i) + ":3714");
  }
  std::vector<std::uint64_t> counts(kNodes, 0);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    // Stand-ins for tree fingerprints: mixed 64-bit values.
    const auto node = ring.pick(mix64(0xf1f1f1f1ULL ^ i));
    ASSERT_TRUE(node.has_value());
    ++counts[*node];
  }
  // 64 vnodes keep the per-node share spread around 1/sqrt(64) = 12.5%
  // relative; the bounds here are deliberately loose (the spread is a
  // property of the fixed point placement, not sampling noise).
  double chi2 = 0.0;
  const double expected = static_cast<double>(kKeys) / kNodes;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const double share = static_cast<double>(counts[i]) / kKeys;
    EXPECT_GT(share, 0.15) << "node " << i << " starved";
    EXPECT_LT(share, 0.35) << "node " << i << " overloaded";
    const double d = static_cast<double>(counts[i]) - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 5000.0) << "placement skew beyond the vnode spread";
}

TEST(HashRing, RemovingANodeRemapsOnlyItsKeys) {
  constexpr std::size_t kNodes = 5;
  constexpr std::uint64_t kKeys = 20000;
  HashRing ring(64);
  std::vector<std::string> names;
  for (std::size_t i = 0; i < kNodes; ++i) {
    names.push_back("node-" + std::to_string(i));
    ring.add(names.back());
  }
  std::vector<std::size_t> before(kKeys);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    before[i] = *ring.pick(mix64(i));
  }
  const std::size_t removed = 2;
  ring.remove(names[removed]);
  std::uint64_t moved = 0;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    const std::size_t now = *ring.pick(mix64(i));
    EXPECT_NE(now, removed);
    if (before[i] == removed) {
      ++moved;
    } else {
      // The classic consistent-hashing property: keys that were NOT on
      // the removed node must not move at all.
      ASSERT_EQ(now, before[i]) << "key " << i << " moved gratuitously";
    }
  }
  const double fraction = static_cast<double>(moved) / kKeys;
  EXPECT_GT(fraction, 0.10) << "the removed node held far under 1/N";
  EXPECT_LT(fraction, 0.33) << "the removed node held far over 1/N";
}

TEST(HashRing, WalkIsTheFailoverOrderAndSkipsRemovedNodes) {
  HashRing ring(32);
  for (int i = 0; i < 4; ++i) ring.add("n" + std::to_string(i));
  for (std::uint64_t key : {0ULL, 1ULL, 42ULL, 0xdeadbeefULL}) {
    std::vector<std::size_t> order;
    ring.walk(key, [&](std::size_t node) {
      order.push_back(node);
      return false;
    });
    ASSERT_EQ(order.size(), 4u) << "walk must visit every distinct node";
    std::vector<std::size_t> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<std::size_t>{0, 1, 2, 3}));
    EXPECT_EQ(order.front(), *ring.pick(key)) << "primary first";

    // Removing the primary must shift every alternate up one slot and
    // change nothing else — the failover order is shared by the primary
    // pick, retry-on-alternate, and the re-pick after a death.
    HashRing degraded(32);
    for (int i = 0; i < 4; ++i) degraded.add("n" + std::to_string(i));
    degraded.remove("n" + std::to_string(order.front()));
    std::vector<std::size_t> after;
    degraded.walk(key, [&](std::size_t node) {
      after.push_back(node);
      return false;
    });
    EXPECT_EQ(after, std::vector<std::size_t>(order.begin() + 1, order.end()));
  }
}

TEST(HashRing, AddIsIdempotentAndIndicesAreStable) {
  HashRing ring(16);
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.pick(7).has_value());
  const std::size_t a = ring.add("a");
  const std::size_t b = ring.add("b");
  EXPECT_EQ(ring.add("a"), a) << "re-adding a present node is a no-op";
  EXPECT_EQ(ring.node_count(), 2u);
  std::vector<std::size_t> before(256);
  for (std::uint64_t i = 0; i < before.size(); ++i) {
    before[i] = *ring.pick(i);
  }
  ring.remove("b");
  for (std::uint64_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(*ring.pick(i), a) << "only one node left";
  }
  // Re-adding restores the exact placement: the index was never freed.
  EXPECT_EQ(ring.add("b"), b);
  for (std::uint64_t i = 0; i < before.size(); ++i) {
    ASSERT_EQ(*ring.pick(i), before[i]) << "key " << i;
  }
}

// ---------------------------------------------------------------------------
// Fingerprint collisions: placement may collide, identity may not.
// ---------------------------------------------------------------------------

TEST(Fingerprint, EngineeredCollisionInternsDistinctTrees) {
  // tree_fingerprint chains state = mix64(state ^ v) over the fed
  // values (count, then per node: parent, output, exec, work). The
  // chain is invertible step-by-step, so two single-node trees that
  // differ in output_size can be forced to collide by solving for the
  // exec_size that re-converges the state — no brute force needed:
  //   mix64(S0 ^ o1) ^ e1 == mix64(S0 ^ o2) ^ e2
  const auto feed = [](std::uint64_t s, std::uint64_t v) {
    return mix64(s ^ v);
  };
  std::uint64_t s = 0x5eed5eed5eed5eedULL;
  s = feed(s, 1);  // node count
  s = feed(s, static_cast<std::uint64_t>(
                  static_cast<std::int64_t>(kNoNode)));  // root's parent
  const std::uint64_t o1 = 1, e1 = 1, o2 = 2;
  const std::uint64_t e2 = feed(s, o1) ^ e1 ^ feed(s, o2);

  const Tree a({kNoNode}, {o1}, {e1}, {1.0});
  const Tree b({kNoNode}, {o2}, {e2}, {1.0});
  ASSERT_EQ(tree_fingerprint(a), tree_fingerprint(b))
      << "the engineered collision must actually collide";
  ASSERT_FALSE(trees_identical(a, b));

  // The store must disambiguate by full content comparison: both trees
  // intern (two misses, no false hit) under the same hash bucket but
  // with DISTINCT uids — downstream caches key by uid, so the collision
  // can never alias their results. The router may route both to the
  // same node (placement collides harmlessly); identity does not.
  InstanceStore store;
  const TreeHandle ha = store.intern(a);
  const TreeHandle hb = store.intern(b);
  EXPECT_EQ(ha.hash, hb.hash);
  EXPECT_NE(ha.uid, hb.uid);
  EXPECT_TRUE(trees_identical(*ha, a));
  EXPECT_TRUE(trees_identical(*hb, b));
  const InstanceStore::Stats stats = store.stats();
  EXPECT_EQ(stats.unique_trees, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 0u);
}

// ---------------------------------------------------------------------------
// End-to-end: real backends, a real router, real loopback sockets.
// ---------------------------------------------------------------------------

/// One backend node: service + server + I/O thread (test_net's harness).
class BackendHarness {
 public:
  explicit BackendHarness(ServerConfig config = {})
      : service_(ServiceConfig{}), server_(service_, config) {
    thread_ = std::thread([this] { server_.run(); });
  }

  ~BackendHarness() { stop(); }

  void stop() {
    if (thread_.joinable()) {
      server_.stop();
      thread_.join();
    }
  }

  [[nodiscard]] std::uint16_t port() const { return server_.port(); }
  [[nodiscard]] std::string name() const {
    return "127.0.0.1:" + std::to_string(port());
  }

 private:
  SchedulingService service_;
  Server server_;
  std::thread thread_;
};

/// A hand-driven backend speaking just enough v3 to be marked up by the
/// router's health checks (it answers ping and stats control frames)
/// while misbehaving on schedule requests: swallowing them forever
/// (kSilent — fills the router's upstream window/queue) or closing the
/// socket the moment one arrives (kCloseAbruptly — a node death timed
/// exactly mid-request). Deterministic where killing a real server
/// would race its graceful drain.
class FakeNode {
 public:
  enum class OnRequest { kSilent, kCloseAbruptly };

  explicit FakeNode(OnRequest behavior) : behavior_(behavior) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) throw std::runtime_error("FakeNode: socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 8) != 0) {
      ::close(listen_fd_);
      throw std::runtime_error("FakeNode: bind/listen");
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { serve(); });
  }

  ~FakeNode() { stop(); }

  void stop() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) return;
      stopping_ = true;
      if (conn_fd_ >= 0) ::shutdown(conn_fd_, SHUT_RDWR);
      ::shutdown(listen_fd_, SHUT_RDWR);
    }
    thread_.join();
    ::close(listen_fd_);
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] std::string name() const {
    return "127.0.0.1:" + std::to_string(port_);
  }
  [[nodiscard]] std::uint64_t requests_seen() const {
    return requests_seen_.load();
  }

 private:
  void serve() {
    while (true) {
      const int cfd = ::accept(listen_fd_, nullptr, nullptr);
      if (cfd < 0) return;  // stop() shut the listener down
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_) {
          ::close(cfd);
          return;
        }
        conn_fd_ = cfd;
      }
      handle_conn(cfd);
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        ::close(cfd);
        conn_fd_ = -1;
        if (stopping_) return;
      }
    }
  }

  void handle_conn(int cfd) {
    net::FrameReader reader;
    std::size_t magic_left = net::kFrameMagic.size();
    char buf[4096];
    while (true) {
      const ssize_t r = ::read(cfd, buf, sizeof(buf));
      if (r <= 0) return;
      const char* data = buf;
      auto len = static_cast<std::size_t>(r);
      if (magic_left > 0) {
        const std::size_t skip = std::min(magic_left, len);
        magic_left -= skip;
        data += skip;
        len -= skip;
      }
      reader.feed(data, len);
      net::Frame frame;
      while (reader.next(frame) == net::FrameReader::Status::kFrame) {
        if (frame.opcode == net::Opcode::kPing ||
            frame.opcode == net::Opcode::kStats) {
          std::optional<std::uint64_t> id;
          if (!net::decode_control_id(frame, id)) return;
          ResponseLine resp;
          resp.kind = frame.opcode == net::Opcode::kPing
                          ? ResponseLine::Kind::kPong
                          : ResponseLine::Kind::kStats;
          resp.ok = true;
          resp.id = id;
          if (resp.kind == ResponseLine::Kind::kStats) {
            resp.stats = {{"fake_node", 1}};
          }
          std::string out;
          net::FrameWriter(out).response(resp);
          if (!write_all(cfd, out)) return;
        } else if (frame.opcode == net::Opcode::kRequest) {
          requests_seen_.fetch_add(1);
          if (behavior_ == OnRequest::kCloseAbruptly) return;
          // kSilent: swallow the request, never answer.
        }
      }
    }
  }

  static bool write_all(int fd, const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      // MSG_NOSIGNAL: stop() may shut the socket down while this thread
      // writes a pong, and a plain write() would raise SIGPIPE.
      const ssize_t w =
          ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (w <= 0) return false;
      off += static_cast<std::size_t>(w);
    }
    return true;
  }

  const OnRequest behavior_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::mutex mutex_;
  int conn_fd_ = -1;
  bool stopping_ = false;
  std::atomic<std::uint64_t> requests_seen_{0};
};

/// Router + I/O thread. Health cadence is cranked way down so tests
/// converge in milliseconds instead of the production quarter-second.
class RouterHarness {
 public:
  explicit RouterHarness(std::vector<std::string> nodes,
                         RouterConfig config = {}) {
    config.nodes = std::move(nodes);
    if (config.health_interval_ms == 250.0) config.health_interval_ms = 10.0;
    if (config.ping_timeout_ms == 2000.0) config.ping_timeout_ms = 1000.0;
    if (config.reconnect_backoff_ms == 500.0) {
      config.reconnect_backoff_ms = 20.0;
    }
    router_ = std::make_unique<Router>(std::move(config));
    thread_ = std::thread([this] { router_->run(); });
  }

  ~RouterHarness() { stop(); }

  void stop() {
    if (thread_.joinable()) {
      router_->stop();
      thread_.join();
    }
  }

  [[nodiscard]] std::uint16_t port() const { return router_->port(); }
  [[nodiscard]] Router& router() { return *router_; }

  /// Polls the router's own `stats` verb until it reports `n` live
  /// backends — requests sent before the first health tick connects
  /// would be answered node_unavailable, which is correct but not what
  /// a routing test wants to measure.
  [[nodiscard]] bool wait_nodes_up(std::uint64_t n,
                                   std::chrono::milliseconds deadline =
                                       std::chrono::milliseconds(5000)) {
    Client probe("127.0.0.1", port());
    const auto until = std::chrono::steady_clock::now() + deadline;
    while (std::chrono::steady_clock::now() < until) {
      const ResponseLine stats = probe.request("stats");
      for (const auto& [key, value] : stats.stats) {
        if (key == "nodes_up" && value >= n) return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

 private:
  std::unique_ptr<Router> router_;
  std::thread thread_;
};

std::uint64_t stat_value(const ResponseLine& stats, const std::string& key) {
  for (const auto& [k, v] : stats.stats) {
    if (k == key) return v;
  }
  ADD_FAILURE() << "stats line is missing key " << key;
  return 0;
}

/// The fingerprint the router routes `spec` by, computed the same way
/// it computes it: resolve the spec, fingerprint the tree, drop it.
std::uint64_t spec_fingerprint(const std::string& spec) {
  return tree_fingerprint(tree_from_spec(spec));
}

/// A generator spec whose fingerprint the given ring places on `want`.
std::string spec_routed_to(const HashRing& ring, std::size_t want) {
  for (int seed = 1; seed < 200; ++seed) {
    std::string spec = "random:80:" + std::to_string(seed);
    if (*ring.pick(spec_fingerprint(spec)) == want) return spec;
  }
  ADD_FAILURE() << "no spec found routing to node " << want;
  return "random:80:1";
}

TEST(ClusterRouter, RoutesOverBothProtocolsAndSharesTheCacheAcrossThem) {
  BackendHarness node_a;
  BackendHarness node_b;
  RouterHarness router({node_a.name(), node_b.name()});
  ASSERT_TRUE(router.wait_nodes_up(2));

  Client text("127.0.0.1", router.port());
  const ResponseLine first = text.request("random:300:1 Liu 1 id=1");
  ASSERT_TRUE(first.ok) << first.message;
  EXPECT_EQ(first.id, 1u);
  EXPECT_EQ(first.algo, "Liu");
  EXPECT_EQ(first.n, 300);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_GT(first.makespan, 0.0);

  // A DIFFERENT client over the BINARY protocol sends the same spec:
  // the ring lands it on the same node, whose result cache answers.
  Client binary("127.0.0.1", router.port(), net::Protocol::kV3);
  const ResponseLine second = binary.request("random:300:1 Liu 1 id=2");
  ASSERT_TRUE(second.ok) << second.message;
  EXPECT_EQ(second.id, 2u);
  EXPECT_TRUE(second.cache_hit)
      << "same tree via another client+protocol must hit the node's cache";
  EXPECT_EQ(second.makespan, first.makespan) << "bit-identical answers";

  const ResponseLine pong = text.request("ping id=9");
  EXPECT_EQ(pong.kind, ResponseLine::Kind::kPong);
  EXPECT_EQ(pong.id, 9u);
}

TEST(ClusterRouter, PlacementMatchesAnIndependentlyBuiltRing) {
  BackendHarness node_a;
  BackendHarness node_b;
  RouterHarness router({node_a.name(), node_b.name()});
  ASSERT_TRUE(router.wait_nodes_up(2));

  // A second ring over the same names must agree with the router's —
  // that determinism is what makes the fingerprint a cluster-wide key.
  HashRing ring(router.router().config().vnodes);
  ring.add(node_a.name());
  ring.add(node_b.name());

  Client client("127.0.0.1", router.port());
  std::vector<std::uint64_t> predicted(2, 0);
  for (int seed = 1; seed <= 8; ++seed) {
    const std::string spec = "random:120:" + std::to_string(seed);
    const std::uint64_t fp = spec_fingerprint(spec);
    ++predicted[*ring.pick(fp)];
    const ResponseLine resp = client.request(spec + " Liu 1");
    ASSERT_TRUE(resp.ok) << resp.message;
    // The router computes the routing key with the same fingerprint the
    // backend reports in tree= — pin that they agree on the wire.
    EXPECT_EQ(resp.tree_hash, fp) << spec;
  }
  const ResponseLine stats = client.request("stats");
  EXPECT_EQ(stat_value(stats, "node0_routed"), predicted[0]);
  EXPECT_EQ(stat_value(stats, "node1_routed"), predicted[1]);
  EXPECT_EQ(stat_value(stats, "forwarded"), 8u);
  EXPECT_EQ(stat_value(stats, "responses"), 8u);
}

TEST(ClusterRouter, ClusterWideCacheHitAfterWarmingTheNodeDirectly) {
  BackendHarness node_a;
  BackendHarness node_b;
  std::vector<std::string> names{node_a.name(), node_b.name()};
  RouterHarness router(names);
  ASSERT_TRUE(router.wait_nodes_up(2));

  HashRing ring(router.router().config().vnodes);
  for (const auto& n : names) ring.add(n);
  const std::string spec = "synthetic:500:7";
  const std::size_t home = *ring.pick(spec_fingerprint(spec));

  // Warm the HOME node by talking to it directly, router not involved.
  {
    Client direct("127.0.0.1", home == 0 ? node_a.port() : node_b.port());
    const ResponseLine warm = direct.request(spec + " Liu 1");
    ASSERT_TRUE(warm.ok) << warm.message;
    EXPECT_FALSE(warm.cache_hit);
  }

  // A fresh client through the router must land on that node and reuse
  // its warm cache: the cluster-wide cache hit the ring exists for.
  Client via_router("127.0.0.1", router.port());
  const ResponseLine hit = via_router.request(spec + " Liu 1");
  ASSERT_TRUE(hit.ok) << hit.message;
  EXPECT_TRUE(hit.cache_hit)
      << "the router must route the spec to the node warmed directly";
}

TEST(ClusterRouter, NodeDeathMidRequestRetriesOnTheAlternate) {
  // Node 0 is a fake that drops the connection the instant a schedule
  // request arrives — a death timed exactly mid-request. Node 1 is
  // real. The forward must be retried there and the client answered ok.
  FakeNode fake(FakeNode::OnRequest::kCloseAbruptly);
  BackendHarness real;
  std::vector<std::string> names{fake.name(), real.name()};
  RouterConfig config;
  config.retries = 1;
  RouterHarness router(names, config);
  ASSERT_TRUE(router.wait_nodes_up(2));

  HashRing ring(router.router().config().vnodes);
  for (const auto& n : names) ring.add(n);
  const std::string spec = spec_routed_to(ring, 0);

  Client client("127.0.0.1", router.port());
  const ResponseLine resp = client.request(spec + " Liu 1 id=1");
  ASSERT_TRUE(resp.ok) << "retry on the alternate must answer: "
                       << resp.message;
  EXPECT_EQ(resp.id, 1u);
  EXPECT_GE(fake.requests_seen(), 1u) << "the fake node saw the forward";

  const ResponseLine stats = client.request("stats");
  EXPECT_GE(stat_value(stats, "retried"), 1u);
  EXPECT_GE(stat_value(stats, "node_failures"), 1u);
}

TEST(ClusterRouter, ExhaustedClusterAnswersTypedNodeUnavailable) {
  // The only node dies mid-request: the retry walk finds no live
  // alternate and the client gets the TYPED error — never a hang.
  FakeNode fake(FakeNode::OnRequest::kCloseAbruptly);
  RouterConfig config;
  config.retries = 1;
  RouterHarness router({fake.name()}, config);
  ASSERT_TRUE(router.wait_nodes_up(1));

  Client client("127.0.0.1", router.port());
  const ResponseLine resp = client.request("random:90:1 Liu 1 id=1");
  ASSERT_FALSE(resp.ok);
  EXPECT_EQ(resp.id, 1u);
  EXPECT_EQ(resp.code, ErrorCode::kNodeUnavailable) << resp.message;

  const ResponseLine stats = client.request("stats");
  EXPECT_GE(stat_value(stats, "node_unavailable"), 1u);
}

TEST(ClusterRouter, BackpressureAnswersQueueFullAndCancelReachesTheQueue) {
  // A backend that is alive (answers pings) but never answers work, a
  // window of 1 and a queue of 2: request 1 goes on the wire, 2 and 3
  // queue router-side, 4 and 5 are refused with the typed queue_full.
  // `cancel id=2` pulls a QUEUED forward back; cancelling the one on
  // the wire is refused with the same untagged ack the server uses.
  // Killing the node then settles 1 and 3 as node_unavailable — every
  // accepted request is answered, no matter how badly the node behaves.
  auto fake = std::make_unique<FakeNode>(FakeNode::OnRequest::kSilent);
  RouterConfig config;
  config.retries = 0;
  config.upstream_window = 1;
  config.upstream_queue = 2;
  RouterHarness router({fake->name()}, config);
  ASSERT_TRUE(router.wait_nodes_up(1));

  Client client("127.0.0.1", router.port());
  for (int i = 1; i <= 5; ++i) {
    client.send_line("random:20" + std::to_string(i) + ":1 Liu 1 id=" +
                     std::to_string(i));
  }
  std::map<std::uint64_t, ErrorCode> errors;
  for (int i = 0; i < 2; ++i) {
    const auto resp = client.recv_response();
    ASSERT_TRUE(resp.has_value());
    ASSERT_FALSE(resp->ok);
    ASSERT_TRUE(resp->id.has_value());
    errors[*resp->id] = resp->code;
  }
  EXPECT_EQ(errors.count(4), 1u);
  EXPECT_EQ(errors.count(5), 1u);
  for (const auto& [id, code] : errors) {
    EXPECT_EQ(code, ErrorCode::kQueueFull) << "id " << id;
  }

  client.send_line("cancel id=2");
  const auto cancelled = client.recv_response();
  ASSERT_TRUE(cancelled.has_value());
  EXPECT_EQ(cancelled->id, 2u);
  EXPECT_EQ(cancelled->code, ErrorCode::kCancelled);

  // Cancelling the request already on the wire is refused with an
  // UNTAGGED ack — which keeps submission order, so it queues behind
  // the never-answered request 1 and arrives only once 1 settles.
  client.send_line("cancel id=1");

  // Kill the node: the in-flight forward (1) and the still-queued one
  // (3) settle as typed node_unavailable errors, which also releases
  // the ordered untagged ack. Three answers, nothing hangs.
  fake->stop();
  std::map<std::uint64_t, ErrorCode> settled;
  bool saw_refused_ack = false;
  for (int i = 0; i < 3; ++i) {
    const auto resp = client.recv_response();
    ASSERT_TRUE(resp.has_value());
    ASSERT_FALSE(resp->ok);
    if (resp->id.has_value()) {
      settled[*resp->id] = resp->code;
    } else {
      saw_refused_ack = true;
      EXPECT_NE(resp->message.find("already forwarded"), std::string::npos)
          << resp->message;
    }
  }
  EXPECT_TRUE(saw_refused_ack)
      << "a cancel that cannot be honored acks untagged";
  EXPECT_EQ(settled.count(1), 1u);
  EXPECT_EQ(settled.count(3), 1u);
  for (const auto& [id, code] : settled) {
    EXPECT_EQ(code, ErrorCode::kNodeUnavailable) << "id " << id;
  }
}

// ---------------------------------------------------------------------------
// The router's side of the client transport: the wire scenarios a direct
// server passes (tests/front_end_scenarios.hpp), through a router in
// front of one real node.
// ---------------------------------------------------------------------------

void through_router(void (*scenario)(std::uint16_t), RouterConfig config = {}) {
  BackendHarness node;
  RouterHarness router({node.name()}, std::move(config));
  ASSERT_TRUE(router.wait_nodes_up(1));
  scenario(router.port());
}

TEST(ClusterRouterTransport,
     OversizedLineAnswersBadRequestAndTheConnectionSurvives) {
  RouterConfig config;
  config.max_line = 128;
  through_router(scenarios::oversized_line_survives, config);
}

TEST(ClusterRouterTransport, HalfCloseAnswersEverythingThenEof) {
  through_router(scenarios::half_close_answers_everything);
}

TEST(ClusterRouterTransport, WriteBackpressureDeliversEverythingToASlowReader) {
  RouterConfig config;
  config.max_wbuf = 2048;
  config.max_pending = 4096;
  through_router(scenarios::slow_reader_gets_every_answer, config);
}

TEST(ClusterRouterTransport, GarbageMagicAnswersOneErrorFrameAndCloses) {
  through_router(scenarios::garbage_magic_answers_one_error_and_closes);
}

TEST(ClusterRouterTransport, EofInsideTheMagicAnswersBadRequest) {
  through_router(scenarios::eof_inside_the_magic_answers_bad_request);
}

TEST(ClusterRouterTransport, TruncatedLengthPrefixAtEofAnswersBadRequest) {
  through_router(scenarios::half_close_mid_frame_answers_bad_request);
}

TEST(ClusterRouterTransport, UnknownOpcodeIsRefused) {
  through_router(scenarios::unknown_opcode_is_refused);
}

TEST(ClusterRouter, DrainTimeoutBoundsAStuckShutdown) {
  // A request is parked on a node that will never answer; without the
  // timeout, stop() would wait for it forever.
  FakeNode fake(FakeNode::OnRequest::kSilent);
  RouterConfig config;
  config.drain_timeout_ms = 150.0;
  auto router = std::make_unique<RouterHarness>(
      std::vector<std::string>{fake.name()}, config);
  ASSERT_TRUE(router->wait_nodes_up(1));

  Client client("127.0.0.1", router->port());
  client.send_line("random:77:1 Liu 1 id=1");
  // Wait until the forward is actually on the fake node's wire.
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fake.requests_seen() == 0 &&
         std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(fake.requests_seen(), 1u);

  const auto start = std::chrono::steady_clock::now();
  router->stop();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), 3000)
      << "drain must be bounded by --drain-timeout-ms";
}

TEST(ClusterRouter, RejectsDuplicateNodesAndEmptyNodeLists) {
  RouterConfig dup;
  dup.nodes = {"127.0.0.1:3714", "127.0.0.1:3714"};
  EXPECT_THROW(Router{dup}, std::invalid_argument);
  RouterConfig empty;
  EXPECT_THROW(Router{empty}, std::invalid_argument);
  RouterConfig malformed;
  malformed.nodes = {"127.0.0.1"};
  EXPECT_THROW(Router{malformed}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Cluster-wide tracing and event logging: the merged dump pulls every
// live backend's ring, per-node failure counters surface in stats, and
// node deaths land in the structured event log.
//
// In-process caveat: router and backends share Tracer::global(), so a
// backend's pull can return spans the router also snapshotted. These
// tests therefore assert the MERGE MECHANICS (per-process pids,
// process_name metadata, nodes_merged) — span exclusivity is a
// cross-process property the shell e2e script covers.
// ---------------------------------------------------------------------------

TEST(ClusterTrace, MergedDumpCoversRouterAndEveryNode) {
  BackendHarness node_a;
  BackendHarness node_b;
  char tmpl[] = "/tmp/treesched-trace-XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  RouterConfig config;
  config.trace_dir = dir;
  RouterHarness router({node_a.name(), node_b.name()}, config);
  ASSERT_TRUE(router.wait_nodes_up(2));

  Client client("127.0.0.1", router.port());
  const ResponseLine start = client.request("trace start id=1");
  ASSERT_TRUE(start.ok) << start.message;
  for (int seed = 1; seed <= 6; ++seed) {
    const ResponseLine resp =
        client.request("random:100:" + std::to_string(seed) + " Liu 1 id=" +
                       std::to_string(10 + seed));
    ASSERT_TRUE(resp.ok) << resp.message;
  }

  const ResponseLine dump = client.request("trace dump=cluster.json id=9");
  ASSERT_TRUE(dump.ok) << dump.message;
  EXPECT_EQ(dump.id, 9u);
  EXPECT_EQ(stat_value(dump, "nodes_merged"), 2u)
      << "both live backends must contribute their rings";
  EXPECT_EQ(stat_value(dump, "pull_failures"), 0u);
  EXPECT_GT(stat_value(dump, "spans"), 0u);

  // `trace status` names the per-node pull-failure counters.
  const ResponseLine status = client.request("trace status");
  EXPECT_EQ(stat_value(status, "node0_pull_failures"), 0u);
  EXPECT_EQ(stat_value(status, "node1_pull_failures"), 0u);
  EXPECT_TRUE(client.request("trace stop").ok);

  std::ifstream in(std::string(dir) + "/cluster.json");
  ASSERT_TRUE(in.good()) << "the merged dump file must exist under trace_dir";
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"router\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"node " + node_a.name() + "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"node " + node_b.name() + "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos) << "router = pid 1";
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":3"), std::string::npos);
  EXPECT_NE(json.find("router/upstream"), std::string::npos)
      << "the router's own upstream round-trip spans are in the dump";
}

TEST(ClusterTrace, MergedDumpWithoutTraceDirIsRefused) {
  // No trace_dir at all: the dump must be refused up front, exactly
  // like the single-node server refuses server-side file writes.
  BackendHarness node;
  RouterHarness router({node.name()});
  ASSERT_TRUE(router.wait_nodes_up(1));
  Client client("127.0.0.1", router.port());
  const ResponseLine refused = client.request("trace dump=x.json id=1");
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.code, ErrorCode::kBadRequest);
}

TEST(ClusterRouter, PerNodeFailureCountersAndEventLogRecordADeath) {
  // Node 0 dies mid-request (FakeNode closes on the first schedule
  // forward); node 1 is real. The retry answers the client, and the
  // death must surface three ways: per-node stats counters, labeled
  // Prometheus series (same samples), and the structured event log.
  FakeNode fake(FakeNode::OnRequest::kCloseAbruptly);
  BackendHarness real;
  std::vector<std::string> names{fake.name(), real.name()};
  char tmpl[] = "/tmp/treesched-events-XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  const std::string log_path = std::string(dir) + "/events.jsonl";
  RouterConfig config;
  config.retries = 1;
  config.log_json = log_path;
  RouterHarness router(names, config);
  ASSERT_TRUE(router.wait_nodes_up(2));

  HashRing ring(router.router().config().vnodes);
  for (const auto& n : names) ring.add(n);
  const std::string spec = spec_routed_to(ring, 0);

  Client client("127.0.0.1", router.port());
  const ResponseLine resp = client.request(spec + " Liu 1 id=1");
  ASSERT_TRUE(resp.ok) << resp.message;

  const ResponseLine stats = client.request("stats");
  EXPECT_GE(stat_value(stats, "node0_disconnects"), 1u);
  EXPECT_GE(stat_value(stats, "node0_retries"), 1u);
  EXPECT_NE(stat_value(stats, "node0_last_error_code"), 0u)
      << "the death must leave a typed failure code behind";
  EXPECT_EQ(stat_value(stats, "node1_disconnects"), 0u)
      << "the healthy node's counters stay clean";

  std::ifstream in(log_path);
  ASSERT_TRUE(in.good()) << "--log-json must have created the sink";
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string events = ss.str();
  EXPECT_NE(events.find("\"event\":\"node_down\""), std::string::npos);
  EXPECT_NE(events.find("\"event\":\"retry\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Satellite coverage: spec byte budgets and the server's drain timeout.
// ---------------------------------------------------------------------------

/// Writes `bytes` junk bytes under a fresh temp dir; returns the dir.
std::string make_tree_dir_with(const std::string& file, std::size_t bytes) {
  char tmpl[] = "/tmp/treesched-cluster-XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  std::ofstream out(std::string(dir) + "/" + file, std::ios::binary);
  out << std::string(bytes, 'x');
  return dir;
}

TEST(MaxSpecBytes, ServerRejectsOversizedTreeFilesBeforeReading) {
  // The byte budget is checked against the on-disk size BEFORE the
  // read, so even an unparseable file works as the oversized probe.
  const std::string dir = make_tree_dir_with("big.tree", 64);
  ServerConfig config;
  config.tree_dir = dir;
  config.max_spec_bytes = 16;
  BackendHarness server(config);
  Client client("127.0.0.1", server.port());
  const ResponseLine resp = client.request("file:big.tree Liu 1 id=1");
  ASSERT_FALSE(resp.ok);
  EXPECT_EQ(resp.code, ErrorCode::kBadRequest);
  EXPECT_NE(resp.message.find("byte"), std::string::npos) << resp.message;
}

TEST(MaxSpecBytes, RouterRejectsOversizedTreeFilesAtFingerprintTime) {
  // The router resolves specs itself to compute routing keys, so it is
  // as exposed to hostile file: specs as a node — the budget must bite
  // at the router before anything is forwarded.
  const std::string dir = make_tree_dir_with("big.tree", 64);
  BackendHarness node;
  RouterConfig config;
  config.tree_dir = dir;
  config.max_spec_bytes = 16;
  RouterHarness router({node.name()}, config);
  ASSERT_TRUE(router.wait_nodes_up(1));
  Client client("127.0.0.1", router.port());
  const ResponseLine resp = client.request("file:big.tree Liu 1 id=1");
  ASSERT_FALSE(resp.ok);
  EXPECT_EQ(resp.code, ErrorCode::kBadRequest);
  EXPECT_NE(resp.message.find("byte"), std::string::npos) << resp.message;
  const ResponseLine stats = client.request("stats");
  EXPECT_EQ(stat_value(stats, "forwarded"), 0u)
      << "a rejected spec must never reach a backend";
}

TEST(ScheduleServerDrain, DrainTimeoutBoundsClientsThatNeverRead) {
  ServerConfig config;
  config.drain_timeout_ms = 150.0;
  config.max_wbuf = 64 * 1024;
  auto server = std::make_unique<BackendHarness>(config);
  Client client("127.0.0.1", server->port());
  // Shrink the client's receive window, then pile up answers it never
  // reads: stats lines are kilobytes each, so the server's write buffer
  // cannot flush and an unbounded drain would wait forever.
  const int rcvbuf = 4096;
  ::setsockopt(client.fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  for (int i = 0; i < 400; ++i) {
    client.send_line("stats id=" + std::to_string(i + 1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto start = std::chrono::steady_clock::now();
  server->stop();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), 3000)
      << "drain must be bounded by --drain-timeout-ms";
}

}  // namespace
}  // namespace treesched
