#include "harness.hpp"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "campaign/dataset.hpp"
#include "cluster/ring.hpp"
#include "cluster/router.hpp"
#include "core/lower_bounds.hpp"
#include "core/simulator.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/registry.hpp"
#include "sched/validate.hpp"
#include "sequential/liu.hpp"
#include "service/instance_store.hpp"
#include "service/request_line.hpp"
#include "service/request_view.hpp"
#include "service/service.hpp"

namespace e2ebench {

namespace {

using namespace treesched;

/// cold-roster result-cache budget (a deployment setting, the server's
/// --cache-mb): a cold result costs 10-50 KB, so a run's thousands of
/// distinct results overflow 8 MiB and inserts evict.
constexpr std::size_t kColdCacheBytes = 8u << 20;
/// Router health cadence: how soon a started backend counts as up.
constexpr double kHealthIntervalMs = 20.0;
/// Distinct trees of the traced run's roster sweep (sched.* metrics).
constexpr std::size_t kSweepTrees = 8;
/// Response samples kept per connection for the decode micro-timing.
constexpr std::size_t kDecodeSamples = 64;
/// Minimum wall time of each micro-timing loop of the traced run.
constexpr double kMicroSeconds = 0.05;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void write_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::system_error(errno, std::generic_category(), "send");
    }
    off += static_cast<std::size_t>(n);
  }
}

/// Times `op` in a loop for at least kMicroSeconds; nanoseconds per call.
template <class Op>
double ns_per_call(std::size_t calls_per_round, Op&& op) {
  std::size_t calls = 0;
  const Clock::time_point t0 = Clock::now();
  Clock::time_point t1 = t0;
  do {
    for (std::size_t i = 0; i < calls_per_round; ++i) op(i);
    calls += calls_per_round;
    t1 = Clock::now();
  } while (seconds_between(t0, t1) < kMicroSeconds);
  return seconds_between(t0, t1) * 1e9 / static_cast<double>(calls);
}

// --- the program under test -------------------------------------------

/// The servers (and, on routed-text, the router) of one workload, each
/// on its own I/O thread; the shared thread pool computes for all.
class Deployment {
 public:
  explicit Deployment(Workload w) {
    const std::size_t nodes = w == Workload::kRoutedText ? 2 : 1;
    for (std::size_t i = 0; i < nodes; ++i) {
      ServiceConfig config;
      if (w == Workload::kColdRoster) config.cache_bytes = kColdCacheBytes;
      services_.push_back(std::make_unique<SchedulingService>(config));
      net::ServerConfig server_config;
      server_config.drain_timeout_ms = 2000.0;
      servers_.push_back(
          std::make_unique<net::Server>(*services_.back(), server_config));
      net::Server* server = servers_.back().get();
      threads_.emplace_back([server] { server->run(); });
    }
    if (w == Workload::kRoutedText) {
      cluster::RouterConfig config;
      for (const auto& server : servers_) {
        config.nodes.push_back("127.0.0.1:" + std::to_string(server->port()));
      }
      config.health_interval_ms = kHealthIntervalMs;
      config.reconnect_backoff_ms = kHealthIntervalMs;
      config.drain_timeout_ms = 2000.0;
      router_ = std::make_unique<cluster::Router>(config);
      node_names_ = config.nodes;
      cluster::Router* router = router_.get();
      router_thread_ = std::thread([router] { router->run(); });
    }
  }

  ~Deployment() {
    if (router_) {
      router_->stop();
      router_thread_.join();
    }
    for (auto& server : servers_) server->stop();
    for (std::thread& t : threads_) t.join();
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Where clients connect: the router if there is one.
  [[nodiscard]] std::uint16_t entry_port() const {
    return router_ ? router_->port() : servers_.front()->port();
  }
  [[nodiscard]] std::uint16_t node_port(std::size_t i) const {
    return servers_[i]->port();
  }
  [[nodiscard]] std::size_t node_count() const { return servers_.size(); }
  [[nodiscard]] const std::vector<std::string>& node_names() const {
    return node_names_;
  }
  [[nodiscard]] std::vector<SchedulingService*> services() const {
    std::vector<SchedulingService*> out;
    for (const auto& s : services_) out.push_back(s.get());
    return out;
  }
  [[nodiscard]] cluster::Router* router() const { return router_.get(); }

 private:
  // Destroyed in reverse: threads are joined (destructor body) before
  // the servers go, and the servers before their services.
  std::vector<std::unique_ptr<SchedulingService>> services_;
  std::vector<std::unique_ptr<net::Server>> servers_;
  std::unique_ptr<cluster::Router> router_;
  std::vector<std::string> node_names_;
  std::vector<std::thread> threads_;
  std::thread router_thread_;
};

std::uint64_t stat_value(const ResponseLine& stats, const std::string& key) {
  for (const auto& [k, v] : stats.stats) {
    if (k == key) return v;
  }
  return 0;
}

void wait_until_nodes_up(const Deployment& dep) {
  net::Client probe("127.0.0.1", dep.entry_port(), net::Protocol::kText);
  for (int tries = 0; tries < 1000; ++tries) {
    if (stat_value(probe.request("stats"), "nodes_up") == dep.node_count()) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  throw std::runtime_error("the router never saw its backends up");
}

// --- reference answers ----------------------------------------------------

struct Reference {
  double makespan = 0.0;
  MemSize peak = 0;
  bool valid = false;
  std::string error;
};

/// Per-layer timings the traced run collects from its own calls.
struct LayerSamples {
  std::vector<double> spec_resolve_us;
  std::map<std::string, std::vector<double>> compute_ms;
  std::vector<double> simulate_us;

  void merge(LayerSamples& other) {
    spec_resolve_us.insert(spec_resolve_us.end(),
                           other.spec_resolve_us.begin(),
                           other.spec_resolve_us.end());
    for (auto& [algo, v] : other.compute_ms) {
      compute_ms[algo].insert(compute_ms[algo].end(), v.begin(), v.end());
    }
    simulate_us.insert(simulate_us.end(), other.simulate_us.begin(),
                       other.simulate_us.end());
  }
};

/// Schedulers created on demand, one set per checking thread.
class SchedulerSet {
 public:
  const Scheduler& get(const std::string& algo) {
    auto it = schedulers_.find(algo);
    if (it == schedulers_.end()) {
      it = schedulers_
               .emplace(algo, SchedulerRegistry::instance().create(algo))
               .first;
    }
    return *it->second;
  }

 private:
  std::map<std::string, SchedulerPtr> schedulers_;
};

/// Tree of `spec`, resolved exactly as a front-end resolves it; traced
/// as campaign.spec_resolve.
Tree resolve_spec(const std::string& spec, SpanBuffer* spans,
                  std::uint64_t request, std::uint64_t parent,
                  LayerSamples* samples) {
  const Clock::time_point t0 = Clock::now();
  Tree tree = tree_from_spec(spec);
  const Clock::time_point t1 = Clock::now();
  if (spans) spans->add("campaign.spec_resolve", request, parent, t0, t1);
  if (samples) samples->spec_resolve_us.push_back(seconds_between(t0, t1) * 1e6);
  return tree;
}

/// A direct registry + simulate() call for `key`, plus the
/// sched/validate verdict on the schedule.
Reference reference_for(const Tree& tree, const Key& key,
                        SchedulerSet& schedulers, SpanBuffer* spans,
                        std::uint64_t request, std::uint64_t parent,
                        LayerSamples* samples) {
  Reference ref;
  try {
    const Scheduler& sched = schedulers.get(key.algo);
    const Clock::time_point t0 = Clock::now();
    const Schedule s = sched.schedule(tree, Resources{key.p, 0});
    const Clock::time_point t1 = Clock::now();
    const SimulationResult sim = simulate(tree, s);
    const Clock::time_point t2 = Clock::now();
    const ScheduleCheck check = check_schedule(tree, s, key.p);
    const Clock::time_point t3 = Clock::now();
    if (spans) {
      spans->add("sched.schedule", request, parent, t0, t1);
      spans->add("core.simulate", request, parent, t1, t2);
      spans->add("sched.validate", request, parent, t2, t3);
    }
    if (samples) {
      samples->compute_ms[key.algo].push_back(seconds_between(t0, t1) * 1e3);
      samples->simulate_us.push_back(seconds_between(t1, t2) * 1e6);
    }
    ref.makespan = sim.makespan;
    ref.peak = sim.peak_memory;
    ref.valid = check.ok;
    if (!check.ok) ref.error = "sched/validate: " + check.error;
  } catch (const std::exception& e) {
    ref.error = e.what();
  }
  return ref;
}

bool matches(const Reference& ref, double makespan, MemSize peak) {
  return ref.valid && ref.makespan == makespan && ref.peak == peak;
}

/// References for a fixed key list (the hot and routed pools, warm-up
/// keys), computed before anything is timed.
std::vector<Reference> references_for(const std::vector<Key>& keys) {
  std::vector<Reference> refs(keys.size());
  SchedulerSet schedulers;
  std::map<std::string, Tree> trees;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    auto it = trees.find(keys[i].spec);
    if (it == trees.end()) {
      it = trees.emplace(keys[i].spec, tree_from_spec(keys[i].spec)).first;
    }
    refs[i] = reference_for(it->second, keys[i], schedulers, nullptr, 0, 0,
                            nullptr);
  }
  return refs;
}

// --- load generation --------------------------------------------------------

/// Reads peak RSS once a phase has answered a fixed number of requests:
/// the same work on every run, so a faster server is not charged for the
/// extra trees it interns in the same time.
class RssMark {
 public:
  explicit RssMark(std::uint64_t at) : at_(at) {}
  void answered(std::uint64_t n) {
    const std::uint64_t before = count_.fetch_add(n, std::memory_order_relaxed);
    if (before < at_ && before + n >= at_) mb_.store(peak_rss_mb());
  }
  /// The reading, or nullopt when the phase never got that far.
  [[nodiscard]] std::optional<double> mb() const {
    const double v = mb_.load();
    return v < 0 ? std::nullopt : std::optional<double>(v);
  }
  [[nodiscard]] std::uint64_t at() const { return at_; }

 private:
  std::uint64_t at_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> mb_{-1.0};
};

/// Answers after which peak_rss_mb is read, per workload: a few seconds
/// into the timed phase on a 4-CPU machine.
std::uint64_t rss_mark_at(Workload w) {
  switch (w) {
    case Workload::kHotV3:
      return 400'000;
    case Workload::kColdRoster:
      return 1'500;
    case Workload::kRoutedText:
      return 40'000;
  }
  return 1;
}

/// An answer checked after its phase (fresh keys have no precomputed
/// reference): the key is regenerated from (connection, request).
struct Answer {
  std::uint32_t conn = 0;
  std::uint64_t request = 0;
  double makespan = 0.0;
  MemSize peak = 0;
};

/// One connection's view of one phase.
struct ConnResult {
  PhaseAccount account;
  LatencyHistogram latency;
  SlicedLatency sliced;
  std::vector<Answer> deferred;
  std::uint64_t bytes = 0;  ///< request + response bytes (traced only)
  std::vector<ResponseLine> samples;
  std::uint64_t cache_hits = 0;  ///< answers flagged cache=hit
};

struct PhaseResult {
  PhaseAccount account;
  LatencyHistogram latency;
  SlicedLatency sliced;  ///< the latency metrics read it
  std::vector<Answer> deferred;
  std::uint64_t bytes = 0;
  std::vector<ResponseLine> samples;
  std::uint64_t cache_hits = 0;
  double elapsed_s = 0.0;
  double cpu_s = 0.0;

  [[nodiscard]] double rps() const {
    return elapsed_s > 0 ? static_cast<double>(account.succeeded) / elapsed_s
                         : 0.0;
  }
  [[nodiscard]] double cpu_us_per_req() const {
    return account.succeeded
               ? cpu_s * 1e6 / static_cast<double>(account.succeeded)
               : 0.0;
  }
};

/// Everything the client loops read: fixed for the run.
struct LoadPlan {
  Workload workload = Workload::kHotV3;
  std::size_t connections = 1;
  CpuRotation* rotation = nullptr;  ///< one-CPU workloads on 2+ CPUs
  const RequestStream* stream = nullptr;
  const std::vector<Reference>* pool_refs = nullptr;  ///< per pool key
  std::vector<std::size_t> pool_node;  ///< direct phase: ring pick per key
};

/// What one phase of the client loops does.
struct PhaseSpec {
  std::uint16_t port = 0;                 ///< router or single server
  std::vector<std::uint16_t> node_ports;  ///< direct phase only
  int tag = 0;  ///< routed-text: names disjoint fresh trees per phase
  Clock::time_point start;
  Clock::time_point deadline;
  std::size_t last_tick = 0;  ///< the phase's last whole tick
  RssMark* rss = nullptr;  ///< counts answers, when set
};

void count_answer(const PhaseSpec& phase, std::uint64_t n = 1) {
  if (phase.rss) phase.rss->answered(n);
}

/// Files the answer under its tick; answers of the phase's last partial
/// tick, and those read after the deadline, go with the last whole one.
void record_latency(const PhaseSpec& phase, ConnResult& out,
                    Clock::time_point t0, Clock::time_point t1) {
  const double ms = seconds_between(t0, t1) * 1e3;
  out.latency.record(ms);
  const double tick = seconds_between(phase.start, t1) / kTickSeconds;
  out.sliced.record(
      tick < 0 ? 0
               : std::min(phase.last_tick, static_cast<std::size_t>(tick)),
      ms);
}

void note_error(ConnResult& out, const ResponseLine& resp) {
  out.account.fail(std::string(to_string(resp.code)));
}

void keep_sample(ConnResult& out, const ResponseLine& resp) {
  if (out.samples.size() < kDecodeSamples) out.samples.push_back(resp);
}

std::size_t v3_response_bytes(const ResponseLine& resp) {
  std::string frame;
  net::FrameWriter(frame).response(resp);
  return frame.size();
}

/// hot-v3: pipelined v3 batch frames of kHotBatch, closed loop.
void hot_loop(const LoadPlan& plan, const PhaseSpec& phase, std::size_t conn,
              net::Client& client, ConnResult& out, SpanBuffer* spans) {
  const std::vector<std::string> frames = plan.stream->hot_frames(conn);
  std::vector<Request> requests;  // by id
  for (std::uint64_t id = 0; id < kHotCycle; ++id) {
    requests.push_back(plan.stream->at(conn, id));
  }

  for (std::size_t b = 0; Clock::now() < phase.deadline; ++b) {
    const std::string& frame = frames[b % frames.size()];
    const Clock::time_point t0 = Clock::now();
    write_all(client.fd(), frame);
    out.account.sent += kHotBatch;
    const std::uint64_t batch_span =
        spans ? spans->open("net.batch", b, 0, t0) : 0;
    Clock::time_point t1 = t0;
    for (std::size_t k = 0; k < kHotBatch; ++k) {
      const std::optional<ResponseLine> resp = client.recv_response();
      t1 = Clock::now();
      if (!resp || !resp->id || *resp->id >= kHotCycle) {
        out.account.fail("connection_closed", kHotBatch - k);
        return;
      }
      record_latency(phase, out, t0, t1);
      const Request& req = requests[*resp->id];
      if (spans) {
        spans->add("net.request", *resp->id, batch_span, t0, t1);
        out.bytes += v3_response_bytes(*resp);
      }
      keep_sample(out, *resp);
      if (!resp->ok) {
        note_error(out, *resp);
      } else if (req.injected ||
                 !matches((*plan.pool_refs)[*req.pool_index], resp->makespan,
                          resp->peak_memory)) {
        out.account.fail("wrong_answer");
      } else {
        ++out.account.succeeded;
        out.cache_hits += resp->cache_hit ? 1 : 0;
      }
    }
    count_answer(phase, kHotBatch);
    if (spans) {
      spans->close(batch_span, t1);
      out.bytes += frame.size();
    }
  }
}

/// cold-roster: text v2 with id= tags, kColdWindow requests outstanding.
void cold_loop(const LoadPlan& plan, const PhaseSpec& phase, std::size_t conn,
               net::Client& client, ConnResult& out, SpanBuffer* spans,
               std::uint64_t& next) {
  const std::uint64_t first = next;
  std::vector<Clock::time_point> sent_at;
  std::size_t outstanding = 0;
  const auto send_next = [&] {
    const std::string line = plan.stream->line(conn, next);
    sent_at.push_back(Clock::now());
    client.send_request(line);
    ++out.account.sent;
    ++outstanding;
    ++next;
    if (spans) out.bytes += line.size() + 1;
  };
  for (std::size_t k = 0; k < kColdWindow; ++k) send_next();
  while (outstanding > 0) {
    const std::optional<ResponseLine> resp = client.recv_response();
    const Clock::time_point t1 = Clock::now();
    if (!resp || !resp->id || *resp->id < first || *resp->id >= next) {
      out.account.fail("connection_closed", outstanding);
      return;
    }
    --outstanding;
    count_answer(phase);
    const Clock::time_point t0 = sent_at[*resp->id - first];
    record_latency(phase, out, t0, t1);
    if (spans) {
      spans->add("net.request", *resp->id, 0, t0, t1);
      out.bytes += format_response_line(*resp).size() + 1;
    }
    keep_sample(out, *resp);
    if (resp->ok) {
      ++out.account.succeeded;
      out.cache_hits += resp->cache_hit ? 1 : 0;
      out.deferred.push_back({static_cast<std::uint32_t>(conn), *resp->id,
                              resp->makespan, resp->peak_memory});
    } else {
      note_error(out, *resp);
    }
    if (t1 < phase.deadline) send_next();
  }
}

/// routed-text: text v2, batch=1, through the router — or, on the
/// direct phase, straight to the node the ring would pick.
void routed_loop(const LoadPlan& plan, const PhaseSpec& phase,
                 std::size_t conn, std::vector<net::Client>& clients,
                 ConnResult& out, SpanBuffer* spans, std::uint64_t& next) {
  const bool direct = clients.size() > 1;
  while (Clock::now() < phase.deadline) {
    const std::uint64_t i = next++;
    const Request req = plan.stream->at(conn, i, phase.tag);
    const std::string line = request_line(req.key, req.id);
    net::Client& client =
        !direct ? clients.front()
                : clients[req.pool_index ? plan.pool_node[*req.pool_index]
                                         : i % clients.size()];
    const Clock::time_point t0 = Clock::now();
    ++out.account.sent;
    const ResponseLine resp = client.request(line);
    const Clock::time_point t1 = Clock::now();
    count_answer(phase);
    record_latency(phase, out, t0, t1);
    if (spans) {
      spans->add("net.request", i, 0, t0, t1);
      out.bytes += line.size() + 1 + format_response_line(resp).size() + 1;
    }
    keep_sample(out, resp);
    if (!resp.ok) {
      note_error(out, resp);
    } else if (!req.pool_index) {
      ++out.account.succeeded;
      out.cache_hits += resp.cache_hit ? 1 : 0;
      out.deferred.push_back({static_cast<std::uint32_t>(conn), i,
                              resp.makespan, resp.peak_memory});
    } else if (req.injected ||
               !matches((*plan.pool_refs)[*req.pool_index], resp.makespan,
                        resp.peak_memory)) {
      out.account.fail("wrong_answer");
    } else {
      ++out.account.succeeded;
      out.cache_hits += resp.cache_hit ? 1 : 0;
    }
  }
}

/// Runs one closed-loop phase on plan.connections threads. Connections
/// open before the clock starts; the phase ends `seconds` later, once
/// every outstanding answer is read. `next` carries each connection's
/// stream position across phases, so no cold key is ever sent twice.
PhaseResult run_phase(const LoadPlan& plan, PhaseSpec phase, double seconds,
                      std::vector<std::uint64_t>& next, SpanLog* log) {
  const std::size_t n = plan.connections;
  std::vector<ConnResult> results(n);
  std::vector<std::string> errors(n);
  std::vector<SpanBuffer> buffers;
  for (std::size_t c = 0; c < n && log; ++c) buffers.push_back(log->buffer());
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  const auto whole_ticks =
      static_cast<std::size_t>(std::floor(seconds / kTickSeconds));
  phase.last_tick = whole_ticks ? whole_ticks - 1 : 0;

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      std::vector<net::Client> clients;
      try {
        const net::Protocol protocol = plan.workload == Workload::kHotV3
                                           ? net::Protocol::kV3
                                           : net::Protocol::kText;
        if (phase.node_ports.empty()) {
          clients.emplace_back("127.0.0.1", phase.port, protocol);
        } else {
          for (std::uint16_t port : phase.node_ports) {
            clients.emplace_back("127.0.0.1", port, protocol);
          }
        }
      } catch (const std::exception& e) {
        errors[c] = std::string("connect: ") + e.what();
      }
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      if (clients.empty()) return;
      SpanBuffer* spans = log ? &buffers[c] : nullptr;
      try {
        switch (plan.workload) {
          case Workload::kHotV3:
            hot_loop(plan, phase, c, clients.front(), results[c], spans);
            break;
          case Workload::kColdRoster:
            cold_loop(plan, phase, c, clients.front(), results[c], spans,
                      next[c]);
            break;
          case Workload::kRoutedText:
            routed_loop(plan, phase, c, clients, results[c], spans, next[c]);
            break;
        }
      } catch (const std::exception& e) {
        // A dropped connection: whatever was sent and never answered
        // counts as failed below.
        errors[c] = e.what();
      }
    });
  }
  while (ready.load() < n) std::this_thread::yield();
  if (plan.rotation) plan.rotation->next();
  PhaseResult out;
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  phase.start = t0;
  phase.deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
  go.store(true, std::memory_order_release);
  for (std::size_t k = 1; plan.rotation && k < whole_ticks; ++k) {
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(kTickSeconds * k)));
    plan.rotation->next();
  }
  for (std::thread& t : threads) t.join();
  out.elapsed_s = seconds_between(t0, Clock::now());
  out.cpu_s = cpu_seconds() - cpu0;

  for (std::size_t c = 0; c < n; ++c) {
    ConnResult& r = results[c];
    const std::uint64_t settled = r.account.succeeded + r.account.failed;
    if (r.account.sent > settled) {
      r.account.fail("connection_closed", r.account.sent - settled);
    }
    if (!errors[c].empty()) {
      if (r.account.sent == 0) r.account.fail("connection_closed");
      std::fprintf(stderr, "connection %zu: %s\n", c, errors[c].c_str());
    }
    out.account.merge(r.account);
    out.latency.merge(r.latency);
    out.sliced.merge(r.sliced);
    out.deferred.insert(out.deferred.end(), r.deferred.begin(),
                        r.deferred.end());
    out.bytes += r.bytes;
    out.cache_hits += r.cache_hits;
    out.samples.insert(out.samples.end(), r.samples.begin(), r.samples.end());
    if (log) log->absorb(buffers[c]);
  }
  return out;
}

// --- checking deferred answers ---------------------------------------------

struct CheckOutcome {
  std::uint64_t wrong = 0;     ///< answers unequal to the reference
  std::uint64_t invalid = 0;   ///< reference schedules failing validate
  std::vector<std::string> examples;
  /// Quality-ratio inputs of the answers inside the prefix.
  std::vector<double> makespan_over_lb;
  std::vector<double> memory_over_min;
};

/// Checks every deferred answer against a direct registry + simulate()
/// call, spread over one thread per CPU (grouped by tree, so each tree is
/// resolved once). `key_of` regenerates an answer's key; answers with
/// `in_prefix` also feed the quality ratios.
template <class KeyOf, class InPrefix>
CheckOutcome check_answers(const std::vector<Answer>& answers, KeyOf key_of,
                           InPrefix in_prefix, SpanLog* log,
                           LayerSamples* samples) {
  std::map<std::string, std::vector<std::pair<Key, const Answer*>>> by_tree;
  for (const Answer& a : answers) {
    Key key = key_of(a);
    std::string spec = key.spec;
    by_tree[spec].emplace_back(std::move(key), &a);
  }
  std::vector<const std::pair<const std::string,
                              std::vector<std::pair<Key, const Answer*>>>*>
      groups;
  for (const auto& g : by_tree) groups.push_back(&g);

  const std::size_t workers =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::vector<CheckOutcome> outcomes(workers);
  std::vector<LayerSamples> layer(workers);
  std::vector<SpanBuffer> buffers;
  for (std::size_t w = 0; w < workers && log; ++w) {
    buffers.push_back(log->buffer());
  }
  std::atomic<std::size_t> cursor{0};
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      SchedulerSet schedulers;
      CheckOutcome& out = outcomes[w];
      SpanBuffer* spans = log ? &buffers[w] : nullptr;
      LayerSamples* ls = samples ? &layer[w] : nullptr;
      for (std::size_t g = cursor++; g < groups.size(); g = cursor++) {
        const auto& [spec, items] = *groups[g];
        const std::uint64_t request = items.front().second->request;
        const Clock::time_point t0 = Clock::now();
        const std::uint64_t root =
            spans ? spans->open("check.tree", request, 0, t0) : 0;
        try {
          const Tree tree = resolve_spec(spec, spans, request, root, ls);
          std::optional<MemSize> min_memory;
          for (const auto& [key, answer] : items) {
            const Reference ref = reference_for(tree, key, schedulers, spans,
                                                answer->request, root, ls);
            if (!ref.valid) {
              ++out.invalid;
              if (out.examples.size() < 3) {
                out.examples.push_back(key.spec + " " + key.algo + ": " +
                                       ref.error);
              }
            } else if (!matches(ref, answer->makespan, answer->peak)) {
              ++out.wrong;
              if (out.examples.size() < 3) {
                out.examples.push_back(
                    key.spec + " " + key.algo + " p=" +
                    std::to_string(key.p) + ": answered makespan=" +
                    std::to_string(answer->makespan) +
                    " peak=" + std::to_string(answer->peak) +
                    ", reference makespan=" + std::to_string(ref.makespan) +
                    " peak=" + std::to_string(ref.peak));
              }
            }
            if (in_prefix(*answer)) {
              if (!min_memory) min_memory = min_sequential_memory(tree);
              out.makespan_over_lb.push_back(
                  answer->makespan / makespan_lower_bound(tree, key.p));
              out.memory_over_min.push_back(
                  static_cast<double>(answer->peak) /
                  static_cast<double>(*min_memory));
            }
          }
        } catch (const std::exception& e) {
          out.invalid += items.size();
          if (out.examples.size() < 3) out.examples.push_back(e.what());
        }
        if (spans) spans->close(root, Clock::now());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  CheckOutcome total;
  for (std::size_t w = 0; w < workers; ++w) {
    CheckOutcome& o = outcomes[w];
    total.wrong += o.wrong;
    total.invalid += o.invalid;
    for (std::string& e : o.examples) {
      if (total.examples.size() < 3) total.examples.push_back(std::move(e));
    }
    total.makespan_over_lb.insert(total.makespan_over_lb.end(),
                                  o.makespan_over_lb.begin(),
                                  o.makespan_over_lb.end());
    total.memory_over_min.insert(total.memory_over_min.end(),
                                 o.memory_over_min.begin(),
                                 o.memory_over_min.end());
    if (samples) samples->merge(layer[w]);
    if (log) log->absorb(buffers[w]);
  }
  return total;
}

// --- set-up -----------------------------------------------------------------

/// Sends `keys` synchronously and checks each answer against `refs`.
/// Returns the answers (makespan, peak) in key order.
std::vector<std::pair<double, MemSize>> warm(
    std::uint16_t port, net::Protocol protocol, const std::vector<Key>& keys,
    const std::vector<Reference>& refs, PhaseAccount& account) {
  std::vector<std::pair<double, MemSize>> answers(keys.size());
  net::Client client("127.0.0.1", port, protocol);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ++account.sent;
    const ResponseLine resp = client.request(request_line(keys[i], i));
    if (!resp.ok) {
      account.fail(std::string(to_string(resp.code)));
    } else if (!matches(refs[i], resp.makespan, resp.peak_memory)) {
      account.fail("wrong_answer");
    } else {
      ++account.succeeded;
      answers[i] = {resp.makespan, resp.peak_memory};
    }
  }
  return answers;
}

struct Setup {
  std::unique_ptr<Deployment> deployment;
  std::vector<std::pair<double, MemSize>> warm_answers;
  double seconds = 0.0;
};

Setup set_up(Workload w, const std::vector<Key>& warm_keys,
             const std::vector<Reference>& warm_refs, PhaseAccount& account) {
  Setup s;
  const Clock::time_point t0 = Clock::now();
  s.deployment = std::make_unique<Deployment>(w);
  if (w == Workload::kRoutedText) wait_until_nodes_up(*s.deployment);
  s.warm_answers =
      warm(s.deployment->entry_port(),
           w == Workload::kHotV3 ? net::Protocol::kV3 : net::Protocol::kText,
           warm_keys, warm_refs, account);
  s.seconds = seconds_between(t0, Clock::now());
  return s;
}

// --- the traced run's ledger ------------------------------------------------

/// Quantiles of one or more of the program's histograms over one phase:
/// snapshots taken at construction, differenced on read.
class HistogramWindow {
 public:
  explicit HistogramWindow(std::vector<obs::Histogram*> hists)
      : hists_(std::move(hists)) {
    for (obs::Histogram* h : hists_) before_.push_back(h->snapshot());
  }
  /// {p50, supported tail} in the histograms' raw unit (ns); {0, 0}
  /// when nothing was recorded in the window.
  [[nodiscard]] std::pair<double, double> quantiles() const {
    obs::HistogramSnapshot delta;
    for (std::size_t i = 0; i < hists_.size(); ++i) {
      const obs::HistogramSnapshot now = hists_[i]->snapshot();
      if (delta.counts.empty()) {
        delta.bounds = now.bounds;
        delta.counts.assign(now.counts.size(), 0);
      }
      delta.count += now.count - before_[i].count;
      delta.sum += now.sum - before_[i].sum;
      for (std::size_t b = 0; b < now.counts.size(); ++b) {
        delta.counts[b] += now.counts[b] - before_[i].counts[b];
      }
    }
    if (delta.count == 0) return {0.0, 0.0};
    return {delta.quantile(0.5), delta.quantile(supported_tail(delta.count))};
  }

 private:
  std::vector<obs::Histogram*> hists_;
  std::vector<obs::HistogramSnapshot> before_;
};

/// The router's upstream round-trip histogram (none without a router).
/// Get-or-create: the router registered this series at construction.
std::vector<obs::Histogram*> upstream_histograms(const Deployment& dep) {
  if (!dep.router()) return {};
  return {&dep.router()->registry().histogram(
      "treesched_router_upstream_seconds", "", "",
      obs::Histogram::latency_bounds_ns(), 1e-9)};
}

/// Every node's admission-to-pop wait histogram (all classes), as the
/// service registered it.
std::vector<obs::Histogram*> queue_wait_histograms(const Deployment& dep) {
  std::vector<obs::Histogram*> out;
  for (SchedulingService* s : dep.services()) {
    out.push_back(&s->registry().histogram(
        "treesched_stage_seconds", "stage=\"queue_wait\",class=\"all\"", "",
        obs::Histogram::latency_bounds_ns(), 1e-9));
  }
  return out;
}

/// The program's counters (the services' summed over nodes, and the
/// router's stats verb); the ledger reports their change over the traced
/// phase.
struct Counters {
  std::uint64_t hits = 0, misses = 0, evictions = 0, rejected = 0;
  std::uint64_t store_bytes = 0;
  std::vector<std::uint64_t> routed;  ///< per node; empty without a router
  std::uint64_t retried = 0, node_unavailable = 0;
};

Counters read_counters(const Deployment& dep) {
  Counters t;
  for (SchedulingService* s : dep.services()) {
    const CacheStats cs = s->cache_stats();
    t.hits += cs.hits;
    t.misses += cs.misses;
    t.evictions += cs.evictions;
    for (const ClassQueueStats& q : s->queue_stats().by_class) {
      t.rejected += q.rejected;
    }
    t.store_bytes += s->store_stats().bytes;
  }
  if (dep.router()) {
    net::Client probe("127.0.0.1", dep.entry_port(), net::Protocol::kText);
    const ResponseLine stats = probe.request("stats");
    for (std::size_t i = 0; i < dep.node_count(); ++i) {
      t.routed.push_back(
          stat_value(stats, "node" + std::to_string(i) + "_routed"));
    }
    t.retried = stat_value(stats, "retried");
    t.node_unavailable = stat_value(stats, "node_unavailable");
  }
  return t;
}

double growth(std::uint64_t before, std::uint64_t after) {
  return static_cast<double>(after) - static_cast<double>(before);
}

/// The distinct specs a workload names (at most `limit`), in stream order.
std::vector<std::string> workload_specs(const LoadPlan& plan,
                                        std::size_t limit) {
  std::vector<std::string> specs;
  const auto push = [&](const std::string& spec) {
    if (specs.size() < limit &&
        std::find(specs.begin(), specs.end(), spec) == specs.end()) {
      specs.push_back(spec);
    }
  };
  if (const ColdRoster* roster = plan.stream->roster()) {
    for (std::uint64_t t = 0; specs.size() < limit; ++t) {
      push(roster->tree_spec(t));
    }
  } else {
    for (const Key& key : plan.stream->pool()) push(key.spec);
  }
  return specs;
}

/// The first request lines of connection 0, as sent.
std::vector<std::string> workload_lines(const LoadPlan& plan,
                                        std::size_t count) {
  std::vector<std::string> lines;
  for (std::uint64_t i = 0; i < count; ++i) {
    lines.push_back(plan.stream->line(0, i));
  }
  return lines;
}

/// sched.* and core.*: every roster algorithm on the workload's first
/// kSweepTrees trees (at each p of the cold roster), timed call by call.
void roster_sweep(const LoadPlan& plan, SpanLog& log, LayerSamples& samples) {
  const std::vector<RosterAlgo> roster = campaign_roster();
  SchedulerSet schedulers;
  SpanBuffer spans = log.buffer();
  std::uint64_t request = 0;
  for (const std::string& spec : workload_specs(plan, kSweepTrees)) {
    const Clock::time_point t0 = Clock::now();
    const std::uint64_t root = spans.open("sweep.tree", request, 0, t0);
    const Tree tree = resolve_spec(spec, &spans, request, root, &samples);
    for (const RosterAlgo& algo : roster) {
      for (int p : kColdProcs) {
        (void)reference_for(tree, {spec, algo.name, p}, schedulers, &spans,
                            request++, root, &samples);
        if (algo.sequential_only) break;
      }
    }
    spans.close(root, Clock::now());
  }
  log.absorb(spans);
}

void add(Report& r, const std::string& name, double value,
         const std::string& unit) {
  r.metrics.push_back({name, value, unit});
}

double p50_of(const std::vector<double>& v) { return median(v); }

void ledger(Report& report, const LoadPlan& plan, const Deployment& dep,
            const PhaseResult& untraced, const PhaseResult& traced,
            const PhaseResult* direct, const Counters& before,
            const Counters& after, const HistogramWindow& queue_wait,
            const HistogramWindow& upstream, SpanLog& log,
            LayerSamples& samples) {
  const bool v3 = plan.workload == Workload::kHotV3;
  // net
  const LatencySummary rtt = traced.latency.summary();
  add(report, "net.rtt_us.p50", rtt.p50 * 1e3, "us");
  add(report, "net.rtt_us.p99", rtt.tail * 1e3, "us");
  report.notes.push_back("net.rtt_us.p99 is p" +
                         std::to_string(rtt.tail_q * 100) + " of " +
                         std::to_string(rtt.count) + " traced requests");
  add(report, "net.bytes_per_req",
      traced.account.sent ? static_cast<double>(traced.bytes) /
                                static_cast<double>(traced.account.sent)
                          : 0.0,
      "bytes");
  {
    std::string wire;
    for (const ResponseLine& resp : traced.samples) {
      if (v3) {
        net::FrameWriter(wire).response(resp);
      } else {
        wire.append(format_response_line(resp)).push_back('\n');
      }
    }
    const std::size_t frames = std::max<std::size_t>(1, traced.samples.size());
    std::vector<std::string> text_lines;
    for (const ResponseLine& resp : traced.samples) {
      text_lines.push_back(format_response_line(resp));
    }
    double decode_ns = 0.0;
    if (v3) {
      decode_ns = ns_per_call(1, [&](std::size_t) {
                    net::FrameReader reader;
                    reader.feed(wire.data(), wire.size());
                    net::Frame frame;
                    ResponseLine out;
                    std::string error;
                    while (reader.next(frame) ==
                           net::FrameReader::Status::kFrame) {
                      (void)net::decode_response_frame(frame, out, error);
                    }
                  }) /
                  static_cast<double>(frames);
    } else {
      decode_ns = ns_per_call(text_lines.size(), [&](std::size_t i) {
        (void)parse_response_line(text_lines[i]);
      });
    }
    add(report, "net.frame_decode_ns", decode_ns, "ns");
  }

  // service: parsing
  const std::vector<std::string> lines = workload_lines(plan, 1024);
  add(report, "service.parse_ns.text", ns_per_call(lines.size(), [&](std::size_t i) {
        (void)parse_request_line(lines[i]);
      }), "ns");
  add(report, "service.parse_ns.view", ns_per_call(lines.size(), [&](std::size_t i) {
        RequestView view;
        std::string error;
        (void)parse_request_view(lines[i], view, error);
      }), "ns");

  // service: cache, store, queue (the program's own counters)
  const std::uint64_t hits = after.hits - before.hits;
  const std::uint64_t misses = after.misses - before.misses;
  add(report, "service.cache_hit_ratio",
      hits + misses ? static_cast<double>(hits) /
                          static_cast<double>(hits + misses)
                    : 0.0,
      "ratio");
  add(report, "service.cache_evictions",
      growth(before.evictions, after.evictions), "count");
  add(report, "service.store_bytes",
      growth(before.store_bytes, after.store_bytes), "bytes");
  add(report, "service.queue_rejected",
      growth(before.rejected, after.rejected), "count");
  {
    const auto [wait50, wait99] = queue_wait.quantiles();
    add(report, "service.queue_wait_us.p50", wait50 / 1e3, "us");
    add(report, "service.queue_wait_us.p99", wait99 / 1e3, "us");
  }

  // service: intern into a scratch service, probe the live one's cache
  const std::vector<std::string> specs = workload_specs(plan, 16);
  std::vector<Tree> trees;
  std::vector<std::uint64_t> fingerprints;
  std::vector<double> fingerprint_us;
  for (const std::string& spec : specs) {
    const Clock::time_point t0 = Clock::now();
    trees.push_back(tree_from_spec(spec));
    fingerprints.push_back(tree_fingerprint(trees.back()));
    fingerprint_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
  }
  {
    SchedulingService scratch;
    std::vector<double> intern_us;
    for (const Tree& tree : trees) {
      Tree copy = tree;
      const Clock::time_point t0 = Clock::now();
      (void)scratch.try_intern(std::move(copy));
      intern_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    }
    add(report, "service.intern_us", p50_of(intern_us), "us");
  }
  {
    SchedulingService& live = *dep.services().front();
    std::vector<ScheduleRequest> probes;
    for (const std::string& line : lines) {
      const RequestLine parsed = parse_request_line(line);
      const auto it = std::find(specs.begin(), specs.end(), parsed.tree_spec);
      if (it == specs.end()) continue;
      ScheduleRequest req;
      req.tree = live.intern(trees[static_cast<std::size_t>(it - specs.begin())]);
      req.algo = parsed.algo;
      req.p = parsed.p;
      probes.push_back(std::move(req));
      if (probes.size() == 64) break;
    }
    add(report, "service.cache_probe_ns",
        probes.empty() ? 0.0
                       : ns_per_call(probes.size(), [&](std::size_t i) {
                           (void)live.try_cached(probes[i]);
                         }),
        "ns");
  }

  // campaign, sched, core
  roster_sweep(plan, log, samples);
  add(report, "campaign.spec_resolve_us", p50_of(samples.spec_resolve_us),
      "us");
  double compute_total = 0.0;
  std::map<std::string, double> compute_sum;
  for (const auto& [algo, v] : samples.compute_ms) {
    for (double x : v) compute_sum[algo] += x;
    compute_total += compute_sum[algo];
  }
  for (const RosterAlgo& algo : campaign_roster()) {
    add(report, "sched.compute_ms." + algo.name,
        p50_of(samples.compute_ms[algo.name]), "ms");
    add(report, "sched.compute_share." + algo.name,
        compute_total > 0 ? compute_sum[algo.name] / compute_total : 0.0,
        "ratio");
  }
  add(report, "core.simulate_us", p50_of(samples.simulate_us), "us");

  // cluster
  add(report, "cluster.fingerprint_us", p50_of(fingerprint_us), "us");
  {
    cluster::HashRing ring;
    const std::vector<std::string> names =
        dep.router() ? dep.node_names()
                     : std::vector<std::string>{"127.0.0.1:1", "127.0.0.1:2"};
    for (const std::string& name : names) ring.add(name);
    add(report, "cluster.ring_pick_ns",
        ns_per_call(fingerprints.size(), [&](std::size_t i) {
          (void)ring.pick(fingerprints[i]);
        }),
        "ns");
  }
  {
    const auto [up50, up99] = upstream.quantiles();
    add(report, "cluster.upstream_rtt_us.p50", up50 / 1e3, "us");
    add(report, "cluster.upstream_rtt_us.p99", up99 / 1e3, "us");
  }
  {
    std::vector<double> routed;
    for (std::size_t i = 0; i < after.routed.size(); ++i) {
      routed.push_back(growth(before.routed[i], after.routed[i]));
    }
    double sum = 0.0;
    for (double x : routed) sum += x;
    add(report, "cluster.node_skew",
        sum > 0 ? *std::max_element(routed.begin(), routed.end()) /
                      (sum / static_cast<double>(routed.size()))
                : 0.0,
        "ratio");
  }
  add(report, "cluster.retries", growth(before.retried, after.retried),
      "count");
  add(report, "cluster.node_unavailable",
      growth(before.node_unavailable, after.node_unavailable), "count");
  double hop_us = 0.0, routed_over_direct = 0.0;
  if (direct) {
    hop_us =
        (untraced.sliced.mean_p50() - direct->sliced.mean_p50()) * 1e3;
    routed_over_direct = direct->rps() > 0 ? untraced.rps() / direct->rps() : 0;
  }
  add(report, "cluster.hop_us", hop_us, "us");
  add(report, "cluster.routed_over_direct", routed_over_direct, "ratio");

  // obs
  {
    obs::Histogram h(obs::Histogram::latency_bounds_ns());
    add(report, "obs.histogram_record_ns",
        ns_per_call(4096, [&](std::size_t i) { h.record(i * 977); }), "ns");
  }

  // the run itself
  const std::uint64_t attempted = untraced.account.sent + traced.account.sent +
                                  (direct ? direct->account.sent : 0);
  const std::uint64_t failed = untraced.account.failed +
                               traced.account.failed +
                               (direct ? direct->account.failed : 0);
  add(report, "failed_ratio",
      attempted ? static_cast<double>(failed) / static_cast<double>(attempted)
                : 0.0,
      "ratio");
  add(report, "trace.overhead_ratio",
      untraced.rps() > 0 ? (untraced.rps() - traced.rps()) / untraced.rps()
                         : 0.0,
      "ratio");
  const std::map<std::string, double> self_ms = log.self_ms_by_layer();
  for (const char* layer : {"net", "campaign", "sched", "core"}) {
    const auto it = self_ms.find(layer);
    add(report, std::string("self_ms.") + layer,
        it == self_ms.end() ? 0.0 : it->second, "ms");
  }
  report.notes.push_back(
      "spans kept: " + std::to_string(log.size()) + ", dropped past the cap: " +
      std::to_string(log.dropped()));
}

}  // namespace

std::size_t connections(Workload w) {
  switch (w) {
    case Workload::kHotV3:
      // One connection: a strict send-16/read-16 ping-pong whose rate
      // repeats run to run.
      return 1;
    case Workload::kColdRoster:
      return 2;
    case Workload::kRoutedText:
      // One synchronous client, batch=1: every request crosses the
      // router, and the latency is the routed path's alone.
      return 1;
  }
  return 1;
}

bool runs_on_one_cpu(Workload w) { return w != Workload::kColdRoster; }

std::vector<int> confine_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return {};
  std::vector<int> cpus;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.empty()) return {};
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus.front(), &one);
  if (sched_setaffinity(0, sizeof one, &one) != 0) return {};
  return cpus;
}

void move_process_to(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  DIR* tasks = opendir("/proc/self/task");
  if (!tasks) return;
  while (const dirent* task = readdir(tasks)) {
    if (task->d_name[0] == '.') continue;
    // A thread that ended meanwhile fails with ESRCH; nothing to move.
    sched_setaffinity(static_cast<pid_t>(std::atoi(task->d_name)), sizeof one,
                      &one);
  }
  closedir(tasks);
}

CpuRotation::CpuRotation(std::vector<int> cpus) : cpus_(std::move(cpus)) {}

int CpuRotation::next() {
  turn_ = (turn_ + 1) % cpus_.size();
  move_process_to(cpus_[turn_]);
  return cpus_[turn_];
}

Report run_workload(const Options& options) {
  Report report;
  LoadPlan plan;
  plan.workload = options.workload;
  plan.connections = std::min<std::size_t>(
      connections(options.workload),
      std::max(1u, std::thread::hardware_concurrency()));
  std::optional<CpuRotation> rotation;
  if (options.cpus.size() > 1) {
    rotation.emplace(options.cpus);
    plan.rotation = &*rotation;
  }
  const RequestStream stream(options.workload, options.seed, plan.connections,
                             options.inject_unknown_every);
  const ColdRoster* roster = stream.roster();
  plan.stream = &stream;

  // Warm-up keys and their references, computed before anything is
  // timed; on hot-v3 and routed-text they are the pool.
  const std::vector<Key> warm_keys = stream.warm_keys();
  const std::vector<Reference> warm_refs = references_for(warm_keys);
  for (const Reference& ref : warm_refs) {
    if (!ref.valid) throw std::runtime_error("reference failed: " + ref.error);
  }
  plan.pool_refs = &warm_refs;

  // Set-up, repeated on the untraced run; the last one is measured.
  PhaseAccount warm_account;
  std::vector<double> setup_s;
  Setup setup;
  const int repeats = options.trace ? 1 : kSetupRepeats;
  for (int k = 0; k < repeats; ++k) {
    setup = Setup{};  // tear the previous deployment down first
    if (plan.rotation) plan.rotation->next();
    setup = set_up(options.workload, warm_keys, warm_refs, warm_account);
    setup_s.push_back(setup.seconds);
  }
  report.phases.emplace_back("warmup", warm_account);
  const Deployment& dep = *setup.deployment;
  if (options.workload == Workload::kRoutedText) {
    cluster::HashRing ring;
    for (const std::string& name : dep.node_names()) ring.add(name);
    for (const Key& key : stream.pool()) {
      plan.pool_node.push_back(
          *ring.pick(tree_fingerprint(tree_from_spec(key.spec))));
    }
  }

  std::vector<std::uint64_t> next(plan.connections, 0);
  PhaseSpec phase;
  phase.port = dep.entry_port();
  const auto key_of = [&](const Answer& a, int tag) {
    return stream.at(a.conn, a.request, tag).key;
  };
  const auto fold_check = [&](PhaseResult& r, const CheckOutcome& c) {
    r.account.wrong_answers(c.wrong + c.invalid);
    for (const std::string& e : c.examples) report.notes.push_back("check: " + e);
  };

  if (!options.trace) {
    RssMark rss_mark(rss_mark_at(options.workload));
    phase.rss = &rss_mark;
    PhaseResult timed = run_phase(plan, phase, options.seconds, next, nullptr);
    double rss = peak_rss_mb();
    if (rss_mark.mb()) {
      rss = *rss_mark.mb();
      report.notes.push_back("peak_rss_mb read at the " +
                             std::to_string(rss_mark.at()) +
                             "th timed answer (fixed work)");
    } else {
      report.notes.push_back(
          "peak_rss_mb read at the end: the phase answered fewer than " +
          std::to_string(rss_mark.at()) + " requests");
    }
    const CheckOutcome check = check_answers(
        timed.deferred, [&](const Answer& a) { return key_of(a, 0); },
        [&](const Answer& a) {
          return roster && a.request < roster->prefix_requests();
        },
        nullptr, nullptr);
    fold_check(timed, check);
    report.phases.emplace_back("timed", timed.account);

    // Quality ratios over the fixed prefix: the warmed pool, or the
    // first kColdPrefixTrees trees of every cold connection.
    std::vector<double> ms_ratio = check.makespan_over_lb;
    std::vector<double> mem_ratio = check.memory_over_min;
    if (!roster) {
      std::map<std::string, Tree> trees;
      std::map<std::string, MemSize> min_mem;
      for (std::size_t i = 0; i < warm_keys.size(); ++i) {
        const Key& key = warm_keys[i];
        auto it = trees.find(key.spec);
        if (it == trees.end()) {
          it = trees.emplace(key.spec, tree_from_spec(key.spec)).first;
          min_mem[key.spec] = min_sequential_memory(it->second);
        }
        ms_ratio.push_back(setup.warm_answers[i].first /
                           makespan_lower_bound(it->second, key.p));
        mem_ratio.push_back(static_cast<double>(setup.warm_answers[i].second) /
                            static_cast<double>(min_mem[key.spec]));
      }
    } else {
      const std::size_t expected =
          plan.connections * static_cast<std::size_t>(roster->prefix_requests());
      if (ms_ratio.size() != expected) {
        report.correct = false;
        report.notes.push_back("the quality prefix was not completed");
      }
    }

    const LatencySummary lat = timed.latency.summary();
    add(report, "throughput_rps", timed.rps(), "1/s");
    add(report, "latency_p50_ms", timed.sliced.mean_p50(), "ms");
    const std::optional<double> sliced_p99 = timed.sliced.mean_p99();
    add(report, "latency_p99_ms", sliced_p99 ? *sliced_p99 : lat.tail, "ms");
    add(report, "success_ratio",
        timed.account.sent ? static_cast<double>(timed.account.succeeded) /
                                 static_cast<double>(timed.account.sent)
                           : 0.0,
        "ratio");
    add(report, "setup_s", median(setup_s), "s");
    add(report, "peak_rss_mb", rss, "MB");
    add(report, "cpu_us_per_req", timed.cpu_us_per_req(), "us");
    add(report, "makespan_over_lb", geomean(ms_ratio), "ratio");
    add(report, "memory_over_min", geomean(mem_ratio), "ratio");
    report.notes.push_back(
        "latency_p50_ms is the mean of the medians of the " +
        std::to_string(timed.sliced.slice_p50s().size()) + " ticks of " +
        std::to_string(kTickSeconds) + " s of the timed phase (whole-phase "
        "median: " + std::to_string(lat.p50) + " ms)");
    std::string per_tick = "tick medians (ms):";
    for (double v : timed.sliced.slice_p50s()) {
      char buf[32];
      std::snprintf(buf, sizeof buf, " %.4g", v);
      per_tick += buf;
    }
    report.notes.push_back(per_tick);
    if (plan.rotation) {
      report.notes.push_back(
          "one CPU at a time, moved to the next of " +
          std::to_string(options.cpus.size()) + " at every tick");
    }
    if (sliced_p99) {
      report.notes.push_back(
          "latency_p99_ms is the mean of the p99s of windows of whole ticks "
          "holding at least " + std::to_string(SlicedLatency::kTailSamples) +
          " requests each (" + std::to_string(lat.count) +
          " requests; whole-phase p99: " + std::to_string(lat.tail) + " ms)");
    } else {
      report.notes.push_back(
          "latency_p99_ms is p" + std::to_string(lat.tail_q * 100) + " of " +
          std::to_string(lat.count) + " requests (the highest percentile "
          "with at least 10 samples beyond it, capped at p99)");
    }
    report.notes.push_back(
        "servers run in the benchmark's process: peak_rss_mb and "
        "cpu_us_per_req include the load generator");
    report.notes.push_back("answers flagged cache=hit: " +
                           std::to_string(timed.cache_hits) + " of " +
                           std::to_string(timed.account.succeeded));
    report.attempted = timed.account.sent;
    report.failed = timed.account.failed;
  } else {
    SpanLog log;
    LayerSamples samples;
    PhaseResult untraced =
        run_phase(plan, phase, options.seconds / 2, next, nullptr);
    std::optional<PhaseResult> direct;
    if (options.workload == Workload::kRoutedText) {
      PhaseSpec d = phase;
      d.tag = 1;
      for (std::size_t i = 0; i < dep.node_count(); ++i) {
        d.node_ports.push_back(dep.node_port(i));
      }
      direct = run_phase(plan, d, options.seconds / 2, next, nullptr);
    }
    const Counters before = read_counters(dep);
    const HistogramWindow queue_wait(queue_wait_histograms(dep));
    const HistogramWindow upstream(upstream_histograms(dep));
    PhaseSpec t = phase;
    t.tag = 2;
    obs::Tracer::global().enable();
    PhaseResult traced = run_phase(plan, t, options.seconds / 2, next, &log);
    obs::Tracer::global().disable();
    const Counters after = read_counters(dep);

    const auto check_phase = [&](PhaseResult& r, int tag, const char* name,
                                 bool spans) {
      const CheckOutcome c = check_answers(
          r.deferred, [&](const Answer& a) { return key_of(a, tag); },
          [](const Answer&) { return false; }, spans ? &log : nullptr,
          spans ? &samples : nullptr);
      fold_check(r, c);
      report.phases.emplace_back(name, r.account);
    };
    check_phase(untraced, 0, "untraced", false);
    if (direct) check_phase(*direct, 1, "direct", false);
    check_phase(traced, 2, "traced", true);

    ledger(report, plan, dep, untraced, traced, direct ? &*direct : nullptr,
           before, after, queue_wait, upstream, log, samples);
    if (!options.spans_out.empty()) log.write_jsonl(options.spans_out);
    report.attempted = untraced.account.sent + traced.account.sent +
                       (direct ? direct->account.sent : 0);
    report.failed = untraced.account.failed + traced.account.failed +
                    (direct ? direct->account.failed : 0);
    report.notes.push_back(
        "tracing overhead (untraced - traced throughput, not gated): " +
        std::to_string(untraced.rps()) + " -> " + std::to_string(traced.rps()) +
        " req/s");
  }
  if (report.failed > 0 || warm_account.failed > 0 || report.attempted == 0) {
    report.correct = false;
  }
  return report;
}

}  // namespace e2ebench
