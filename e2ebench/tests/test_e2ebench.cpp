// The benchmark's own tests: seeded streams are reproducible, cold-roster
// never repeats a cache key, the tail-percentile rule, span self time,
// and an injected failure showing up in the failure accounting.

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <thread>
#include <tuple>

#include "harness.hpp"
#include "measure.hpp"
#include "stream.hpp"

namespace e2ebench {
namespace {

double metric(const Report& r, const std::string& name) {
  for (const Metric& m : r.metrics) {
    if (m.name == name) return m.value;
  }
  ADD_FAILURE() << "no metric " << name;
  return -1.0;
}

/// Cache identity of `key` as the service keys it: sequential-only
/// algorithms normalize p to 1.
Key cache_identity(const Key& key, const std::vector<RosterAlgo>& roster) {
  for (const RosterAlgo& algo : roster) {
    if (algo.name == key.algo && algo.sequential_only) {
      return {key.spec, key.algo, 1};
    }
  }
  return key;
}

TEST(Stream, SameSeedYieldsByteIdenticalStream) {
  for (Workload w :
       {Workload::kHotV3, Workload::kColdRoster, Workload::kRoutedText}) {
    const RequestStream s42(w, 42, 2);
    const RequestStream again(w, 42, 2);
    const RequestStream s43(w, 43, 2);
    for (std::size_t conn = 0; conn < 2; ++conn) {
      const std::string a = stream_bytes(s42, conn, 600);
      EXPECT_FALSE(a.empty());
      EXPECT_EQ(a, stream_bytes(again, conn, 600)) << to_string(w);
      EXPECT_NE(a, stream_bytes(s43, conn, 600)) << to_string(w);
    }
    EXPECT_NE(stream_bytes(s42, 0, 600), stream_bytes(s42, 1, 600))
        << to_string(w);
  }
}

TEST(Stream, InjectedFaultsAreInTheStreamItSends) {
  for (Workload w :
       {Workload::kHotV3, Workload::kColdRoster, Workload::kRoutedText}) {
    const RequestStream clean(w, 42, 2);
    const RequestStream faulty(w, 42, 2, 7);
    for (std::uint64_t i = 0; i < 64; ++i) {
      const Request r = faulty.at(1, i);
      EXPECT_EQ(r.injected, i % 7 == 6) << to_string(w) << " " << i;
      EXPECT_EQ(r.key.algo == kUnknownAlgo, r.injected) << to_string(w);
      EXPECT_EQ(r.key.spec, clean.at(1, i).key.spec) << to_string(w);
    }
    EXPECT_NE(stream_bytes(clean, 0, 64).find("ParInnerFirst"),
              std::string::npos);
    EXPECT_EQ(stream_bytes(clean, 0, 64).find(kUnknownAlgo),
              std::string::npos);
    EXPECT_NE(stream_bytes(faulty, 0, 64).find(kUnknownAlgo),
              std::string::npos);
  }
}

TEST(Stream, ColdRosterYieldsZeroExpectedCacheHits) {
  const std::vector<RosterAlgo> roster = campaign_roster();
  ASSERT_FALSE(roster.empty());
  constexpr std::size_t kConns = 2;
  const ColdRoster stream(9, roster, kConns);
  using Identity = std::tuple<std::string, std::string, int>;
  std::set<Identity> seen;
  for (const Key& key : stream.warmup_keys()) {
    const Key id = cache_identity(key, roster);
    seen.insert({id.spec, id.algo, id.p});
  }
  // Far more trees than a run reaches, past the last grid tree.
  const std::uint64_t per_conn = 200 * stream.per_tree();
  for (std::size_t c = 0; c < kConns; ++c) {
    for (std::uint64_t i = 0; i < per_conn; ++i) {
      const Key id = cache_identity(stream.key(c, i), roster);
      EXPECT_TRUE(seen.insert({id.spec, id.algo, id.p}).second)
          << "repeated key " << id.spec << " " << id.algo << " " << id.p;
    }
  }
  // Every roster algorithm appears once per tree, sequential ones at one p.
  std::size_t expected = 0;
  for (const RosterAlgo& a : roster) expected += a.sequential_only ? 1 : 3;
  EXPECT_EQ(stream.per_tree(), expected);
}

TEST(Stream, ColdRosterMixesGridAndSyntheticTrees) {
  const ColdRoster stream(5, campaign_roster(), 2);
  std::size_t grids = 0;
  for (std::uint64_t t = 0; t < 64; ++t) {
    grids += stream.tree_spec(t).rfind("grid:", 0) == 0 ? 1 : 0;
  }
  EXPECT_EQ(grids, 64 / kColdGridEvery);
}

TEST(Percentile, ReportsHighestPercentileWithTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(supported_tail(1000), 0.99);
  EXPECT_DOUBLE_EQ(supported_tail(5000), 0.99);
  EXPECT_DOUBLE_EQ(supported_tail(100), 0.90);
  EXPECT_DOUBLE_EQ(supported_tail(10), 0.0);
  for (std::size_t n : {11u, 57u, 100u, 333u}) {
    // Distinct values 1.03^i, further apart than the histogram's buckets.
    LatencyHistogram h;
    std::vector<double> v;
    for (std::size_t i = 0; i < n; ++i) {
      v.push_back(std::pow(1.03, static_cast<double>(i)));
      h.record(v.back());
    }
    const LatencySummary s = h.summary();
    EXPECT_EQ(s.count, n);
    const auto beyond = static_cast<std::size_t>(std::count_if(
        v.begin(), v.end(), [&](double x) { return x > s.tail * 1.01; }));
    EXPECT_GE(beyond, 10u) << n;
    EXPECT_LE(s.tail_q, 0.99);
    // Highest: the next value up would leave fewer than ten beyond it.
    if (s.tail_q < 0.99) EXPECT_LE(beyond, 10u) << n;
  }
}

TEST(Percentile, HistogramQuantilesTrackTheSample) {
  LatencyHistogram h;
  std::vector<double> v;
  for (int i = 1; i <= 5000; ++i) {
    const double ms = 0.01 * i;
    v.push_back(ms);
    h.record(ms);
  }
  std::sort(v.begin(), v.end());
  const LatencySummary approx = h.summary();
  EXPECT_EQ(approx.count, v.size());
  EXPECT_DOUBLE_EQ(approx.tail_q, 0.99);
  EXPECT_NEAR(approx.p50, quantile(v, 0.5), quantile(v, 0.5) * 0.01);
  EXPECT_NEAR(approx.tail, quantile(v, 0.99), quantile(v, 0.99) * 0.01);
}

TEST(Percentile, SlicedMedianFollowsTheTimeAtEachLevel) {
  // A host at 1 ms for 9 ticks of 20 and at 2 ms for the rest: the
  // whole-phase median sits on the 2 ms level, the sliced one in between
  // in proportion to the time at each.
  SlicedLatency sliced;
  LatencyHistogram whole;
  for (std::size_t tick = 0; tick < 20; ++tick) {
    for (int i = 0; i < 100; ++i) {
      const double ms = tick < 9 ? 1.0 : 2.0;
      sliced.record(tick, ms);
      whole.record(ms);
    }
  }
  EXPECT_NEAR(whole.quantile(0.5), 2.0, 0.02);
  ASSERT_EQ(sliced.slice_p50s().size(), 20u);
  EXPECT_NEAR(sliced.mean_p50(), 0.45 * 1.0 + 0.55 * 2.0, 0.03);
  // 100 samples a tick: the p99 comes from windows of 10 ticks, the
  // first all at 1 ms (9 ticks) plus one at 2 ms, the second all at 2 ms.
  ASSERT_TRUE(sliced.mean_p99().has_value());
  EXPECT_NEAR(*sliced.mean_p99(), 2.0, 0.02);
  SlicedLatency dense;
  for (std::size_t tick = 0; tick < 4; ++tick) {
    for (int i = 1; i <= 1000; ++i) {
      dense.record(tick, tick < 2 ? 1.0 : 0.001 * i);
    }
  }
  dense.record(4, 50.0);  // a remainder joins the last window
  ASSERT_TRUE(dense.mean_p99().has_value());
  EXPECT_NEAR(*dense.mean_p99(), (1.0 + 1.0 + 0.99 + 0.99) / 4, 0.01);
  SlicedLatency sparse;
  sparse.record(0, 1.0);
  EXPECT_FALSE(sparse.mean_p99().has_value());
  // Slices are created as they are named, and merging aligns them.
  SlicedLatency late;
  late.record(3, 5.0);
  SlicedLatency early;
  early.record(0, 1.0);
  early.merge(late);
  EXPECT_EQ(early.slice_p50s().size(), 2u);
  EXPECT_NEAR(early.mean_p50(), 3.0, 0.03);
  EXPECT_DOUBLE_EQ(SlicedLatency().mean_p50(), 0.0);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  SpanLog log;
  SpanBuffer buf = log.buffer();
  const Clock::time_point t0 = Clock::now();
  const auto at = [&](int ms) { return t0 + std::chrono::milliseconds(ms); };
  const std::uint64_t parent = buf.add("net.batch", 1, 0, at(0), at(10));
  buf.add("sched.schedule", 1, parent, at(2), at(5));
  buf.add("sched.schedule", 1, parent, at(4), at(8));  // overlaps the first
  log.absorb(buf);
  const auto self = log.self_ms_by_layer();
  EXPECT_NEAR(self.at("net"), 4.0, 1e-6);    // 10 - |[2, 8]|
  EXPECT_NEAR(self.at("sched"), 7.0, 1e-6);  // 3 + 4, no children
}

TEST(Harness, CleanRunHasNoFailures) {
  Options o;
  o.workload = Workload::kHotV3;
  o.seed = 3;
  o.seconds = 0.3;
  const Report r = run_workload(o);
  EXPECT_TRUE(r.correct);
  EXPECT_GT(r.attempted, 0u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_DOUBLE_EQ(metric(r, "success_ratio"), 1.0);
  EXPECT_GT(metric(r, "throughput_rps"), 0.0);
  EXPECT_GE(metric(r, "makespan_over_lb"), 1.0);
  EXPECT_GE(metric(r, "memory_over_min"), 1.0);
}

TEST(Harness, RotationMovesEveryThreadAndRunsStayCorrect) {
  cpu_set_t original;
  ASSERT_EQ(sched_getaffinity(0, sizeof original, &original), 0);
  std::vector<int> cpus;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &original)) cpus.push_back(cpu);
  }
  ASSERT_FALSE(cpus.empty());
  const auto pinned_to = [](int cpu) {
    cpu_set_t now;
    return sched_getaffinity(0, sizeof now, &now) == 0 &&
           CPU_COUNT(&now) == 1 && CPU_ISSET(cpu, &now);
  };

  // A thread started before the move goes along with the caller, and
  // the rotation visits every CPU in turn.
  move_process_to(cpus.front());
  CpuRotation rotation(cpus);
  std::atomic<bool> moved{false};
  std::atomic<bool> other_pinned{false};
  const int first = cpus[1 % cpus.size()];
  std::thread other([&] {
    while (!moved.load()) std::this_thread::yield();
    other_pinned = pinned_to(first);
  });
  EXPECT_EQ(rotation.next(), first);
  moved = true;
  other.join();
  EXPECT_TRUE(other_pinned.load());
  EXPECT_TRUE(pinned_to(first));
  for (std::size_t k = 2; k <= cpus.size(); ++k) {
    EXPECT_EQ(rotation.next(), cpus[k % cpus.size()]);
  }

  // A timed phase long enough to change CPU twice.
  Options o;
  o.workload = Workload::kRoutedText;
  o.seed = 5;
  o.seconds = 3.2 * kTickSeconds;
  o.cpus = cpus;
  const Report r = run_workload(o);
  EXPECT_TRUE(r.correct);
  EXPECT_EQ(r.failed, 0u);
  ASSERT_EQ(sched_setaffinity(0, sizeof original, &original), 0);
}

TEST(Harness, InjectedUnknownAlgorithmRaisesFailedRatio) {
  for (Workload w : {Workload::kHotV3, Workload::kColdRoster}) {
    Options o;
    o.workload = w;
    o.seed = 3;
    o.seconds = 0.3;
    o.inject_unknown_every = 7;
    const Report r = run_workload(o);
    EXPECT_FALSE(r.correct) << to_string(w);
    EXPECT_GT(r.failed, 0u) << to_string(w);
    EXPECT_LT(metric(r, "success_ratio"), 1.0) << to_string(w);
    const auto timed = std::find_if(r.phases.begin(), r.phases.end(),
                                    [](const auto& p) { return p.first == "timed"; });
    ASSERT_NE(timed, r.phases.end());
    EXPECT_EQ(timed->second.failures.at("unknown_algorithm"), r.failed)
        << to_string(w);
  }
}

TEST(Harness, TracedRunReportsFailedRatioOfInjectedFaults) {
  Options o;
  o.workload = Workload::kRoutedText;
  o.seed = 4;
  o.seconds = 0.4;
  o.trace = true;
  o.inject_unknown_every = 5;
  const Report r = run_workload(o);
  EXPECT_GT(metric(r, "failed_ratio"), 0.1);
  EXPECT_DOUBLE_EQ(metric(r, "cluster.node_unavailable"), 0.0);
}

}  // namespace
}  // namespace e2ebench
