// The scheduling-service subsystem: thread pool, tree interning, sharded
// LRU result cache, and the submit() engine — including its contract
// tests: bit-identical results vs. direct SchedulerRegistry calls for
// every registered algorithm, cache-stats consistency under contention,
// and the uniform Resources validation message across the whole roster.

#include "service/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "campaign/dataset.hpp"
#include "campaign/runner.hpp"
#include "core/simulator.hpp"
#include "test_helpers.hpp"
#include "trees/generators.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace treesched {
namespace {

Tree weighted_tree(std::uint64_t seed, NodeId n = 60) {
  Rng rng(seed);
  RandomTreeParams params;
  params.n = n;
  params.max_output = 40;
  params.max_exec = 15;
  params.min_work = 1.0;
  params.max_work = 30.0;
  params.depth_bias = 1.5;
  return random_tree(params, rng);
}

/// Small enough for the BruteForceSeq oracle (max 20 nodes).
Tree oracle_sized_tree(std::uint64_t seed) { return weighted_tree(seed, 16); }

/// One request through submit() + wait(), throwing what the ticket
/// carries on failure.
ScheduleResponse submit_wait(SchedulingService& service,
                             const ScheduleRequest& req) {
  return unwrap(service.submit(req).wait());
}

// ---------------------------------------------------------------------------
// ThreadPool and the rerouted parallel_for.
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsSubmittedJobs) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  // Counter and notify both under the mutex: the waiter can only observe
  // 64 after the last job released the lock, which is after its
  // notify_one returned — so no job ever touches the cv once the waiter
  // may have destroyed it (the TSan job runs this test).
  int ran = 0;
  std::mutex m;
  std::condition_variable cv;
  for (int i = 0; i < 64; ++i) {
    pool.submit([&] {
      const std::lock_guard<std::mutex> lk(m);
      if (++ran == 64) cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(m);
  cv.wait(lock, [&] { return ran == 64; });
  EXPECT_EQ(ran, 64);
}

TEST(ThreadPool, SharedPoolHasAtLeastOneWorker) {
  EXPECT_GE(ThreadPool::shared().size(), 1u);
  EXPECT_FALSE(ThreadPool::shared().on_worker_thread());
}

TEST(ThreadPool, ParallelForCoversAllIndicesOnce) {
  std::vector<std::atomic<int>> counts(1000);
  parallel_for(counts.size(),
               [&](std::size_t i) { counts[i].fetch_add(1); }, 8);
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // Inner parallel_for calls issued from pool workers must complete even
  // when the pool is saturated by the outer loop (the caller chews
  // through the iterations itself).
  std::vector<std::atomic<int>> counts(64 * 16);
  parallel_for(
      64,
      [&](std::size_t outer) {
        parallel_for(
            16,
            [&](std::size_t inner) { counts[outer * 16 + inner].fetch_add(1); },
            4);
      },
      8);
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

// ---------------------------------------------------------------------------
// Fingerprints and the instance store.
// ---------------------------------------------------------------------------

TEST(InstanceStore, FingerprintIsContentBased) {
  const Tree a = weighted_tree(1);
  const Tree b = weighted_tree(1);
  const Tree c = weighted_tree(2);
  EXPECT_EQ(tree_fingerprint(a), tree_fingerprint(b));
  EXPECT_TRUE(trees_identical(a, b));
  EXPECT_NE(tree_fingerprint(a), tree_fingerprint(c));
  EXPECT_FALSE(trees_identical(a, c));

  // A single weight flip changes the fingerprint.
  const Tree base = testing::pebble_tree({kNoNode, 0, 0});
  const Tree tweaked = testing::make_tree({kNoNode, 0, 0}, {1, 2, 1},
                                          {0, 0, 0}, {1.0, 1.0, 1.0});
  EXPECT_NE(tree_fingerprint(base), tree_fingerprint(tweaked));
}

TEST(InstanceStore, InternDeduplicatesIdenticalTrees) {
  InstanceStore store;
  const TreeHandle h1 = store.intern(weighted_tree(1));
  const TreeHandle h2 = store.intern(weighted_tree(1));
  const TreeHandle h3 = store.intern(weighted_tree(2));
  EXPECT_EQ(h1.tree.get(), h2.tree.get()) << "identical trees share storage";
  EXPECT_NE(h1.tree.get(), h3.tree.get());
  EXPECT_EQ(h1.hash, h2.hash);
  EXPECT_EQ(h1.uid, h2.uid) << "interned twins share one identity";
  EXPECT_NE(h1.uid, h3.uid);
  EXPECT_NE(h3.uid, 0u) << "0 is reserved for the null handle";
  EXPECT_EQ(store.size(), 2u);
  const InstanceStore::Stats stats = store.stats();
  EXPECT_EQ(stats.unique_trees, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);

  // Handles survive clear().
  store.clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(h1->size(), weighted_tree(1).size());
}

TEST(InstanceStore, ByteBudgetRejectsNewTreesWithStoreFull) {
  const Tree first = weighted_tree(1);
  InstanceStoreConfig config;
  config.max_bytes = tree_bytes(first) + tree_bytes(first) / 2;  // fits one
  InstanceStore store(config);

  const Result<TreeHandle, ServiceError> ok = store.try_intern(first);
  ASSERT_TRUE(ok.ok());
  EXPECT_GT(store.stats().bytes, 0u);
  EXPECT_LE(store.stats().bytes, config.max_bytes);

  // A second distinct tree would exceed the budget: typed value error.
  const Result<TreeHandle, ServiceError> full =
      store.try_intern(weighted_tree(2));
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.error().code, ErrorCode::kStoreFull);
  EXPECT_EQ(store.stats().rejected, 1u);
  EXPECT_EQ(store.size(), 1u) << "the rejected tree was not stored";

  // Re-interning the stored tree is a hit and always succeeds.
  const Result<TreeHandle, ServiceError> again = store.try_intern(first);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().uid, ok.value().uid);

  // The legacy surface throws the typed exception instead.
  EXPECT_THROW((void)store.intern(weighted_tree(3)), StoreFull);

  // clear() releases the budget.
  store.clear();
  EXPECT_EQ(store.stats().bytes, 0u);
  EXPECT_TRUE(store.try_intern(weighted_tree(2)).ok());
}

// ---------------------------------------------------------------------------
// Result cache.
// ---------------------------------------------------------------------------

CachedResultPtr dummy_result(NodeId n) {
  auto r = std::make_shared<CachedResult>();
  r->makespan = static_cast<double>(n);
  r->schedule = Schedule(n);
  return r;
}

TEST(ResultCache, GetPutAndStats) {
  ResultCache cache(1 << 20, 4);
  const ResultKey key{123, "ParSubtrees", 4, 0};
  EXPECT_EQ(cache.get(key), nullptr);
  cache.put(key, dummy_result(10));
  const CachedResultPtr hit = cache.get(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->makespan, 10.0);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(ResultCache, DistinctKeysAreDistinctEntries) {
  ResultCache cache(1 << 20, 4);
  cache.put({1, "A", 2, 0}, dummy_result(1));
  cache.put({1, "A", 4, 0}, dummy_result(2));   // different p
  cache.put({1, "A", 2, 9}, dummy_result(3));   // different cap
  cache.put({2, "A", 2, 0}, dummy_result(4));   // different tree
  cache.put({1, "B", 2, 0}, dummy_result(5));   // different algo
  EXPECT_EQ(cache.stats().entries, 5u);
  EXPECT_EQ(cache.get({1, "A", 2, 0})->makespan, 1.0);
  EXPECT_EQ(cache.get({1, "B", 2, 0})->makespan, 5.0);
}

TEST(ResultCache, EvictsLeastRecentlyUsedUnderByteBudget) {
  // One shard, tiny budget: inserting big entries must evict the LRU one.
  ResultCache cache(2 * dummy_result(100)->bytes() + 64, 1);
  cache.put({1, "A", 1, 0}, dummy_result(100));
  cache.put({2, "A", 1, 0}, dummy_result(100));
  (void)cache.get({1, "A", 1, 0});  // refresh key 1 -> key 2 becomes LRU
  cache.put({3, "A", 1, 0}, dummy_result(100));
  EXPECT_NE(cache.get({1, "A", 1, 0}), nullptr);
  EXPECT_EQ(cache.get({2, "A", 1, 0}), nullptr) << "LRU entry was evicted";
  EXPECT_NE(cache.get({3, "A", 1, 0}), nullptr);
  EXPECT_GE(cache.stats().evictions, 1u);
}

TEST(ResultCache, OversizedEntryStillCachesAlone) {
  ResultCache cache(64, 1);  // budget far below one entry's cost
  cache.put({1, "A", 1, 0}, dummy_result(1000));
  EXPECT_NE(cache.get({1, "A", 1, 0}), nullptr)
      << "each shard retains at least its most recent entry";
}

TEST(ResultCache, ZeroBudgetDisablesCaching) {
  ResultCache cache(0, 4);
  EXPECT_FALSE(cache.enabled());
  cache.put({1, "A", 1, 0}, dummy_result(10));
  EXPECT_EQ(cache.get({1, "A", 1, 0}), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

// ---------------------------------------------------------------------------
// Cache contract cases kept under the suite name they were first written
// for (a lock-free cache index, since removed); they now pin the same
// contract on the sharded LRU cache.
// ---------------------------------------------------------------------------

TEST(ConcurrentMapCache, GetPutAndStatsMatchTheMutexContract) {
  // GetPutAndStats at both ends of the shard range the service builds.
  for (const unsigned shards : {1u, 16u}) {
    ResultCache cache(1 << 20, shards);
    const ResultKey key{123, "ParSubtrees", 4, 0};
    EXPECT_EQ(cache.get(key), nullptr);
    cache.put(key, dummy_result(10));
    const CachedResultPtr hit = cache.get(key);
    ASSERT_NE(hit, nullptr) << shards << " shards";
    EXPECT_EQ(hit->makespan, 10.0);
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.insertions, 1u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_GT(stats.bytes, 0u);
    EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
  }
}

TEST(ConcurrentMapCache, DistinctKeysAreDistinctEntries) {
  // One shard: all five keys share one LRU list, so no shard split can
  // keep colliding keys apart by accident.
  ResultCache cache(1 << 20, 1);
  cache.put({1, "A", 2, 0}, dummy_result(1));
  cache.put({1, "A", 4, 0}, dummy_result(2));  // different p
  cache.put({1, "A", 2, 9}, dummy_result(3));  // different cap
  cache.put({2, "A", 2, 0}, dummy_result(4));  // different tree
  cache.put({1, "B", 2, 0}, dummy_result(5));  // different algo
  EXPECT_EQ(cache.stats().entries, 5u);
  EXPECT_EQ(cache.get({1, "A", 2, 0})->makespan, 1.0);
  EXPECT_EQ(cache.get({1, "A", 4, 0})->makespan, 2.0);
  EXPECT_EQ(cache.get({1, "A", 2, 9})->makespan, 3.0);
  EXPECT_EQ(cache.get({2, "A", 2, 0})->makespan, 4.0);
  EXPECT_EQ(cache.get({1, "B", 2, 0})->makespan, 5.0);
}

TEST(ConcurrentMapCache, ZeroBudgetDisablesCaching) {
  // Also through peek() and clear(), and at the default shard count.
  ResultCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.put({1, "A", 1, 0}, dummy_result(10));
  EXPECT_EQ(cache.get({1, "A", 1, 0}), nullptr);
  EXPECT_EQ(cache.peek({1, "A", 1, 0}), nullptr);
  cache.clear();
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.insertions, 0u);
}

TEST(ConcurrentMapCache, ByteBudgetTriggersEvictionNotGrowth) {
  // Budget fits two of these entries in one shard; a flood of 64
  // distinct keys evicts instead of growing.
  const std::size_t entry_cost = dummy_result(100)->bytes();
  ResultCache cache(2 * entry_cost + 64, 1);
  for (std::uint64_t i = 0; i < 64; ++i) {
    cache.put({i, "A", 1, 0}, dummy_result(100));
  }
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 62u) << "every insert past the second evicts";
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.bytes, cache.byte_budget())
      << "byte accounting stays within the budget, not the insert volume";
  EXPECT_NE(cache.get({63, "A", 1, 0}), nullptr) << "the latest is kept";
}

TEST(ConcurrentMapCache, OverwriteReplacesInPlace) {
  ResultCache cache(1 << 20, 4);
  const ResultKey key{7, "Liu", 1, 0};
  cache.put(key, dummy_result(10));
  cache.put(key, dummy_result(20));
  EXPECT_EQ(cache.get(key)->makespan, 20.0);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u) << "overwrite is not a new entry";
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.bytes, dummy_result(20)->bytes())
      << "the replaced entry's bytes are released";
}

TEST(ConcurrentMapCache, PeekCountsHitsButNeverMisses) {
  ResultCache cache(1 << 20, 4);
  const ResultKey key{9, "Liu", 1, 0};
  EXPECT_EQ(cache.peek(key), nullptr);
  EXPECT_EQ(cache.stats().misses, 0u) << "peek misses are silent";
  cache.put(key, dummy_result(3));
  EXPECT_NE(cache.peek(key), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ConcurrentMapCache, ClearDropsEntriesAndKeepsCounters) {
  ResultCache cache(1 << 20, 4);
  cache.put({1, "A", 1, 0}, dummy_result(10));
  (void)cache.get({1, "A", 1, 0});
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_EQ(cache.stats().hits, 1u) << "counters survive clear()";
  EXPECT_EQ(cache.get({1, "A", 1, 0}), nullptr);
}

TEST(ConcurrentMapCache, StressNoFalseHitsAndBalancedStats) {
  // The makespan encodes the key, so any false hit (a lookup returning
  // another key's value) is detected immediately. Threads mix puts, gets
  // and the occasional clear over a small hot key set.
  ResultCache cache(4 << 20, 16);
  constexpr int kThreads = 8;
  constexpr int kIters = 3000;
  constexpr std::uint64_t kKeys = 32;
  const std::vector<std::string> algos{"ParSubtrees", "Liu", "ParInnerFirst"};
  auto expected_makespan = [&](std::uint64_t uid, std::size_t algo, int p) {
    return static_cast<double>(uid * 1000 + algo * 100 +
                               static_cast<std::uint64_t>(p));
  };
  std::atomic<int> false_hits{0};
  std::atomic<std::uint64_t> lookups{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::uint64_t uid = static_cast<std::uint64_t>(t + i) % kKeys;
        const std::size_t a = static_cast<std::size_t>(i) % algos.size();
        const int p = 1 + i % 4;
        const ResultKey key{uid, algos[a], p, 0};
        if (i % 3 == 0) {
          auto r = std::make_shared<CachedResult>();
          r->makespan = expected_makespan(uid, a, p);
          r->schedule = Schedule(4);
          cache.put(key, std::move(r));
        } else if (t == 0 && i % 1000 == 999) {
          cache.clear();
        } else {
          const CachedResultPtr hit = cache.get(key);
          lookups.fetch_add(1);
          if (hit && hit->makespan != expected_makespan(uid, a, p)) {
            false_hits.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(false_hits.load(), 0) << "a stale or foreign value was served";

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, lookups.load())
      << "every get() counts exactly one hit or one miss";
  EXPECT_LE(stats.entries, static_cast<std::size_t>(kKeys * 12))
      << "entries stay bounded by the distinct key set";
}

// ---------------------------------------------------------------------------
// Service determinism: bit-identical to direct registry calls, for every
// registered algorithm.
// ---------------------------------------------------------------------------

TEST(SchedulingService, MatchesDirectRegistryCallsForEveryAlgorithm) {
  SchedulingService service;
  const Tree tree = oracle_sized_tree(3);
  const TreeHandle handle = service.intern(tree);
  for (const std::string& name : SchedulerRegistry::instance().names()) {
    const SchedulerPtr direct = SchedulerRegistry::instance().create(name);
    for (int p : {1, 4}) {
      const Schedule expect_sched = direct->schedule(tree, Resources{p, 0});
      const SimulationResult expect_sim = simulate(tree, expect_sched);

      ScheduleRequest req;
      req.tree = handle;
      req.algo = name;
      req.p = p;
      req.want_schedule = true;
      const ScheduleResponse resp = submit_wait(service, req);
      EXPECT_EQ(resp.makespan, expect_sim.makespan) << name << " p=" << p;
      EXPECT_EQ(resp.peak_memory, expect_sim.peak_memory)
          << name << " p=" << p;
      ASSERT_NE(resp.schedule, nullptr);
      EXPECT_EQ(resp.schedule->start, expect_sched.start) << name;
      EXPECT_EQ(resp.schedule->proc, expect_sched.proc) << name;
    }
  }
}

TEST(SchedulingService, SequentialAlgorithmsShareOneEntryAcrossP) {
  SchedulingService service;
  const TreeHandle handle = service.intern(weighted_tree(5));
  ScheduleRequest req;
  req.tree = handle;
  req.algo = "Liu";
  for (int p : {1, 2, 8, 32}) {
    req.p = p;
    const ScheduleResponse resp = submit_wait(service, req);
    EXPECT_EQ(resp.cache_hit, p != 1) << "only the first p computes";
  }
  EXPECT_EQ(service.cache_stats().entries, 1u);

  // A parallel algorithm stays keyed per p.
  req.algo = "ParSubtrees";
  req.p = 2;
  EXPECT_FALSE(submit_wait(service, req).cache_hit);
  req.p = 4;
  EXPECT_FALSE(submit_wait(service, req).cache_hit);
  EXPECT_EQ(service.cache_stats().entries, 3u);
}

TEST(SchedulingService, RepeatedRequestsHitTheCache) {
  SchedulingService service;
  const TreeHandle handle = service.intern(weighted_tree(7));
  ScheduleRequest req;
  req.tree = handle;
  req.algo = "ParDeepestFirst";
  req.p = 4;
  EXPECT_FALSE(submit_wait(service, req).cache_hit);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(submit_wait(service, req).cache_hit);
  const CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.hits, 5u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(SchedulingService, UncachedServiceRecomputesEveryRequest) {
  SchedulingService service(ServiceConfig{.cache_bytes = 0});
  const TreeHandle handle = service.intern(weighted_tree(7));
  ScheduleRequest req;
  req.tree = handle;
  req.algo = "ParSubtrees";
  req.p = 4;
  EXPECT_FALSE(submit_wait(service, req).cache_hit);
  EXPECT_FALSE(submit_wait(service, req).cache_hit);
  EXPECT_EQ(service.cache_stats().entries, 0u);
}

// ---------------------------------------------------------------------------
// Error paths.
// ---------------------------------------------------------------------------

TEST(SchedulingService, UniformResourceValidationAcrossTheRoster) {
  // Every registered algorithm rejects p < 1 with the shared message, and
  // every non-memory-capped one rejects a stray cap. This pins the
  // validate_resources() helper as the single validation path.
  SchedulingService service;
  const TreeHandle handle = service.intern(oracle_sized_tree(1));
  const auto names = SchedulerRegistry::instance().names();
  ASSERT_EQ(names.size(), 10u);
  for (const std::string& name : names) {
    const SchedulerPtr direct = SchedulerRegistry::instance().create(name);
    const SchedulerCapabilities caps = direct->capabilities();

    ScheduleRequest req;
    req.tree = handle;
    req.algo = name;
    req.p = 0;
    try {
      (void)submit_wait(service, req);
      FAIL() << name << " accepted p = 0";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                name + ": invalid resources: p must be >= 1 (got 0)");
    }
    // The direct path produces the identical message.
    try {
      (void)direct->schedule(*handle, Resources{0, 0});
      FAIL() << name << " accepted p = 0";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                name + ": invalid resources: p must be >= 1 (got 0)");
    }

    if (!caps.memory_capped) {
      req.p = 2;
      req.memory_cap = 1234;
      try {
        (void)submit_wait(service, req);
        FAIL() << name << " accepted a memory cap without the capability";
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()),
                  name + ": invalid resources: memory cap 1234 given to a "
                         "scheduler without the memory_capped capability");
      }
    }
  }
}

TEST(SchedulingService, SequentialSchedulersHonorExplicitCap) {
  // Sequential baselines advertise memory_capped: an explicit cap at or
  // above their traversal's peak is honored, one below it throws the
  // same "below the feasibility floor" error as the other capped
  // schedulers — never silently exceeded.
  SchedulingService service;
  const Tree tree = weighted_tree(3);
  const TreeHandle handle = service.intern(tree);
  for (const std::string& name : {"Liu", "BestPostorder"}) {
    const SchedulerPtr direct = SchedulerRegistry::instance().create(name);
    const MemSize peak =
        simulate(tree, direct->schedule(tree, Resources{1, 0})).peak_memory;

    ScheduleRequest req;
    req.tree = handle;
    req.algo = name;
    req.p = 1;
    req.memory_cap = peak;
    EXPECT_EQ(submit_wait(service, req).peak_memory, peak) << name;

    req.memory_cap = peak - 1;
    try {
      (void)submit_wait(service, req);
      FAIL() << name << " exceeded an explicit cap silently";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("below the feasibility floor"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(SchedulingService, UnknownAlgorithmAndNullTreeThrow) {
  SchedulingService service;
  ScheduleRequest req;
  req.algo = "ParSubtrees";
  req.p = 2;
  EXPECT_THROW((void)submit_wait(service, req), std::invalid_argument)
      << "request without an interned tree";
  req.tree = service.intern(weighted_tree(1));
  req.algo = "NoSuchAlgo";
  EXPECT_THROW((void)submit_wait(service, req), std::invalid_argument);
}

TEST(SchedulingService, FailedComputationsAreNotCached) {
  SchedulingService service;
  const TreeHandle handle = service.intern(weighted_tree(2));  // 60 > 20
  ScheduleRequest req;
  req.tree = handle;
  req.algo = "BruteForceSeq";
  req.p = 1;
  EXPECT_THROW((void)submit_wait(service, req), std::invalid_argument);
  EXPECT_THROW((void)submit_wait(service, req), std::invalid_argument)
      << "the failure is recomputed, not served from cache";
  EXPECT_EQ(service.cache_stats().entries, 0u);
}

TEST(SchedulingService, BatchIsolatesPerRequestFailures) {
  SchedulingService service;
  const TreeHandle handle = service.intern(weighted_tree(4));
  std::vector<ScheduleRequest> reqs(3);
  reqs[0] = {handle, "ParSubtrees", 4, 0, false};
  reqs[1] = {handle, "NoSuchAlgo", 4, 0, false};
  reqs[2] = {handle, "Liu", 4, 0, false};
  std::vector<Ticket> tickets;
  for (const ScheduleRequest& req : reqs) {
    tickets.push_back(service.submit(req));
  }
  std::vector<ServiceResult> results;
  for (Ticket& ticket : tickets) results.push_back(ticket.wait());
  ASSERT_TRUE(results[0].ok());
  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].error().code, ErrorCode::kUnknownAlgorithm);
  ASSERT_TRUE(results[2].ok());
  EXPECT_GT(results[0].value().makespan, 0.0);
  EXPECT_GT(results[2].value().makespan, 0.0);
}

TEST(SchedulingService, BatchPreservesRequestOrder) {
  SchedulingService service;
  const TreeHandle h1 = service.intern(weighted_tree(1));
  const TreeHandle h2 = service.intern(weighted_tree(2));
  std::vector<ScheduleRequest> reqs;
  for (int p : {1, 2, 4, 8}) {
    reqs.push_back({h1, "ParSubtrees", p, 0, false});
    reqs.push_back({h2, "ParInnerFirst", p, 0, false});
  }
  std::vector<Ticket> tickets;
  for (const ScheduleRequest& req : reqs) {
    tickets.push_back(service.submit(req));
  }
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const ScheduleResponse batched = unwrap(tickets[i].wait());
    const ScheduleResponse direct = submit_wait(service, reqs[i]);
    EXPECT_EQ(batched.makespan, direct.makespan) << "request " << i;
    EXPECT_EQ(batched.peak_memory, direct.peak_memory);
  }
}

// ---------------------------------------------------------------------------
// Concurrency: many threads, shared service, consistent stats.
// ---------------------------------------------------------------------------

TEST(SchedulingService, ConcurrentRequestsAgreeAndStatsBalance) {
  SchedulingService service;
  const TreeHandle handle = service.intern(weighted_tree(9));
  const SchedulerPtr direct =
      SchedulerRegistry::instance().create("ParInnerFirst");
  const SimulationResult expect =
      simulate(*handle, direct->schedule(*handle, Resources{4, 0}));

  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        // Registry lookup + submit() from many threads at once.
        ScheduleRequest req;
        req.tree = handle;
        req.algo = "ParInnerFirst";
        req.p = 4;
        const ScheduleResponse resp = submit_wait(service, req);
        if (resp.makespan != expect.makespan ||
            resp.peak_memory != expect.peak_memory) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);

  const CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads * kPerThread))
      << "every request counts exactly one hit or one miss";
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GE(stats.hits, stats.misses) << "repeats dominate";
}

TEST(SchedulingService, ConcurrentDistinctKeysScaleWithoutCorruption) {
  SchedulingService service;
  std::vector<TreeHandle> handles;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    handles.push_back(service.intern(weighted_tree(seed)));
  }
  const std::vector<std::string> algos{"ParSubtrees", "ParDeepestFirst",
                                       "Liu"};
  constexpr int kThreads = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 30; ++i) {
        ScheduleRequest req;
        // i mod 12 sweeps all (algo, p) pairs; t decorrelates the tree.
        req.tree = handles[static_cast<std::size_t>(t + i) % handles.size()];
        req.algo = algos[static_cast<std::size_t>(i) % algos.size()];
        req.p = 1 + i % 4;
        try {
          const ScheduleResponse resp = submit_wait(service, req);
          if (resp.makespan <= 0.0) failures.fetch_add(1);
        } catch (...) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  const CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads * 30));
  // Distinct keys: 4 trees x (ParSubtrees, ParDeepestFirst) x 4 p = 32,
  // plus 4 trees x Liu (p-normalized) = 4. In-flight dedup keeps
  // insertions at the distinct-key count (+ rare benign recomputes).
  EXPECT_GE(stats.insertions, 36u);
  EXPECT_EQ(stats.entries, 36u);
}

// ---------------------------------------------------------------------------
// Campaign through the service.
// ---------------------------------------------------------------------------

TEST(SchedulingService, CampaignThroughSharedServiceIsBitIdentical) {
  std::vector<DatasetEntry> ds;
  Rng rng(5);
  ds.push_back({"pebble-60", random_pebble_tree(60, rng, 1.0)});
  ds.push_back({"grid", grid2d_assembly_tree(8, 8, 2)});
  CampaignParams params;
  params.processor_counts = {2, 4, 8};

  const std::vector<ScenarioRecord> baseline = run_campaign(ds, params);

  SchedulingService service;
  const std::vector<ScenarioRecord> first = run_campaign(ds, params, service);
  const CacheStats after_first = service.cache_stats();
  const std::vector<ScenarioRecord> second =
      run_campaign(ds, params, service);
  const CacheStats after_second = service.cache_stats();

  ASSERT_EQ(baseline.size(), first.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(baseline[i].makespan, first[i].makespan) << "scenario " << i;
    EXPECT_EQ(baseline[i].memory, first[i].memory) << "scenario " << i;
    EXPECT_EQ(first[i].makespan, second[i].makespan) << "scenario " << i;
    EXPECT_EQ(first[i].memory, second[i].memory) << "scenario " << i;
  }
  // The second campaign is answered entirely from cache.
  EXPECT_EQ(after_second.misses, after_first.misses);
  EXPECT_GT(after_second.hits, after_first.hits);
  // Within the first: sequential-only algorithms hit across the p sweep.
  EXPECT_GT(after_first.hits, 0u);
}

}  // namespace
}  // namespace treesched
