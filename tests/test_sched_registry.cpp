// The SchedulerRegistry contract: lookup, unknown-name diagnostics,
// capability filtering, and — the refactor's golden test — bit-identical
// equivalence between the registry path and the algorithms' native entry
// points, including a full run_campaign comparison for the four paper
// heuristics.

#include "sched/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "campaign/dataset.hpp"
#include "campaign/runner.hpp"
#include "core/simulator.hpp"
#include "parallel/par_deepest_first.hpp"
#include "parallel/par_inner_first.hpp"
#include "parallel/par_subtrees.hpp"
#include "sched/validate.hpp"
#include "sequential/bruteforce.hpp"
#include "sequential/liu.hpp"
#include "sequential/postorder.hpp"
#include "test_helpers.hpp"
#include "trees/generators.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"

namespace treesched {
namespace {

Tree weighted_tree(std::uint64_t seed, NodeId n = 120) {
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

TEST(SchedulerRegistry, LookupByNameReturnsMatchingScheduler) {
  auto& reg = SchedulerRegistry::instance();
  for (const std::string& name : reg.names()) {
    const SchedulerPtr sched = reg.create(name);
    ASSERT_NE(sched, nullptr);
    EXPECT_EQ(sched->name(), name);
  }
  EXPECT_TRUE(reg.contains("ParSubtrees"));
  EXPECT_FALSE(reg.contains("parsubtrees")) << "lookup is case-sensitive";
}

TEST(SchedulerRegistry, PaperOrderLeadsTheRoster) {
  const auto names = SchedulerRegistry::instance().names();
  ASSERT_GE(names.size(), 4u);
  EXPECT_EQ(names[0], "ParSubtrees");
  EXPECT_EQ(names[1], "ParSubtreesOptim");
  EXPECT_EQ(names[2], "ParInnerFirst");
  EXPECT_EQ(names[3], "ParDeepestFirst");
}

TEST(SchedulerRegistry, UnknownNameThrowsWithKnownNames) {
  try {
    (void)SchedulerRegistry::instance().create("NoSuchScheduler");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("NoSuchScheduler"), std::string::npos);
    EXPECT_NE(msg.find("ParSubtrees"), std::string::npos)
        << "the error should list the known names";
  }
}

TEST(SchedulerRegistry, DuplicateRegistrationThrows) {
  EXPECT_THROW(SchedulerRegistry::instance().add(
                   "ParSubtrees", [] { return SchedulerPtr(); }),
               std::invalid_argument);
}

TEST(SchedulerRegistry, CapabilityFiltering) {
  auto& reg = SchedulerRegistry::instance();
  const auto sequential = reg.names_where(
      [](const Scheduler& s) { return s.capabilities().sequential_only; });
  EXPECT_NE(std::find(sequential.begin(), sequential.end(), "Liu"),
            sequential.end());
  EXPECT_NE(std::find(sequential.begin(), sequential.end(), "BestPostorder"),
            sequential.end());
  EXPECT_EQ(std::find(sequential.begin(), sequential.end(), "ParSubtrees"),
            sequential.end());

  const auto capped = reg.names_where(
      [](const Scheduler& s) { return s.capabilities().memory_capped; });
  EXPECT_NE(std::find(capped.begin(), capped.end(), "MemoryBounded"),
            capped.end());
  EXPECT_EQ(std::find(capped.begin(), capped.end(), "ParDeepestFirst"),
            capped.end());

  const auto oracles = reg.names_where(
      [](const Scheduler& s) { return s.capabilities().is_oracle(); });
  EXPECT_NE(std::find(oracles.begin(), oracles.end(), "BruteForceSeq"),
            oracles.end());
  for (const std::string& name : default_campaign_algorithms()) {
    EXPECT_EQ(std::find(oracles.begin(), oracles.end(), name), oracles.end())
        << name << " is an oracle but in the default campaign roster";
  }
}

// ---------------------------------------------------------------------------
// Golden equivalence: the registry path must reproduce the native entry
// points bit for bit.
// ---------------------------------------------------------------------------

TEST(SchedulerRegistry, RegistryPathMatchesNativeCallsExactly) {
  using Native = Schedule (*)(const Tree&, int);
  const std::vector<std::pair<std::string, Native>> cases{
      {"ParSubtrees",
       [](const Tree& t, int p) { return par_subtrees(t, p, {}); }},
      {"ParSubtreesOptim",
       [](const Tree& t, int p) {
         return par_subtrees_optim(t, p, SequentialAlgo::kOptimalPostorder);
       }},
      {"ParInnerFirst",
       [](const Tree& t, int p) { return par_inner_first(t, p); }},
      {"ParDeepestFirst",
       [](const Tree& t, int p) { return par_deepest_first(t, p); }},
  };
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const Tree t = weighted_tree(seed);
    for (int p : {1, 2, 4, 16}) {
      for (const auto& [name, native] : cases) {
        const Schedule via_registry =
            SchedulerRegistry::instance().create(name)->schedule(
                t, Resources{p, 0});
        const Schedule direct = native(t, p);
        EXPECT_EQ(via_registry.start, direct.start) << name << " p=" << p;
        EXPECT_EQ(via_registry.proc, direct.proc) << name << " p=" << p;
      }
    }
  }
}

TEST(SchedulerRegistry, ProcessorCountBeyondTreeSizeIsClamped) {
  // A client may ask for any p; the registry runs the algorithm with
  // min(p, n) processors, which schedules exactly as p does. p = 2^20 stays
  // cheap even if the clamp regresses; larger values would not.
  constexpr int kHugeP = 1 << 20;
  Rng rng(1413);
  const std::vector<Tree> trees{weighted_tree(4, 200),
                                synthetic_assembly_tree(300, 2.0, rng)};
  for (const Tree& t : trees) {
    for (const std::string& name : parallel_campaign_algorithms()) {
      const SchedulerPtr sched = SchedulerRegistry::instance().create(name);
      const Schedule at_n = sched->schedule(t, Resources{t.size(), 0});
      const Schedule huge = sched->schedule(t, Resources{kHugeP, 0});
      EXPECT_EQ(huge.start, at_n.start) << name;
      EXPECT_EQ(huge.proc, at_n.proc) << name;
      const ScheduleCheck check = check_schedule(t, huge, kHugeP);
      EXPECT_TRUE(check.ok) << name << ": " << check.error;
    }
  }
}

TEST(SchedulerRegistry, CampaignNumbersMatchNativeHeuristics) {
  // The golden campaign check: run_campaign through the registry produces
  // the same (makespan, memory) numbers, to the last bit, as simulating
  // the four native heuristic calls — the pre-refactor behavior.
  std::vector<DatasetEntry> ds;
  Rng rng(5);
  ds.push_back({"pebble-60", random_pebble_tree(60, rng, 1.0)});
  ds.push_back({"pebble-100", random_pebble_tree(100, rng, 0.0)});
  ds.push_back({"grid", grid2d_assembly_tree(8, 8, 2)});

  CampaignParams params;
  params.processor_counts = {2, 4, 8};
  auto records = run_campaign(ds, params);
  ASSERT_EQ(records.size(), ds.size() * params.processor_counts.size());

  for (std::size_t idx = 0; idx < records.size(); ++idx) {
    const ScenarioRecord& rec = records[idx];
    const Tree& tree = ds[idx / params.processor_counts.size()].tree;
    const int p = rec.p;
    const std::vector<std::pair<std::string, Schedule>> native{
        {"ParSubtrees", par_subtrees(tree, p, {})},
        {"ParSubtreesOptim", par_subtrees_optim(tree, p)},
        {"ParInnerFirst", par_inner_first(tree, p)},
        {"ParDeepestFirst", par_deepest_first(tree, p)},
    };
    for (const auto& [name, sched] : native) {
      const SimulationResult sim = simulate(tree, sched);
      const std::size_t k = rec.index_of(name);
      EXPECT_EQ(rec.makespan[k], sim.makespan)
          << name << " on " << rec.tree_name << " p=" << p;
      EXPECT_EQ(rec.memory[k], sim.peak_memory)
          << name << " on " << rec.tree_name << " p=" << p;
    }
  }
}

// ---------------------------------------------------------------------------
// Per-algorithm contracts of the non-enum schedulers.
// ---------------------------------------------------------------------------

TEST(SchedulerRegistry, SequentialBaselinesHitTheirMemoryTargets) {
  for (std::uint64_t seed : {7u, 8u}) {
    const Tree t = weighted_tree(seed);
    const Resources res{4, 0};
    const auto liu_mem =
        simulate(t, SchedulerRegistry::instance().create("Liu")->schedule(
                        t, res))
            .peak_memory;
    EXPECT_EQ(liu_mem, min_sequential_memory(t));
    const auto po_mem =
        simulate(t, SchedulerRegistry::instance()
                        .create("BestPostorder")
                        ->schedule(t, res))
            .peak_memory;
    EXPECT_EQ(po_mem, best_postorder_memory(t));
    EXPECT_LE(liu_mem, po_mem);
  }
}

TEST(SchedulerRegistry, MemoryCappedSchedulersHonorExplicitCap) {
  const Tree t = weighted_tree(11);
  for (const std::string& name : {"MemoryBounded", "CappedSubtrees"}) {
    const SchedulerPtr sched = SchedulerRegistry::instance().create(name);
    // Derived default cap: at most 2x the relevant floor (plus rounding).
    const auto derived =
        simulate(t, sched->schedule(t, Resources{4, 0})).peak_memory;
    EXPECT_GT(derived, 0u);
    // Generous explicit cap: must be respected exactly.
    const MemSize cap = 4 * best_postorder_memory(t);
    const auto capped =
        simulate(t, sched->schedule(t, Resources{4, cap})).peak_memory;
    EXPECT_LE(capped, cap) << name;
  }
  // An explicit cap below the floor is an error, not a silent fallback.
  EXPECT_THROW(SchedulerRegistry::instance().create("MemoryBounded")
                   ->schedule(t, Resources{4, 1}),
               std::invalid_argument);
}

TEST(SchedulerRegistry, BruteForceOracleMatchesLiuOnSmallTrees) {
  Rng rng(13);
  const SchedulerPtr oracle =
      SchedulerRegistry::instance().create("BruteForceSeq");
  for (int trial = 0; trial < 10; ++trial) {
    RandomTreeParams params;
    params.n = 2 + (NodeId)rng.uniform(10);
    params.max_output = 6;
    params.max_exec = 3;
    const Tree t = random_tree(params, rng);
    const auto mem =
        simulate(t, oracle->schedule(t, Resources{1, 0})).peak_memory;
    EXPECT_EQ(mem, bruteforce_min_sequential_memory(t));
    EXPECT_EQ(mem, min_sequential_memory(t));
  }
  // Beyond max_nodes the oracle refuses instead of hanging.
  EXPECT_THROW(oracle->schedule(weighted_tree(1), Resources{1, 0}),
               std::invalid_argument);
}

TEST(SchedulerRegistry, BruteforceTraversalReplaysToItsPeak) {
  Rng rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    RandomTreeParams params;
    params.n = 2 + (NodeId)rng.uniform(10);
    params.max_output = 6;
    params.max_exec = 3;
    const Tree t = random_tree(params, rng);
    const auto r = bruteforce_optimal_traversal(t);
    ASSERT_EQ((NodeId)r.order.size(), t.size());
    EXPECT_EQ(sequential_peak_memory(t, r.order), r.peak);
    EXPECT_EQ(r.peak, bruteforce_min_sequential_memory(t));
  }
}

TEST(ParallelFor, WorkerExceptionIsRethrownOnCaller) {
  EXPECT_THROW(
      parallel_for(
          64,
          [](std::size_t i) {
            if (i == 13) throw std::runtime_error("boom");
          },
          4),
      std::runtime_error);
  // Single-threaded path too.
  EXPECT_THROW(parallel_for(
                   4, [](std::size_t) { throw std::logic_error("x"); }, 1),
               std::logic_error);
}

TEST(ParallelFor, CampaignSurfacesSchedulerErrors) {
  // An oracle on an oversized tree must surface as an exception from
  // run_campaign (through parallel_for), not terminate the process.
  std::vector<DatasetEntry> ds;
  ds.push_back({"big", weighted_tree(3, 64)});
  CampaignParams params;
  params.processor_counts = {2, 4};
  params.algorithms = {"ParSubtrees", "BruteForceSeq"};
  EXPECT_THROW(run_campaign(ds, params), std::invalid_argument);
}

}  // namespace
}  // namespace treesched
