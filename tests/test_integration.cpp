// End-to-end integration: the full pipeline a downstream user runs —
// matrix -> ordering -> symbolic -> amalgamation -> task tree -> heuristics
// -> simulation -> traces -> serialization -- wired together in one place,
// across several configurations.

#include <gtest/gtest.h>

#include <ostream>
#include <sstream>

#include "core/lower_bounds.hpp"
#include "core/outtree.hpp"
#include "core/simulator.hpp"
#include "core/trace.hpp"
#include "parallel/capped_subtrees.hpp"
#include "parallel/memory_bounded.hpp"
#include "sched/registry.hpp"
#include "sequential/liu.hpp"
#include "sequential/postorder.hpp"
#include "spmatrix/amalgamation.hpp"
#include "spmatrix/assembly.hpp"
#include "spmatrix/ordering.hpp"
#include "spmatrix/sparse.hpp"
#include "spmatrix/symbolic.hpp"
#include "trees/io.hpp"

namespace treesched {
namespace {

struct PipelineCase {
  const char* name;
  int nx, ny;
  std::int64_t z;
  int p;
};

// Without this, gtest prints the case as raw bytes, and the `name`
// pointer makes the printed parameter differ from run to run.
void PrintTo(const PipelineCase& c, std::ostream* os) {
  *os << c.name << " " << c.nx << "x" << c.ny << " z=" << c.z
      << " p=" << c.p;
}

class PipelineTest : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(PipelineTest, EndToEnd) {
  const auto [name, nx, ny, z, p] = GetParam();
  (void)name;
  // 1. Matrix and symbolic factorization.
  const SparsePattern a = grid2d_pattern(nx, ny);
  const Ordering perm = nested_dissection_2d(nx, ny);
  const SymbolicResult sym = symbolic_cholesky(a, perm);
  ASSERT_EQ((int)sym.col_counts.size(), nx * ny);

  // 2. Assembly tree with the paper's weights.
  const Tree tree = assembly_to_task_tree(amalgamate(sym, z));
  ASSERT_GT(tree.size(), 0);

  // 3. Tree round-trips through serialization unchanged.
  std::stringstream ss;
  write_tree(ss, tree);
  const Tree back = read_tree(ss);
  ASSERT_EQ(back.size(), tree.size());

  // 4. Sequential baselines are consistent.
  const auto po = postorder(tree);
  const auto liu = liu_optimal_traversal(tree);
  EXPECT_LE(liu.peak, po.peak);
  EXPECT_EQ(sequential_peak_memory(tree, liu.order), liu.peak);

  // 5. Every campaign algorithm produces a feasible schedule above both
  // bounds.
  const auto lb = lower_bounds(tree, p);
  for (const std::string& algo : default_campaign_algorithms()) {
    const Schedule s = SchedulerRegistry::instance().create(algo)->schedule(
        tree, Resources{p, 0});
    ASSERT_TRUE(validate_schedule(tree, s, p).ok) << algo;
    const auto sim = simulate(tree, s);
    EXPECT_GE(sim.makespan, lb.makespan - 1e-9);
    EXPECT_GE(sim.peak_memory, lb.memory_exact);
    // 6. Schedules survive CSV round trips and re-simulate identically.
    std::stringstream csv;
    write_schedule_csv(csv, tree, s);
    const Schedule s2 = read_schedule_csv(csv, tree);
    EXPECT_EQ(simulate(tree, s2).peak_memory, sim.peak_memory);
    // 7. The out-tree mirror preserves both objectives.
    const auto rev = simulate_out_tree(tree, reverse_schedule(tree, s));
    EXPECT_DOUBLE_EQ(rev.makespan, sim.makespan);
    EXPECT_EQ(rev.peak_memory, sim.peak_memory);
  }

  // 8. Both memory-capped schedulers honour a 2x floor cap.
  const MemSize cap = 2 * min_feasible_cap(tree);
  auto banker = memory_bounded_schedule(tree, p, cap);
  ASSERT_TRUE(banker.has_value());
  EXPECT_LE(simulate(tree, banker->schedule).peak_memory, cap);
  const MemSize scap =
      std::max(cap, capped_subtrees_min_cap(tree, p));
  auto stat = capped_subtrees_schedule(tree, p, scap);
  ASSERT_TRUE(stat.has_value());
  EXPECT_LE(simulate(tree, stat->schedule).peak_memory, scap);

  // 9. Statistics are conserved.
  const auto st = schedule_stats(tree, banker->schedule, p);
  double busy = 0;
  for (const auto& ps : st.per_proc) busy += ps.busy;
  EXPECT_NEAR(busy, tree.total_work(), 1e-6 * tree.total_work());
}

INSTANTIATE_TEST_SUITE_P(
    Grids, PipelineTest,
    ::testing::Values(PipelineCase{"tiny", 8, 8, 1, 2},
                      PipelineCase{"small", 12, 10, 2, 4},
                      PipelineCase{"square", 16, 16, 4, 8},
                      PipelineCase{"wide", 24, 8, 16, 4},
                      PipelineCase{"mid", 20, 20, 4, 16}),
    [](const ::testing::TestParamInfo<PipelineCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace treesched
