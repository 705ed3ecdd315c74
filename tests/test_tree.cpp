#include "core/tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "test_helpers.hpp"
#include "trees/generators.hpp"
#include "util/random.hpp"

namespace treesched {
namespace {

using testing::example_tree;
using testing::make_tree;
using testing::pebble_tree;

TEST(Tree, SingleNode) {
  Tree t = pebble_tree({kNoNode});
  EXPECT_EQ(t.size(), 1);
  EXPECT_EQ(t.root(), 0);
  EXPECT_TRUE(t.is_leaf(0));
  EXPECT_EQ(t.num_leaves(), 1);
  EXPECT_EQ(t.height(), 1);
}

TEST(Tree, ExampleStructure) {
  Tree t = example_tree();
  EXPECT_EQ(t.size(), 7);
  EXPECT_EQ(t.root(), 0);
  EXPECT_EQ(t.num_children(0), 3);
  EXPECT_EQ(t.num_children(1), 2);
  EXPECT_EQ(t.num_children(3), 1);
  EXPECT_TRUE(t.is_leaf(4));
  EXPECT_TRUE(t.is_leaf(2));
  EXPECT_EQ(t.num_leaves(), 4);
  EXPECT_EQ(t.max_degree(), 3);
  std::vector<NodeId> c0(t.children(0).begin(), t.children(0).end());
  EXPECT_EQ(c0, (std::vector<NodeId>{1, 2, 3}));
}

TEST(Tree, ProcessingMemory) {
  // Node 1 has children 4, 5 (f=1 each); f_1 = 1, n_1 = 0 -> 3.
  Tree t = example_tree();
  EXPECT_EQ(t.processing_memory(1), 3u);
  EXPECT_EQ(t.processing_memory(4), 1u);
  EXPECT_EQ(t.processing_memory(0), 4u);
}

TEST(Tree, ProcessingMemoryWithExecFiles) {
  Tree t = make_tree({kNoNode, 0}, {5, 3}, {7, 2}, {1.0, 1.0});
  EXPECT_EQ(t.processing_memory(1), 3u + 2u);       // leaf: f + n
  EXPECT_EQ(t.processing_memory(0), 3u + 7u + 5u);  // input + n + f
}

TEST(Tree, NaturalPostorderVisitsChildrenFirst) {
  Tree t = example_tree();
  auto order = t.natural_postorder();
  ASSERT_EQ(order.size(), 7u);
  std::vector<NodeId> pos(7);
  for (std::size_t k = 0; k < order.size(); ++k) pos[order[k]] = (NodeId)k;
  for (NodeId i = 0; i < t.size(); ++i) {
    for (NodeId c : t.children(i)) EXPECT_LT(pos[c], pos[i]);
  }
  EXPECT_EQ(order.back(), t.root());
}

TEST(Tree, Depths) {
  Tree t = example_tree();
  auto d = t.depths();
  EXPECT_EQ(d[0], 0);
  EXPECT_EQ(d[1], 1);
  EXPECT_EQ(d[4], 2);
  EXPECT_EQ(d[6], 2);
  EXPECT_EQ(t.height(), 3);
}

TEST(Tree, WeightedDepthsIncludeOwnWork) {
  Tree t = make_tree({kNoNode, 0, 1}, {1, 1, 1}, {0, 0, 0}, {5.0, 3.0, 2.0});
  auto wd = t.weighted_depths();
  EXPECT_DOUBLE_EQ(wd[0], 5.0);
  EXPECT_DOUBLE_EQ(wd[1], 8.0);
  EXPECT_DOUBLE_EQ(wd[2], 10.0);
  EXPECT_DOUBLE_EQ(t.critical_path(), 10.0);
}

TEST(Tree, SubtreeWork) {
  Tree t = example_tree();
  auto W = t.subtree_work();
  EXPECT_DOUBLE_EQ(W[0], 7.0);
  EXPECT_DOUBLE_EQ(W[1], 3.0);
  EXPECT_DOUBLE_EQ(W[2], 1.0);
  EXPECT_DOUBLE_EQ(W[3], 2.0);
  EXPECT_DOUBLE_EQ(t.total_work(), 7.0);
}

TEST(Tree, SubtreeExtraction) {
  Tree t = example_tree();
  std::vector<NodeId> old_ids;
  Tree sub = t.subtree(1, &old_ids);
  EXPECT_EQ(sub.size(), 3);
  EXPECT_EQ(sub.root(), 0);
  EXPECT_EQ(old_ids[0], 1);
  std::set<NodeId> olds(old_ids.begin(), old_ids.end());
  EXPECT_EQ(olds, (std::set<NodeId>{1, 4, 5}));
  EXPECT_EQ(sub.num_children(0), 2);
}

TEST(Tree, SubtreePreservesWeights) {
  Tree t = make_tree({kNoNode, 0, 1}, {10, 20, 30}, {1, 2, 3},
                     {1.5, 2.5, 3.5});
  Tree sub = t.subtree(1);
  EXPECT_EQ(sub.output_size(0), 20u);
  EXPECT_EQ(sub.exec_size(1), 3u);
  EXPECT_DOUBLE_EQ(sub.work(1), 3.5);
}

TEST(Tree, RejectsTwoRoots) {
  EXPECT_THROW(pebble_tree({kNoNode, kNoNode}), std::invalid_argument);
}

TEST(Tree, RejectsNoRoot) {
  EXPECT_THROW(pebble_tree({1, 0}), std::invalid_argument);
}

TEST(Tree, RejectsSelfParent) {
  EXPECT_THROW(pebble_tree({kNoNode, 1}), std::invalid_argument);
}

TEST(Tree, RejectsOutOfRangeParent) {
  EXPECT_THROW(pebble_tree({kNoNode, 7}), std::invalid_argument);
}

TEST(Tree, RejectsMismatchedArrays) {
  EXPECT_THROW(Tree({kNoNode}, {1, 2}, {0}, {1.0}), std::invalid_argument);
}

TEST(Tree, RejectsNegativeWork) {
  EXPECT_THROW(Tree({kNoNode}, {1}, {0}, {-1.0}), std::invalid_argument);
}

TEST(Tree, AcceptsTotalFileSizeAtTheBound) {
  const MemSize half = kMaxTreeMemory / 2;
  Tree t({kNoNode, 0}, {half, half - 1}, {0, 1}, {1.0, 1.0});
  EXPECT_EQ(t.processing_memory(1), half);
  Tree one({kNoNode}, {kMaxTreeMemory}, {0}, {1.0});
  EXPECT_EQ(one.processing_memory(0), kMaxTreeMemory);
}

TEST(Tree, RejectsTotalFileSizeAboveTheBound) {
  EXPECT_THROW(Tree({kNoNode}, {kMaxTreeMemory}, {1}, {1.0}),
               std::invalid_argument);
  // Spread over many nodes, each size alone far below the bound.
  const std::size_t n = 5;
  std::vector<NodeId> parent(n, 0);
  parent[0] = kNoNode;
  EXPECT_THROW(Tree(parent, std::vector<MemSize>(n, kMaxTreeMemory / 4),
                    std::vector<MemSize>(n, 0), std::vector<double>(n, 1.0)),
               std::invalid_argument);
}

TEST(Tree, RejectsFileSizesWhoseSumWrapsAround) {
  // 2^63 + 2^63 wraps to 0 in u64: the bound must see through the wrap.
  const MemSize half_range = MemSize{1} << 63;
  EXPECT_THROW(Tree({kNoNode, 0}, {half_range, half_range}, {0, 0},
                    {1.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(Tree({kNoNode}, {~MemSize{0}}, {1}, {1.0}),
               std::invalid_argument);
}

TEST(TreeBuilder, BuildsIncrementally) {
  TreeBuilder b;
  NodeId r = b.add_node(kNoNode, 1, 0, 1.0);
  NodeId c1 = b.add_node(r, 2, 0, 2.0);
  b.add_node(c1, 3, 0, 3.0);
  EXPECT_EQ(b.size(), 3);
  Tree t = std::move(b).build();
  EXPECT_EQ(t.size(), 3);
  EXPECT_EQ(t.parent(2), c1);
  EXPECT_EQ(t.output_size(2), 3u);
}

TEST(TreeBuilder, SetParentReparents) {
  TreeBuilder b;
  b.add_node(kNoNode, 1, 0, 1.0);
  b.add_node(0, 1, 0, 1.0);
  b.add_node(0, 1, 0, 1.0);
  b.set_parent(2, 1);
  Tree t = std::move(b).build();
  EXPECT_EQ(t.parent(2), 1);
}

TEST(Tree, RandomTreesAreValid) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    Tree t = random_pebble_tree(1 + (NodeId)rng.uniform(200), rng,
                                rng.uniform01() * 4.0);
    auto order = t.natural_postorder();
    EXPECT_EQ((NodeId)order.size(), t.size());
    // Every non-root node's parent has a smaller natural-postorder position
    // is false in general, but children-before-parent must hold:
    std::vector<NodeId> pos(t.size());
    for (std::size_t k = 0; k < order.size(); ++k) pos[order[k]] = (NodeId)k;
    for (NodeId i = 0; i < t.size(); ++i) {
      if (t.parent(i) != kNoNode) EXPECT_LT(pos[i], pos[t.parent(i)]);
    }
  }
}

TEST(Tree, DescribeMentionsSize) {
  Tree t = example_tree();
  EXPECT_NE(t.describe().find("n=7"), std::string::npos);
}

}  // namespace
}  // namespace treesched
