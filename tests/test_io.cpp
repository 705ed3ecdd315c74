#include "trees/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "test_helpers.hpp"
#include "trees/generators.hpp"
#include "util/random.hpp"

namespace treesched {
namespace {

using testing::make_tree;

void expect_trees_equal(const Tree& a, const Tree& b) {
  ASSERT_EQ(a.size(), b.size());
  for (NodeId i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.parent(i), b.parent(i));
    EXPECT_EQ(a.output_size(i), b.output_size(i));
    EXPECT_EQ(a.exec_size(i), b.exec_size(i));
    EXPECT_DOUBLE_EQ(a.work(i), b.work(i));
  }
}

TEST(TreeIo, RoundTripStream) {
  Tree t = make_tree({kNoNode, 0, 0, 1}, {4, 5, 6, 7}, {1, 0, 2, 3},
                     {1.25, 2.5, 0.125, 1e9});
  std::stringstream ss;
  write_tree(ss, t);
  expect_trees_equal(t, read_tree(ss));
}

TEST(TreeIo, RoundTripRandomTrees) {
  Rng rng(71);
  for (int trial = 0; trial < 10; ++trial) {
    RandomTreeParams params;
    params.n = 1 + (NodeId)rng.uniform(300);
    params.max_output = 1000;
    params.max_exec = 500;
    params.min_work = 0.001;
    params.max_work = 1e12;
    Tree t = random_tree(params, rng);
    std::stringstream ss;
    write_tree(ss, t);
    expect_trees_equal(t, read_tree(ss));
  }
}

TEST(TreeIo, SkipsComments) {
  std::stringstream ss;
  ss << "# a comment\n# another\ntreesched-tree v1\n1\n-1 2 3 4.5\n";
  Tree t = read_tree(ss);
  EXPECT_EQ(t.size(), 1);
  EXPECT_EQ(t.output_size(0), 2u);
}

TEST(TreeIo, RejectsBadHeader) {
  std::stringstream ss;
  ss << "not-a-tree\n";
  EXPECT_THROW(read_tree(ss), std::runtime_error);
}

TEST(TreeIo, RejectsTruncatedBody) {
  std::stringstream ss;
  ss << "treesched-tree v1\n3\n-1 1 0 1\n0 1 0 1\n";
  EXPECT_THROW(read_tree(ss), std::runtime_error);
}

TEST(TreeIo, RejectsTotalFileSizeAboveTheBound) {
  // Each size parses as a u64, but together they pass 2^62: a typed
  // invalid_argument, never a tree whose memory sums wrap.
  std::stringstream ss;
  ss << "treesched-tree v1\n2\n-1 4611686018427387904 0 1\n"
     << "0 1 0 1\n";
  EXPECT_THROW(read_tree(ss), std::invalid_argument);
  std::stringstream max;
  max << "treesched-tree v1\n1\n-1 18446744073709551615 0 1\n";
  EXPECT_THROW(read_tree(max), std::invalid_argument);
}

TEST(TreeIo, FileRoundTrip) {
  Rng rng(73);
  Tree t = random_pebble_tree(50, rng);
  const std::string path = ::testing::TempDir() + "/treesched_io_test.tree";
  write_tree_file(path, t);
  expect_trees_equal(t, read_tree_file(path));
  std::remove(path.c_str());
}

TEST(TreeIo, MissingFileThrows) {
  EXPECT_THROW(read_tree_file("/nonexistent/path/x.tree"),
               std::runtime_error);
}

}  // namespace
}  // namespace treesched
