#pragma once
// In-tree task graph model (paper §3.1).
//
// A tree of n tasks, ids 0..n-1. Task i carries:
//   - exec_size(i)   n_i : bytes of the execution file (program),
//   - output_size(i) f_i : bytes of the output file handed to the parent,
//   - work(i)        w_i : processing time.
// Edges point child -> parent; a task is ready once all children completed.
//
// The Tree is an immutable value type built through TreeBuilder (or the
// parent-array constructor) and stores children in CSR form, so traversals
// are cache-friendly and allocation-free.

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace treesched {

using NodeId = std::int32_t;
using MemSize = std::uint64_t;

inline constexpr NodeId kNoNode = -1;

/// Upper bound on a tree's total file size, sum over i of (f_i + n_i).
/// Tree construction rejects anything larger, so every memory amount a
/// schedule can reach — and any difference of two such amounts — fits a
/// signed 64-bit integer with headroom, and no memory sum can wrap.
inline constexpr MemSize kMaxTreeMemory = MemSize{1} << 62;

class Tree;

/// Incremental construction helper. Nodes may be added in any order; the
/// parent of the root is kNoNode. `build()` validates (single root, acyclic,
/// connected) and produces the immutable Tree.
class TreeBuilder {
 public:
  /// Appends a node and returns its id.
  NodeId add_node(NodeId parent, MemSize output_size, MemSize exec_size,
                  double work);

  /// Number of nodes added so far.
  [[nodiscard]] NodeId size() const {
    return static_cast<NodeId>(parent_.size());
  }

  /// Re-parent a previously added node (used by generators that discover
  /// the structure top-down).
  void set_parent(NodeId node, NodeId parent);

  /// Validates and builds. Throws std::invalid_argument on malformed input.
  [[nodiscard]] Tree build() &&;

 private:
  std::vector<NodeId> parent_;
  std::vector<MemSize> output_;
  std::vector<MemSize> exec_;
  std::vector<double> work_;
};

/// Immutable rooted in-tree with per-task weights.
class Tree {
 public:
  Tree() = default;

  /// Builds from parallel arrays; `parent[root] == kNoNode`. Throws
  /// std::invalid_argument on a malformed parent array, negative work, or
  /// total file size above kMaxTreeMemory.
  Tree(std::vector<NodeId> parent, std::vector<MemSize> output_size,
       std::vector<MemSize> exec_size, std::vector<double> work);

  [[nodiscard]] NodeId size() const {
    return static_cast<NodeId>(parent_.size());
  }
  [[nodiscard]] bool empty() const { return parent_.empty(); }
  [[nodiscard]] NodeId root() const { return root_; }

  [[nodiscard]] NodeId parent(NodeId i) const { return parent_[i]; }
  [[nodiscard]] MemSize output_size(NodeId i) const { return output_[i]; }
  [[nodiscard]] MemSize exec_size(NodeId i) const { return exec_[i]; }
  [[nodiscard]] double work(NodeId i) const { return work_[i]; }

  [[nodiscard]] std::span<const NodeId> children(NodeId i) const {
    return {child_list_.data() + child_begin_[i],
            child_list_.data() + child_begin_[i + 1]};
  }
  [[nodiscard]] NodeId num_children(NodeId i) const {
    return static_cast<NodeId>(child_begin_[i + 1] - child_begin_[i]);
  }
  [[nodiscard]] bool is_leaf(NodeId i) const { return num_children(i) == 0; }

  /// Memory needed while task i runs: sum of input files + n_i + f_i.
  [[nodiscard]] MemSize processing_memory(NodeId i) const;

  /// Number of leaves.
  [[nodiscard]] NodeId num_leaves() const;

  /// Nodes in some (children-before-parent) postorder: a valid sequential
  /// processing order. Natural child order; deterministic.
  [[nodiscard]] std::vector<NodeId> natural_postorder() const;

  /// Depth in edges from the root (root has depth 0).
  [[nodiscard]] std::vector<NodeId> depths() const;

  /// w-weighted distance from node to root, *including* the node's own w_i
  /// (the paper's node depth for ParDeepestFirst, §5.3).
  [[nodiscard]] std::vector<double> weighted_depths() const;

  /// Total work of the subtree rooted at each node (W_i in the paper).
  [[nodiscard]] std::vector<double> subtree_work() const;

  /// Length of the w-weighted critical path (max weighted depth).
  [[nodiscard]] double critical_path() const;

  /// Sum of all task works.
  [[nodiscard]] double total_work() const;

  /// Extracts the subtree rooted at `r` as a standalone Tree.
  /// `old_of_new[k]` maps the new tree's node k back to this tree's id.
  [[nodiscard]] Tree subtree(NodeId r, std::vector<NodeId>* old_of_new = nullptr) const;

  /// Height: number of nodes on the longest root-to-leaf path.
  [[nodiscard]] NodeId height() const;

  /// Maximum out-degree (number of children) over all nodes.
  [[nodiscard]] NodeId max_degree() const;

  /// Human-readable one-line summary (size, height, degree, total weights).
  [[nodiscard]] std::string describe() const;

 private:
  void build_children();

  std::vector<NodeId> parent_;
  std::vector<MemSize> output_;
  std::vector<MemSize> exec_;
  std::vector<double> work_;
  // CSR children adjacency.
  std::vector<std::int64_t> child_begin_;
  std::vector<NodeId> child_list_;
  NodeId root_ = kNoNode;
};

}  // namespace treesched
