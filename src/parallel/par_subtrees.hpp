#pragma once
// ParSubtrees and ParSubtreesOptim (paper §5.1, Algorithms 1 and 2).
//
// SplitSubtrees repeatedly splits the heaviest subtree (by total work W_i)
// until it is a leaf, evaluating at every step the resulting makespan
//   C(s) = W_head(PQ) + sum_{i in seqSet} w_i + sum_{beyond the p largest} W_i
// and keeps the best split (Lemma 1: this split is makespan-optimal for
// the ParSubtrees execution scheme). Complexity O(n (log n + p)).
//
// ParSubtrees then processes the p largest subtrees concurrently (each with
// a sequential memory-minimizing traversal) and everything else — the split
// nodes and the surplus subtrees — sequentially afterwards.
// Guarantees: p-approximation for makespan, (p+1)-approximation for peak
// memory.
//
// ParSubtreesOptim instead packs ALL produced subtrees onto the p
// processors LPT-style (longest processing time first), which improves the
// makespan but can increase memory (more subtrees in flight at once).

#include <cstddef>
#include <span>
#include <vector>

#include "core/schedule.hpp"
#include "core/tree.hpp"

namespace treesched {

/// Which sequential traversal the subtree/sequential phases use.
enum class SequentialAlgo {
  kOptimalPostorder,  ///< Liu'86 optimal postorder (the paper's choice)
  kLiuExact,          ///< Liu'87 exact optimal traversal
  kNaturalPostorder,  ///< naive postorder (ablation baseline)
};

/// Whole-tree traversal (children before parents) under `algo`; stores the
/// traversal's peak memory in `*peak` when given.
std::vector<NodeId> sequential_order(const Tree& tree, SequentialAlgo algo,
                                     MemSize* peak = nullptr);

/// A traversal cut into the pieces covering disjoint subtrees: slice k
/// lists the nodes of the subtree rooted at roots[k], in traversal order.
struct SubtreeSlices {
  std::vector<NodeId> nodes;
  std::vector<std::size_t> offset;  ///< slice k: nodes[offset[k], offset[k+1])

  [[nodiscard]] std::span<const NodeId> operator[](std::size_t k) const {
    return {nodes.data() + offset[k], nodes.data() + offset[k + 1]};
  }
};

/// Restricts the whole-tree traversal `order` to each of the subtrees
/// rooted at `roots` (no root may lie in another's subtree). O(n) in total.
/// Liu's traversal and the postorders are built bottom-up, so each slice
/// is the traversal the same algorithm produces for that subtree alone.
SubtreeSlices slice_by_subtree(const Tree& tree,
                               const std::vector<NodeId>& order,
                               const std::vector<NodeId>& roots);

/// Outcome of SplitSubtrees (Algorithm 2).
struct SplitResult {
  std::vector<NodeId> subtree_roots;  ///< roots of the produced subtrees
  std::vector<NodeId> seq_nodes;      ///< split nodes processed sequentially
  double predicted_makespan = 0.0;    ///< C(x) of the selected split
};

/// Algorithm 2. `p` >= 1.
SplitResult split_subtrees(const Tree& tree, int p);

struct ParSubtreesOptions {
  SequentialAlgo sequential = SequentialAlgo::kOptimalPostorder;
  /// false: Algorithm 1 (only the p largest subtrees in parallel).
  /// true:  ParSubtreesOptim (all subtrees LPT-packed onto p processors).
  bool optimized_packing = false;
};

/// Full heuristic. The returned schedule is feasible by construction and its
/// simulated makespan equals SplitResult::predicted_makespan for the
/// non-optimized variant.
Schedule par_subtrees(const Tree& tree, int p, ParSubtreesOptions opts = {});

/// Convenience wrapper for the optimized variant.
Schedule par_subtrees_optim(const Tree& tree, int p,
                            SequentialAlgo seq = SequentialAlgo::kOptimalPostorder);

}  // namespace treesched
