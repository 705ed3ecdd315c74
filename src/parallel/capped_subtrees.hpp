#pragma once
// Static, reservation-based memory-capped scheduling: the ParSubtrees
// philosophy under a memory budget.
//
// Where memory_bounded_schedule (the banker) admits individual tasks with
// a dynamic audit, this scheduler reserves memory at SUBTREE granularity:
// the tree is split with SplitSubtrees (Algorithm 2), each subtree's
// sequential-postorder peak m_r is measured, and a subtree may start on an
// idle processor only if
//     sum of peaks of running subtrees
//   + sum of outputs of completed subtrees
//   + m_r                                  <= cap.
// Because a running subtree is accounted at its full peak, the bound is
// conservative and the cap can never be exceeded during the parallel
// phase; the sequential tail is laid out afterwards and checked exactly.
//
// Compared to the banker this trades schedule quality for a cheap plan and
// a trivially auditable invariant -- the classic static reservation vs
// dynamic admission trade-off (see bench_memory_bounded). Runtime: the
// split (O(n (log n + min(p, n)))), one whole-tree traversal (O(n log n)
// for the optimal postorder) sliced per subtree in O(n), then O(k min(p, k))
// admission for k subtrees and one O(n log n) simulation for the audit.

#include <cstddef>
#include <optional>
#include <vector>

#include "core/schedule.hpp"
#include "core/tree.hpp"
#include "parallel/par_subtrees.hpp"

namespace treesched {

struct CappedSubtreesResult {
  Schedule schedule;
  MemSize cap = 0;
  /// Highest number of subtrees ever running concurrently.
  int max_parallelism = 0;
};

/// The scheme's plan for one (tree, p, seq): the split, each subtree's
/// slice of one whole-tree traversal with its peak, and that traversal for
/// the tail. Build it once, then ask for the floor and schedule from it.
/// `tree` must outlive the plan.
class CappedSubtreesPlan {
 public:
  CappedSubtreesPlan(const Tree& tree, int p,
                     SequentialAlgo seq = SequentialAlgo::kOptimalPostorder);

  /// capped_subtrees_min_cap() of this plan.
  [[nodiscard]] MemSize min_cap() const;

  /// Peak of the whole-tree traversal. Under kOptimalPostorder it is the
  /// best-postorder peak, i.e. min_feasible_cap(tree).
  [[nodiscard]] MemSize traversal_peak() const { return traversal_peak_; }

  /// capped_subtrees_schedule() of this plan.
  [[nodiscard]] std::optional<CappedSubtreesResult> schedule(MemSize cap) const;

 private:
  struct Subtree {
    NodeId root;
    double total_work;
    MemSize peak;    // sequential peak of the subtree on its own
    MemSize output;  // f_root of the subtree
    std::size_t slice;  // index into slices_
  };

  // Lays out the sequential tail (split nodes) starting at time t0.
  void layout_tail(double t0, Schedule& schedule) const;

  const Tree& tree_;
  int p_;
  SplitResult split_;
  MemSize traversal_peak_ = 0;  // set by order_'s initializer
  std::vector<NodeId> order_;   // whole-tree traversal
  SubtreeSlices slices_;       // order_ restricted to each split root
  std::vector<Subtree> subs_;  // sorted by non-increasing work
};

/// Schedules with peak memory <= cap, or nullopt when the cap is too small
/// for this (conservative) scheme. Any cap >= capped_subtrees_min_cap()
/// is feasible when every task does positive work; zero-work tasks that
/// share a start time replay in simulate()'s canonical order rather than
/// the traversal's, so the floor can then be refused.
std::optional<CappedSubtreesResult> capped_subtrees_schedule(
    const Tree& tree, int p, MemSize cap,
    SequentialAlgo seq = SequentialAlgo::kOptimalPostorder);

/// The smallest cap the scheme accepts: the peak of its fully serialized
/// execution (subtrees one at a time in weight order, then the tail).
MemSize capped_subtrees_min_cap(
    const Tree& tree, int p,
    SequentialAlgo seq = SequentialAlgo::kOptimalPostorder);

}  // namespace treesched
