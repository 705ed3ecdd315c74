#pragma once
// Event-driven replay of a schedule, producing the exact memory profile.
//
// Memory accounting (paper §3.1):
//  * when task i STARTS, its inputs (the outputs f_c of its children) are
//    already resident; the simulator additionally allocates n_i + f_i;
//  * when task i FINISHES, n_i and all the children outputs f_c are freed;
//    f_i stays resident until the parent finishes (forever for the root);
//  * a task of zero work (finishing within the replay's relative time
//    tolerance of 1e-9 of its start) finishes right after it starts, never
//    before; equal-time starts replay such tasks first, children before
//    parents, then the others.
//
// Peak memory can only change at task starts (allocations) so the peak is
// sampled there; the full step profile is also available for plotting and
// for the memory-bounded scheduler's audits.

#include <cstdint>
#include <span>
#include <vector>

#include "core/schedule.hpp"
#include "core/tree.hpp"

namespace treesched {

/// One memory-profile step: memory level `mem` holds from `time` until the
/// next event's time.
struct MemoryEvent {
  double time;
  MemSize mem;
};

struct SimulationResult {
  double makespan = 0.0;
  MemSize peak_memory = 0;
  /// Resident bytes after everything completed (= f_root).
  MemSize final_memory = 0;
  /// Time-ordered profile; only filled when requested.
  std::vector<MemoryEvent> profile;
};

struct SimulationOptions {
  bool record_profile = false;
};

/// Replays `s` on `tree` and computes makespan and exact peak memory.
/// The schedule must be feasible (see validate_schedule); the simulator
/// checks precedences as it replays and throws std::invalid_argument on
/// violations, so scoring an infeasible schedule is impossible.
SimulationResult simulate(const Tree& tree, const Schedule& s,
                          const SimulationOptions& opts = {});

/// Peak memory of a sequential traversal (children-before-parents order).
/// Equivalent to simulate(tree, sequential_schedule(tree, order)).peak_memory
/// but O(n) with no event machinery; used in algorithm inner loops.
MemSize sequential_peak_memory(const Tree& tree,
                               const std::vector<NodeId>& order);

/// Peak memory of running `order` sequentially from empty memory, where
/// `order` is a children-before-parents traversal of one or more whole
/// subtrees (e.g. a slice of a whole-tree traversal). O(|order|).
MemSize subtree_peak_memory(const Tree& tree, std::span<const NodeId> order);

}  // namespace treesched
