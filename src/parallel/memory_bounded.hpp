#pragma once
// Memory-bounded list scheduling — the extension the paper names as future
// work ("designing scheduling algorithms that take as input a cap on the
// memory usage", §7).
//
// The scheduler is an event-driven list scheduler whose admission test
// guarantees the peak memory never exceeds a user-provided cap:
//  * a reference sequential traversal sigma with peak M_sigma <= cap is
//    fixed up front (the optimal postorder);
//  * a ready task may start only if (a) the instantaneous memory after
//    allocating its n_i + f_i stays within the cap, and (b) a banker's-style
//    audit succeeds: assuming all running tasks complete, finishing the
//    remaining tree sequentially in sigma order stays within the cap.
// Invariant (b) holds initially (cap >= M_sigma) and is preserved by every
// admission, and when nothing is running the next sigma task always passes
// the audit, so the scheduler never deadlocks and always completes.
//
// The audit is O(log n): a segment tree over sigma positions keeps, for the
// not-yet-started tasks, the peak of replaying them in sigma order, and a
// leave-one-out query excludes the candidate itself.
//
// Cap = infinity degenerates to plain list scheduling by the same priority;
// cap = M_sigma degenerates to the sequential traversal. Sweeping the cap
// between the two traces the memory/makespan trade-off curve
// (bench_memory_bounded).

#include <optional>
#include <vector>

#include "core/schedule.hpp"
#include "core/tree.hpp"
#include "parallel/list_scheduler.hpp"

namespace treesched {

struct MemoryBoundedOptions {
  /// Priority among admissible ready tasks; defaults to ParDeepestFirst
  /// keys (makespan focus) if empty.
  std::vector<PriorityKey> priority;
  /// How many ready-queue candidates to pop and audit per scheduling round
  /// while tasks are running. It bounds the heap pops per round (each
  /// O(log n), audit included), and it shapes the schedule: a candidate
  /// past the window waits for the next round even if admissible.
  int audit_window = 16;
};

struct MemoryBoundedResult {
  Schedule schedule;
  MemSize cap = 0;           ///< the cap actually enforced
  MemSize sigma_peak = 0;    ///< peak of the reference traversal
};

/// Schedules `tree` on `p` processors with peak memory <= cap.
/// Returns std::nullopt if cap < peak(sigma) (infeasible for this method;
/// use min_feasible_cap to query the threshold).
std::optional<MemoryBoundedResult> memory_bounded_schedule(
    const Tree& tree, int p, MemSize cap, MemoryBoundedOptions opts = {});

/// Smallest cap the scheduler accepts: the optimal-postorder peak.
MemSize min_feasible_cap(const Tree& tree);

}  // namespace treesched
