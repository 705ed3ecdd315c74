#pragma once
// Unified scheduling interface: every algorithm in the repository -- the
// paper's four parallel heuristics (§5), the memory-bounded extensions
// (§7), the sequential baselines (Liu '87, best postorder) and the
// brute-force oracle -- is invoked through the same `Scheduler` contract.
//
// A Scheduler is a stateless strategy object: `schedule()` is const and
// must be safe to call concurrently on distinct trees (the campaign runner
// shares one instance across worker threads). Algorithms advertise their
// constraints through `capabilities()` so callers (campaigns, CLIs,
// benches) can filter rather than hardcode algorithm lists.

#include <memory>
#include <string>

#include "core/schedule.hpp"
#include "core/tree.hpp"

namespace treesched {

/// Execution resources offered to a scheduler.
struct Resources {
  int p = 1;  ///< available processors (>= 1)
  /// Peak-memory cap for memory-capped schedulers; 0 = none requested
  /// (such schedulers derive a default cap from the tree). Passing a
  /// nonzero cap to a scheduler without the memory_capped capability is
  /// rejected by validate_resources() (std::invalid_argument), not
  /// silently ignored.
  MemSize memory_cap = 0;
};

/// Static properties of an algorithm, used for filtering.
struct SchedulerCapabilities {
  /// Ignores Resources::p and emits a single-processor schedule (the
  /// sequential baselines). Still valid on any p >= 1.
  bool sequential_only = false;
  /// Guarantees peak memory <= the (explicit or derived) cap.
  bool memory_capped = false;
  /// 0 = scales to any tree; > 0 = exponential oracle usable only up to
  /// this many nodes (it throws beyond).
  NodeId max_nodes = 0;

  [[nodiscard]] bool is_oracle() const { return max_nodes > 0; }
};

/// Abstract scheduling algorithm. Implementations self-register with the
/// SchedulerRegistry (see sched/registry.hpp).
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Registry key and display name (paper spelling, e.g. "ParSubtrees").
  [[nodiscard]] virtual std::string name() const = 0;

  [[nodiscard]] virtual SchedulerCapabilities capabilities() const = 0;

  /// Computes a feasible schedule of `tree` under `res`. Throws
  /// std::invalid_argument when the resources are unusable (p < 1, an
  /// explicit memory cap below the algorithm's feasibility floor, or a
  /// tree beyond an oracle's max_nodes).
  [[nodiscard]] virtual Schedule schedule(const Tree& tree,
                                          const Resources& res) const = 0;
};

using SchedulerPtr = std::unique_ptr<Scheduler>;

/// Shared Resources validation used by every registered scheduler (and by
/// the scheduling service before it consults its cache). Throws
/// std::invalid_argument with a uniform message, prefixed by `who`:
///  * p must be >= 1;
///  * a nonzero memory cap is only meaningful for schedulers with the
///    memory_capped capability — passing one to any other scheduler is a
///    caller error, not a silently ignored field.
/// Cap-vs-feasibility-floor checks stay with the individual schedulers
/// (the floor depends on the tree).
void validate_resources(const Resources& res,
                        const SchedulerCapabilities& caps,
                        const std::string& who);

/// validate_resources(), then the Resources an algorithm runs with: p is
/// clamped to max(n, 1). n tasks never keep more than n processors busy,
/// so the schedule is the one p would give, but per-processor state stays
/// O(n) whatever p a client asks for. Every builtin parallel scheduler
/// calls this before its algorithm; the sequential ones ignore p.
[[nodiscard]] Resources effective_resources(const Tree& tree,
                                            const Resources& res,
                                            const SchedulerCapabilities& caps,
                                            const std::string& who);

}  // namespace treesched
