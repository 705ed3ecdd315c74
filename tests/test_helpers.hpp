#pragma once
// Shared helpers for the test suite.

#include <future>
#include <vector>

#include "core/tree.hpp"
#include "util/thread_pool.hpp"

namespace treesched::testing {

/// Builds a tree from a parent array with pebble-game weights.
inline Tree pebble_tree(std::vector<NodeId> parent) {
  const std::size_t n = parent.size();
  return Tree(std::move(parent), std::vector<MemSize>(n, 1),
              std::vector<MemSize>(n, 0), std::vector<double>(n, 1.0));
}

/// Builds a tree from parallel arrays.
inline Tree make_tree(std::vector<NodeId> parent, std::vector<MemSize> out,
                      std::vector<MemSize> exec, std::vector<double> work) {
  return Tree(std::move(parent), std::move(out), std::move(exec),
              std::move(work));
}

/// The paper's running example shape: a small two-level tree.
///        0
///      / | \
///     1  2  3
///    /|     |
///   4 5     6
inline Tree example_tree() {
  return pebble_tree({kNoNode, 0, 0, 0, 1, 1, 3});
}

/// Holds every shared-pool worker until release() (or destruction), so
/// requests submitted meanwhile stay queued however long the test thread
/// is descheduled. The pool is FIFO: jobs the service posts after the
/// gate's run only once it opens. Declare it after the service, so it
/// opens before the service's destructor drains.
class PoolGate {
 public:
  PoolGate() {
    for (unsigned w = 0; w < ThreadPool::shared().size(); ++w) {
      ThreadPool::shared().submit([gate = gate_] { gate.wait(); });
    }
  }
  PoolGate(const PoolGate&) = delete;
  PoolGate& operator=(const PoolGate&) = delete;
  ~PoolGate() { release(); }

  void release() {
    if (released_) return;
    released_ = true;
    open_.set_value();
  }

 private:
  std::promise<void> open_;
  std::shared_future<void> gate_ = open_.get_future().share();
  bool released_ = false;
};

}  // namespace treesched::testing
