#include "parallel/memory_bounded.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "parallel/par_deepest_first.hpp"
#include "sequential/postorder.hpp"
#include "util/heap.hpp"

namespace treesched {

namespace {

struct ReadyEntry {
  PriorityKey key;
  NodeId node;
};
struct ReadyLess {
  bool operator()(const ReadyEntry& a, const ReadyEntry& b) const {
    return b.key < a.key;
  }
};
struct FinishEvent {
  double time;
  NodeId node;
};
struct FinishLess {
  bool operator()(const FinishEvent& a, const FinishEvent& b) const {
    if (a.time != b.time) return b.time < a.time;
    return b.node < a.node;
  }
};

// The banker's audit replays the unstarted tasks in sigma order. Task v
// needs `need = n_v + f_v` on top of the memory before it and leaves
// `sum = f_v - sum f_children(v)` behind, so a replay from memory m peaks
// at m + maxprefix, where a run of steps composes as `then` below.
// Started tasks are the neutral step. Tree construction bounds every sum
// by kMaxTreeMemory = 2^62, so no combination overflows int64.
struct Step {
  std::int64_t sum = 0;
  std::int64_t need = kNoNeed;
  static constexpr std::int64_t kNoNeed =
      -static_cast<std::int64_t>(kMaxTreeMemory);
};
Step then(const Step& a, const Step& b) {
  return {a.sum + b.sum, std::max(a.need, a.sum + b.need)};
}

// Segment tree of steps over sigma positions: O(log n) update and
// leave-one-out peak query.
class StepTree {
 public:
  StepTree() = default;
  explicit StepTree(const std::vector<Step>& leaves) {
    while (width_ < leaves.size()) width_ *= 2;
    node_.assign(2 * width_, Step{});
    std::copy(leaves.begin(), leaves.end(), node_.begin() + width_);
    for (std::size_t k = width_ - 1; k >= 1; --k) {
      node_[k] = then(node_[2 * k], node_[2 * k + 1]);
    }
  }

  void clear(std::size_t pos) {
    std::size_t k = pos + width_;
    node_[k] = Step{};
    for (k /= 2; k >= 1; k /= 2) {
      node_[k] = then(node_[2 * k], node_[2 * k + 1]);
    }
  }

  /// Peak (need) of all steps in order, skipping the one at `pos`.
  [[nodiscard]] std::int64_t peak_without(std::size_t pos) const {
    Step before, after;
    for (std::size_t k = pos + width_; k > 1; k /= 2) {
      if (k % 2 == 1) {
        before = then(node_[k - 1], before);
      } else {
        after = then(after, node_[k + 1]);
      }
    }
    return then(before, after).need;
  }

 private:
  std::size_t width_ = 1;
  std::vector<Step> node_;
};

class BoundedScheduler {
 public:
  BoundedScheduler(const Tree& tree, int p, MemSize cap,
                   MemoryBoundedOptions opts)
      : tree_(tree), p_(p), cap_(cap), opts_(std::move(opts)) {}

  std::optional<MemoryBoundedResult> run() {
    const NodeId n = tree_.size();
    auto po = postorder(tree_, PostorderPolicy::kOptimal);
    if (po.peak > cap_) return std::nullopt;
    const std::vector<NodeId> sigma = std::move(po.order);
    sigma_pos_ = order_positions(sigma);
    if (opts_.priority.empty()) {
      opts_.priority = deepest_first_priorities(tree_, sigma);
    } else if (static_cast<NodeId>(opts_.priority.size()) != n) {
      throw std::invalid_argument("memory_bounded: priority size mismatch");
    }
    // Stamp the node id into each key: the explicit final tie-break.
    for (NodeId i = 0; i < n; ++i) opts_.priority[i].node = i;

    MemoryBoundedResult res;
    res.cap = cap_;
    res.sigma_peak = po.peak;
    res.schedule = Schedule(n);
    if (n == 0) return res;

    // Every memory amount is at most kMaxTreeMemory, so clamping the cap
    // there changes no decision and keeps the audit in signed arithmetic.
    limit_ = static_cast<std::int64_t>(std::min(cap_, kMaxTreeMemory));
    release_.assign(static_cast<std::size_t>(n), 0);
    std::vector<Step> steps(static_cast<std::size_t>(n));
    for (NodeId v = 0; v < n; ++v) {
      std::int64_t inputs = 0;
      for (NodeId c : tree_.children(v)) {
        inputs += static_cast<std::int64_t>(tree_.output_size(c));
      }
      release_[v] = static_cast<std::int64_t>(tree_.exec_size(v)) + inputs;
      const auto rise = static_cast<std::int64_t>(tree_.exec_size(v) +
                                                  tree_.output_size(v));
      steps[sigma_pos_[v]] = {rise - release_[v], rise};
    }
    unstarted_ = StepTree(steps);
    pending_.assign(static_cast<std::size_t>(n), 0);
    Schedule& s = res.schedule;

    BinaryHeap<ReadyEntry, ReadyLess> ready;
    for (NodeId i = 0; i < n; ++i) {
      pending_[i] = tree_.num_children(i);
      if (pending_[i] == 0) ready.push({opts_.priority[i], i});
    }
    BinaryHeap<FinishEvent, FinishLess> events;
    std::vector<int> idle;
    for (int q = p_ - 1; q >= 0; --q) idle.push_back(q);

    double now = 0.0;

    auto assign = [&] {
      // Scan up to audit_window candidates in priority order. When the
      // machine is fully idle and nothing has been admitted yet, keep
      // scanning past the window: the sigma-next task is always admissible
      // (deadlock-freedom invariant), so the scan terminates.
      std::vector<ReadyEntry> deferred;
      int audits = 0;
      bool admitted_any = false;
      while (!idle.empty() && !ready.empty()) {
        const bool must_continue = running_ == 0 && !admitted_any;
        if (audits >= std::max(1, opts_.audit_window) && !must_continue) {
          break;
        }
        ReadyEntry e = ready.pop();
        ++audits;
        if (admissible(e.node)) {
          const int proc = idle.back();
          idle.pop_back();
          start_task(e.node, now, proc, s);
          events.push({now + tree_.work(e.node), e.node});
          admitted_any = true;
          // A start changes memory: already-deferred nodes stay deferred
          // (memory only grew), but the window resets for new candidates.
        } else {
          deferred.push_back(e);
        }
      }
      for (const ReadyEntry& e : deferred) ready.push(e);
    };

    assign();
    while (!events.empty()) {
      now = events.top().time;
      while (!events.empty() && events.top().time == now) {
        const FinishEvent ev = events.pop();
        idle.push_back(s.proc[ev.node]);
        finish_task(ev.node);
        const NodeId par = tree_.parent(ev.node);
        if (par != kNoNode && --pending_[par] == 0) {
          ready.push({opts_.priority[par], par});
        }
      }
      assign();
    }
    if (finished_ != n) throw std::logic_error("memory_bounded: deadlocked");
    return res;
  }

 private:
  void start_task(NodeId i, double now, int proc, Schedule& s) {
    s.start[i] = now;
    s.proc[i] = proc;
    mem_ += static_cast<std::int64_t>(tree_.exec_size(i) +
                                      tree_.output_size(i));
    freed_ += release_[i];
    unstarted_.clear(static_cast<std::size_t>(sigma_pos_[i]));
    ++running_;
  }

  void finish_task(NodeId i) {
    mem_ -= release_[i];
    freed_ -= release_[i];
    --running_;
    ++finished_;
  }

  // Admission test for starting `cand` right now.
  bool admissible(NodeId cand) const {
    const auto rise = static_cast<std::int64_t>(tree_.exec_size(cand) +
                                                tree_.output_size(cand));
    if (mem_ + rise > limit_) return false;
    // Banker's audit: complete all running tasks and `cand`, then finish the
    // rest sequentially in sigma order; peak must stay within cap.
    const std::int64_t settled = mem_ + rise - freed_ - release_[cand];
    return settled + unstarted_.peak_without(
                         static_cast<std::size_t>(sigma_pos_[cand])) <=
           limit_;
  }

  const Tree& tree_;
  int p_;
  MemSize cap_;
  MemoryBoundedOptions opts_;
  std::int64_t limit_ = 0;  ///< cap_ clamped to kMaxTreeMemory
  std::vector<NodeId> sigma_pos_;
  /// n_v + sum f_children(v): what finishing task v frees.
  std::vector<std::int64_t> release_;
  StepTree unstarted_;
  std::vector<NodeId> pending_;
  NodeId running_ = 0;
  NodeId finished_ = 0;
  std::int64_t mem_ = 0;    ///< memory in use now
  std::int64_t freed_ = 0;  ///< sum of release_ over the running tasks
};

}  // namespace

std::optional<MemoryBoundedResult> memory_bounded_schedule(
    const Tree& tree, int p, MemSize cap, MemoryBoundedOptions opts) {
  if (p < 1) throw std::invalid_argument("memory_bounded_schedule: p < 1");
  return BoundedScheduler(tree, p, cap, std::move(opts)).run();
}

MemSize min_feasible_cap(const Tree& tree) {
  return best_postorder_memory(tree);
}

}  // namespace treesched
