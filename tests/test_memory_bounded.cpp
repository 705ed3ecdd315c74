#include "parallel/memory_bounded.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "campaign/dataset.hpp"
#include "core/simulator.hpp"
#include "parallel/par_deepest_first.hpp"
#include "sequential/postorder.hpp"
#include "test_helpers.hpp"
#include "trees/generators.hpp"
#include "util/heap.hpp"
#include "util/random.hpp"

namespace treesched {
namespace {

constexpr MemSize kHuge = ~MemSize{0} / 4;
constexpr MemSize kMaxCap = std::numeric_limits<MemSize>::max();

// ---------------------------------------------------------------------------
// Reference oracle: the scheduler with the direct O(n) banker's audit, which
// replays the whole unstarted sigma suffix per candidate. The library's
// O(log n) segment-tree audit must make exactly the same admission
// decisions, so the two produce bit-identical schedules.
// ---------------------------------------------------------------------------

struct RefReady {
  PriorityKey key;
  NodeId node;
};
struct RefReadyLess {
  bool operator()(const RefReady& a, const RefReady& b) const {
    return b.key < a.key;
  }
};
struct RefFinish {
  double time;
  NodeId node;
};
struct RefFinishLess {
  bool operator()(const RefFinish& a, const RefFinish& b) const {
    if (a.time != b.time) return b.time < a.time;
    return b.node < a.node;
  }
};

class ReferenceScheduler {
 public:
  ReferenceScheduler(const Tree& tree, int p, MemSize cap,
                     MemoryBoundedOptions opts)
      : tree_(tree), p_(p), cap_(cap), opts_(std::move(opts)) {}

  std::optional<Schedule> run() {
    const NodeId n = tree_.size();
    auto po = postorder(tree_, PostorderPolicy::kOptimal);
    if (po.peak > cap_) return std::nullopt;
    sigma_ = std::move(po.order);
    if (opts_.priority.empty()) {
      opts_.priority = deepest_first_priorities(tree_, sigma_);
    }
    for (NodeId i = 0; i < n; ++i) opts_.priority[i].node = i;
    Schedule s(n);
    if (n == 0) return s;

    started_.assign(static_cast<std::size_t>(n), 0);
    done_.assign(static_cast<std::size_t>(n), 0);
    std::vector<NodeId> pending(static_cast<std::size_t>(n), 0);
    BinaryHeap<RefReady, RefReadyLess> ready;
    for (NodeId i = 0; i < n; ++i) {
      pending[i] = tree_.num_children(i);
      if (pending[i] == 0) ready.push({opts_.priority[i], i});
    }
    BinaryHeap<RefFinish, RefFinishLess> events;
    std::vector<int> idle;
    for (int q = p_ - 1; q >= 0; --q) idle.push_back(q);
    double now = 0.0;

    auto assign = [&] {
      std::vector<RefReady> deferred;
      int audits = 0;
      bool admitted_any = false;
      while (!idle.empty() && !ready.empty()) {
        const bool must_continue = running_.empty() && !admitted_any;
        if (audits >= std::max(1, opts_.audit_window) && !must_continue) {
          break;
        }
        RefReady e = ready.pop();
        ++audits;
        if (admissible(e.node)) {
          const int proc = idle.back();
          idle.pop_back();
          start_task(e.node, now, proc, s);
          events.push({now + tree_.work(e.node), e.node});
          admitted_any = true;
        } else {
          deferred.push_back(e);
        }
      }
      for (const RefReady& e : deferred) ready.push(e);
    };

    assign();
    while (!events.empty()) {
      now = events.top().time;
      while (!events.empty() && events.top().time == now) {
        const RefFinish ev = events.pop();
        idle.push_back(s.proc[ev.node]);
        finish_task(ev.node);
        const NodeId par = tree_.parent(ev.node);
        if (par != kNoNode && --pending[par] == 0) {
          ready.push({opts_.priority[par], par});
        }
      }
      assign();
    }
    for (NodeId i = 0; i < n; ++i) {
      if (!done_[i]) throw std::logic_error("reference: deadlocked");
    }
    return s;
  }

 private:
  void start_task(NodeId i, double now, int proc, Schedule& s) {
    s.start[i] = now;
    s.proc[i] = proc;
    started_[i] = 1;
    mem_ += tree_.exec_size(i) + tree_.output_size(i);
    while (sigma_next_ < sigma_.size() && started_[sigma_[sigma_next_]]) {
      ++sigma_next_;
    }
    running_.push_back(i);
  }

  void finish_task(NodeId i) {
    done_[i] = 1;
    mem_ -= tree_.exec_size(i);
    for (NodeId c : tree_.children(i)) mem_ -= tree_.output_size(c);
    running_.erase(std::find(running_.begin(), running_.end(), i));
  }

  bool admissible(NodeId cand) const {
    const MemSize rise = tree_.exec_size(cand) + tree_.output_size(cand);
    if (mem_ + rise > cap_) return false;
    MemSize m = mem_ + rise;
    auto complete = [&](NodeId r) {
      m -= tree_.exec_size(r);
      for (NodeId c : tree_.children(r)) m -= tree_.output_size(c);
    };
    for (NodeId r : running_) complete(r);
    complete(cand);
    for (std::size_t k = sigma_next_; k < sigma_.size(); ++k) {
      const NodeId v = sigma_[k];
      if (started_[v] || v == cand) continue;
      const MemSize need = m + tree_.exec_size(v) + tree_.output_size(v);
      if (need > cap_) return false;
      m = need - tree_.exec_size(v);
      for (NodeId c : tree_.children(v)) m -= tree_.output_size(c);
    }
    return true;
  }

  const Tree& tree_;
  int p_;
  MemSize cap_;
  MemoryBoundedOptions opts_;
  std::vector<NodeId> sigma_;
  std::size_t sigma_next_ = 0;
  std::vector<char> started_, done_;
  std::vector<NodeId> running_;
  MemSize mem_ = 0;
};

std::optional<Schedule> reference_schedule(const Tree& t, int p, MemSize cap,
                                           int audit_window) {
  MemoryBoundedOptions opts;
  opts.audit_window = audit_window;
  return ReferenceScheduler(t, p, cap, opts).run();
}

// Asserts the library and the oracle agree bit for bit on one run.
void expect_matches_reference(const Tree& t, int p, MemSize cap,
                              int audit_window, const std::string& what) {
  SCOPED_TRACE(what + " p=" + std::to_string(p) + " cap=" +
               std::to_string(cap) + " window=" + std::to_string(audit_window));
  MemoryBoundedOptions opts;
  opts.audit_window = audit_window;
  const auto got = memory_bounded_schedule(t, p, cap, opts);
  const auto want = reference_schedule(t, p, cap, audit_window);
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!got) return;
  ASSERT_EQ(got->schedule.start.size(), want->start.size());
  for (std::size_t i = 0; i < want->start.size(); ++i) {
    // Bitwise: identical decisions give identical event arithmetic.
    ASSERT_EQ(got->schedule.start[i], want->start[i]) << "node " << i;
    ASSERT_EQ(got->schedule.proc[i], want->proc[i]) << "node " << i;
  }
}

// Every run of the matrix: caps around the feasibility floor (0.9 is
// infeasible and must be refused by both), the largest u64 cap, every p
// and every audit window.
void check_matrix(const Tree& t, const std::string& what) {
  const MemSize floor_cap = min_feasible_cap(t);
  std::vector<MemSize> caps;
  for (double f : {0.9, 1.0, 1.2, 2.0, 4.0}) {
    caps.push_back(static_cast<MemSize>(static_cast<double>(floor_cap) * f));
  }
  caps.push_back(kMaxCap);
  for (MemSize cap : caps) {
    for (int p : {1, 2, 8, 32}) {
      for (int window : {1, 16, 1 << 30}) {
        expect_matches_reference(t, p, cap, window, what);
      }
    }
  }
}

TEST(MemoryBoundedOracle, RandomTreesMatchReference) {
  Rng rng(1301);
  for (int trial = 0; trial < 12; ++trial) {
    RandomTreeParams params;
    params.n = 2 + static_cast<NodeId>(rng.uniform(250));
    params.max_output = 1 + rng.uniform(100);
    params.max_exec = rng.uniform(30);
    params.min_work = 1.0;
    params.max_work = 1.0 + static_cast<double>(rng.uniform(50));
    params.depth_bias = rng.uniform01() * 2;
    check_matrix(random_tree(params, rng), "random#" + std::to_string(trial));
  }
}

TEST(MemoryBoundedOracle, PebbleTreesMatchReference) {
  Rng rng(1303);
  for (int trial = 0; trial < 12; ++trial) {
    const auto n = 2 + static_cast<NodeId>(rng.uniform(250));
    check_matrix(random_pebble_tree(n, rng, rng.uniform01() * 2),
                 "pebble#" + std::to_string(trial));
  }
}

TEST(MemoryBoundedOracle, AssemblyTreesMatchReference) {
  Rng rng(1307);
  for (int trial = 0; trial < 8; ++trial) {
    const auto n = 16 + static_cast<NodeId>(rng.uniform(400));
    check_matrix(synthetic_assembly_tree(n, 2.0, rng),
                 "assembly#" + std::to_string(trial));
  }
}

TEST(MemoryBoundedOracle, ServiceSpecsMatchReference) {
  for (const char* spec : {"synthetic:4000:9", "grid:40:4"}) {
    const Tree t = tree_from_spec(spec);
    const MemSize cap = 2 * min_feasible_cap(t);
    for (int p : {1, 2, 8, 32}) {
      for (int window : {1, 16, 1 << 30}) {
        expect_matches_reference(t, p, cap, window, spec);
      }
    }
  }
}

TEST(MemoryBounded, MaxU64CapMatchesDeepestFirst) {
  // Any u64 cap is legal client input. The largest must not be mistaken
  // for a negative bound: it is unbounded list scheduling, so the schedule
  // is ParDeepestFirst's.
  Rng rng(1311);
  for (int trial = 0; trial < 10; ++trial) {
    const Tree t = synthetic_assembly_tree(
        50 + static_cast<NodeId>(rng.uniform(500)), 2.0, rng);
    for (int p : {1, 4, 16}) {
      auto r = memory_bounded_schedule(t, p, kMaxCap);
      ASSERT_TRUE(r.has_value());
      EXPECT_EQ(r->cap, kMaxCap);
      const Schedule want = par_deepest_first(t, p);
      EXPECT_EQ(r->schedule.start, want.start);
      EXPECT_DOUBLE_EQ(simulate(t, r->schedule).makespan,
                       simulate(t, want).makespan);
    }
  }
}

TEST(MemoryBounded, InfeasibleCapIsRejected) {
  Tree t = fork_tree(3);  // postorder peak = 4
  EXPECT_EQ(min_feasible_cap(t), 4u);
  EXPECT_FALSE(memory_bounded_schedule(t, 2, 3).has_value());
  EXPECT_TRUE(memory_bounded_schedule(t, 2, 4).has_value());
}

TEST(MemoryBounded, NeverExceedsCap) {
  Rng rng(401);
  for (int trial = 0; trial < 40; ++trial) {
    RandomTreeParams params;
    params.n = 2 + (NodeId)rng.uniform(120);
    params.max_output = 7;
    params.max_exec = 4;
    params.min_work = 1.0;
    params.max_work = 5.0;
    params.depth_bias = rng.uniform01() * 2;
    Tree t = random_tree(params, rng);
    const MemSize floor_cap = min_feasible_cap(t);
    for (double factor : {1.0, 1.5, 3.0}) {
      const auto cap =
          static_cast<MemSize>((double)floor_cap * factor) + 1;
      auto r = memory_bounded_schedule(t, 4, cap);
      ASSERT_TRUE(r.has_value());
      ASSERT_TRUE(validate_schedule(t, r->schedule, 4).ok);
      EXPECT_LE(simulate(t, r->schedule).peak_memory, cap);
    }
  }
}

TEST(MemoryBounded, TightCapDegeneratesTowardSequential) {
  Rng rng(409);
  RandomTreeParams params;
  params.n = 60;
  params.max_output = 5;
  params.max_exec = 2;
  Tree t = random_tree(params, rng);
  const MemSize cap = min_feasible_cap(t);
  auto r = memory_bounded_schedule(t, 8, cap);
  ASSERT_TRUE(r.has_value());
  EXPECT_LE(simulate(t, r->schedule).peak_memory, cap);
}

TEST(MemoryBounded, LooseCapMatchesUnboundedListSchedule) {
  Rng rng(419);
  for (int trial = 0; trial < 20; ++trial) {
    RandomTreeParams params;
    params.n = 2 + (NodeId)rng.uniform(100);
    params.max_output = 5;
    params.max_exec = 2;
    params.min_work = 1.0;
    params.max_work = 4.0;
    Tree t = random_tree(params, rng);
    auto r = memory_bounded_schedule(t, 4, kHuge);
    ASSERT_TRUE(r.has_value());
    // Same priority (deepest-first over optimal postorder) unbounded:
    Schedule unbounded = par_deepest_first(t, 4);
    EXPECT_DOUBLE_EQ(simulate(t, r->schedule).makespan,
                     simulate(t, unbounded).makespan);
  }
}

TEST(MemoryBounded, MakespanImprovesWithCap) {
  // The trade-off curve must be monotone (weakly) in the cap.
  Rng rng(421);
  RandomTreeParams params;
  params.n = 150;
  params.max_output = 6;
  params.max_exec = 3;
  params.min_work = 1.0;
  params.max_work = 6.0;
  Tree t = random_tree(params, rng);
  const auto floor_cap = (double)min_feasible_cap(t);
  double prev = 1e300;
  int monotone_violations = 0;
  for (double f : {1.0, 1.3, 2.0, 4.0, 16.0}) {
    auto r = memory_bounded_schedule(t, 8, (MemSize)(floor_cap * f) + 1);
    ASSERT_TRUE(r.has_value());
    const double ms = simulate(t, r->schedule).makespan;
    if (ms > prev + 1e-9) ++monotone_violations;
    prev = ms;
  }
  // The admission heuristic is greedy, so allow one local wobble but not a
  // systematically inverted curve.
  EXPECT_LE(monotone_violations, 1);
}

TEST(MemoryBounded, AdversaryTreeIsTamed) {
  // On the Figure-4 adversary, ParInnerFirst blows memory up; the bounded
  // scheduler with cap = 2 * M_seq must stay within it and still finish.
  const int p = 4;
  Tree t = innerfirst_adversary_tree(10, p);
  const MemSize mseq = min_feasible_cap(t);
  auto r = memory_bounded_schedule(t, p, 2 * mseq);
  ASSERT_TRUE(r.has_value());
  ASSERT_TRUE(validate_schedule(t, r->schedule, p).ok);
  EXPECT_LE(simulate(t, r->schedule).peak_memory, 2 * mseq);
}

TEST(MemoryBounded, WorksWithCustomPriority) {
  Rng rng(431);
  Tree t = random_pebble_tree(80, rng, 1.0);
  MemoryBoundedOptions opts;
  opts.priority.assign((std::size_t)t.size(), PriorityKey{});
  for (NodeId i = 0; i < t.size(); ++i) {
    opts.priority[i].k1 = (double)i;  // FIFO by id
  }
  auto r = memory_bounded_schedule(t, 4, kHuge, opts);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(validate_schedule(t, r->schedule, 4).ok);
}

TEST(MemoryBounded, SmallAuditWindowStillCorrect) {
  Rng rng(433);
  Tree t = random_pebble_tree(100, rng, 2.0);
  MemoryBoundedOptions opts;
  opts.audit_window = 1;
  const MemSize cap = 2 * min_feasible_cap(t);
  auto r = memory_bounded_schedule(t, 4, cap, opts);
  ASSERT_TRUE(r.has_value());
  ASSERT_TRUE(validate_schedule(t, r->schedule, 4).ok);
  EXPECT_LE(simulate(t, r->schedule).peak_memory, cap);
}

TEST(MemoryBounded, PebbleGameRespectsExactCap) {
  // Unit-weight chain pairs: sequential needs 2... use fork: cap exactly
  // the root requirement.
  Tree t = fork_tree(5);
  const MemSize cap = 6;  // root: 5 inputs + 1 output
  auto r = memory_bounded_schedule(t, 5, cap);
  ASSERT_TRUE(r.has_value());
  const auto sim = simulate(t, r->schedule);
  EXPECT_LE(sim.peak_memory, cap);
  // All 5 leaves fit at once (5 <= 6), so the makespan is 2.
  EXPECT_DOUBLE_EQ(sim.makespan, 2.0);
}

}  // namespace
}  // namespace treesched
