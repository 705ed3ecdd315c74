// Reference oracle for the subtree schedulers and the simulator.
//
// The library computes SplitSubtrees with a sorted top-p vector plus a heap
// and no replay, lays out every subtree from one sliced whole-tree
// traversal, builds one CappedSubtrees plan per request, and sorts
// precomputed (time, id) keys in simulate(). This file keeps the direct
// versions as the reference: a std::multiset split replayed to the chosen
// rank, a Tree::subtree() copy plus a fresh traversal per subtree, a
// CappedSubtrees that plans separately for its floor and its schedule, and
// a simulate() sorting node ids with comparators that recompute finish
// times. Both must agree bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/dataset.hpp"
#include "core/simulator.hpp"
#include "parallel/capped_subtrees.hpp"
#include "parallel/par_subtrees.hpp"
#include "sched/registry.hpp"
#include "sequential/liu.hpp"
#include "sequential/postorder.hpp"
#include "trees/generators.hpp"
#include "util/random.hpp"

namespace treesched {
namespace {

namespace ref {

struct PqEntry {
  double W;
  double w;
  NodeId node;

  friend bool operator<(const PqEntry& a, const PqEntry& b) {
    if (a.W != b.W) return a.W > b.W;
    if (a.w != b.w) return a.w > b.w;
    return a.node < b.node;
  }
};

struct SplitState {
  std::multiset<PqEntry> pq;
  std::vector<NodeId> seq_nodes;
};

SplitState split_to_rank(const Tree& tree, const std::vector<double>& W,
                         int steps) {
  SplitState st;
  st.pq.insert({W[tree.root()], tree.work(tree.root()), tree.root()});
  for (int s = 0; s < steps; ++s) {
    const PqEntry head = *st.pq.begin();
    st.pq.erase(st.pq.begin());
    st.seq_nodes.push_back(head.node);
    for (NodeId c : tree.children(head.node)) {
      st.pq.insert({W[c], tree.work(c), c});
    }
  }
  return st;
}

SplitResult split(const Tree& tree, int p) {
  if (tree.empty()) return {};
  const std::vector<double> W = tree.subtree_work();
  std::multiset<PqEntry> pq;
  pq.insert({W[tree.root()], tree.work(tree.root()), tree.root()});
  double pq_total = W[tree.root()];
  double seq_work = 0.0;
  auto cost_now = [&]() {
    double top_p = 0.0;
    int k = 0;
    double head_w = 0.0;
    for (auto it = pq.begin(); it != pq.end() && k < p; ++it, ++k) {
      top_p += it->W;
      if (k == 0) head_w = it->W;
    }
    return head_w + seq_work + (pq_total - top_p);
  };
  int best_rank = 0;
  double best_cost = cost_now();
  int rank = 0;
  while (true) {
    const PqEntry head = *pq.begin();
    if (!(head.W > tree.work(head.node))) break;
    pq.erase(pq.begin());
    pq_total -= head.W;
    seq_work += tree.work(head.node);
    for (NodeId c : tree.children(head.node)) {
      pq.insert({W[c], tree.work(c), c});
      pq_total += W[c];
    }
    ++rank;
    const double c = cost_now();
    if (c < best_cost) {
      best_cost = c;
      best_rank = rank;
    }
  }
  SplitState st = split_to_rank(tree, W, best_rank);
  SplitResult res;
  res.seq_nodes = std::move(st.seq_nodes);
  for (const PqEntry& e : st.pq) res.subtree_roots.push_back(e.node);
  res.predicted_makespan = best_cost;
  return res;
}

std::vector<NodeId> tree_order(const Tree& tree, SequentialAlgo seq,
                               MemSize* peak) {
  switch (seq) {
    case SequentialAlgo::kOptimalPostorder: {
      auto res = postorder(tree, PostorderPolicy::kOptimal);
      *peak = res.peak;
      return std::move(res.order);
    }
    case SequentialAlgo::kLiuExact: {
      auto res = liu_optimal_traversal(tree);
      *peak = res.peak;
      return std::move(res.order);
    }
    case SequentialAlgo::kNaturalPostorder: {
      auto res = postorder(tree, PostorderPolicy::kNatural);
      *peak = res.peak;
      return std::move(res.order);
    }
  }
  throw std::logic_error("unknown SequentialAlgo");
}

std::vector<NodeId> tree_order(const Tree& tree, SequentialAlgo seq) {
  MemSize unused = 0;
  return tree_order(tree, seq, &unused);
}

Schedule par_subtrees_direct(const Tree& tree, int p,
                             ParSubtreesOptions opts) {
  const NodeId n = tree.size();
  Schedule s(n);
  if (n == 0) return s;
  const SplitResult cut = split(tree, p);
  const std::vector<double> W = tree.subtree_work();
  std::vector<NodeId> parallel_roots, surplus_roots;
  std::vector<int> root_proc;
  std::vector<double> proc_ready(static_cast<std::size_t>(p), 0.0);
  if (!opts.optimized_packing) {
    for (std::size_t k = 0; k < cut.subtree_roots.size(); ++k) {
      if (static_cast<int>(k) < p) {
        parallel_roots.push_back(cut.subtree_roots[k]);
        root_proc.push_back(static_cast<int>(k));
      } else {
        surplus_roots.push_back(cut.subtree_roots[k]);
      }
    }
  } else {
    for (NodeId r : cut.subtree_roots) {
      int best = 0;
      for (int q = 1; q < p; ++q) {
        if (proc_ready[q] < proc_ready[best]) best = q;
      }
      parallel_roots.push_back(r);
      root_proc.push_back(best);
      proc_ready[best] += W[r];
    }
  }
  std::fill(proc_ready.begin(), proc_ready.end(), 0.0);
  for (std::size_t k = 0; k < parallel_roots.size(); ++k) {
    const int q = root_proc[k];
    std::vector<NodeId> old_ids;
    const Tree sub = tree.subtree(parallel_roots[k], &old_ids);
    double t = proc_ready[q];
    for (NodeId local : tree_order(sub, opts.sequential)) {
      const NodeId global = old_ids[local];
      s.start[global] = t;
      s.proc[global] = q;
      t += tree.work(global);
    }
    proc_ready[q] = t;
  }
  double t_par = 0.0;
  for (double t : proc_ready) t_par = std::max(t_par, t);
  std::vector<char> in_tail(static_cast<std::size_t>(n), 0);
  for (NodeId r : surplus_roots) {
    std::vector<NodeId> stack{r};
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      in_tail[v] = 1;
      for (NodeId c : tree.children(v)) stack.push_back(c);
    }
  }
  for (NodeId v : cut.seq_nodes) in_tail[v] = 1;
  double t = t_par;
  for (NodeId v : tree_order(tree, opts.sequential)) {
    if (!in_tail[v]) continue;
    s.start[v] = t;
    s.proc[v] = 0;
    t += tree.work(v);
  }
  return s;
}

// simulate() sorting node ids by comparators that recompute finish times.
// A task whose finish lies within the tolerance of its own start (zero
// work) is applied right after its start, and such tasks lead equal-time
// starts, deeper first; on trees without them both rules are inert.
SimulationResult replay(const Tree& tree, const Schedule& s,
                        const SimulationOptions& opts = {}) {
  const NodeId n = tree.size();
  SimulationResult res;
  if (n == 0) return res;
  const double eps = 1e-9;
  auto instant = [&](NodeId i) {
    return s.finish(tree, i) <= s.start[i] + eps * std::max(1.0, s.start[i]);
  };
  const std::vector<NodeId> depth = tree.depths();
  bool any_instant = false;
  for (NodeId i = 0; i < n; ++i) any_instant = any_instant || instant(i);
  std::vector<NodeId> by_start(static_cast<std::size_t>(n)), by_finish;
  std::iota(by_start.begin(), by_start.end(), 0);
  for (NodeId i = 0; i < n; ++i) {
    if (!instant(i)) by_finish.push_back(i);
  }
  std::sort(by_start.begin(), by_start.end(), [&](NodeId a, NodeId b) {
    if (s.start[a] != s.start[b]) return s.start[a] < s.start[b];
    if (any_instant) {
      if (instant(a) != instant(b)) return instant(a);
      if (instant(a) && depth[a] != depth[b]) return depth[a] > depth[b];
    }
    return a < b;
  });
  std::sort(by_finish.begin(), by_finish.end(), [&](NodeId a, NodeId b) {
    const double fa = s.finish(tree, a), fb = s.finish(tree, b);
    if (fa != fb) return fa < fb;
    return a < b;
  });
  std::vector<char> done(static_cast<std::size_t>(n), 0);
  MemSize mem = 0;
  MemSize peak = 0;
  std::size_t fi = 0;
  auto record = [&](double t) {
    if (opts.record_profile) {
      if (!res.profile.empty() && res.profile.back().time == t) {
        res.profile.back().mem = mem;
      } else {
        res.profile.push_back({t, mem});
      }
    }
  };
  auto finish_task = [&](NodeId f) {
    mem -= tree.exec_size(f);
    for (NodeId c : tree.children(f)) mem -= tree.output_size(c);
    done[f] = 1;
  };
  for (NodeId idx : by_start) {
    const double t = s.start[idx];
    const double tol = eps * std::max(1.0, t);
    while (fi < by_finish.size() &&
           s.finish(tree, by_finish[fi]) <= t + tol) {
      const NodeId f = by_finish[fi++];
      finish_task(f);
      record(s.finish(tree, f));
    }
    for (NodeId c : tree.children(idx)) {
      if (!done[c]) {
        std::ostringstream os;
        os << "simulate: task " << idx << " starts at " << t
           << " but child " << c << " has not finished";
        throw std::invalid_argument(os.str());
      }
    }
    mem += tree.exec_size(idx) + tree.output_size(idx);
    peak = std::max(peak, mem);
    record(t);
    if (instant(idx)) {
      finish_task(idx);
      record(t);
    }
  }
  while (fi < by_finish.size()) {
    const NodeId f = by_finish[fi++];
    finish_task(f);
    record(s.finish(tree, f));
  }
  res.makespan = s.makespan(tree);
  res.peak_memory = peak;
  res.final_memory = mem;
  return res;
}

struct SubtreeInfo {
  NodeId root;
  double total_work;
  MemSize peak;
  MemSize output;
  std::vector<NodeId> order;
};

struct Plan {
  SplitResult split;
  std::vector<SubtreeInfo> subs;
  std::vector<NodeId> full_order;
};

Plan make_plan(const Tree& tree, int p, SequentialAlgo seq) {
  Plan plan;
  plan.split = split(tree, p);
  const auto W = tree.subtree_work();
  for (NodeId r : plan.split.subtree_roots) {
    SubtreeInfo info;
    info.root = r;
    info.total_work = W[r];
    info.output = tree.output_size(r);
    std::vector<NodeId> old_ids;
    const Tree sub = tree.subtree(r, &old_ids);
    MemSize pk = 0;
    const auto local = tree_order(sub, seq, &pk);
    info.peak = pk;
    for (NodeId v : local) info.order.push_back(old_ids[v]);
    plan.subs.push_back(std::move(info));
  }
  std::sort(plan.subs.begin(), plan.subs.end(),
            [](const SubtreeInfo& a, const SubtreeInfo& b) {
              if (a.total_work != b.total_work) {
                return a.total_work > b.total_work;
              }
              return a.root < b.root;
            });
  plan.full_order = tree_order(tree, seq);
  return plan;
}

void layout_tail(const Tree& tree, const Plan& plan, double t0,
                 Schedule& schedule) {
  std::vector<char> in_tail(static_cast<std::size_t>(tree.size()), 0);
  for (NodeId v : plan.split.seq_nodes) in_tail[v] = 1;
  double t = t0;
  for (NodeId v : plan.full_order) {
    if (!in_tail[v]) continue;
    schedule.start[v] = t;
    schedule.proc[v] = 0;
    t += tree.work(v);
  }
}

std::optional<CappedSubtreesResult> capped_schedule(
    const Tree& tree, int p, MemSize cap, SequentialAlgo seq) {
  const NodeId n = tree.size();
  CappedSubtreesResult res;
  res.cap = cap;
  res.schedule = Schedule(n);
  if (n == 0) return res;
  const Plan plan = make_plan(tree, p, seq);
  const auto& subs = plan.subs;
  struct Running {
    double finish;
    int proc;
    std::size_t idx;
  };
  std::vector<Running> running;
  std::vector<int> idle;
  for (int q = p - 1; q >= 0; --q) idle.push_back(q);
  MemSize committed = 0;
  double now = 0.0;
  std::size_t done = 0;
  std::size_t next = 0;
  auto try_start = [&]() {
    while (next < subs.size() && !idle.empty() &&
           committed + subs[next].peak <= cap) {
      const std::size_t i = next++;
      const int proc = idle.back();
      idle.pop_back();
      double t = now;
      for (NodeId v : subs[i].order) {
        res.schedule.start[v] = t;
        res.schedule.proc[v] = proc;
        t += tree.work(v);
      }
      committed += subs[i].peak;
      running.push_back({t, proc, i});
      res.max_parallelism =
          std::max(res.max_parallelism, static_cast<int>(running.size()));
    }
  };
  try_start();
  while (done < subs.size()) {
    if (running.empty()) return std::nullopt;
    auto it = std::min_element(running.begin(), running.end(),
                               [](const Running& a, const Running& b) {
                                 if (a.finish != b.finish) {
                                   return a.finish < b.finish;
                                 }
                                 return a.idx < b.idx;
                               });
    const Running fin = *it;
    running.erase(it);
    now = std::max(now, fin.finish);
    idle.push_back(fin.proc);
    committed -= subs[fin.idx].peak;
    committed += subs[fin.idx].output;
    ++done;
    try_start();
  }
  layout_tail(tree, plan, now, res.schedule);
  if (replay(tree, res.schedule).peak_memory > cap) return std::nullopt;
  return res;
}

MemSize capped_min_cap(const Tree& tree, int p, SequentialAlgo seq) {
  if (tree.empty()) return 0;
  const Plan plan = make_plan(tree, p, seq);
  MemSize floor = 0;
  MemSize done_outputs = 0;
  for (const SubtreeInfo& sub : plan.subs) {
    floor = std::max(floor, done_outputs + sub.peak);
    done_outputs += sub.output;
  }
  Schedule serial(tree.size());
  double t = 0.0;
  for (const SubtreeInfo& sub : plan.subs) {
    for (NodeId v : sub.order) {
      serial.start[v] = t;
      serial.proc[v] = 0;
      t += tree.work(v);
    }
  }
  layout_tail(tree, plan, t, serial);
  return std::max(floor, replay(tree, serial).peak_memory);
}

// The registry's CappedSubtrees at its default cap: one plan for the
// floor, a second optimal postorder for the default factor, and a third
// plan for the schedule. nullopt where the registry refuses the cap.
std::optional<Schedule> capped_default(const Tree& tree, int p) {
  const MemSize floor =
      capped_min_cap(tree, p, SequentialAlgo::kOptimalPostorder);
  const auto factor_cap = static_cast<MemSize>(std::ceil(
      2.0 * static_cast<double>(best_postorder_memory(tree))));
  const MemSize cap = std::max(floor, factor_cap);
  auto r = capped_schedule(tree, p, cap, SequentialAlgo::kOptimalPostorder);
  if (!r) return std::nullopt;
  return std::move(r->schedule);
}

}  // namespace ref

constexpr SequentialAlgo kAllSeq[] = {SequentialAlgo::kOptimalPostorder,
                                      SequentialAlgo::kLiuExact,
                                      SequentialAlgo::kNaturalPostorder};

std::string seq_name(SequentialAlgo seq) {
  switch (seq) {
    case SequentialAlgo::kOptimalPostorder:
      return "postorder";
    case SequentialAlgo::kLiuExact:
      return "liu";
    case SequentialAlgo::kNaturalPostorder:
      return "natural";
  }
  return "?";
}

void expect_same_schedule(const Schedule& got, const Schedule& want) {
  ASSERT_EQ(got.size(), want.size());
  for (NodeId i = 0; i < want.size(); ++i) {
    // Bitwise: identical decisions give identical time arithmetic.
    ASSERT_EQ(got.start[i], want.start[i]) << "node " << i;
    ASSERT_EQ(got.proc[i], want.proc[i]) << "node " << i;
  }
}

void expect_same_simulation(const Tree& t, const Schedule& s) {
  SimulationOptions opts;
  opts.record_profile = true;
  const SimulationResult got = simulate(t, s, opts);
  const SimulationResult want = ref::replay(t, s, opts);
  ASSERT_EQ(got.makespan, want.makespan);
  ASSERT_EQ(got.peak_memory, want.peak_memory);
  ASSERT_EQ(got.final_memory, want.final_memory);
  ASSERT_EQ(got.profile.size(), want.profile.size());
  for (std::size_t k = 0; k < want.profile.size(); ++k) {
    ASSERT_EQ(got.profile[k].time, want.profile[k].time) << "event " << k;
    ASSERT_EQ(got.profile[k].mem, want.profile[k].mem) << "event " << k;
  }
}

void check_split(const Tree& t, int p) {
  const SplitResult got = split_subtrees(t, p);
  const SplitResult want = ref::split(t, p);
  ASSERT_EQ(got.subtree_roots, want.subtree_roots);
  ASSERT_EQ(got.seq_nodes, want.seq_nodes);
  ASSERT_EQ(got.predicted_makespan, want.predicted_makespan);
}

void check_par_subtrees(const Tree& t, int p, SequentialAlgo seq) {
  for (bool optimized : {false, true}) {
    SCOPED_TRACE(optimized ? "ParSubtreesOptim" : "ParSubtrees");
    ParSubtreesOptions opts;
    opts.sequential = seq;
    opts.optimized_packing = optimized;
    const Schedule got = par_subtrees(t, p, opts);
    expect_same_schedule(got, ref::par_subtrees_direct(t, p, opts));
    expect_same_simulation(t, got);
  }
}

void check_capped(const Tree& t, int p, SequentialAlgo seq) {
  const MemSize floor_cap = capped_subtrees_min_cap(t, p, seq);
  ASSERT_EQ(floor_cap, ref::capped_min_cap(t, p, seq));
  for (double f : {0.9, 1.0, 1.3, 2.0, 10.0}) {
    SCOPED_TRACE("cap factor " + std::to_string(f));
    const auto cap =
        static_cast<MemSize>(static_cast<double>(floor_cap) * f);
    const auto got = capped_subtrees_schedule(t, p, cap, seq);
    const auto want = ref::capped_schedule(t, p, cap, seq);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (!got) continue;
    ASSERT_EQ(got->cap, want->cap);
    ASSERT_EQ(got->max_parallelism, want->max_parallelism);
    expect_same_schedule(got->schedule, want->schedule);
    expect_same_simulation(t, got->schedule);
  }
}

// Every comparison for one tree at one p.
void check_tree_at(const Tree& t, int p, const std::string& what) {
  SCOPED_TRACE(what + " n=" + std::to_string(t.size()) +
               " p=" + std::to_string(p));
  check_split(t, p);
  for (SequentialAlgo seq : kAllSeq) {
    SCOPED_TRACE(seq_name(seq));
    check_par_subtrees(t, p, seq);
    check_capped(t, p, seq);
  }
  // The registry's CappedSubtrees at its default cap, refusal included.
  const SchedulerPtr capped =
      SchedulerRegistry::instance().create("CappedSubtrees");
  const std::optional<Schedule> want = ref::capped_default(t, p);
  std::optional<Schedule> got;
  try {
    got = capped->schedule(t, Resources{p, 0});
  } catch (const std::invalid_argument&) {
  }
  ASSERT_EQ(got.has_value(), want.has_value());
  if (got) {
    expect_same_schedule(*got, *want);
    expect_same_simulation(t, *got);
  }
  // Every other registry scheduler's output replays identically.
  for (const std::string& name : default_campaign_algorithms()) {
    if (name == "CappedSubtrees") continue;
    SCOPED_TRACE(name);
    const SchedulerPtr sched = SchedulerRegistry::instance().create(name);
    expect_same_simulation(t, sched->schedule(t, Resources{p, 0}));
  }
}

void check_tree(const Tree& t, const std::string& what) {
  for (int p : {1, 2, 3, 8, 32, 100}) check_tree_at(t, p, what);
}

// A copy of `t` in which roughly every `stride`-th task does no work.
Tree with_zero_work(const Tree& t, NodeId stride) {
  std::vector<NodeId> parent;
  std::vector<MemSize> out, exec;
  std::vector<double> work;
  for (NodeId i = 0; i < t.size(); ++i) {
    parent.push_back(t.parent(i));
    out.push_back(t.output_size(i));
    exec.push_back(t.exec_size(i));
    work.push_back(i % stride == 0 ? 0.0 : t.work(i));
  }
  return Tree(std::move(parent), std::move(out), std::move(exec),
              std::move(work));
}

RandomTreeParams weighted_params(Rng& rng, NodeId max_n) {
  RandomTreeParams params;
  params.n = 2 + static_cast<NodeId>(rng.uniform(max_n));
  params.max_output = 1 + rng.uniform(100);
  params.max_exec = rng.uniform(30);
  params.min_work = 1.0;
  params.max_work = 1.0 + static_cast<double>(rng.uniform(50));
  params.depth_bias = rng.uniform01() * 2;
  return params;
}

TEST(SubtreeOracle, RandomTreesMatchReference) {
  Rng rng(1401);
  for (int trial = 0; trial < 10; ++trial) {
    check_tree(random_tree(weighted_params(rng, 250), rng),
               "random#" + std::to_string(trial));
  }
}

TEST(SubtreeOracle, PebbleTreesMatchReference) {
  Rng rng(1403);
  for (int trial = 0; trial < 10; ++trial) {
    const auto n = 2 + static_cast<NodeId>(rng.uniform(250));
    check_tree(random_pebble_tree(n, rng, rng.uniform01() * 2),
               "pebble#" + std::to_string(trial));
  }
}

TEST(SubtreeOracle, AssemblyTreesMatchReference) {
  Rng rng(1405);
  for (int trial = 0; trial < 8; ++trial) {
    const auto n = 16 + static_cast<NodeId>(rng.uniform(400));
    check_tree(synthetic_assembly_tree(n, 2.0, rng),
               "assembly#" + std::to_string(trial));
  }
}

TEST(SubtreeOracle, ZeroWorkTreesMatchReference) {
  Rng rng(1407);
  for (int trial = 0; trial < 8; ++trial) {
    const Tree base = trial % 2 == 0
                          ? random_tree(weighted_params(rng, 200), rng)
                          : synthetic_assembly_tree(
                                16 + static_cast<NodeId>(rng.uniform(200)),
                                2.0, rng);
    check_tree(with_zero_work(base, 2 + trial % 3),
               "zero-work#" + std::to_string(trial));
  }
}

TEST(SubtreeOracle, HugeProcessorCountMatchesReference) {
  // p far beyond n: the reference sizes its per-processor state by p, the
  // library by what the split produced. Small trees keep the reference's
  // O(k p) packing cheap.
  Rng rng(1409);
  for (int trial = 0; trial < 4; ++trial) {
    const Tree t = trial % 2 == 0
                       ? random_tree(weighted_params(rng, 40), rng)
                       : synthetic_assembly_tree(
                             8 + static_cast<NodeId>(rng.uniform(40)), 2.0,
                             rng);
    check_tree_at(t, 1 << 20, "huge-p#" + std::to_string(trial));
  }
}

}  // namespace
}  // namespace treesched
