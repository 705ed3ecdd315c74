#include "parallel/capped_subtrees.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/simulator.hpp"

namespace treesched {

CappedSubtreesPlan::CappedSubtreesPlan(const Tree& tree, int p,
                                       SequentialAlgo seq)
    : tree_(tree),
      p_(p),
      split_(split_subtrees(tree, p)),
      order_(sequential_order(tree, seq, &traversal_peak_)),
      slices_(slice_by_subtree(tree, order_, split_.subtree_roots)) {
  const auto W = tree.subtree_work();
  subs_.reserve(split_.subtree_roots.size());
  for (std::size_t k = 0; k < split_.subtree_roots.size(); ++k) {
    const NodeId r = split_.subtree_roots[k];
    subs_.push_back({r, W[r], subtree_peak_memory(tree, slices_[k]),
                     tree.output_size(r), k});
  }
  std::sort(subs_.begin(), subs_.end(),
            [](const Subtree& a, const Subtree& b) {
              if (a.total_work != b.total_work) {
                return a.total_work > b.total_work;
              }
              return a.root < b.root;
            });
}

void CappedSubtreesPlan::layout_tail(double t0, Schedule& schedule) const {
  std::vector<char> in_tail(static_cast<std::size_t>(tree_.size()), 0);
  for (NodeId v : split_.seq_nodes) in_tail[v] = 1;
  double t = t0;
  for (NodeId v : order_) {
    if (!in_tail[v]) continue;
    schedule.start[v] = t;
    schedule.proc[v] = 0;
    t += tree_.work(v);
  }
}

std::optional<CappedSubtreesResult> CappedSubtreesPlan::schedule(
    MemSize cap) const {
  const NodeId n = tree_.size();
  CappedSubtreesResult res;
  res.cap = cap;
  res.schedule = Schedule(n);
  if (n == 0) return res;

  struct Running {
    double finish;
    int proc;
    std::size_t idx;
  };
  std::vector<Running> running;
  // Processors are taken lowest first and freed ones reused first, so no
  // more than |subs_| of them are ever busy.
  const auto procs = static_cast<int>(
      std::min(static_cast<std::size_t>(p_), subs_.size()));
  std::vector<int> idle;
  for (int q = procs - 1; q >= 0; --q) idle.push_back(q);
  MemSize committed = 0;  // running peaks + finished outputs
  double now = 0.0;
  std::size_t done = 0;
  std::size_t next = 0;  // subtrees start strictly in weight order

  // Strict in-order admission keeps {done + running} a weight-order
  // prefix, which makes capped_subtrees_min_cap a true feasibility floor:
  // whenever the machine drains, committed is exactly the prefix's output
  // sum, and the floor guarantees the next subtree fits.
  auto try_start = [&]() {
    while (next < subs_.size() && !idle.empty() &&
           committed + subs_[next].peak <= cap) {
      const std::size_t i = next++;
      const int proc = idle.back();
      idle.pop_back();
      double t = now;
      for (NodeId v : slices_[subs_[i].slice]) {
        res.schedule.start[v] = t;
        res.schedule.proc[v] = proc;
        t += tree_.work(v);
      }
      committed += subs_[i].peak;
      running.push_back({t, proc, i});
      res.max_parallelism =
          std::max(res.max_parallelism, static_cast<int>(running.size()));
    }
  };

  try_start();
  while (done < subs_.size()) {
    if (running.empty()) return std::nullopt;  // nothing fits: infeasible
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
    committed -= subs_[fin.idx].peak;
    committed += subs_[fin.idx].output;
    ++done;
    try_start();
  }

  layout_tail(now, res.schedule);

  // Exact audit: the reservation invariant covers the parallel phase, the
  // simulation additionally covers the tail (whose base holds every
  // subtree output).
  if (simulate(tree_, res.schedule).peak_memory > cap) return std::nullopt;
  return res;
}

MemSize CappedSubtreesPlan::min_cap() const {
  if (tree_.empty()) return 0;
  // Reservation floor of the fully serialized run (subtrees one at a time
  // in weight order): the scheduler charges a running subtree its full
  // peak, on top of the outputs of the subtrees already finished.
  MemSize floor = 0;
  MemSize done_outputs = 0;
  for (const Subtree& sub : subs_) {
    floor = std::max(floor, done_outputs + sub.peak);
    done_outputs += sub.output;
  }
  // Tail floor: exact peak of the serialized layout.
  Schedule serial(tree_.size());
  double t = 0.0;
  for (const Subtree& sub : subs_) {
    for (NodeId v : slices_[sub.slice]) {
      serial.start[v] = t;
      serial.proc[v] = 0;
      t += tree_.work(v);
    }
  }
  layout_tail(t, serial);
  return std::max(floor, simulate(tree_, serial).peak_memory);
}

std::optional<CappedSubtreesResult> capped_subtrees_schedule(
    const Tree& tree, int p, MemSize cap, SequentialAlgo seq) {
  if (p < 1) throw std::invalid_argument("capped_subtrees_schedule: p < 1");
  return CappedSubtreesPlan(tree, p, seq).schedule(cap);
}

MemSize capped_subtrees_min_cap(const Tree& tree, int p, SequentialAlgo seq) {
  if (tree.empty()) return 0;
  return CappedSubtreesPlan(tree, p, seq).min_cap();
}

}  // namespace treesched
