#include "parallel/par_subtrees.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>

#include "sequential/liu.hpp"
#include "sequential/postorder.hpp"

namespace treesched {

namespace {

// PQ entry: ordered by non-increasing W, ties by non-increasing w, then id
// for determinism (paper §5.1).
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

// Heap order putting the PQ head (the smallest PqEntry) on top.
bool heap_after(const PqEntry& a, const PqEntry& b) { return b < a; }

}  // namespace

std::vector<NodeId> sequential_order(const Tree& tree, SequentialAlgo algo,
                                     MemSize* peak) {
  MemSize unused = 0;
  MemSize& out = peak != nullptr ? *peak : unused;
  switch (algo) {
    case SequentialAlgo::kOptimalPostorder: {
      auto res = postorder(tree, PostorderPolicy::kOptimal);
      out = res.peak;
      return std::move(res.order);
    }
    case SequentialAlgo::kLiuExact: {
      auto res = liu_optimal_traversal(tree);
      out = res.peak;
      return std::move(res.order);
    }
    case SequentialAlgo::kNaturalPostorder: {
      auto res = postorder(tree, PostorderPolicy::kNatural);
      out = res.peak;
      return std::move(res.order);
    }
  }
  throw std::logic_error("unknown SequentialAlgo");
}

SubtreeSlices slice_by_subtree(const Tree& tree,
                               const std::vector<NodeId>& order,
                               const std::vector<NodeId>& roots) {
  // owner[v] = index in `roots` of the subtree holding v, or -1. Walking the
  // traversal backwards visits every parent before its children.
  std::vector<NodeId> owner(static_cast<std::size_t>(tree.size()), kNoNode);
  for (std::size_t k = 0; k < roots.size(); ++k) {
    owner[roots[k]] = static_cast<NodeId>(k);
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId v = *it;
    const NodeId up = tree.parent(v);
    if (owner[v] == kNoNode && up != kNoNode) owner[v] = owner[up];
  }
  SubtreeSlices slices;
  slices.offset.assign(roots.size() + 1, 0);
  for (NodeId v : order) {
    if (owner[v] != kNoNode) ++slices.offset[owner[v] + 1];
  }
  for (std::size_t k = 0; k < roots.size(); ++k) {
    slices.offset[k + 1] += slices.offset[k];
  }
  slices.nodes.resize(slices.offset.back());
  std::vector<std::size_t> cursor(slices.offset.begin(),
                                  slices.offset.end() - 1);
  for (NodeId v : order) {
    if (owner[v] != kNoNode) slices.nodes[cursor[owner[v]]++] = v;
  }
  return slices;
}

SplitResult split_subtrees(const Tree& tree, int p) {
  if (p < 1) throw std::invalid_argument("split_subtrees: p < 1");
  if (tree.empty()) return {};
  const std::vector<double> W = tree.subtree_work();
  auto entry = [&](NodeId v) { return PqEntry{W[v], tree.work(v), v}; };

  // The PQ of Algorithm 2, split in two: `top` holds its first
  // min(p, |PQ|) entries in order, `rest` the others as a heap. Every entry
  // of `top` precedes every entry of `rest`.
  const auto width = static_cast<std::size_t>(std::min(p, tree.size()));
  std::vector<PqEntry> top;
  top.reserve(width);
  std::vector<PqEntry> rest;
  auto push = [&](const PqEntry& e) {
    if (top.size() == width) {
      if (!(e < top.back())) {
        rest.push_back(e);
        std::push_heap(rest.begin(), rest.end(), heap_after);
        return;
      }
      rest.push_back(top.back());
      std::push_heap(rest.begin(), rest.end(), heap_after);
      top.pop_back();
    }
    top.insert(std::upper_bound(top.begin(), top.end(), e), e);
  };
  auto pop_head = [&]() {
    top.erase(top.begin());
    if (!rest.empty()) {
      std::pop_heap(rest.begin(), rest.end(), heap_after);
      top.push_back(rest.back());
      rest.pop_back();
    }
  };

  top.push_back(entry(tree.root()));
  double pq_total = W[tree.root()];
  double seq_work = 0.0;

  auto cost_now = [&]() {
    double top_p = 0.0;
    for (const PqEntry& e : top) top_p += e.W;
    // parallel time = heaviest subtree; sequential = split nodes + surplus
    return top.front().W + seq_work + (pq_total - top_p);
  };

  // The heads popped so far, in order: the split at rank k sequentializes
  // popped[0..k).
  std::vector<NodeId> popped;
  int best_rank = 0;
  double best_cost = cost_now();  // Cost(0) = W_root
  while (true) {
    const PqEntry head = top.front();
    if (!(head.W > tree.work(head.node))) break;  // head is a leaf
    pop_head();
    popped.push_back(head.node);
    pq_total -= head.W;
    seq_work += tree.work(head.node);
    for (NodeId c : tree.children(head.node)) {
      push(entry(c));
      pq_total += W[c];
    }
    const double c = cost_now();
    if (c < best_cost) {
      best_cost = c;
      best_rank = static_cast<int>(popped.size());
    }
  }

  // The PQ after best_rank pops: the root and every child of a popped head,
  // minus the popped heads themselves.
  SplitResult res;
  res.seq_nodes.assign(popped.begin(), popped.begin() + best_rank);
  std::vector<char> is_seq(static_cast<std::size_t>(tree.size()), 0);
  for (NodeId v : res.seq_nodes) is_seq[v] = 1;
  std::vector<PqEntry> roots;
  if (!is_seq[tree.root()]) roots.push_back(entry(tree.root()));
  for (NodeId v : res.seq_nodes) {
    for (NodeId c : tree.children(v)) {
      if (!is_seq[c]) roots.push_back(entry(c));
    }
  }
  std::sort(roots.begin(), roots.end());
  res.subtree_roots.reserve(roots.size());
  for (const PqEntry& e : roots) res.subtree_roots.push_back(e.node);
  res.predicted_makespan = best_cost;
  return res;
}

Schedule par_subtrees(const Tree& tree, int p, ParSubtreesOptions opts) {
  if (p < 1) throw std::invalid_argument("par_subtrees: p < 1");
  const NodeId n = tree.size();
  Schedule s(n);
  if (n == 0) return s;

  const SplitResult split = split_subtrees(tree, p);
  const std::vector<double> W = tree.subtree_work();
  // Sorted by non-increasing W (PQ order).
  const std::vector<NodeId>& roots = split.subtree_roots;

  // Which subtrees run in the parallel phase (a prefix of `roots`), and on
  // which processor. Algorithm 1: the p heaviest, one per processor; the
  // rest join the sequential tail. ParSubtreesOptim: all of them,
  // LPT-packed. Only the first |roots| processors can ever be used.
  const std::size_t procs =
      std::min(static_cast<std::size_t>(p), roots.size());
  const std::size_t parallel = opts.optimized_packing ? roots.size() : procs;
  std::vector<int> root_proc(parallel);
  std::vector<double> proc_ready(procs, 0.0);
  for (std::size_t k = 0; k < parallel; ++k) {
    auto q = static_cast<std::ptrdiff_t>(k);  // Algorithm 1: processor k
    if (opts.optimized_packing) {  // LPT: the first least-loaded processor
      q = std::min_element(proc_ready.begin(), proc_ready.end()) -
          proc_ready.begin();
      proc_ready[q] += W[roots[k]];
    }
    root_proc[k] = static_cast<int>(q);
  }

  // Lay out the parallel phase: each subtree runs its slice of the
  // whole-tree traversal, which is its own traversal under opts.sequential.
  const std::vector<NodeId> order = sequential_order(tree, opts.sequential);
  const SubtreeSlices slices = slice_by_subtree(tree, order, roots);
  std::fill(proc_ready.begin(), proc_ready.end(), 0.0);
  for (std::size_t k = 0; k < parallel; ++k) {
    const int q = root_proc[k];
    double t = proc_ready[q];
    for (NodeId v : slices[k]) {
      s.start[v] = t;
      s.proc[v] = q;
      t += tree.work(v);
    }
    proc_ready[q] = t;
  }
  double t_par = 0.0;
  for (double t : proc_ready) t_par = std::max(t_par, t);

  // Sequential tail: surplus subtrees + split nodes, in the order induced by
  // a memory-minimizing traversal of the whole tree restricted to them
  // (filtering a valid traversal keeps children before parents).
  std::vector<char> in_tail(static_cast<std::size_t>(n), 0);
  for (std::size_t k = parallel; k < roots.size(); ++k) {
    for (NodeId v : slices[k]) in_tail[v] = 1;
  }
  for (NodeId v : split.seq_nodes) in_tail[v] = 1;

  double t = t_par;
  for (NodeId v : order) {
    if (!in_tail[v]) continue;
    s.start[v] = t;
    s.proc[v] = 0;
    t += tree.work(v);
  }
  return s;
}

Schedule par_subtrees_optim(const Tree& tree, int p, SequentialAlgo seq) {
  ParSubtreesOptions opts;
  opts.sequential = seq;
  opts.optimized_packing = true;
  return par_subtrees(tree, p, opts);
}

}  // namespace treesched
