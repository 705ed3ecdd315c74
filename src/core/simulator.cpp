#include "core/simulator.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace treesched {

SimulationResult simulate(const Tree& tree, const Schedule& s,
                          const SimulationOptions& opts) {
  const NodeId n = tree.size();
  if (s.size() != n) {
    throw std::invalid_argument("simulate: schedule size != tree size");
  }
  SimulationResult res;
  if (n == 0) return res;

  // Finishes within `tolerance(t)` of a start at t are applied before it.
  const double eps = 1e-9;
  auto tolerance = [&](double t) { return eps * std::max(1.0, t); };

  // Two event streams sorted by (time, id): starts and finishes. At equal
  // times, finishes are applied before starts so that a task may begin
  // exactly when its child ends (and memory is not double counted across
  // the boundary). A task whose finish lies within the tolerance of its own
  // start (zero work) is "instant": its finish is applied right after its
  // start instead, so it is never applied before the start.
  std::vector<char> instant(static_cast<std::size_t>(n), 0);
  std::vector<std::pair<double, NodeId>> starts(static_cast<std::size_t>(n));
  std::vector<std::pair<double, NodeId>> ends;
  ends.reserve(static_cast<std::size_t>(n));
  bool any_instant = false;
  double makespan = 0.0;
  for (NodeId i = 0; i < n; ++i) {
    const double finish = s.finish(tree, i);
    makespan = std::max(makespan, finish);
    starts[i] = {s.start[i], i};
    if (finish <= s.start[i] + tolerance(s.start[i])) {
      instant[i] = 1;
      any_instant = true;
    } else {
      ends.emplace_back(finish, i);
    }
  }
  std::sort(starts.begin(), starts.end());
  std::sort(ends.begin(), ends.end());
  if (any_instant) {
    // Equal-time starts: instant tasks first, as a finish at that time
    // would be, deepest first so that an instant child precedes its parent
    // (which may start at the same time); then the others.
    const std::vector<NodeId> depth = tree.depths();
    for (auto run = starts.begin(); run != starts.end();) {
      auto stop = run;
      while (stop != starts.end() && stop->first == run->first) ++stop;
      std::stable_sort(run, stop, [&](const auto& a, const auto& b) {
        if (instant[a.second] != instant[b.second]) {
          return instant[a.second] > instant[b.second];
        }
        return instant[a.second] && depth[a.second] > depth[b.second];
      });
      run = stop;
    }
  }

  std::vector<char> done(static_cast<std::size_t>(n), 0);
  MemSize mem = 0;
  MemSize peak = 0;
  std::size_t fi = 0;  // cursor in ends

  auto record = [&](double t) {
    if (opts.record_profile) {
      if (!res.profile.empty() && res.profile.back().time == t) {
        res.profile.back().mem = mem;
      } else {
        res.profile.push_back({t, mem});
      }
    }
  };
  auto apply_finish = [&](NodeId f) {
    mem -= tree.exec_size(f);
    for (NodeId c : tree.children(f)) mem -= tree.output_size(c);
    done[f] = 1;
  };

  for (const auto& [t, idx] : starts) {
    // Apply all finishes at time <= t (+tolerance). None belongs to a task
    // not yet started: a non-instant task finishes beyond its own start's
    // tolerance, and starts come in time order.
    const double horizon = t + tolerance(t);
    while (fi < ends.size() && ends[fi].first <= horizon) {
      apply_finish(ends[fi].second);
      record(ends[fi].first);
      ++fi;
    }
    // Precedence check.
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
    if (instant[idx]) {
      apply_finish(idx);
      record(t);
    }
  }
  // Drain remaining finishes.
  for (; fi < ends.size(); ++fi) {
    apply_finish(ends[fi].second);
    record(ends[fi].first);
  }
  res.makespan = makespan;
  res.peak_memory = peak;
  res.final_memory = mem;  // = f_root
  return res;
}

MemSize sequential_peak_memory(const Tree& tree,
                               const std::vector<NodeId>& order) {
  if (static_cast<NodeId>(order.size()) != tree.size()) {
    throw std::invalid_argument("sequential_peak_memory: bad order length");
  }
  return subtree_peak_memory(tree, order);
}

MemSize subtree_peak_memory(const Tree& tree, std::span<const NodeId> order) {
  MemSize mem = 0, peak = 0;
  for (NodeId i : order) {
    mem += tree.exec_size(i) + tree.output_size(i);
    peak = std::max(peak, mem);
    mem -= tree.exec_size(i);
    for (NodeId c : tree.children(i)) mem -= tree.output_size(c);
  }
  return peak;
}

}  // namespace treesched
