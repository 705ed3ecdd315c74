#include "core/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

namespace treesched {

namespace {
// Tolerance for floating-point time comparisons. Task works can be large
// (up to ~1e12 in assembly trees), so the tolerance is relative.
bool time_lt(double a, double b) { return a < b - 1e-9 * std::max(1.0, std::max(std::abs(a), std::abs(b))); }
}  // namespace

double Schedule::makespan(const Tree& tree) const {
  double m = 0.0;
  for (NodeId i = 0; i < size(); ++i) m = std::max(m, finish(tree, i));
  return m;
}

std::vector<NodeId> Schedule::by_start_time() const {
  std::vector<NodeId> order(start.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    if (start[a] != start[b]) return start[a] < start[b];
    return a < b;
  });
  return order;
}

Schedule sequential_schedule(const Tree& tree,
                             const std::vector<NodeId>& order) {
  Schedule s(tree.size());
  double t = 0.0;
  for (NodeId i : order) {
    s.start[i] = t;
    s.proc[i] = 0;
    t += tree.work(i);
  }
  return s;
}

ValidationResult validate_schedule(const Tree& tree, const Schedule& s,
                                   int p) {
  ValidationResult res;
  auto fail = [&](const std::string& msg) {
    res.ok = false;
    res.error = msg;
    return res;
  };
  const NodeId n = tree.size();
  if (s.size() != n) return fail("schedule size != tree size");
  int procs_used = 0;
  for (NodeId i = 0; i < n; ++i) {
    if (!(s.start[i] >= 0.0) || !std::isfinite(s.start[i])) {
      return fail("task has invalid start time");
    }
    if (s.proc[i] < 0 || s.proc[i] >= p) {
      std::ostringstream os;
      os << "task " << i << " on processor " << s.proc[i] << " outside [0,"
         << p << ")";
      return fail(os.str());
    }
    procs_used = std::max(procs_used, s.proc[i] + 1);
  }
  // Precedence: children must finish before the parent starts.
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId c : tree.children(i)) {
      if (time_lt(s.start[i], s.finish(tree, c))) {
        std::ostringstream os;
        os << "task " << i << " starts at " << s.start[i]
           << " before child " << c << " finishes at " << s.finish(tree, c);
        return fail(os.str());
      }
    }
  }
  // Per-processor overlap: sort each processor's tasks by start time, then
  // finish (a zero-work task starting with another precedes it), then id.
  std::vector<std::vector<NodeId>> per_proc(
      static_cast<std::size_t>(procs_used));
  for (NodeId i = 0; i < n; ++i) per_proc[s.proc[i]].push_back(i);
  for (auto& tasks : per_proc) {
    std::sort(tasks.begin(), tasks.end(), [&](NodeId a, NodeId b) {
      if (s.start[a] != s.start[b]) return s.start[a] < s.start[b];
      const double fa = s.finish(tree, a), fb = s.finish(tree, b);
      if (fa != fb) return fa < fb;
      return a < b;
    });
    for (std::size_t k = 1; k < tasks.size(); ++k) {
      NodeId prev = tasks[k - 1], cur = tasks[k];
      if (time_lt(s.start[cur], s.finish(tree, prev))) {
        std::ostringstream os;
        os << "tasks " << prev << " and " << cur << " overlap on processor "
           << s.proc[cur];
        return fail(os.str());
      }
    }
  }
  return res;
}

}  // namespace treesched
