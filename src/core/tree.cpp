#include "core/tree.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace treesched {

NodeId TreeBuilder::add_node(NodeId parent, MemSize output_size,
                             MemSize exec_size, double work) {
  parent_.push_back(parent);
  output_.push_back(output_size);
  exec_.push_back(exec_size);
  work_.push_back(work);
  return static_cast<NodeId>(parent_.size() - 1);
}

void TreeBuilder::set_parent(NodeId node, NodeId parent) {
  parent_.at(static_cast<std::size_t>(node)) = parent;
}

Tree TreeBuilder::build() && {
  return Tree(std::move(parent_), std::move(output_), std::move(exec_),
              std::move(work_));
}

Tree::Tree(std::vector<NodeId> parent, std::vector<MemSize> output_size,
           std::vector<MemSize> exec_size, std::vector<double> work)
    : parent_(std::move(parent)),
      output_(std::move(output_size)),
      exec_(std::move(exec_size)),
      work_(std::move(work)) {
  const auto n = static_cast<NodeId>(parent_.size());
  if (output_.size() != parent_.size() || exec_.size() != parent_.size() ||
      work_.size() != parent_.size()) {
    throw std::invalid_argument("Tree: mismatched array lengths");
  }
  if (n == 0) return;
  root_ = kNoNode;
  for (NodeId i = 0; i < n; ++i) {
    if (parent_[i] == kNoNode) {
      if (root_ != kNoNode) throw std::invalid_argument("Tree: two roots");
      root_ = i;
    } else if (parent_[i] < 0 || parent_[i] >= n || parent_[i] == i) {
      throw std::invalid_argument("Tree: bad parent id");
    }
    if (work_[i] < 0.0) throw std::invalid_argument("Tree: negative work");
  }
  MemSize total = 0;  // sum of f_i + n_i, checked before every addition
  for (NodeId i = 0; i < n; ++i) {
    for (MemSize size : {output_[i], exec_[i]}) {
      if (size > kMaxTreeMemory - total) {
        throw std::invalid_argument(
            "Tree: total file size exceeds 2^62 (node " + std::to_string(i) +
            ")");
      }
      total += size;
    }
  }
  if (root_ == kNoNode) throw std::invalid_argument("Tree: no root");
  build_children();
  // Connectivity/acyclicity: a postorder from the root must visit all nodes.
  if (static_cast<NodeId>(natural_postorder().size()) != n) {
    throw std::invalid_argument("Tree: disconnected or cyclic parent array");
  }
}

void Tree::build_children() {
  const NodeId n = size();
  child_begin_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (NodeId i = 0; i < n; ++i) {
    if (parent_[i] != kNoNode) ++child_begin_[parent_[i] + 1];
  }
  for (NodeId i = 0; i < n; ++i) child_begin_[i + 1] += child_begin_[i];
  child_list_.assign(n > 0 ? static_cast<std::size_t>(n - 1) : 0, 0);
  std::vector<std::int64_t> cursor(child_begin_.begin(),
                                   child_begin_.end() - 1);
  for (NodeId i = 0; i < n; ++i) {
    if (parent_[i] != kNoNode) child_list_[cursor[parent_[i]]++] = i;
  }
}

MemSize Tree::processing_memory(NodeId i) const {
  MemSize m = exec_[i] + output_[i];
  for (NodeId c : children(i)) m += output_[c];
  return m;
}

NodeId Tree::num_leaves() const {
  NodeId k = 0;
  for (NodeId i = 0; i < size(); ++i) k += is_leaf(i) ? 1 : 0;
  return k;
}

std::vector<NodeId> Tree::natural_postorder() const {
  std::vector<NodeId> order;
  if (empty()) return order;
  order.reserve(size());
  // Iterative postorder: push node, then children; emit on second visit.
  std::vector<std::pair<NodeId, bool>> stack;
  stack.emplace_back(root_, false);
  while (!stack.empty()) {
    auto [node, expanded] = stack.back();
    stack.pop_back();
    if (expanded) {
      order.push_back(node);
      continue;
    }
    stack.emplace_back(node, true);
    auto ch = children(node);
    for (auto it = ch.rbegin(); it != ch.rend(); ++it) {
      stack.emplace_back(*it, false);
    }
  }
  return order;
}

std::vector<NodeId> Tree::depths() const {
  std::vector<NodeId> d(size(), 0);
  // Parents have smaller ids than children is NOT guaranteed; walk from a
  // reverse postorder (parents before children).
  auto post = natural_postorder();
  for (auto it = post.rbegin(); it != post.rend(); ++it) {
    NodeId i = *it;
    d[i] = parent_[i] == kNoNode ? 0 : d[parent_[i]] + 1;
  }
  return d;
}

std::vector<double> Tree::weighted_depths() const {
  std::vector<double> d(size(), 0.0);
  auto post = natural_postorder();
  for (auto it = post.rbegin(); it != post.rend(); ++it) {
    NodeId i = *it;
    d[i] = (parent_[i] == kNoNode ? 0.0 : d[parent_[i]]) + work_[i];
  }
  return d;
}

std::vector<double> Tree::subtree_work() const {
  std::vector<double> w(size(), 0.0);
  for (NodeId i : natural_postorder()) {
    w[i] = work_[i];
    for (NodeId c : children(i)) w[i] += w[c];
  }
  return w;
}

double Tree::critical_path() const {
  double best = 0.0;
  for (double d : weighted_depths()) best = std::max(best, d);
  return best;
}

double Tree::total_work() const {
  double s = 0.0;
  for (double w : work_) s += w;
  return s;
}

Tree Tree::subtree(NodeId r, std::vector<NodeId>* old_of_new) const {
  std::vector<NodeId> nodes;  // BFS order: parent visited before child
  nodes.push_back(r);
  for (std::size_t k = 0; k < nodes.size(); ++k) {
    for (NodeId c : children(nodes[k])) nodes.push_back(c);
  }
  std::vector<NodeId> new_id(size(), kNoNode);
  for (std::size_t k = 0; k < nodes.size(); ++k) {
    new_id[nodes[k]] = static_cast<NodeId>(k);
  }
  std::vector<NodeId> parent(nodes.size());
  std::vector<MemSize> out(nodes.size()), exec(nodes.size());
  std::vector<double> work(nodes.size());
  for (std::size_t k = 0; k < nodes.size(); ++k) {
    NodeId old = nodes[k];
    parent[k] = old == r ? kNoNode : new_id[parent_[old]];
    out[k] = output_[old];
    exec[k] = exec_[old];
    work[k] = work_[old];
  }
  if (old_of_new) *old_of_new = nodes;
  return Tree(std::move(parent), std::move(out), std::move(exec),
              std::move(work));
}

NodeId Tree::height() const {
  NodeId h = 0;
  for (NodeId d : depths()) h = std::max(h, static_cast<NodeId>(d + 1));
  return h;
}

NodeId Tree::max_degree() const {
  NodeId d = 0;
  for (NodeId i = 0; i < size(); ++i) d = std::max(d, num_children(i));
  return d;
}

std::string Tree::describe() const {
  std::ostringstream os;
  os << "tree n=" << size() << " height=" << height()
     << " max_degree=" << max_degree() << " leaves=" << num_leaves()
     << " total_work=" << total_work() << " critical_path=" << critical_path();
  return os.str();
}

}  // namespace treesched
