#include "cluster/vp_tree.h"

#include <algorithm>
#include <cassert>
#include <climits>
#include <cmath>
#include <queue>

namespace ibseg {
namespace {

// Euclidean distance between two `dims`-long rows, summed in the same order
// as euclidean_distance (util/vector_math.cc) so the result is bit-identical
// to it. Inline because a traversal computes one per node it visits.
inline double distance(const double* a, const double* b, size_t dims) {
  double s = 0.0;
  for (size_t i = 0; i < dims; ++i) {
    double d = a[i] - b[i];
    s += d * d;
  }
  return std::sqrt(s);
}

// Pruning bounds. With v a node's vantage point and d = d(q, v): in exact
// arithmetic a point x of the inside child (d(v, x) <= radius) can lie
// within eps of q only if d <= eps + radius, and a point of the outside
// child (d(v, x) >= radius; ties at the median fall on both sides) only if
// radius <= d + eps. The computed distances each carry a few ulps of
// rounding, so both bounds get a relative slack: a child is skipped only
// when none of its points can pass the exact `d(q, x) <= eps` test.
constexpr double kSlack = 1.0 + 1e-12;

bool may_reach_inside(double d, double eps, double radius) {
  return d <= (eps + radius) * kSlack;
}

bool may_reach_outside(double d, double eps, double radius) {
  return radius <= (d + eps) * kSlack;
}

}  // namespace

VpTree::VpTree(const std::vector<std::vector<double>>& points) {
  const size_t n = points.size();
  assert(n <= static_cast<size_t>(INT_MAX));
  dims_ = n == 0 ? 0 : points[0].size();
  std::vector<uint32_t> items(n);
  for (size_t i = 0; i < n; ++i) {
    assert(points[i].size() == dims_);
    items[i] = static_cast<uint32_t>(i);
  }
  nodes_.reserve(n);
  root_ = build(points, items, 0, n);
  coords_.resize(n * dims_);
  node_of_.resize(n);
  for (size_t node = 0; node < n; ++node) {
    const std::vector<double>& p = points[nodes_[node].point];
    std::copy(p.begin(), p.end(), coords_.begin() + node * dims_);
    node_of_[nodes_[node].point] = static_cast<uint32_t>(node);
  }
}

int VpTree::build(const std::vector<std::vector<double>>& points,
                  std::vector<uint32_t>& items, size_t begin, size_t end) {
  if (begin >= end) return -1;
  int node_index = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{});
  uint32_t vantage = items[begin];
  nodes_[node_index].point = vantage;
  size_t rest_begin = begin + 1;
  if (rest_begin >= end) return node_index;

  const double* v = points[vantage].data();
  auto dist = [&](uint32_t i) { return distance(v, points[i].data(), dims_); };
  size_t mid = rest_begin + (end - rest_begin) / 2;
  std::nth_element(items.begin() + static_cast<long>(rest_begin),
                   items.begin() + static_cast<long>(mid),
                   items.begin() + static_cast<long>(end),
                   [&](uint32_t a, uint32_t b) { return dist(a) < dist(b); });
  double radius = dist(items[mid]);
  int inside = build(points, items, rest_begin, mid + 1);
  int outside = build(points, items, mid + 1, end);
  nodes_[node_index].radius = radius;
  nodes_[node_index].inside = inside;
  nodes_[node_index].outside = outside;
  return node_index;
}

template <typename Emit>
void VpTree::search(int node, const double* q, double eps, Emit& emit) const {
  if (node < 0) return;
  const Node& n = nodes_[node];
  double d = distance(coords(static_cast<size_t>(node)), q, dims_);
  if (d <= eps) emit(n.point, d);
  if (may_reach_inside(d, eps, n.radius)) search(n.inside, q, eps, emit);
  if (may_reach_outside(d, eps, n.radius)) search(n.outside, q, eps, emit);
}

void VpTree::range_query(const std::vector<double>& query, double eps,
                         std::vector<size_t>* out) const {
  assert(nodes_.empty() || query.size() == dims_);
  auto emit = [out](uint32_t point, double) { out->push_back(point); };
  search(root_, query.data(), eps, emit);
}

void VpTree::neighbors_within(size_t index, double eps,
                              std::vector<Neighbor>* out) const {
  assert(index < nodes_.size());
  auto emit = [out](uint32_t point, double d) {
    out->push_back(Neighbor{point, d});
  };
  search(root_, coords(node_of_[index]), eps, emit);
}

double VpTree::kth_neighbor_distance(size_t index, size_t k) const {
  assert(index < nodes_.size());
  // Max-heap of the k smallest distances found via a pruned traversal.
  std::priority_queue<double> best;
  const double* q = coords(node_of_[index]);
  // Iterative DFS with pruning against the current k-th distance.
  std::vector<int> stack{root_};
  while (!stack.empty()) {
    int node = stack.back();
    stack.pop_back();
    if (node < 0) continue;
    const Node& n = nodes_[node];
    double d = distance(coords(static_cast<size_t>(node)), q, dims_);
    if (n.point != index) {
      if (best.size() < k) {
        best.push(d);
      } else if (d < best.top()) {
        best.pop();
        best.push(d);
      }
    }
    double bound = best.size() < k ? 1e300 : best.top();
    if (may_reach_inside(d, bound, n.radius)) stack.push_back(n.inside);
    if (may_reach_outside(d, bound, n.radius)) stack.push_back(n.outside);
  }
  return best.empty() ? 0.0 : best.top();
}

}  // namespace ibseg
