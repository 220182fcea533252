#ifndef IBSEG_CLUSTER_VP_TREE_H_
#define IBSEG_CLUSTER_VP_TREE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ibseg {

/// Vantage-point tree over dense Euclidean points, supporting
/// epsilon-range queries. Backs DBSCAN's region queries so that segment
/// grouping scales past the brute-force O(n^2) wall (the paper clusters
/// millions of 28-dim segments; Sec. 9.2.4).
///
/// The tree owns one contiguous copy of the points, laid out in node
/// order so a traversal reads memory front to back. Its distances sum in
/// the same order as euclidean_distance (util/vector_math.h), so every
/// distance it computes is bit-identical to that function's.
class VpTree {
 public:
  /// A range-query hit: a point index and its distance to the query.
  struct Neighbor {
    uint32_t index = 0;
    double distance = 0.0;
  };

  /// Builds the tree. All points must have the same dimension, and there
  /// may be at most INT_MAX of them. Deterministic: the vantage point of
  /// every node is the first element of its range and the radius is the
  /// median distance.
  explicit VpTree(const std::vector<std::vector<double>>& points);

  /// Appends the indices of all points within `eps` (inclusive) of `query`
  /// to `out` (not cleared). Includes the query point itself if present.
  /// Exact: a point is reported iff its computed distance is <= eps (the
  /// pruning bounds allow for rounding in the distances they compare).
  void range_query(const std::vector<double>& query, double eps,
                   std::vector<size_t>* out) const;

  /// Appends every point within `eps` (inclusive) of point `index`, the
  /// point itself included, with its distance to `out` (not cleared).
  /// Reports exactly the points range_query(points[index], eps) does.
  void neighbors_within(size_t index, double eps,
                        std::vector<Neighbor>* out) const;

  /// Distance to the k-th nearest neighbor of points[index] (excluding the
  /// point itself). Used by the eps auto-tuning heuristic.
  double kth_neighbor_distance(size_t index, size_t k) const;

  size_t size() const { return nodes_.size(); }

 private:
  struct Node {
    uint32_t point = 0;   // index into the input points
    int inside = -1;      // child with d <= radius
    int outside = -1;     // child with d >= radius
    double radius = 0.0;  // median distance to the rest of the range
  };

  int build(const std::vector<std::vector<double>>& points,
            std::vector<uint32_t>& items, size_t begin, size_t end);
  const double* coords(size_t node) const {
    return coords_.data() + node * dims_;
  }
  template <typename Emit>
  void search(int node, const double* q, double eps, Emit& emit) const;

  size_t dims_ = 0;
  std::vector<Node> nodes_;
  std::vector<double> coords_;     // node i's point at [i * dims_, +dims_)
  std::vector<uint32_t> node_of_;  // point index -> node
  int root_ = -1;
};

}  // namespace ibseg

#endif  // IBSEG_CLUSTER_VP_TREE_H_
