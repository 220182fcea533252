#include "cluster/optics.h"

#include <algorithm>
#include <limits>

#include "cluster/vp_tree.h"
#include "util/vector_math.h"

namespace ibseg {
namespace {

// Indexed min-heap substitute: linear scan over a seed list is fine at the
// corpus sizes the grouping phase sees (thousands of segments); the
// dominant cost is the range queries.
struct SeedList {
  // point -> current reachability (kUndefined when not queued).
  std::vector<double> reachability;
  std::vector<bool> queued;

  explicit SeedList(size_t n)
      : reachability(n, OpticsResult::kUndefined), queued(n, false) {}

  void update(size_t point, double distance) {
    if (!queued[point] || reachability[point] > distance) {
      queued[point] = true;
      reachability[point] = distance;
    }
  }

  // Pops the queued point with the smallest reachability; SIZE_MAX when
  // empty. Ties break toward the smaller index (determinism).
  size_t pop() {
    size_t best = static_cast<size_t>(-1);
    double best_r = std::numeric_limits<double>::max();
    for (size_t i = 0; i < queued.size(); ++i) {
      if (queued[i] && reachability[i] < best_r) {
        best_r = reachability[i];
        best = i;
      }
    }
    if (best != static_cast<size_t>(-1)) queued[best] = false;
    return best;
  }
};

}  // namespace

OpticsResult optics(const std::vector<std::vector<double>>& points,
                    const OpticsParams& params) {
  OpticsResult result;
  const size_t n = points.size();
  result.core_distance.assign(n, OpticsResult::kUndefined);
  if (n == 0) return result;

  VpTree tree(points);
  double eps = params.eps > 0.0
                   ? params.eps
                   : 3.0 * std::max(estimate_eps(tree, params.min_pts),
                                    1e-9);
  result.eps_used = eps;

  std::vector<bool> processed(n, false);
  std::vector<size_t> neighbors;

  auto neighborhood = [&](size_t p) {
    neighbors.clear();
    tree.range_query(points[p], eps, &neighbors);
  };
  auto core_distance_of = [&](size_t p) {
    // min_pts-th smallest distance within the eps-neighborhood (self
    // included, as in the original definition of a core point's density).
    if (neighbors.size() < params.min_pts) return OpticsResult::kUndefined;
    std::vector<double> dists;
    dists.reserve(neighbors.size());
    for (size_t q : neighbors) {
      dists.push_back(euclidean_distance(points[p], points[q]));
    }
    std::nth_element(dists.begin(), dists.begin() + (params.min_pts - 1),
                     dists.end());
    return dists[params.min_pts - 1];
  };

  for (size_t start = 0; start < n; ++start) {
    if (processed[start]) continue;
    neighborhood(start);
    result.core_distance[start] = core_distance_of(start);
    processed[start] = true;
    result.ordering.push_back(start);
    result.reachability.push_back(OpticsResult::kUndefined);
    if (result.core_distance[start] < 0.0) continue;

    SeedList seeds(n);
    // Seed the start's neighbors.
    for (size_t q : neighbors) {
      if (processed[q]) continue;
      double d = euclidean_distance(points[start], points[q]);
      seeds.update(q, std::max(result.core_distance[start], d));
    }
    for (;;) {
      size_t p = seeds.pop();
      if (p == static_cast<size_t>(-1)) break;
      double r = seeds.reachability[p];
      neighborhood(p);
      result.core_distance[p] = core_distance_of(p);
      processed[p] = true;
      result.ordering.push_back(p);
      result.reachability.push_back(r);
      if (result.core_distance[p] < 0.0) continue;
      for (size_t q : neighbors) {
        if (processed[q]) continue;
        double d = euclidean_distance(points[p], points[q]);
        seeds.update(q, std::max(result.core_distance[p], d));
      }
    }
  }
  return result;
}

DbscanResult extract_dbscan_clustering(const OpticsResult& result,
                                       size_t num_points, double eps_cut) {
  DbscanResult out;
  out.labels.assign(num_points, kNoise);
  out.eps_used = eps_cut;
  int cluster = -1;
  for (size_t i = 0; i < result.ordering.size(); ++i) {
    size_t p = result.ordering[i];
    double r = result.reachability[i];
    bool reachable = r >= 0.0 && r <= eps_cut;
    if (!reachable) {
      double core = result.core_distance[p];
      if (core >= 0.0 && core <= eps_cut) {
        ++cluster;  // starts a new cluster
        out.labels[p] = cluster;
      } else {
        out.labels[p] = kNoise;
      }
    } else if (cluster >= 0) {
      out.labels[p] = cluster;
    }
  }
  out.num_clusters = cluster + 1;
  return out;
}

}  // namespace ibseg
