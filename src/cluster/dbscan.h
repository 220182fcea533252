#ifndef IBSEG_CLUSTER_DBSCAN_H_
#define IBSEG_CLUSTER_DBSCAN_H_

#include <cstddef>
#include <vector>

namespace ibseg {

class VpTree;

/// DBSCAN parameters (Ester et al. 1996 — the paper's clustering choice,
/// Sec. 6: no a-priori cluster count, arbitrary shapes, noise handling).
struct DbscanParams {
  /// Neighborhood radius. <= 0 requests auto-tuning from the k-distance
  /// curve (estimate_eps: the median distance to the (min_pts-1)-th
  /// nearest neighbor, not counting the point itself, a standard
  /// heuristic) scaled by `eps_scale`.
  double eps = 0.0;
  /// Minimum neighborhood size (including the point itself) for a core
  /// point.
  size_t min_pts = 8;
  /// Multiplier applied to the auto-tuned eps. Values above 1 merge nearby
  /// density peaks; calibrated so segment grouping lands in the 3-6
  /// intention-cluster range the paper reports (Sec. 9.2).
  double eps_scale = 1.5;
};

/// Label for points not reachable from any core point.
inline constexpr int kNoise = -1;

/// DBSCAN output.
struct DbscanResult {
  /// Cluster id in [0, num_clusters) per point, or kNoise.
  std::vector<int> labels;
  int num_clusters = 0;
  /// The eps actually used (after auto-tuning).
  double eps_used = 0.0;
};

/// Runs DBSCAN over dense Euclidean points. Deterministic: points are
/// visited in index order, so labels are stable across runs.
DbscanResult dbscan(const std::vector<std::vector<double>>& points,
                    const DbscanParams& params = {});

/// Runs DBSCAN at every eps in `eps_values` over the points `tree` was
/// built from, with one range query per point at the largest eps instead
/// of one per point per eps. Each value is read as DbscanParams::eps
/// (<= 0 auto-tunes, and params.eps_scale must then not be NaN); result
/// i equals dbscan(points, params) with params.eps = eps_values[i]: the
/// same labels, num_clusters and eps_used.
/// `num_threads` workers (0 counts as 1) share the neighbour pass and the
/// per-eps expansions.
std::vector<DbscanResult> dbscan_grid(const VpTree& tree,
                                      const DbscanParams& params,
                                      const std::vector<double>& eps_values,
                                      size_t num_threads);

/// The k-distance eps estimate used by the auto mode, before eps_scale:
/// the median, over every max(1, n/512)-th point, of each sampled point's
/// distance to its (min_pts-1)-th nearest neighbor (at least the 1st),
/// not counting the point itself. 1.0 for fewer than two points or a zero
/// median. Exposed so callers can search around it.
double estimate_eps(const VpTree& tree, size_t min_pts);

}  // namespace ibseg

#endif  // IBSEG_CLUSTER_DBSCAN_H_
