#include "cluster/dbscan.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <span>

#include "cluster/vp_tree.h"
#include "util/thread_pool.h"

namespace ibseg {
namespace {

constexpr int kUnvisited = -2;

// DBSCAN's cluster expansion over any neighbour source: `neighbors(p)`
// returns the ids of the points within eps of p, p itself included, as a
// span that stays valid until the next call. dbscan() answers it with a
// range query, dbscan_grid() with a prefix of p's tagged neighbour list.
//
// The labels do not depend on the order in which neighbours arrive:
// cluster ids follow each component's lowest-index core point (the outer
// loop meets it first), and a border point takes the lowest-id cluster
// that has a core point in range (that cluster expands first).
template <typename NeighborFn>
DbscanResult expand_clusters(size_t n, size_t min_pts, double eps,
                             NeighborFn&& neighbors) {
  DbscanResult result;
  result.eps_used = eps;
  std::vector<int>& labels = result.labels;
  labels.assign(n, kUnvisited);
  // Each point is queued at most once: `queued` marks it, and it leaves
  // the queue with a cluster label, so it never qualifies again.
  std::vector<char> queued(n, 0);
  std::vector<size_t> queue;
  auto enqueue = [&](size_t q) {
    if ((labels[q] == kUnvisited || labels[q] == kNoise) && !queued[q]) {
      queued[q] = 1;
      queue.push_back(q);
    }
  };
  for (size_t p = 0; p < n; ++p) {
    if (labels[p] != kUnvisited) continue;
    const auto seeds = neighbors(p);
    if (seeds.size() < min_pts) {
      labels[p] = kNoise;
      continue;
    }
    const int cluster = result.num_clusters++;
    labels[p] = cluster;
    queue.clear();
    for (size_t q : seeds) enqueue(q);
    // Seed set expansion (BFS).
    for (size_t head = 0; head < queue.size(); ++head) {
      const size_t q = queue[head];
      const bool border = labels[q] == kNoise;  // known not to be core
      labels[q] = cluster;
      if (border) continue;
      const auto reach = neighbors(q);
      if (reach.size() >= min_pts) {
        for (size_t r : reach) enqueue(r);
      }
    }
  }
  return result;
}

// The shared neighbour pass of dbscan_grid(): every point's neighbours
// within the largest eps level, each tagged with the smallest level whose
// `d <= eps` admits it. A point's ids are stored grouped by tag in
// ascending order, with a running count per tag, so the neighbours the
// first m levels admit are a prefix of its list.
//
// Why every level's labels equal dbscan()'s at that eps:
//  * Filtering the largest-level list by d <= eps gives the set a range
//    query at eps returns. Range queries are exact (VpTree), and both
//    compute each distance with the same code over the same coordinates;
//    swapping the operands cannot change it, since (a-b)^2 == (b-a)^2
//    exactly.
//  * expand_clusters() does not depend on the order neighbours arrive in.
class TaggedNeighbors {
 public:
  TaggedNeighbors(const VpTree& tree, const std::vector<double>& levels,
                  ThreadPool& pool)
      : num_levels_(levels.size()),
        blocks_((tree.size() + kBlock - 1) / kBlock),
        start_(tree.size()),
        prefix_(tree.size() * levels.size(), 0) {
    pool.parallel_for(blocks_.size(),
                      [&](size_t b) { fill_block(tree, levels, b); });
  }

  /// The neighbours of point p that the `num_levels` (>= 1) smallest
  /// levels admit.
  std::span<const uint32_t> admitted(size_t p, size_t num_levels) const {
    return {blocks_[p / kBlock].data() + start_[p],
            prefix_[p * num_levels_ + num_levels - 1]};
  }

 private:
  // Points per parallel task and per id buffer.
  static constexpr size_t kBlock = 64;

  void fill_block(const VpTree& tree, const std::vector<double>& levels,
                  size_t b) {
    const size_t begin = b * kBlock;
    const size_t end = std::min(begin + kBlock, start_.size());
    // Gather the block's hits first, so its id buffer is allocated once,
    // at its exact size.
    std::vector<VpTree::Neighbor> hits;
    for (size_t p = begin; p < end; ++p) {
      start_[p] = static_cast<uint32_t>(hits.size());
      tree.neighbors_within(p, levels.back(), &hits);
    }
    std::vector<uint32_t>& ids = blocks_[b];
    ids.resize(hits.size());
    std::vector<uint32_t> tags(hits.size());
    std::vector<uint32_t> next(num_levels_);
    for (size_t p = begin; p < end; ++p) {
      const size_t first = start_[p];
      const size_t last = p + 1 < end ? start_[p + 1] : hits.size();
      uint32_t* count = &prefix_[p * num_levels_];
      for (size_t i = first; i < last; ++i) {
        tags[i] = static_cast<uint32_t>(
            std::lower_bound(levels.begin(), levels.end(),
                             hits[i].distance) -
            levels.begin());
        ++count[tags[i]];
      }
      // Counting sort by tag; count[] becomes the running count.
      uint32_t total = 0;
      for (size_t l = 0; l < num_levels_; ++l) {
        next[l] = static_cast<uint32_t>(first) + total;
        total += count[l];
        count[l] = total;
      }
      for (size_t i = first; i < last; ++i) {
        ids[next[tags[i]]++] = hits[i].index;
      }
    }
  }

  size_t num_levels_;
  std::vector<std::vector<uint32_t>> blocks_;  // ids, kBlock points each
  std::vector<uint32_t> start_;   // per point: offset of its list in block
  std::vector<uint32_t> prefix_;  // per point and level: running count
};

}  // namespace

double estimate_eps(const VpTree& tree, size_t min_pts) {
  const size_t n = tree.size();
  if (n < 2) return 1.0;
  size_t k = std::max<size_t>(1, min_pts - 1);
  size_t sample = std::min<size_t>(n, 512);
  size_t stride = std::max<size_t>(1, n / sample);
  std::vector<double> dists;
  dists.reserve(sample);
  for (size_t i = 0; i < n; i += stride) {
    dists.push_back(tree.kth_neighbor_distance(i, k));
  }
  std::nth_element(dists.begin(), dists.begin() + dists.size() / 2,
                   dists.end());
  double median = dists[dists.size() / 2];
  return median > 0.0 ? median : 1.0;
}

DbscanResult dbscan(const std::vector<std::vector<double>>& points,
                    const DbscanParams& params) {
  if (points.empty()) return DbscanResult{};
  VpTree tree(points);
  const double eps =
      params.eps > 0.0 ? params.eps
                       : estimate_eps(tree, params.min_pts) * params.eps_scale;
  std::vector<size_t> hood;
  return expand_clusters(points.size(), params.min_pts, eps, [&](size_t p) {
    hood.clear();
    tree.range_query(points[p], eps, &hood);
    return std::span<const size_t>(hood);
  });
}

std::vector<DbscanResult> dbscan_grid(const VpTree& tree,
                                      const DbscanParams& params,
                                      const std::vector<double>& eps_values,
                                      size_t num_threads) {
  const size_t n = tree.size();
  std::vector<DbscanResult> results(eps_values.size());
  // With no points, as dbscan(): no labels, eps_used 0.
  if (n == 0 || eps_values.empty()) return results;

  // Each value's eps, resolved as dbscan() resolves DbscanParams::eps.
  std::vector<double> eps = eps_values;
  auto auto_tuned = [](double e) { return !(e > 0.0); };
  if (std::any_of(eps.begin(), eps.end(), auto_tuned)) {
    const double tuned =
        estimate_eps(tree, params.min_pts) * params.eps_scale;
    assert(!std::isnan(tuned));  // the levels below must be ordered
    std::replace_if(eps.begin(), eps.end(), auto_tuned, tuned);
  }
  // The distinct levels, ascending.
  std::vector<double> levels = eps;
  std::sort(levels.begin(), levels.end());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());

  ThreadPool pool(num_threads);
  const TaggedNeighbors hood(tree, levels, pool);
  pool.parallel_for(eps.size(), [&](size_t i) {
    // eps[i] admits the neighbours of every level up to its own.
    const size_t num_levels = static_cast<size_t>(
        std::upper_bound(levels.begin(), levels.end(), eps[i]) -
        levels.begin());
    results[i] = expand_clusters(n, params.min_pts, eps[i], [&](size_t p) {
      return hood.admitted(p, num_levels);
    });
  });
  return results;
}

}  // namespace ibseg
