#include "cluster/intention_clusters.h"

#include "cluster/kmeans.h"

#include <cassert>
#include <limits>
#include <map>
#include <thread>

#include "cluster/vp_tree.h"
#include "util/memory.h"
#include "util/vector_math.h"

namespace ibseg {
namespace {

std::vector<IntentionClustering::RawRange> flatten_segments(
    const std::vector<Segmentation>& segmentations);

}  // namespace

IntentionClustering IntentionClustering::build(
    const std::vector<Document>& docs,
    const std::vector<Segmentation>& segmentations,
    const GroupingOptions& options) {
  assert(docs.size() == segmentations.size());
  std::vector<RawRange> raw = flatten_segments(segmentations);
  if (raw.empty()) return IntentionClustering();

  std::vector<std::vector<double>> feats;
  feats.reserve(raw.size());
  for (const RawRange& rs : raw) {
    feats.push_back(segment_feature_vector(docs[rs.doc_index], rs.begin,
                                           rs.end, options.features));
  }

  // Number of clusters holding at least min_cluster_fraction of segments.
  auto substantial_clusters = [&](const DbscanResult& r) {
    if (r.num_clusters <= 0) return 0;
    std::vector<size_t> sizes(static_cast<size_t>(r.num_clusters), 0);
    size_t clustered = 0;
    for (int l : r.labels) {
      if (l >= 0) {
        ++sizes[static_cast<size_t>(l)];
        ++clustered;
      }
    }
    size_t floor = static_cast<size_t>(
        options.min_cluster_fraction * static_cast<double>(r.labels.size()));
    int count = 0;
    for (size_t s : sizes) {
      if (s >= std::max<size_t>(floor, 2)) ++count;
    }
    return count;
  };
  auto range_distance = [&](int clusters) {
    if (clusters < options.target_min_clusters) {
      return options.target_min_clusters - clusters;
    }
    if (clusters > options.target_max_clusters) {
      return clusters - options.target_max_clusters;
    }
    return 0;
  };
  auto noise_count = [](const DbscanResult& r) {
    size_t n = 0;
    for (int l : r.labels) {
      if (l < 0) ++n;
    }
    return n;
  };

  DbscanResult db;
  bool used_grid = false;
  if (options.dbscan.eps > 0.0 || options.eps_grid.empty()) {
    db = dbscan(feats, options.dbscan);
  } else {
    used_grid = true;
    // Grid search around the k-distance estimate: pick the eps whose
    // substantial-cluster count is closest to the target range; ties
    // prefer less noise, then the earlier grid entry. One VP tree serves
    // the estimate and a single neighbour pass for the whole grid; the
    // tree and the pass's neighbour lists are freed when the inner block
    // below closes, before any index is built.
    std::vector<DbscanResult> candidates;
    {
      VpTree tree(feats);
      double base = estimate_eps(tree, options.dbscan.min_pts);
      std::vector<double> eps_values;
      eps_values.reserve(options.eps_grid.size());
      for (double m : options.eps_grid) eps_values.push_back(base * m);
      candidates = dbscan_grid(tree, options.dbscan, eps_values,
                               std::thread::hardware_concurrency());
    }
    // The pass's worker threads allocated the neighbour lists in their own
    // glibc arenas. Freed there, that memory stays resident (glibc raises
    // its trim threshold as large buffers come and go) where no later
    // allocation on this thread can reuse it; hand it back to the OS.
    release_free_heap();
    bool have_best = false;
    int best_dist = 0;
    size_t best_noise = 0;
    for (DbscanResult& candidate : candidates) {
      int dist = range_distance(substantial_clusters(candidate));
      size_t noise = noise_count(candidate);
      if (!have_best || dist < best_dist ||
          (dist == best_dist && noise < best_noise)) {
        db = std::move(candidate);
        best_dist = dist;
        best_noise = noise;
        have_best = true;
      }
    }
  }
  // k-means fallback: when even the best grid eps cannot carve out the
  // minimum number of substantial clusters, the density structure is
  // degenerate (one blob, or shards below min_pts); partition the same
  // feature space directly instead.
  if (used_grid && options.kmeans_fallback_k > 0 &&
      substantial_clusters(db) < options.target_min_clusters &&
      feats.size() > static_cast<size_t>(options.kmeans_fallback_k)) {
    KMeansParams km;
    km.k = options.kmeans_fallback_k;
    KMeansResult kr = kmeans(feats, km);
    db.labels = kr.labels;
    db.num_clusters = static_cast<int>(kr.centroids.size());
    db.eps_used = 0.0;
  }

  // Demote sub-scale clusters to noise (they get re-attached to the
  // nearest substantial cluster below) and renumber densely.
  if (db.num_clusters > 0) {
    std::vector<size_t> sizes(static_cast<size_t>(db.num_clusters), 0);
    for (int l : db.labels) {
      if (l >= 0) ++sizes[static_cast<size_t>(l)];
    }
    size_t floor = std::max<size_t>(
        static_cast<size_t>(options.min_cluster_fraction *
                            static_cast<double>(db.labels.size())),
        2);
    std::vector<int> remap(static_cast<size_t>(db.num_clusters), kNoise);
    int next = 0;
    for (int c = 0; c < db.num_clusters; ++c) {
      if (sizes[static_cast<size_t>(c)] >= floor) remap[c] = next++;
    }
    if (next > 0 && next < db.num_clusters) {
      for (int& l : db.labels) {
        if (l >= 0) l = remap[static_cast<size_t>(l)];
      }
      db.num_clusters = next;
    }
  }
  int num_clusters = db.num_clusters;

  // Cluster centroids (for noise re-assignment).
  size_t dims = feats[0].size();
  std::vector<std::vector<double>> centroids(
      static_cast<size_t>(std::max(num_clusters, 1)),
      std::vector<double>(dims, 0.0));
  std::vector<size_t> counts(centroids.size(), 0);
  for (size_t i = 0; i < raw.size(); ++i) {
    if (db.labels[i] < 0) continue;
    add_into(centroids[static_cast<size_t>(db.labels[i])], feats[i]);
    ++counts[static_cast<size_t>(db.labels[i])];
  }
  for (size_t c = 0; c < centroids.size(); ++c) {
    if (counts[c] > 0) scale(centroids[c], 1.0 / counts[c]);
  }

  // Resolve noise points.
  int noise_cluster = -1;
  for (size_t i = 0; i < raw.size(); ++i) {
    if (db.labels[i] != kNoise) continue;
    if (num_clusters > 0 && options.assign_noise_to_nearest) {
      int best = 0;
      double best_d = std::numeric_limits<double>::max();
      for (int c = 0; c < num_clusters; ++c) {
        double d =
            euclidean_distance(feats[i], centroids[static_cast<size_t>(c)]);
        if (d < best_d) {
          best_d = d;
          best = c;
        }
      }
      db.labels[i] = best;
    } else {
      if (noise_cluster < 0) noise_cluster = num_clusters++;
      db.labels[i] = noise_cluster;
    }
  }
  if (num_clusters == 0) {
    num_clusters = 1;
    for (int& l : db.labels) l = 0;
  }
  return assemble(docs, raw, db.labels, num_clusters, options.features,
                  db.eps_used);
}

IntentionClustering IntentionClustering::from_labels(
    const std::vector<Document>& docs,
    const std::vector<Segmentation>& segmentations,
    const std::vector<int>& labels, int num_clusters,
    const FeatureVectorOptions& features) {
  assert(docs.size() == segmentations.size());
  std::vector<RawRange> raw = flatten_segments(segmentations);
  assert(raw.size() == labels.size());
  // A segment-less slice still carries the collection's cluster count when
  // one is given (a document-partitioned shard may hold no seed segments
  // yet must accept ingests into any of the global clusters).
  if (raw.empty() && num_clusters <= 0) return IntentionClustering();
  return assemble(docs, raw, labels, num_clusters, features, 0.0);
}

IntentionClustering IntentionClustering::assemble(
    const std::vector<Document>& docs, const std::vector<RawRange>& raw,
    const std::vector<int>& labels, int num_clusters,
    const FeatureVectorOptions& features, double eps_used) {
  IntentionClustering out;
  out.eps_used_ = eps_used;
  assert(num_clusters >= 1);

  // Segmentation refinement: concatenate same-document segments that share
  // a cluster (at most one refined segment per doc per cluster).
  std::map<std::pair<size_t, int>, size_t> refined_index;
  for (size_t i = 0; i < raw.size(); ++i) {
    const RawRange& rs = raw[i];
    int cluster = labels[i];
    assert(cluster >= 0 && cluster < num_clusters);
    auto key = std::make_pair(rs.doc_index, cluster);
    auto it = refined_index.find(key);
    if (it == refined_index.end()) {
      RefinedSegment seg;
      seg.doc = docs[rs.doc_index].id();
      seg.cluster = cluster;
      seg.ranges.emplace_back(rs.begin, rs.end);
      refined_index.emplace(key, out.segments_.size());
      out.segments_.push_back(std::move(seg));
    } else {
      out.segments_[it->second].ranges.emplace_back(rs.begin, rs.end);
    }
  }

  out.num_clusters_ = num_clusters;
  out.members_.assign(static_cast<size_t>(num_clusters), {});
  out.doc_segments_.assign(docs.size(), {});
  std::map<DocId, size_t> doc_index;
  for (size_t d = 0; d < docs.size(); ++d) doc_index[docs[d].id()] = d;
  for (size_t s = 0; s < out.segments_.size(); ++s) {
    out.members_[static_cast<size_t>(out.segments_[s].cluster)].push_back(s);
    out.doc_segments_[doc_index[out.segments_[s].doc]].push_back(s);
  }

  // Centroids over refined segments in CM feature space (Fig. 3 export).
  out.centroids_.assign(static_cast<size_t>(num_clusters),
                        std::vector<double>(kSegmentFeatureDims, 0.0));
  std::vector<size_t> refined_counts(static_cast<size_t>(num_clusters), 0);
  for (const RefinedSegment& seg : out.segments_) {
    size_t d = doc_index[seg.doc];
    std::vector<double> f =
        segment_feature_vector(docs[d], seg.ranges, features);
    add_into(out.centroids_[static_cast<size_t>(seg.cluster)], f);
    ++refined_counts[static_cast<size_t>(seg.cluster)];
  }
  for (size_t c = 0; c < out.centroids_.size(); ++c) {
    if (refined_counts[c] > 0) {
      scale(out.centroids_[c], 1.0 / refined_counts[c]);
    }
  }
  return out;
}

namespace {

std::vector<IntentionClustering::RawRange> flatten_segments(
    const std::vector<Segmentation>& segmentations) {
  std::vector<IntentionClustering::RawRange> raw;
  for (size_t d = 0; d < segmentations.size(); ++d) {
    for (auto [b, e] : segmentations[d].segments()) {
      if (b == e) continue;
      raw.push_back(IntentionClustering::RawRange{d, b, e});
    }
  }
  return raw;
}

}  // namespace

}  // namespace ibseg
