// Unit tests for src/cluster: Eq. 5/6 feature vectors, VP-tree, DBSCAN,
// k-means and the intention clustering with segmentation refinement.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "cluster/dbscan.h"
#include "cluster/feature_vector.h"
#include "cluster/intention_clusters.h"
#include "cluster/kmeans.h"
#include "cluster/vp_tree.h"
#include "seg/document.h"
#include "util/rng.h"
#include "util/vector_math.h"

namespace ibseg {
namespace {

// Three well-separated 2-D blobs.
std::vector<std::vector<double>> three_blobs(size_t per_blob, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> points;
  const double centers[3][2] = {{0, 0}, {10, 0}, {0, 10}};
  for (int b = 0; b < 3; ++b) {
    for (size_t i = 0; i < per_blob; ++i) {
      points.push_back({centers[b][0] + rng.next_gaussian(0, 0.3),
                        centers[b][1] + rng.next_gaussian(0, 0.3)});
    }
  }
  return points;
}

// -------------------------------------------------------- feature vector ----

TEST(FeatureVector, FirstTypeIsPerCmDistribution) {
  Document d = Document::analyze(
      0, "I installed it yesterday. We replaced the cable.");
  auto f = segment_feature_vector(d, 0, d.num_units());
  ASSERT_EQ(f.size(), static_cast<size_t>(kSegmentFeatureDims));
  // Eq. 5: each CM's slice sums to 1 (when the CM occurs) and lies in [0,1].
  int idx = 0;
  for (int c = 0; c < kNumCms; ++c) {
    double sum = 0.0;
    for (int v = 0; v < kCmArity[c]; ++v) {
      EXPECT_GE(f[idx], 0.0);
      EXPECT_LE(f[idx], 1.0);
      sum += f[idx++];
    }
    EXPECT_TRUE(sum == 0.0 || std::abs(sum - 1.0) < 1e-9) << "cm " << c;
  }
}

TEST(FeatureVector, SecondTypeDocRatioInUnitRange) {
  Document d = Document::analyze(
      0, "I installed it yesterday. We replaced the cable. It works now.");
  auto f = segment_feature_vector(d, 0, 1);
  for (int i = kNumCmFeatures; i < kSegmentFeatureDims; ++i) {
    EXPECT_GE(f[i], 0.0);
    EXPECT_LE(f[i], 1.0 + 1e-9);
  }
  // Whole-document segment: every ratio is 0 or 1.
  auto whole = segment_feature_vector(d, 0, d.num_units());
  for (int i = kNumCmFeatures; i < kSegmentFeatureDims; ++i) {
    EXPECT_TRUE(whole[i] == 0.0 || std::abs(whole[i] - 1.0) < 1e-9);
  }
}

TEST(FeatureVector, RawCountVariant) {
  Document d = Document::analyze(0, "I installed it. I replaced it.");
  FeatureVectorOptions opts;
  opts.second_type = FeatureVectorOptions::SecondType::kRawCount;
  auto f = segment_feature_vector(d, 0, d.num_units(), opts);
  // Raw counts can exceed 1 (e.g. two past-tense verb groups).
  double max_second = 0.0;
  for (int i = kNumCmFeatures; i < kSegmentFeatureDims; ++i) {
    max_second = std::max(max_second, f[i]);
  }
  EXPECT_GT(max_second, 1.0);
}

TEST(FeatureVector, MultiRangeEqualsMergedRange) {
  Document d = Document::analyze(
      0, "I installed it. We replaced the cable. It works. They left.");
  auto split = segment_feature_vector(d, {{0, 1}, {2, 4}});
  // Compare against a contiguous computation over the union profile.
  CmProfile merged = d.range_profile(0, 1);
  merged.merge(d.range_profile(2, 4));
  // First-type slice of `split` must match distribution of `merged`.
  int idx = 0;
  for (int c = 0; c < kNumCms; ++c) {
    CmKind cm = static_cast<CmKind>(c);
    double total = merged.cm_total(cm);
    for (int v = 0; v < kCmArity[c]; ++v) {
      double expected = total > 0.0 ? merged.count(cm, v) / total : 0.0;
      EXPECT_NEAR(split[idx++], expected, 1e-9);
    }
  }
}

// --------------------------------------------------------------- vp tree ----

TEST(VpTree, RangeQueryMatchesBruteForce) {
  auto points = three_blobs(40, 5);
  VpTree tree(points);
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    size_t q = rng.next_below(points.size());
    double eps = 0.5 + rng.next_double() * 10.0;
    std::vector<size_t> got;
    tree.range_query(points[q], eps, &got);
    std::set<size_t> got_set(got.begin(), got.end());
    std::set<size_t> want;
    for (size_t i = 0; i < points.size(); ++i) {
      if (euclidean_distance(points[q], points[i]) <= eps) want.insert(i);
    }
    EXPECT_EQ(got_set, want) << "trial " << trial;
  }
}

// A coarse 2-D lattice: a 7x7 integer grid with every third point removed
// and three points duplicated, so many pairs lie exactly 1, sqrt(2), 2, ...
// apart.
std::vector<std::vector<double>> coarse_lattice() {
  std::vector<std::vector<double>> points;
  for (int x = 0; x < 7; ++x) {
    for (int y = 0; y < 7; ++y) {
      if ((x * 7 + y) % 3 != 0) points.push_back({double(x), double(y)});
    }
  }
  points.push_back(points[4]);
  points.push_back(points[4]);
  points.push_back(points[17]);
  return points;
}

// Radii that some lattice pairs are exactly apart.
const std::vector<double> kLatticeEps = {1.0, std::sqrt(2.0), 2.0,
                                         std::sqrt(5.0), 3.0};

TEST(VpTree, RangeQueryKeepsTiesAtTheRadius) {
  // The root's radius is 2 and one of the two points at 2 lands in the
  // outside child; from the query at 1 it is exactly eps away.
  std::vector<std::vector<double>> points = {{0.0}, {1.0}, {2.0}, {2.0}};
  VpTree tree(points);
  std::vector<size_t> got;
  tree.range_query({1.0}, 1.0, &got);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<size_t>{0, 1, 2, 3}));
}

TEST(VpTree, NeighborsWithinIsExactOnLatticeTies) {
  auto points = coarse_lattice();
  VpTree tree(points);
  for (double eps : kLatticeEps) {
    for (size_t p = 0; p < points.size(); ++p) {
      std::vector<VpTree::Neighbor> hits;
      tree.neighbors_within(p, eps, &hits);
      std::vector<size_t> via_query;
      tree.range_query(points[p], eps, &via_query);
      std::set<size_t> got;
      for (const VpTree::Neighbor& h : hits) {
        got.insert(h.index);
        // Bit-identical to the reference distance.
        EXPECT_EQ(h.distance, euclidean_distance(points[p], points[h.index]));
      }
      std::set<size_t> want;
      for (size_t i = 0; i < points.size(); ++i) {
        if (euclidean_distance(points[p], points[i]) <= eps) want.insert(i);
      }
      EXPECT_EQ(got, want) << "point " << p << " eps " << eps;
      EXPECT_EQ(hits.size(), got.size());
      EXPECT_EQ(std::set<size_t>(via_query.begin(), via_query.end()), want);
    }
  }
}

TEST(VpTree, KthNeighborDistance) {
  std::vector<std::vector<double>> points = {
      {0.0}, {1.0}, {2.0}, {4.0}, {8.0}};
  VpTree tree(points);
  EXPECT_DOUBLE_EQ(tree.kth_neighbor_distance(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(tree.kth_neighbor_distance(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(tree.kth_neighbor_distance(0, 4), 8.0);
}

// ---------------------------------------------------------------- dbscan ----

TEST(Dbscan, FindsThreeBlobs) {
  auto points = three_blobs(50, 1);
  DbscanParams params;
  params.eps = 1.5;
  params.min_pts = 5;
  DbscanResult r = dbscan(points, params);
  EXPECT_EQ(r.num_clusters, 3);
  // Points of a blob share a label.
  for (size_t b = 0; b < 3; ++b) {
    int label = r.labels[b * 50];
    EXPECT_GE(label, 0);
    for (size_t i = 0; i < 50; ++i) EXPECT_EQ(r.labels[b * 50 + i], label);
  }
}

TEST(Dbscan, IsolatedPointIsNoise) {
  auto points = three_blobs(30, 2);
  points.push_back({100.0, 100.0});
  DbscanParams params;
  params.eps = 1.5;
  params.min_pts = 5;
  DbscanResult r = dbscan(points, params);
  EXPECT_EQ(r.labels.back(), kNoise);
}

TEST(Dbscan, AutoEpsFindsStructure) {
  auto points = three_blobs(50, 3);
  DbscanParams params;  // eps auto
  DbscanResult r = dbscan(points, params);
  EXPECT_GE(r.num_clusters, 3);
  EXPECT_GT(r.eps_used, 0.0);
}

TEST(Dbscan, Deterministic) {
  auto points = three_blobs(40, 4);
  DbscanParams params;
  params.eps = 1.5;
  params.min_pts = 4;
  DbscanResult a = dbscan(points, params);
  DbscanResult b = dbscan(points, params);
  EXPECT_EQ(a.labels, b.labels);
}

TEST(Dbscan, EmptyInput) {
  DbscanResult r = dbscan({}, {});
  EXPECT_TRUE(r.labels.empty());
  EXPECT_EQ(r.num_clusters, 0);
}

// ----------------------------------------------------------- dbscan grid ----

// Run the grid pass on several workers, so a ThreadSanitizer build sees
// its concurrent writes.
constexpr size_t kGridThreads = 3;

// Every grid entry must equal dbscan() at that eps: the same labels,
// num_clusters and (bit-identical) eps_used.
void expect_grid_matches_dbscan(
    const std::vector<std::vector<double>>& points,
    const std::vector<double>& eps_values, size_t min_pts) {
  DbscanParams params;
  params.min_pts = min_pts;
  VpTree tree(points);
  std::vector<DbscanResult> grid =
      dbscan_grid(tree, params, eps_values, kGridThreads);
  ASSERT_EQ(grid.size(), eps_values.size());
  for (size_t i = 0; i < eps_values.size(); ++i) {
    params.eps = eps_values[i];
    DbscanResult want = dbscan(points, params);
    EXPECT_EQ(grid[i].labels, want.labels) << "eps " << eps_values[i];
    EXPECT_EQ(grid[i].num_clusters, want.num_clusters)
        << "eps " << eps_values[i];
    EXPECT_EQ(grid[i].eps_used, want.eps_used) << "eps " << eps_values[i];
  }
}

TEST(DbscanGrid, MatchesDbscanOnThreeBlobs) {
  auto points = three_blobs(50, 1);
  expect_grid_matches_dbscan(points, {0.05, 0.2, 0.5, 1.0, 1.5, 3.0, 12.0},
                             5);
}

TEST(DbscanGrid, MatchesDbscanOnCoarseLatticeWithDuplicates) {
  auto points = coarse_lattice();
  for (size_t min_pts = 1; min_pts <= 10; ++min_pts) {
    SCOPED_TRACE(min_pts);
    expect_grid_matches_dbscan(points, kLatticeEps, min_pts);
  }
}

TEST(DbscanGrid, UnsortedAndRepeatedValues) {
  auto points = three_blobs(40, 8);
  expect_grid_matches_dbscan(points, {1.5, 0.2, 1.5, 6.0, 0.2, 0.7}, 4);
}

TEST(DbscanGrid, FewerPointsThanMinPts) {
  std::vector<std::vector<double>> points = {{0.0, 0.0}, {0.1, 0.0},
                                             {0.0, 0.1}};
  expect_grid_matches_dbscan(points, {0.05, 0.5, 5.0}, 8);
  VpTree tree(points);
  for (const DbscanResult& r :
       dbscan_grid(tree, DbscanParams{}, {5.0}, kGridThreads)) {
    EXPECT_EQ(r.num_clusters, 0);
    EXPECT_EQ(r.labels, std::vector<int>(3, kNoise));
  }
}

TEST(DbscanGrid, EmptyInput) {
  expect_grid_matches_dbscan({}, {0.5, 1.0}, 8);
  VpTree tree({});
  std::vector<DbscanResult> grid =
      dbscan_grid(tree, DbscanParams{}, {0.5, 1.0}, kGridThreads);
  ASSERT_EQ(grid.size(), 2u);
  EXPECT_TRUE(grid[0].labels.empty());
  EXPECT_EQ(grid[0].eps_used, 0.0);
  EXPECT_TRUE(dbscan_grid(tree, DbscanParams{}, {}, kGridThreads).empty());
}

TEST(DbscanGrid, ValuesAtOrBelowZeroAutoTune) {
  // As DbscanParams::eps: <= 0 means estimate_eps() * eps_scale.
  auto points = three_blobs(50, 3);
  expect_grid_matches_dbscan(points, {0.0, -1.0, 1.5, -0.5}, 8);
  VpTree tree(points);
  DbscanParams params;
  std::vector<DbscanResult> grid =
      dbscan_grid(tree, params, {0.0, -2.0}, kGridThreads);
  const double tuned = estimate_eps(tree, params.min_pts) * params.eps_scale;
  EXPECT_EQ(grid[0].eps_used, tuned);
  EXPECT_EQ(grid[1].eps_used, tuned);
}

// ---------------------------------------------------------------- kmeans ----

TEST(KMeans, SeparatesBlobs) {
  auto points = three_blobs(40, 6);
  KMeansParams params;
  params.k = 3;
  KMeansResult r = kmeans(points, params);
  ASSERT_EQ(r.centroids.size(), 3u);
  // Each blob maps to a single cluster.
  for (size_t b = 0; b < 3; ++b) {
    int label = r.labels[b * 40];
    for (size_t i = 0; i < 40; ++i) EXPECT_EQ(r.labels[b * 40 + i], label);
  }
  EXPECT_LT(r.inertia, 100.0);
}

TEST(KMeans, FewerPointsThanK) {
  std::vector<std::vector<double>> points = {{0.0}, {5.0}};
  KMeansParams params;
  params.k = 5;
  KMeansResult r = kmeans(points, params);
  EXPECT_EQ(r.centroids.size(), 2u);
}

TEST(KMeans, DeterministicForSeed) {
  auto points = three_blobs(30, 7);
  KMeansParams params;
  params.k = 3;
  EXPECT_EQ(kmeans(points, params).labels, kmeans(points, params).labels);
}

// -------------------------------------------------- intention clustering ----

std::vector<Document> make_two_intent_corpus(size_t n) {
  std::vector<Document> docs;
  for (size_t i = 0; i < n; ++i) {
    // Every doc: a descriptive present-tense segment, then questions.
    docs.push_back(Document::analyze(
        static_cast<DocId>(i),
        "I have a fast laptop and it runs a printer. "
        "The system uses a long cable and the drive works. "
        "Can you replace the printer? "
        "What should I do about the cable?"));
  }
  return docs;
}

TEST(IntentionClustering, RefinementKeepsOneSegmentPerDocPerCluster) {
  auto docs = make_two_intent_corpus(30);
  std::vector<Segmentation> segs(docs.size());
  for (size_t d = 0; d < docs.size(); ++d) {
    segs[d] = Segmentation::all_units(docs[d].num_units());
  }
  auto clustering = IntentionClustering::build(docs, segs);
  ASSERT_GE(clustering.num_clusters(), 1);
  std::set<std::pair<DocId, int>> seen;
  for (const RefinedSegment& s : clustering.segments()) {
    auto key = std::make_pair(s.doc, s.cluster);
    EXPECT_TRUE(seen.insert(key).second)
        << "doc " << s.doc << " has two segments in cluster " << s.cluster;
    EXPECT_GE(s.num_units(), 1u);
  }
}

TEST(IntentionClustering, EveryInputSegmentIsCovered) {
  auto docs = make_two_intent_corpus(20);
  std::vector<Segmentation> segs(docs.size());
  for (size_t d = 0; d < docs.size(); ++d) {
    segs[d] = Segmentation{docs[d].num_units(), {2}};
  }
  auto clustering = IntentionClustering::build(docs, segs);
  // Units covered by refined segments == total units.
  size_t covered = 0;
  for (const RefinedSegment& s : clustering.segments()) {
    covered += s.num_units();
  }
  size_t total = 0;
  for (const Document& d : docs) total += d.num_units();
  EXPECT_EQ(covered, total);
}

TEST(IntentionClustering, FromLabelsRespectsLabels) {
  auto docs = make_two_intent_corpus(10);
  std::vector<Segmentation> segs(docs.size());
  std::vector<int> labels;
  for (size_t d = 0; d < docs.size(); ++d) {
    segs[d] = Segmentation{docs[d].num_units(), {2}};
    labels.push_back(0);  // first segment -> cluster 0
    labels.push_back(1);  // second -> cluster 1
  }
  auto clustering = IntentionClustering::from_labels(docs, segs, labels, 2);
  EXPECT_EQ(clustering.num_clusters(), 2);
  EXPECT_EQ(clustering.cluster_members()[0].size(), docs.size());
  EXPECT_EQ(clustering.cluster_members()[1].size(), docs.size());
  for (const RefinedSegment& s : clustering.segments()) {
    if (s.cluster == 0) {
      EXPECT_EQ(s.ranges.front().first, 0u);
    } else {
      EXPECT_EQ(s.ranges.front().first, 2u);
    }
  }
}

TEST(IntentionClustering, NonAdjacentSameClusterSegmentsConcatenate) {
  auto docs = make_two_intent_corpus(6);
  std::vector<Segmentation> segs(docs.size());
  std::vector<int> labels;
  for (size_t d = 0; d < docs.size(); ++d) {
    segs[d] = Segmentation{docs[d].num_units(), {1, 2, 3}};  // 4 segments
    labels.push_back(0);
    labels.push_back(1);
    labels.push_back(0);  // same cluster as the first, non-adjacent
    labels.push_back(1);
  }
  auto clustering = IntentionClustering::from_labels(docs, segs, labels, 2);
  for (const RefinedSegment& s : clustering.segments()) {
    EXPECT_EQ(s.ranges.size(), 2u);  // each refined segment holds 2 ranges
    EXPECT_EQ(s.num_units(), 2u);
  }
}

TEST(IntentionClustering, CentroidsHaveFeatureDims) {
  auto docs = make_two_intent_corpus(15);
  std::vector<Segmentation> segs(docs.size());
  for (size_t d = 0; d < docs.size(); ++d) {
    segs[d] = Segmentation{docs[d].num_units(), {2}};
  }
  auto clustering = IntentionClustering::build(docs, segs);
  for (const auto& c : clustering.centroids()) {
    EXPECT_EQ(c.size(), static_cast<size_t>(kSegmentFeatureDims));
  }
}

TEST(IntentionClustering, GridMultipleAtOrBelowZeroAutoTunes) {
  // A grid multiple <= 0 keeps DbscanParams::eps's meaning: the auto-tuned
  // eps, i.e. the estimate times eps_scale, the same eps as a multiple of
  // exactly eps_scale.
  auto docs = make_two_intent_corpus(30);
  std::vector<Segmentation> segs(docs.size());
  for (size_t d = 0; d < docs.size(); ++d) {
    segs[d] = Segmentation{docs[d].num_units(), {2}};
  }
  GroupingOptions auto_tuned;
  auto_tuned.kmeans_fallback_k = 0;  // keep DBSCAN's eps_used
  auto_tuned.eps_grid = {0.0, -1.0};
  GroupingOptions scaled = auto_tuned;
  scaled.eps_grid = {scaled.dbscan.eps_scale};
  auto a = IntentionClustering::build(docs, segs, auto_tuned);
  auto b = IntentionClustering::build(docs, segs, scaled);
  EXPECT_GT(a.eps_used(), 0.0);
  EXPECT_EQ(a.eps_used(), b.eps_used());
  EXPECT_EQ(a.num_clusters(), b.num_clusters());
  ASSERT_EQ(a.segments().size(), b.segments().size());
  for (size_t i = 0; i < a.segments().size(); ++i) {
    EXPECT_EQ(a.segments()[i].cluster, b.segments()[i].cluster);
    EXPECT_EQ(a.segments()[i].ranges, b.segments()[i].ranges);
  }
}

TEST(IntentionClustering, EmptyCorpus) {
  auto clustering = IntentionClustering::build({}, {});
  EXPECT_EQ(clustering.num_clusters(), 0);
  EXPECT_TRUE(clustering.segments().empty());
}

}  // namespace
}  // namespace ibseg
