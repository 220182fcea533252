#ifndef IBSEG_INDEX_INTENTION_MATCHER_H_
#define IBSEG_INDEX_INTENTION_MATCHER_H_

#include <atomic>
#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/intention_clusters.h"
#include "index/collection_stats.h"
#include "index/inverted_index.h"
#include "index/scoring.h"
#include "seg/document.h"
#include "text/vocabulary.h"

namespace ibseg {

/// A retrieval result: a document and its (summed) matching score.
struct ScoredDoc {
  DocId doc = 0;
  double score = 0.0;
};

/// Options for the intention-based matcher.
struct MatcherOptions {
  /// Per-intention list length n as a multiple of k (the paper empirically
  /// selects n = 2k, Sec. 7).
  int top_n_factor = 2;
  /// Optional per-cluster weights for Algorithm 2's score sum ("in an
  /// application scenario where some clusters are more important than the
  /// others, different weights can be considered", Sec. 7). Indexed by
  /// cluster id; missing entries default to 1. Empty = uniform.
  std::vector<double> cluster_weights;
  /// Alternative list-selection rule: when > 0, a per-intention list keeps
  /// every segment scoring at least this value instead of the top-n (the
  /// Fagin-style threshold variant the paper mentions — and rejects for
  /// fairness across intentions; provided for the ablation bench).
  double score_threshold = 0.0;
  /// Floor applied to unit norms, as a fraction of the cluster's
  /// collection-average norm (0 = no floor; the statistics board applies
  /// it). Eq. 7/8 divide by a per-unit sum that gets tiny for very short
  /// units, which would let a one-term overlap with a three-term segment
  /// outscore multi-term matches against substantial segments; the floor
  /// keeps short-unit weights bounded.
  double min_norm_fraction = 1.0;
  /// The segment-comparison function (paper Eq. 9 by default; BM25 and a
  /// query-likelihood language model are selectable, per the paper's
  /// "any text comparison may be employed", Sec. 7).
  ScoringOptions scoring;
  /// Scores through the map-based reference (score_units_counted, then
  /// exclude/threshold/sort here) instead of the dense kernel
  /// (score_units_dense). Results are bit-identical either way; the
  /// differential suites set it to reach the reference, and nothing else
  /// should.
  bool exhaustive_fallback = false;
};

/// Cumulative query-path work counters (one per matcher, fed by every
/// match_cluster_terms call on any thread; relaxed atomics — these are
/// monitoring data, not synchronization).
struct QueryWorkCounters {
  /// Candidate units scored (ScoreStats::units_scored, summed).
  std::atomic<uint64_t> units_scored{0};
  /// Candidate units skipped without being scored. The dense kernel scores
  /// every candidate, so this stays 0; it is kept because the served-path
  /// benchmark reports it (index.units_pruned_per_query).
  std::atomic<uint64_t> units_pruned{0};
};

/// The paper's online matching machinery (Sec. 7): one full-text inverted
/// index per intention cluster, Eq. 8 term weighting (weights computed
/// within the segment's cluster), Eq. 9 per-intention relatedness,
/// Algorithm 1 (single-intention top-n) and Algorithm 2 (all-intentions
/// top-k by score summation). Every cluster's collection statistics live
/// on one statistics board (GlobalIndexStats) the matcher holds: its own
/// for a standalone matcher, the deployment's for a shard.
class IntentionMatcher {
 public:
  /// Builds the per-cluster indices over the refined segments of
  /// `clustering`, and a statistics board holding exactly them. `docs`
  /// must be the corpus the clustering was built from; `vocab` is the
  /// corpus-shared vocabulary (terms are stemmed and stopword-filtered
  /// exactly as at segmentation time).
  static IntentionMatcher build(const std::vector<Document>& docs,
                                const IntentionClustering& clustering,
                                Vocabulary& vocab,
                                const MatcherOptions& options = {});

  /// The same build over bags made beforehand: `segment_terms[i]` is the
  /// bag of clustering.segments()[i] (see segment_terms), moved into its
  /// cluster's index. The matcher scores against, and ingests into,
  /// `stats`, which the caller has seeded (seed_stats) — over exactly these
  /// bags, or over the whole corpus when this matcher is one shard of it.
  static IntentionMatcher build(const IntentionClustering& clustering,
                                std::vector<TermVector> segment_terms,
                                const MatcherOptions& options,
                                std::shared_ptr<GlobalIndexStats> stats);

  /// A statistics board holding every bag of `segment_terms` (parallel to
  /// clustering.segments()), appended in the order build() indexes them:
  /// cluster by cluster, in member order.
  static std::shared_ptr<GlobalIndexStats> seed_stats(
      const IntentionClustering& clustering,
      const std::vector<TermVector>& segment_terms, double min_norm_fraction);

  /// The term bag of every refined segment of `clustering`, parallel to
  /// clustering.segments(). New terms are interned into `vocab` cluster by
  /// cluster in member order — the order build() indexes the segments in,
  /// so TermIds do not depend on who builds the bags. Reads each
  /// document's tokens through Document::index_tokens.
  static std::vector<TermVector> segment_terms(
      const std::vector<Document>& docs,
      const IntentionClustering& clustering, Vocabulary& vocab);

  /// Algorithm 2: the top-k documents related to reference document
  /// `query`. The query document itself is excluded from the result.
  std::vector<ScoredDoc> find_related(DocId query, int k) const;

  /// Algorithm 1: the top-n documents related to `query` considering only
  /// intention cluster `cluster` (empty when the query has no segment
  /// there).
  std::vector<ScoredDoc> match_single_intention(int cluster, DocId query,
                                                int n) const;

  /// Sentinel for match_cluster_terms: exclude no document.
  static constexpr DocId kNoDocId = std::numeric_limits<DocId>::max();

  /// The Algorithm 1 core with the query supplied as a term bag instead of
  /// a corpus DocId: scores `terms` against cluster `cluster`'s index,
  /// drops `exclude`'s own segment (pass kNoDocId to keep everything),
  /// applies MatcherOptions::score_threshold, and selects/ranks on
  /// (score desc, DocId asc), weighing the postings with `collection`, a
  /// snapshot of the cluster's statistics on this matcher's board. This is
  /// the scatter primitive of the sharded serving layer: each shard
  /// evaluates it over its own partition against one snapshot of the
  /// deployment's board, so per-unit scores are bit-identical to an
  /// unpartitioned index (see score_units).
  std::vector<ScoredDoc> match_cluster_terms(
      int cluster, const TermVector& terms, DocId exclude, int n,
      const ClusterCollectionStats& collection) const;

  /// The term bag of each cluster where `doc` has a (refined) segment, in
  /// ascending cluster order. Copies — safe to ship across shards. Empty
  /// when `doc` is not indexed here.
  std::vector<std::pair<int, TermVector>> doc_cluster_terms(DocId doc) const;

  /// Nearest-centroid assignment of an external (non-ingested) post:
  /// merges same-cluster segments exactly as add_document refinement does
  /// and returns the per-cluster term bags, keyed by cluster, restricted
  /// to clusters < num_clusters. Pure function of its inputs (vocabulary
  /// lookup only, nothing interned) — the sharded layer assigns once and
  /// scatters the bags to every shard.
  static std::map<int, TermVector> assign_external(
      const Document& doc, const Segmentation& segmentation,
      const std::vector<std::vector<double>>& centroids,
      const Vocabulary& vocab, size_t num_clusters,
      const FeatureVectorOptions& features = {});

  /// Per-intention contribution of a (query, candidate) pair: why the
  /// matcher considers them related. One entry per cluster where the query
  /// has a segment and the candidate scored, with the candidate's score
  /// and 1-based rank in that cluster's list (the paper's Fig. 4/5 story:
  /// which intention the match comes from).
  struct MatchExplanation {
    int cluster = 0;
    double score = 0.0;
    int rank = 0;
  };
  std::vector<MatchExplanation> explain(DocId query, DocId candidate,
                                        int k) const;

  /// Ad-hoc query: the top-k related posts for a post that is NOT part of
  /// the corpus (the paper assumes d_q in D; downstream users rarely can).
  /// Segments are assigned to the nearest intention centroid exactly as in
  /// add_document, but nothing is ingested. `vocab` must be the matcher's
  /// build vocabulary; terms it does not contain are dropped (they are
  /// unmatched by definition). Strictly read-only — safe to call from many
  /// threads concurrently as long as no ingestion runs.
  std::vector<ScoredDoc> find_related_external(
      const Document& doc, const Segmentation& segmentation,
      const std::vector<std::vector<double>>& centroids,
      const Vocabulary& vocab, int k,
      const FeatureVectorOptions& features = {}) const;

  /// Online ingestion: adds a new post after the offline build. Its
  /// segments are assigned to the nearest intention centroid (the paper
  /// re-clusters offline periodically and finds intentions stable over
  /// time, Sec. 9.2, so nearest-centroid assignment between re-clusterings
  /// is sound); same-cluster segments are concatenated (refinement),
  /// appended to the statistics board in ascending cluster order, and the
  /// touched cluster indices re-finalized. `doc.id()` must be new.
  /// `centroids` are the offline clustering's centroids; `features`
  /// must match the options the clustering was built with.
  ///
  /// Returns the largest nearest-centroid distance over the document's
  /// segments (0.0 for a document with no non-empty segments) — the
  /// assignment-quality signal the serving layer's outlier/pending pool
  /// and recluster-trigger policy consume. The distance is diagnostic
  /// only: assignment itself is unchanged, so results stay bit-identical
  /// whether or not anyone reads it.
  double add_document(const Document& doc, const Segmentation& segmentation,
                      const std::vector<std::vector<double>>& centroids,
                      Vocabulary& vocab,
                      const FeatureVectorOptions& features = {});

  /// \brief Number of intention clusters (= per-cluster indices).
  int num_clusters() const { return static_cast<int>(indices_.size()); }

  /// \brief The options the matcher was built with.
  const MatcherOptions& options() const { return options_; }

  /// Total number of indexed segments (diagnostics).
  size_t num_segments() const { return total_segments_; }

  /// Bytes of the sealed flat postings runs across all cluster indices
  /// (metadata tables included) — the ibseg_postings_bytes gauge input.
  /// Requires every index finalized (always true outside build/ingest).
  size_t postings_bytes() const {
    size_t total = 0;
    for (const ClusterIndex& ci : indices_) total += ci.index.flat().total_bytes();
    return total;
  }

  /// Lifetime query-path work counters (see QueryWorkCounters).
  const QueryWorkCounters& work_counters() const { return *work_; }

 private:
  struct ClusterIndex {
    InvertedIndex index;
    /// unit id in `index` -> owning document.
    std::vector<DocId> unit_doc;
    /// unit id -> the segment's term bag (needed when the unit is a query).
    std::vector<TermVector> unit_terms;
  };

  /// Effective weight of `cluster` (cluster_weights entry, default 1).
  double cluster_weight(int cluster) const;

  std::vector<ClusterIndex> indices_;
  /// doc -> (cluster, unit-in-cluster) pairs.
  std::map<DocId, std::vector<std::pair<int, uint32_t>>> doc_units_;
  MatcherOptions options_;
  size_t total_segments_ = 0;
  /// Query-path work counters; shared_ptr so the matcher stays movable.
  std::shared_ptr<QueryWorkCounters> work_ =
      std::make_shared<QueryWorkCounters>();
  /// The statistics board every query scores against and add_document
  /// appends to; shared with the deployment's other shards.
  std::shared_ptr<GlobalIndexStats> stats_;
};

}  // namespace ibseg

#endif  // IBSEG_INDEX_INTENTION_MATCHER_H_
