#ifndef IBSEG_CORE_PIPELINE_H_
#define IBSEG_CORE_PIPELINE_H_

#include <functional>
#include <memory>
#include <vector>

#include "cluster/intention_clusters.h"
#include "index/intention_matcher.h"
#include "seg/segmenter.h"
#include "storage/snapshot.h"
#include "text/vocabulary.h"
#include "util/thread_pool.h"

/// \file
/// RelatedPostPipeline: the paper's end-to-end system in one object — the
/// offline phase (analyze -> segment -> cluster -> per-intention index)
/// and the online top-k related-post query (Algorithm 2), plus online
/// ingest and external-document queries. The concurrency, persistence and
/// network layers (core/serving.h, core/sharded_serving.h, net/server.h)
/// all wrap this pipeline without changing its results.

namespace ibseg {

/// Timing breakdown of the offline phase, mirroring what the paper reports
/// in Table 6 / Fig. 11.
struct PipelineTimings {
  double segmentation_total_sec = 0.0;  ///< sum over posts (worst case)
  double segmentation_avg_sec = 0.0;    ///< per post
  double grouping_sec = 0.0;            ///< clustering + refinement
  double indexing_sec = 0.0;            ///< per-cluster index construction
};

/// Options for the end-to-end related-post pipeline.
struct PipelineOptions {
  /// The segmenter for the offline phase (default: CM-feature tiling, the
  /// best human-approximating intention segmenter in this implementation;
  /// see MethodConfig::intent_segmenter).
  Segmenter segmenter = Segmenter::cm_tiling();
  GroupingOptions grouping;
  MatcherOptions matcher;
  /// Worker threads for the segmentation phase (the paper segments its
  /// largest corpus in parallel chunks).
  size_t num_threads = 1;
};

/// A post that has been analyzed and segmented but not yet published into
/// the indices — the expensive, state-free half of add_post. Preparing is
/// safe to run on any thread without synchronization; publishing
/// (RelatedPostPipeline::ingest) mutates the pipeline and is not.
/// ShardedServing uses this split to keep analysis outside every lock.
struct PreparedPost {
  Document doc;
  Segmentation seg;
};

/// The complete offline+online system of Sec. 4: segmentation ->
/// segment grouping -> refinement -> per-intention indexing, then top-k
/// retrieval by Algorithms 1 and 2.
///
/// Thread-safety: all query methods (find_related, find_related_external,
/// the getters) are strictly read-only; any number of threads may call
/// them concurrently as long as no mutation (add_post / ingest) runs.
/// Mutations require exclusive access — each ServingPipeline shard
/// (core/serving.h) of the ShardedServing facade enforces this at runtime.
class RelatedPostPipeline {
 public:
  /// Builds the pipeline over `docs` (moved in).
  static RelatedPostPipeline build(std::vector<Document> docs,
                                   const PipelineOptions& options = {});

  /// Rebuilds a pipeline from a previously captured offline snapshot
  /// (segmentations + intention assignment), skipping the segmentation and
  /// clustering phases. The snapshot must cover exactly these documents
  /// (checked; returns a fresh build on mismatch).
  static RelatedPostPipeline build_from_snapshot(
      std::vector<Document> docs, const PipelineSnapshot& snapshot,
      const PipelineOptions& options = {});

  /// Builds one document-partitioned shard of a sharded deployment
  /// (core/sharded_serving.h): like build_from_snapshot, but the pipeline
  /// adopts `shared_vocab` (one vocabulary instance shared by every shard,
  /// pre-seeded in the unpartitioned interning order so TermIds are
  /// corpus-global) instead of creating its own, and its clustering's
  /// centroids are overridden with `centroids` (the full corpus's) so
  /// nearest-centroid ingest assignment matches the unpartitioned
  /// pipeline. `snapshot` must cover exactly `docs` — this shard's slice
  /// of the global segmentations and labels, in global document order —
  /// and carry the global cluster count. `segment_terms` holds the bag of
  /// each of the slice's refined segments, in the order the slice's
  /// clustering lists them (IntentionMatcher::build's bag form); the
  /// indices take them over instead of re-reading tokens. The matcher
  /// scores against, and publishes into, `stats`: the deployment's
  /// statistics board, already seeded over the whole corpus. Falls back to
  /// a fresh build (with a board of its own) on an inconsistent snapshot,
  /// exactly like build_from_snapshot.
  static RelatedPostPipeline build_shard(
      std::vector<Document> docs, const PipelineSnapshot& snapshot,
      std::shared_ptr<Vocabulary> shared_vocab,
      const std::vector<std::vector<double>>& centroids,
      std::vector<TermVector> segment_terms,
      std::shared_ptr<GlobalIndexStats> stats,
      const PipelineOptions& options = {});

  /// Rebuilds the full offline phase (clustering + indexing) over `docs`
  /// with ALREADY-COMPUTED segmentations — the background-recluster path.
  /// Because segmentation is a deterministic pure function of (document,
  /// segmenter options), the result is bit-identical to build(docs,
  /// options) while skipping its most expensive phase; the vectors must be
  /// parallel (falls back to build() when they are not).
  static RelatedPostPipeline rebuild(std::vector<Document> docs,
                                     std::vector<Segmentation> segmentations,
                                     const PipelineOptions& options = {});

  /// Replaces the clustering's centroids with externally persisted ones
  /// (no-op on a cluster-count mismatch). Restore uses this to pin
  /// nearest-centroid ingest assignment to the exact saved values instead
  /// of trusting the label-derived recomputation.
  void override_centroids(std::vector<std::vector<double>> centroids) {
    if (clustering_ != nullptr &&
        static_cast<int>(centroids.size()) == clustering_->num_clusters()) {
      clustering_->override_centroids(std::move(centroids));
    }
  }

  /// Captures the offline state for build_from_snapshot.
  PipelineSnapshot snapshot() const {
    std::vector<DocId> ids;
    ids.reserve(docs_.size());
    for (const Document& d : docs_) ids.push_back(d.id());
    return make_snapshot(segmentations_, *clustering_, ids);
  }

  /// Top-k related posts for a reference post already in the corpus.
  std::vector<ScoredDoc> find_related(DocId query, int k) const {
    return matcher_->find_related(query, k);
  }

  /// Top-k related posts for an external post (not ingested). The post is
  /// segmented with the pipeline's segmenter and its segments assigned to
  /// the nearest intention centroids. Read-only.
  std::vector<ScoredDoc> find_related_external(const Document& doc,
                                               int k) const;

  /// Online ingestion: segments `text`, assigns its segments to the
  /// nearest intention centroids and adds it to the indices under a fresh
  /// document id (returned). The paper's offline re-clustering remains the
  /// periodic maintenance path (Sec. 9.2).
  DocId add_post(std::string text);

  /// The analysis half of add_post: cleans, tokenizes and segments `text`
  /// under document id `id` without touching pipeline state. Read-only.
  PreparedPost prepare_post(DocId id, std::string text) const;

  /// The publication half of add_post: assigns the prepared post's
  /// segments to the nearest centroids and adds it to the indices.
  /// `post.doc.id()` must be fresh. Mutates the pipeline. Returns the
  /// largest nearest-centroid assignment distance over the post's segments
  /// (IntentionMatcher::add_document) — the outlier signal the serving
  /// layer's pending pool consumes; purely diagnostic, assignment is
  /// unchanged.
  double ingest(PreparedPost post);

  /// Drops the token arrays of documents [first, end) (Document::
  /// drop_tokens). The serving layer calls it once they are indexed.
  void drop_tokens(size_t first) {
    for (size_t d = first; d < docs_.size(); ++d) docs_[d].drop_tokens();
  }

  /// The id add_post would assign next. Always strictly greater than every
  /// ingested document id (seed ids need not be contiguous).
  DocId next_id() const { return next_id_; }

  /// \brief The full option set the pipeline was built with (segmenter,
  /// grouping, matcher, threads) — what a background recluster must reuse
  /// so the shadow build is exactly a cold build of the same deployment.
  const PipelineOptions& options() const { return options_; }
  /// \brief The segmenter the pipeline was built with.
  const Segmenter& segmenter() const { return segmenter_; }
  /// \brief The corpus-shared vocabulary (stemmed, stopword-filtered).
  const Vocabulary& vocab() const { return *vocab_; }
  /// \brief The corpus, in build order (ingested posts appended).
  const std::vector<Document>& docs() const { return docs_; }
  /// \brief Per-document segmentations, parallel to docs().
  const std::vector<Segmentation>& segmentations() const {
    return segmentations_;
  }
  /// \brief The intention clustering of the offline phase.
  const IntentionClustering& clustering() const { return *clustering_; }
  /// \brief The per-intention index machinery (Algorithms 1/2).
  const IntentionMatcher& matcher() const { return *matcher_; }

  /// \brief Offline-phase timing breakdown (Table 6 / Fig. 11).
  const PipelineTimings& timings() const { return timings_; }

 private:
  RelatedPostPipeline() = default;

  /// Makes the clustering of the adopted documents and segmentations.
  using GroupFn = std::function<IntentionClustering(
      const std::vector<Document>&, const std::vector<Segmentation>&)>;
  /// Makes the matcher over the adopted documents and their clustering.
  using IndexFn = std::function<IntentionMatcher(
      const std::vector<Document>&, const IntentionClustering&, Vocabulary&)>;

  /// The one build path: adopts the corpus, its segmentations, `vocab` and
  /// `options`, then groups and indexes, timing each. An empty `group`
  /// clusters afresh (IntentionClustering::build); an empty `index` builds
  /// the matcher from the documents with a board of its own.
  static RelatedPostPipeline assemble(std::vector<Document> docs,
                                      std::vector<Segmentation> segmentations,
                                      std::shared_ptr<Vocabulary> vocab,
                                      const PipelineOptions& options,
                                      const GroupFn& group = {},
                                      const IndexFn& index = {});

  std::vector<Document> docs_;
  std::vector<Segmentation> segmentations_;
  std::unique_ptr<IntentionClustering> clustering_;
  std::unique_ptr<IntentionMatcher> matcher_;
  /// shared_ptr (not unique_ptr) so sharded deployments can point every
  /// shard at one corpus-global vocabulary; a standalone pipeline is the
  /// sole owner.
  std::shared_ptr<Vocabulary> vocab_;
  Segmenter segmenter_ = Segmenter::cm_tiling();
  PipelineOptions options_;
  PipelineTimings timings_;
  /// Cached fresh-id watermark: max seed id + 1, bumped on every ingest.
  /// Replaces the former per-add_post linear scan over docs_.
  DocId next_id_ = 1;
};

}  // namespace ibseg

#endif  // IBSEG_CORE_PIPELINE_H_
