#include "core/pipeline.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/stopwatch.h"

namespace ibseg {

RelatedPostPipeline RelatedPostPipeline::build(std::vector<Document> docs,
                                               const PipelineOptions& options) {
  RelatedPostPipeline p;
  p.docs_ = std::move(docs);
  p.vocab_ = std::make_shared<Vocabulary>();
  p.segmenter_ = options.segmenter;
  p.options_ = options;
  p.segmentations_.resize(p.docs_.size());
  for (const Document& d : p.docs_) p.next_id_ = std::max(p.next_id_, d.id() + 1);

  // --- Segmentation (parallel; per-thread scratch vocabularies keep the
  // topical segmenter's term ids consistent within each document, which is
  // all its block cosines need).
  Stopwatch seg_watch;
  if (options.num_threads > 1 && p.docs_.size() > 1) {
    ThreadPool pool(options.num_threads);
    pool.parallel_for(p.docs_.size(), [&](size_t d) {
      Vocabulary scratch;
      p.segmentations_[d] = options.segmenter.segment(p.docs_[d], scratch);
    });
  } else {
    Vocabulary scratch;
    for (size_t d = 0; d < p.docs_.size(); ++d) {
      p.segmentations_[d] = options.segmenter.segment(p.docs_[d], scratch);
    }
  }
  p.timings_.segmentation_total_sec = seg_watch.elapsed_seconds();
  p.timings_.segmentation_avg_sec =
      p.docs_.empty() ? 0.0
                      : p.timings_.segmentation_total_sec /
                            static_cast<double>(p.docs_.size());

  // --- Segment grouping + refinement.
  Stopwatch group_watch;
  {
    obs::TraceScope grouping(obs::Stage::kGroup);
    p.clustering_ = std::make_unique<IntentionClustering>(IntentionClustering::build(
        p.docs_, p.segmentations_, options.grouping));
  }
  p.timings_.grouping_sec = group_watch.elapsed_seconds();

  // --- Per-intention indexing.
  Stopwatch index_watch;
  {
    obs::TraceScope indexing(obs::Stage::kIndexPublish);
    p.matcher_ = std::make_unique<IntentionMatcher>(IntentionMatcher::build(
        p.docs_, *p.clustering_, *p.vocab_, options.matcher));
  }
  p.timings_.indexing_sec = index_watch.elapsed_seconds();
  return p;
}

RelatedPostPipeline RelatedPostPipeline::rebuild(
    std::vector<Document> docs, std::vector<Segmentation> segmentations,
    const PipelineOptions& options) {
  if (segmentations.size() != docs.size()) {
    return build(std::move(docs), options);
  }
  for (size_t d = 0; d < docs.size(); ++d) {
    if (segmentations[d].num_units != docs[d].num_units()) {
      return build(std::move(docs), options);
    }
  }
  RelatedPostPipeline p;
  p.docs_ = std::move(docs);
  p.vocab_ = std::make_shared<Vocabulary>();
  p.segmenter_ = options.segmenter;
  p.options_ = options;
  p.segmentations_ = std::move(segmentations);
  for (const Document& d : p.docs_) p.next_id_ = std::max(p.next_id_, d.id() + 1);

  // Segmentation is a deterministic pure function of (document, segmenter
  // options), so adopting the caller's segmentations reproduces build()'s
  // exactly; everything downstream is byte-for-byte the cold-build path.
  Stopwatch group_watch;
  {
    obs::TraceScope grouping(obs::Stage::kGroup);
    p.clustering_ = std::make_unique<IntentionClustering>(
        IntentionClustering::build(p.docs_, p.segmentations_,
                                   options.grouping));
  }
  p.timings_.grouping_sec = group_watch.elapsed_seconds();

  Stopwatch index_watch;
  {
    obs::TraceScope indexing(obs::Stage::kIndexPublish);
    p.matcher_ = std::make_unique<IntentionMatcher>(IntentionMatcher::build(
        p.docs_, *p.clustering_, *p.vocab_, options.matcher));
  }
  p.timings_.indexing_sec = index_watch.elapsed_seconds();
  return p;
}

std::vector<ScoredDoc> RelatedPostPipeline::find_related_external(
    const Document& doc, int k) const {
  Vocabulary scratch;
  Segmentation seg = segmenter_.segment(doc, scratch);
  return matcher_->find_related_external(doc, seg, clustering_->centroids(),
                                         *vocab_, k);
}

PreparedPost RelatedPostPipeline::prepare_post(DocId id,
                                               std::string text) const {
  // Stage attribution happens inside the callees: Document::analyze
  // records "analyze", Segmenter::segment records "segment".
  PreparedPost post;
  post.doc = Document::analyze(id, std::move(text));
  Vocabulary scratch;
  post.seg = segmenter_.segment(post.doc, scratch);
  return post;
}

double RelatedPostPipeline::ingest(PreparedPost post) {
  double dist = matcher_->add_document(post.doc, post.seg,
                                       clustering_->centroids(), *vocab_);
  next_id_ = std::max(next_id_, post.doc.id() + 1);
  segmentations_.push_back(std::move(post.seg));
  docs_.push_back(std::move(post.doc));
  return dist;
}

DocId RelatedPostPipeline::add_post(std::string text) {
  DocId id = next_id_;
  ingest(prepare_post(id, std::move(text)));
  return id;
}

RelatedPostPipeline RelatedPostPipeline::build_from_snapshot(
    std::vector<Document> docs, const PipelineSnapshot& snapshot,
    const PipelineOptions& options) {
  if (!snapshot.is_consistent() ||
      snapshot.segmentations.size() != docs.size()) {
    return build(std::move(docs), options);
  }
  for (size_t d = 0; d < docs.size(); ++d) {
    if (snapshot.segmentations[d].num_units != docs[d].num_units()) {
      return build(std::move(docs), options);
    }
  }
  RelatedPostPipeline p;
  p.docs_ = std::move(docs);
  p.vocab_ = std::make_shared<Vocabulary>();
  p.segmenter_ = options.segmenter;
  p.options_ = options;
  p.segmentations_ = snapshot.segmentations;
  for (const Document& d : p.docs_) p.next_id_ = std::max(p.next_id_, d.id() + 1);

  Stopwatch group_watch;
  {
    obs::TraceScope grouping(obs::Stage::kGroup);
    p.clustering_ = std::make_unique<IntentionClustering>(
        restore_clustering(p.docs_, snapshot));
  }
  p.timings_.grouping_sec = group_watch.elapsed_seconds();

  Stopwatch index_watch;
  {
    obs::TraceScope indexing(obs::Stage::kIndexPublish);
    p.matcher_ = std::make_unique<IntentionMatcher>(IntentionMatcher::build(
        p.docs_, *p.clustering_, *p.vocab_, options.matcher));
  }
  p.timings_.indexing_sec = index_watch.elapsed_seconds();
  return p;
}

RelatedPostPipeline RelatedPostPipeline::build_shard(
    std::vector<Document> docs, const PipelineSnapshot& snapshot,
    std::shared_ptr<Vocabulary> shared_vocab,
    const std::vector<std::vector<double>>& centroids,
    std::vector<TermVector> segment_terms, const PipelineOptions& options) {
  if (!snapshot.is_consistent() ||
      snapshot.segmentations.size() != docs.size()) {
    return build(std::move(docs), options);
  }
  for (size_t d = 0; d < docs.size(); ++d) {
    if (snapshot.segmentations[d].num_units != docs[d].num_units()) {
      return build(std::move(docs), options);
    }
  }
  RelatedPostPipeline p;
  p.docs_ = std::move(docs);
  p.vocab_ = std::move(shared_vocab);
  p.segmenter_ = options.segmenter;
  p.options_ = options;
  p.segmentations_ = snapshot.segmentations;
  for (const Document& d : p.docs_) p.next_id_ = std::max(p.next_id_, d.id() + 1);

  Stopwatch group_watch;
  {
    obs::TraceScope grouping(obs::Stage::kGroup);
    p.clustering_ = std::make_unique<IntentionClustering>(
        restore_clustering(p.docs_, snapshot));
    // Every shard assigns against the full corpus's centroids; the
    // shard-local centroids restore_clustering derived from this slice
    // would drift from the unpartitioned assignment.
    if (p.clustering_->num_clusters() ==
        static_cast<int>(centroids.size())) {
      p.clustering_->override_centroids(centroids);
    }
  }
  p.timings_.grouping_sec = group_watch.elapsed_seconds();

  Stopwatch index_watch;
  {
    obs::TraceScope indexing(obs::Stage::kIndexPublish);
    p.matcher_ = std::make_unique<IntentionMatcher>(IntentionMatcher::build(
        *p.clustering_, std::move(segment_terms), options.matcher));
  }
  p.timings_.indexing_sec = index_watch.elapsed_seconds();
  return p;
}

}  // namespace ibseg
