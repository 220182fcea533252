#include "core/pipeline.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/stopwatch.h"

namespace ibseg {

namespace {

// Whether `segmentations` is one per document, each over its document's
// units.
bool segmentations_fit(const std::vector<Segmentation>& segmentations,
                       const std::vector<Document>& docs) {
  if (segmentations.size() != docs.size()) return false;
  for (size_t d = 0; d < docs.size(); ++d) {
    if (segmentations[d].num_units != docs[d].num_units()) return false;
  }
  return true;
}

}  // namespace

RelatedPostPipeline RelatedPostPipeline::assemble(
    std::vector<Document> docs, std::vector<Segmentation> segmentations,
    std::shared_ptr<Vocabulary> vocab, const PipelineOptions& options,
    const GroupFn& group, const IndexFn& index) {
  RelatedPostPipeline p;
  p.docs_ = std::move(docs);
  p.segmentations_ = std::move(segmentations);
  p.vocab_ = std::move(vocab);
  p.segmenter_ = options.segmenter;
  p.options_ = options;
  for (const Document& d : p.docs_) p.next_id_ = std::max(p.next_id_, d.id() + 1);

  // --- Segment grouping + refinement.
  Stopwatch group_watch;
  {
    obs::TraceScope grouping(obs::Stage::kGroup);
    p.clustering_ = std::make_unique<IntentionClustering>(
        group ? group(p.docs_, p.segmentations_)
              : IntentionClustering::build(p.docs_, p.segmentations_,
                                           options.grouping));
  }
  p.timings_.grouping_sec = group_watch.elapsed_seconds();

  // --- Per-intention indexing.
  Stopwatch index_watch;
  {
    obs::TraceScope indexing(obs::Stage::kIndexPublish);
    p.matcher_ = std::make_unique<IntentionMatcher>(
        index ? index(p.docs_, *p.clustering_, *p.vocab_)
              : IntentionMatcher::build(p.docs_, *p.clustering_, *p.vocab_,
                                        options.matcher));
  }
  p.timings_.indexing_sec = index_watch.elapsed_seconds();
  return p;
}

RelatedPostPipeline RelatedPostPipeline::build(std::vector<Document> docs,
                                               const PipelineOptions& options) {
  // --- Segmentation (parallel; per-thread scratch vocabularies keep the
  // topical segmenter's term ids consistent within each document, which is
  // all its block cosines need).
  std::vector<Segmentation> segmentations(docs.size());
  Stopwatch seg_watch;
  if (options.num_threads > 1 && docs.size() > 1) {
    ThreadPool pool(options.num_threads);
    pool.parallel_for(docs.size(), [&](size_t d) {
      Vocabulary scratch;
      segmentations[d] = options.segmenter.segment(docs[d], scratch);
    });
  } else {
    Vocabulary scratch;
    for (size_t d = 0; d < docs.size(); ++d) {
      segmentations[d] = options.segmenter.segment(docs[d], scratch);
    }
  }
  const double segmentation_sec = seg_watch.elapsed_seconds();

  RelatedPostPipeline p =
      assemble(std::move(docs), std::move(segmentations),
               std::make_shared<Vocabulary>(), options);
  p.timings_.segmentation_total_sec = segmentation_sec;
  p.timings_.segmentation_avg_sec =
      p.docs_.empty() ? 0.0
                      : segmentation_sec / static_cast<double>(p.docs_.size());
  return p;
}

RelatedPostPipeline RelatedPostPipeline::rebuild(
    std::vector<Document> docs, std::vector<Segmentation> segmentations,
    const PipelineOptions& options) {
  if (!segmentations_fit(segmentations, docs)) {
    return build(std::move(docs), options);
  }
  // Segmentation is a deterministic pure function of (document, segmenter
  // options), so adopting the caller's segmentations reproduces build()'s
  // exactly; everything downstream is byte-for-byte the cold-build path.
  return assemble(std::move(docs), std::move(segmentations),
                  std::make_shared<Vocabulary>(), options);
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
      !segmentations_fit(snapshot.segmentations, docs)) {
    return build(std::move(docs), options);
  }
  return assemble(
      std::move(docs), snapshot.segmentations, std::make_shared<Vocabulary>(),
      options,
      [&](const std::vector<Document>& d, const std::vector<Segmentation>&) {
        return restore_clustering(d, snapshot);
      });
}

RelatedPostPipeline RelatedPostPipeline::build_shard(
    std::vector<Document> docs, const PipelineSnapshot& snapshot,
    std::shared_ptr<Vocabulary> shared_vocab,
    const std::vector<std::vector<double>>& centroids,
    std::vector<TermVector> segment_terms,
    std::shared_ptr<GlobalIndexStats> stats, const PipelineOptions& options) {
  if (!snapshot.is_consistent() ||
      !segmentations_fit(snapshot.segmentations, docs)) {
    return build(std::move(docs), options);
  }
  return assemble(
      std::move(docs), snapshot.segmentations, std::move(shared_vocab),
      options,
      [&](const std::vector<Document>& d, const std::vector<Segmentation>&) {
        IntentionClustering clustering = restore_clustering(d, snapshot);
        // Every shard assigns against the full corpus's centroids; the
        // shard-local centroids restore_clustering derived from this slice
        // would drift from the unpartitioned assignment.
        if (clustering.num_clusters() == static_cast<int>(centroids.size())) {
          clustering.override_centroids(centroids);
        }
        return clustering;
      },
      [&](const std::vector<Document>&, const IntentionClustering& c,
          Vocabulary&) {
        return IntentionMatcher::build(c, std::move(segment_terms),
                                       options.matcher, std::move(stats));
      });
}

}  // namespace ibseg
