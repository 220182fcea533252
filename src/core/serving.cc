#include "core/serving.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "obs/trace.h"
#include "storage/snapshot_v2.h"
#include "util/stopwatch.h"

namespace ibseg {

namespace {

/// Every serving-layer metric, registered once in the process-wide
/// registry. Grouping them in one struct (instead of scattered
/// function-local statics) guarantees the whole serving catalog appears
/// in the exposition from the moment a ServingPipeline exists, even for
/// instruments that have not fired yet — operators grep for a metric name
/// and find it at zero rather than absent.
struct ServingMetrics {
  obs::Counter& posts_ingested;
  obs::Histogram& shared_lock_wait;
  obs::Histogram& exclusive_lock_wait;
  obs::Gauge& snapshot_bytes;
  obs::Histogram& snapshot_save_seconds;

  static ServingMetrics& get() {
    static ServingMetrics* m = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::global();
      // Touching any stage histogram registers all eight stage series,
      // completing the exposition alongside the serving metrics below.
      obs::stage_histogram(obs::Stage::kAnalyze);
      return new ServingMetrics{
          r.counter("ibseg_ingested_posts_total",
                    "Posts published into the serving indices."),
          r.histogram("ibseg_lock_wait_seconds",
                      "Time spent acquiring the serving reader/writer "
                      "lock, in seconds.",
                      {{"lock", "shared"}}),
          r.histogram("ibseg_lock_wait_seconds",
                      "Time spent acquiring the serving reader/writer "
                      "lock, in seconds.",
                      {{"lock", "exclusive"}}),
          r.gauge("ibseg_snapshot_bytes",
                  "Encoded size of the most recent snapshot v2 save."),
          r.histogram("ibseg_persist_seconds",
                      "Shard snapshot save latency, in seconds.",
                      {{"op", "save"}}),
      };
    }();
    return *m;
  }
};

}  // namespace

double centroid_drift(const std::vector<std::vector<double>>& before,
                      const std::vector<std::vector<double>>& after) {
  if (before.empty() || after.empty()) return before.empty() ? 0.0 : 1.0;
  double aligned = 0.0;
  for (const std::vector<double>& b : before) {
    double best = 0.0;
    for (const std::vector<double>& a : after) {
      if (a.size() != b.size()) continue;
      double dot = 0.0, nb = 0.0, na = 0.0;
      for (size_t i = 0; i < b.size(); ++i) {
        dot += b[i] * a[i];
        nb += b[i] * b[i];
        na += a[i] * a[i];
      }
      if (nb == 0.0 || na == 0.0) continue;
      best = std::max(best, dot / (std::sqrt(nb) * std::sqrt(na)));
    }
    aligned += best;
  }
  return 1.0 - aligned / static_cast<double>(before.size());
}

ServingPipeline::ServingPipeline(RelatedPostPipeline pipeline,
                                 ReclusterOptions recluster)
    : ServingPipeline(std::move(pipeline), recluster, RestoreState{}) {}

ServingPipeline::ServingPipeline(RelatedPostPipeline pipeline,
                                 ReclusterOptions recluster,
                                 RestoreState state)
    : pipeline_(std::move(pipeline)),
      seed_docs_(pipeline_.docs().size() - state.ingested_docs),
      next_id_(std::max(pipeline_.next_id(), state.next_id)),
      epoch_(state.epoch),
      recluster_options_(recluster) {
  // Offline coordinates: a fresh pipeline passes offline_docs 0, meaning
  // "the offline clustering covers exactly the seed corpus" — normalize
  // here so offline_docs_ always names a real document count.
  generation_.store(state.generation, std::memory_order_relaxed);
  offline_docs_ = state.offline_docs == 0 ? seed_docs_ : state.offline_docs;
  pending_pool_ = std::move(state.pending_pool);
  pending_size_.store(pending_pool_.size(), std::memory_order_relaxed);
  docs_since_.store(state.docs_since, std::memory_order_relaxed);
  size_t bytes = 0;
  for (const Document& d : pipeline_.docs()) bytes += d.footprint_bytes();
  analysis_bytes_.store(bytes, std::memory_order_relaxed);
  ServingMetrics::get();  // register the serving catalog eagerly
}

bool ServingPipeline::save(const std::string& path) {
  ServingMetrics& m = ServingMetrics::get();
  Stopwatch watch;
  obs::TraceScope lock_wait(m.exclusive_lock_wait);
  std::unique_lock<std::shared_mutex> lock(mu_);
  lock_wait.stop();
  ServingSnapshot snap;
  const std::vector<Document>& docs = pipeline_.docs();
  const std::vector<Segmentation>& segs = pipeline_.segmentations();
  snap.doc_ids.reserve(docs.size());
  snap.doc_texts.reserve(docs.size());
  for (const Document& d : docs) {
    snap.doc_ids.push_back(d.id());
    snap.doc_texts.push_back(d.text());
  }
  snap.segmentations = segs;
  snap.num_seed_docs = static_cast<uint32_t>(seed_docs_);
  // Cluster labels exist only for offline-clustered segments; documents
  // ingested after the last (re)clustering are re-published through the
  // nearest-centroid ingest path on restore, so labeling them here would
  // be wrong (the clustering never covered them — make_snapshot would
  // emit label 0). Before the first recluster offline_docs_ == seed_docs_
  // and this degenerates to the legacy seed-only layout; after one, the
  // labels split at the seed/offline boundary so legacy readers still
  // find exactly the seed labels where they expect them.
  std::vector<Segmentation> off_segs(
      segs.begin(),
      segs.begin() + static_cast<std::ptrdiff_t>(offline_docs_));
  std::vector<DocId> off_ids(
      snap.doc_ids.begin(),
      snap.doc_ids.begin() + static_cast<std::ptrdiff_t>(offline_docs_));
  PipelineSnapshot offline =
      make_snapshot(off_segs, pipeline_.clustering(), off_ids);
  size_t seed_segments = 0;
  for (size_t d = 0; d < seed_docs_; ++d) {
    if (segs[d].num_units > 0) seed_segments += segs[d].num_segments();
  }
  snap.seed_labels.assign(
      offline.segment_labels.begin(),
      offline.segment_labels.begin() +
          static_cast<std::ptrdiff_t>(seed_segments));
  snap.offline_labels.assign(
      offline.segment_labels.begin() +
          static_cast<std::ptrdiff_t>(seed_segments),
      offline.segment_labels.end());
  snap.num_clusters = offline.num_clusters;
  snap.offline_generation = generation_.load(std::memory_order_relaxed);
  snap.offline_docs = offline_docs_;
  // The clustering's exact centroids: what frees restore from re-deriving
  // them (impossible after a recluster — the label-derived recomputation
  // over seed docs alone yields different centroids) and pins
  // nearest-centroid ingest assignment bit-for-bit.
  snap.centroids = pipeline_.clustering().centroids();
  snap.pending_pool = pending_pool_;
  snap.docs_since_recluster =
      docs_since_.load(std::memory_order_relaxed);
  const Vocabulary& vocab = pipeline_.vocab();
  snap.vocab_terms.reserve(vocab.size());
  for (size_t t = 0; t < vocab.size(); ++t) {
    snap.vocab_terms.push_back(vocab.term(static_cast<TermId>(t)));
  }
  snap.next_id = next_id_.load(std::memory_order_relaxed);
  uint64_t bytes = 0;
  if (!save_snapshot_v2_file(snap, path, &bytes)) return false;
  m.snapshot_bytes.set(static_cast<double>(bytes));
  m.snapshot_save_seconds.observe(watch.elapsed_seconds());
  return true;
}

void ServingPipeline::publish_prepared(PreparedPost post) {
  ServingMetrics& m = ServingMetrics::get();
  obs::TraceScope lock_wait(m.exclusive_lock_wait);
  std::unique_lock<std::shared_mutex> lock(mu_);
  lock_wait.stop();
  DocId id = post.doc.id();
  analysis_bytes_.fetch_add(post.doc.footprint_bytes(),
                            std::memory_order_relaxed);
  double dist = 0.0;
  {
    obs::TraceScope publish(obs::Stage::kIndexPublish);
    dist = pipeline_.ingest(std::move(post));
  }
  // The post's bags are indexed; only a re-index reads its tokens again.
  pipeline_.drop_tokens(pipeline_.docs().size() - 1);
  if (dist > recluster_options_.pending_distance_threshold) {
    pending_pool_.push_back(id);
    pending_size_.store(pending_pool_.size(), std::memory_order_relaxed);
  }
  epoch_.fetch_add(1, std::memory_order_relaxed);
  docs_since_.fetch_add(1, std::memory_order_relaxed);
  // The caller reserved the id from its own counter; keep this shard's
  // watermark consistent anyway so save()/diagnostics stay meaningful.
  DocId floor = id + 1;
  DocId seen = next_id_.load(std::memory_order_relaxed);
  while (seen < floor &&
         !next_id_.compare_exchange_weak(seen, floor,
                                         std::memory_order_relaxed)) {
  }
  m.posts_ingested.inc();
}

std::vector<std::pair<int, TermVector>> ServingPipeline::doc_cluster_terms(
    DocId doc) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return pipeline_.matcher().doc_cluster_terms(doc);
}

ServingPipeline::ShardMatch ServingPipeline::match_clusters(
    const std::vector<std::pair<int, TermVector>>& queries, DocId exclude,
    int n,
    const std::vector<std::shared_ptr<const ClusterCollectionStats>>& stats)
    const {
  assert(stats.size() == queries.size());
  ServingMetrics& m = ServingMetrics::get();
  ShardMatch out;
  out.lists.resize(queries.size());
  obs::TraceScope lock_wait(m.shared_lock_wait);
  std::shared_lock<std::shared_mutex> lock(mu_);
  lock_wait.stop();
  for (size_t i = 0; i < queries.size(); ++i) {
    out.lists[i] = pipeline_.matcher().match_cluster_terms(
        queries[i].first, queries[i].second, exclude, n, *stats[i]);
  }
  out.epoch = epoch_.load(std::memory_order_relaxed);
  out.num_docs = pipeline_.docs().size();
  return out;
}

}  // namespace ibseg
