#include "core/serving.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
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
  obs::Counter& queries_related;
  obs::Counter& queries_external;
  obs::Counter& queries_batched;
  obs::Counter& posts_ingested;
  obs::Counter& ingest_batches;
  obs::Histogram& query_related_seconds;
  obs::Histogram& query_external_seconds;
  obs::Histogram& ingest_seconds;
  obs::Histogram& shared_lock_wait;
  obs::Histogram& exclusive_lock_wait;
  obs::Gauge& corpus_docs;
  obs::Gauge& index_segments;
  obs::Gauge& postings_bytes;
  obs::Counter& pruned_docs;
  obs::Counter& wal_appends;
  obs::Counter& wal_replayed;
  obs::Gauge& snapshot_bytes;
  obs::Histogram& snapshot_save_seconds;
  obs::Histogram& restore_seconds;
  obs::Counter& recluster_total;
  obs::Histogram& recluster_seconds;
  obs::Gauge& pending_pool_size;
  obs::Gauge& offline_generation;
  obs::Gauge& recluster_drift;

  static ServingMetrics& get() {
    static ServingMetrics* m = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::global();
      // Touching any stage histogram registers all eight stage series,
      // completing the exposition alongside the serving metrics below.
      obs::stage_histogram(obs::Stage::kAnalyze);
      return new ServingMetrics{
          r.counter("ibseg_queries_total", "Queries served.",
                    {{"op", "find_related"}}),
          r.counter("ibseg_queries_total", "Queries served.",
                    {{"op", "find_related_external"}}),
          r.counter("ibseg_queries_total", "Queries served.",
                    {{"op", "find_related_batch"}}),
          r.counter("ibseg_ingested_posts_total",
                    "Posts published into the serving indices."),
          r.counter("ibseg_ingest_batches_total",
                    "add_posts batches published (each under one "
                    "exclusive lock acquisition)."),
          r.histogram("ibseg_query_seconds",
                      "End-to-end serving query latency, including lock "
                      "wait, in seconds.",
                      {{"op", "find_related"}}),
          r.histogram("ibseg_query_seconds",
                      "End-to-end serving query latency, including lock "
                      "wait, in seconds.",
                      {{"op", "find_related_external"}}),
          r.histogram("ibseg_ingest_seconds",
                      "End-to-end add_post latency (prepare + publish), "
                      "in seconds."),
          r.histogram("ibseg_lock_wait_seconds",
                      "Time spent acquiring the serving reader/writer "
                      "lock, in seconds.",
                      {{"lock", "shared"}}),
          r.histogram("ibseg_lock_wait_seconds",
                      "Time spent acquiring the serving reader/writer "
                      "lock, in seconds.",
                      {{"lock", "exclusive"}}),
          r.gauge("ibseg_corpus_docs",
                  "Documents in the serving corpus (seed + published)."),
          r.gauge("ibseg_index_segments",
                  "Segments indexed across all intention clusters."),
          r.gauge("ibseg_postings_bytes",
                  "Bytes of the sealed flat postings arenas (per-term "
                  "metadata included) across all intention clusters."),
          r.counter("ibseg_pruned_docs_total",
                    "Per-intention candidate units rejected by the "
                    "MaxScore upper-bound test — before their first "
                    "contribution or mid-accumulation — instead of being "
                    "fully scored."),
          r.counter("ibseg_wal_appends_total",
                    "Ingest records appended to the write-ahead log."),
          r.counter("ibseg_wal_replayed_records",
                    "WAL records re-published during warm restart (torn or "
                    "already-snapshotted records excluded)."),
          r.gauge("ibseg_snapshot_bytes",
                  "Encoded size of the most recent snapshot v2 save."),
          r.histogram("ibseg_persist_seconds",
                      "Snapshot save / warm-restore latency, in seconds.",
                      {{"op", "save"}}),
          r.histogram("ibseg_persist_seconds",
                      "Snapshot save / warm-restore latency, in seconds.",
                      {{"op", "restore"}}),
          r.counter("ibseg_recluster_total",
                    "Completed background re-clustering epochs (shadow "
                    "rebuild + atomic swap)."),
          r.histogram("ibseg_recluster_seconds",
                      "End-to-end background recluster latency (capture + "
                      "shadow rebuild + catch-up + swap), in seconds."),
          r.gauge("ibseg_pending_pool_size",
                  "Ingested documents currently in the outlier/pending "
                  "pool (assignment distance above the serving "
                  "threshold); drained at the next recluster."),
          r.gauge("ibseg_offline_generation",
                  "Offline generation: completed background reclusters."),
          r.gauge("ibseg_recluster_drift",
                  "Centroid drift repaired by the last recluster: 1 - "
                  "mean best-cosine alignment between the old and new "
                  "centroid sets."),
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
                                 ServingOptions options)
    : ServingPipeline(std::move(pipeline), std::move(options),
                      RestoreState{}) {}

ServingPipeline::ServingPipeline(RelatedPostPipeline pipeline,
                                 ServingOptions options, RestoreState state)
    : pipeline_(std::move(pipeline)),
      segmenter_(pipeline_.segmenter()),
      seed_docs_(pipeline_.docs().size() - state.ingested_docs),
      next_id_(std::max(pipeline_.next_id(), state.next_id)),
      epoch_(state.epoch) {
  if (options.cache.capacity > 0) {
    cache_ = std::make_unique<QueryCache>(std::move(options.cache));
  }
  matcher_fingerprint_ = matcher_options_fingerprint(
      pipeline_.matcher().options());
  persist_ = std::move(options.persist);
  recluster_options_ = options.recluster;
  // Offline coordinates: a fresh or legacy-restored pipeline passes
  // offline_docs 0, meaning "the offline clustering covers exactly the
  // seed corpus" — normalize here so offline_docs_ always names a real
  // document count.
  generation_.store(state.generation, std::memory_order_relaxed);
  offline_docs_ = state.offline_docs == 0 ? seed_docs_ : state.offline_docs;
  pending_pool_ = std::move(state.pending_pool);
  pending_size_.store(pending_pool_.size(), std::memory_order_relaxed);
  docs_since_.store(state.docs_since, std::memory_order_relaxed);
  ServingMetrics& m = ServingMetrics::get();
  if (!persist_.wal_path.empty()) {
    std::vector<WalRecord> replayed;
    wal_ = IngestWal::open(persist_.wal_path, persist_.wal, &replayed);
    if (wal_ != nullptr && !replayed.empty()) {
      // Crash recovery: re-publish every logged ingest the wrapped
      // pipeline does not already contain. Records for documents already
      // in the corpus are skipped — they were baked into a snapshot whose
      // save crashed between the rename and the WAL truncation.
      std::unordered_set<DocId> present;
      present.reserve(pipeline_.docs().size());
      for (const Document& d : pipeline_.docs()) present.insert(d.id());
      uint64_t applied = 0;
      for (const WalRecord& rec : replayed) {
        if (present.count(rec.id) != 0) continue;
        double dist = pipeline_.ingest(prepare(rec.id, rec.text));
        if (dist > recluster_options_.pending_distance_threshold) {
          pending_pool_.push_back(rec.id);
        }
        epoch_.fetch_add(1, std::memory_order_relaxed);
        docs_since_.fetch_add(1, std::memory_order_relaxed);
        ++applied;
      }
      pending_size_.store(pending_pool_.size(), std::memory_order_relaxed);
      next_id_.store(
          std::max(next_id_.load(std::memory_order_relaxed),
                   pipeline_.next_id()),
          std::memory_order_relaxed);
      m.wal_replayed.inc(applied);
    }
  }
  m.corpus_docs.set(static_cast<double>(pipeline_.docs().size()));
  m.index_segments.set(static_cast<double>(pipeline_.matcher().num_segments()));
  m.postings_bytes.set(
      static_cast<double>(pipeline_.matcher().postings_bytes()));
  m.pending_pool_size.set(
      static_cast<double>(pending_size_.load(std::memory_order_relaxed)));
  m.offline_generation.set(
      static_cast<double>(generation_.load(std::memory_order_relaxed)));
}


void ServingPipeline::sync_query_work_metrics() const {
  uint64_t now = pipeline_.matcher().work_counters().units_pruned.load(
      std::memory_order_relaxed);
  uint64_t prev = pruned_exported_.load(std::memory_order_relaxed);
  while (now > prev && !pruned_exported_.compare_exchange_weak(
                           prev, now, std::memory_order_relaxed)) {
  }
  if (now > prev) ServingMetrics::get().pruned_docs.inc(now - prev);
}

ServingPipeline::QueryResult ServingPipeline::find_related(DocId query,
                                                           int k) const {
  ServingMetrics& m = ServingMetrics::get();
  obs::TraceScope latency(m.query_related_seconds);
  // The generation is captured once per call: if a recluster swaps the
  // index between this read and the insert below, the entry lands under
  // the OLD generation's key — unreachable by every later lookup, so a
  // hit can never serve a pre-swap ranking after the swap.
  QueryCache::Key key{query, k, matcher_fingerprint_,
                      generation_.load(std::memory_order_relaxed)};
  if (cache_ != nullptr) {
    // Validate against the epoch as of now: a hit means the entry was
    // filled after the latest publish, so it equals what the index would
    // return. (epoch_ is monotone and a thread's reads of one atomic
    // never go backwards, so per-reader epoch monotonicity holds across
    // mixed hit/miss sequences.)
    uint64_t epoch_now = epoch_.load(std::memory_order_relaxed);
    if (auto cached = cache_->lookup(key, epoch_now)) {
      m.queries_related.inc();
      return QueryResult{std::move(cached->results), cached->epoch,
                         cached->num_docs};
    }
  }
  obs::TraceScope lock_wait(m.shared_lock_wait);
  std::shared_lock<std::shared_mutex> lock(mu_);
  lock_wait.stop();
  QueryResult r;
  r.results = pipeline_.find_related(query, k);
  r.epoch = epoch_.load(std::memory_order_relaxed);
  r.num_docs = pipeline_.docs().size();
  sync_query_work_metrics();
  lock.unlock();
  if (cache_ != nullptr) {
    // The entry's epoch was read under the shared lock, so it matches
    // the results exactly; if a writer publishes before this insert
    // lands, the entry is born stale and the next lookup discards it.
    cache_->insert(key, QueryCache::Value{r.results, r.epoch, r.num_docs});
  }
  m.queries_related.inc();
  return r;
}

std::vector<ServingPipeline::QueryResult> ServingPipeline::find_related_batch(
    const std::vector<DocId>& queries, int k) const {
  ServingMetrics& m = ServingMetrics::get();
  std::vector<QueryResult> out(queries.size());
  // Pass 1: serve what the cache can, lock-free. One generation for the
  // whole batch (same single-capture argument as find_related).
  const uint64_t gen = generation_.load(std::memory_order_relaxed);
  std::vector<size_t> miss_positions;
  if (cache_ != nullptr) {
    uint64_t epoch_now = epoch_.load(std::memory_order_relaxed);
    for (size_t i = 0; i < queries.size(); ++i) {
      QueryCache::Key key{queries[i], k, matcher_fingerprint_, gen};
      if (auto cached = cache_->lookup(key, epoch_now)) {
        out[i] = QueryResult{std::move(cached->results), cached->epoch,
                             cached->num_docs};
      } else {
        miss_positions.push_back(i);
      }
    }
  } else {
    miss_positions.resize(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) miss_positions[i] = i;
  }
  // Pass 2: one shared-lock acquisition for all misses; the matcher
  // pipelines them across its query pool (if configured).
  if (!miss_positions.empty()) {
    std::vector<DocId> miss_ids;
    miss_ids.reserve(miss_positions.size());
    for (size_t i : miss_positions) miss_ids.push_back(queries[i]);
    obs::TraceScope lock_wait(m.shared_lock_wait);
    std::shared_lock<std::shared_mutex> lock(mu_);
    lock_wait.stop();
    std::vector<std::vector<ScoredDoc>> results =
        pipeline_.matcher().find_related_batch(miss_ids, k);
    uint64_t epoch = epoch_.load(std::memory_order_relaxed);
    size_t num_docs = pipeline_.docs().size();
    sync_query_work_metrics();
    lock.unlock();
    for (size_t j = 0; j < miss_positions.size(); ++j) {
      out[miss_positions[j]] =
          QueryResult{std::move(results[j]), epoch, num_docs};
    }
    if (cache_ != nullptr) {
      for (size_t j = 0; j < miss_positions.size(); ++j) {
        const QueryResult& r = out[miss_positions[j]];
        cache_->insert(
            QueryCache::Key{miss_ids[j], k, matcher_fingerprint_, gen},
            QueryCache::Value{r.results, r.epoch, r.num_docs});
      }
    }
  }
  m.queries_batched.inc(queries.size());
  return out;
}

ServingPipeline::QueryResult ServingPipeline::find_related_external(
    const Document& doc, int k) const {
  ServingMetrics& m = ServingMetrics::get();
  obs::TraceScope latency(m.query_external_seconds);
  // Segment the query post before taking the lock — the expensive part of
  // an external query needs no pipeline state beyond the immutable
  // segmenter copy.
  Vocabulary scratch;
  Segmentation seg = segmenter_.segment(doc, scratch);
  obs::TraceScope lock_wait(m.shared_lock_wait);
  std::shared_lock<std::shared_mutex> lock(mu_);
  lock_wait.stop();
  QueryResult r;
  r.results = pipeline_.matcher().find_related_external(
      doc, seg, pipeline_.clustering().centroids(), pipeline_.vocab(), k);
  r.epoch = epoch_.load(std::memory_order_relaxed);
  r.num_docs = pipeline_.docs().size();
  m.queries_external.inc();
  sync_query_work_metrics();
  return r;
}

DocId ServingPipeline::add_post(std::string text) {
  ServingMetrics& m = ServingMetrics::get();
  obs::TraceScope latency(m.ingest_seconds);
  DocId id = next_id_.fetch_add(1, std::memory_order_relaxed);
  WalRecord rec;
  if (wal_ != nullptr) rec = WalRecord{id, text};
  PreparedPost post = prepare(id, std::move(text));
  obs::TraceScope lock_wait(m.exclusive_lock_wait);
  std::unique_lock<std::shared_mutex> lock(mu_);
  lock_wait.stop();
  // Write-ahead: the record hits the log (and, per policy, the disk)
  // before the post becomes queryable. Appending under the exclusive lock
  // makes WAL order identical to publication order, which replay relies
  // on. A failed append does not block publication — availability wins —
  // but is visible as ibseg_wal_appends_total falling behind
  // ibseg_ingested_posts_total.
  if (wal_ != nullptr && wal_->append(rec)) m.wal_appends.inc();
  double dist = 0.0;
  {
    obs::TraceScope publish(obs::Stage::kIndexPublish);
    dist = pipeline_.ingest(std::move(post));
  }
  // Outlier tracking: assignment is unchanged (results stay identical);
  // a far-from-every-centroid post just also enters the pending pool,
  // feeding the recluster-trigger policy.
  if (dist > recluster_options_.pending_distance_threshold) {
    pending_pool_.push_back(id);
    pending_size_.store(pending_pool_.size(), std::memory_order_relaxed);
    m.pending_pool_size.set(static_cast<double>(pending_pool_.size()));
  }
  epoch_.fetch_add(1, std::memory_order_relaxed);
  docs_since_.fetch_add(1, std::memory_order_relaxed);
  m.posts_ingested.inc();
  m.corpus_docs.set(static_cast<double>(pipeline_.docs().size()));
  m.index_segments.set(static_cast<double>(pipeline_.matcher().num_segments()));
  m.postings_bytes.set(
      static_cast<double>(pipeline_.matcher().postings_bytes()));
  return id;
}

std::vector<DocId> ServingPipeline::add_posts(std::vector<std::string> texts) {
  ServingMetrics& m = ServingMetrics::get();
  std::vector<PreparedPost> prepared;
  std::vector<DocId> ids;
  std::vector<WalRecord> records;
  prepared.reserve(texts.size());
  ids.reserve(texts.size());
  if (wal_ != nullptr) records.reserve(texts.size());
  for (std::string& text : texts) {
    DocId id = next_id_.fetch_add(1, std::memory_order_relaxed);
    if (wal_ != nullptr) records.push_back(WalRecord{id, text});
    prepared.push_back(prepare(id, std::move(text)));
    ids.push_back(id);
  }
  obs::TraceScope lock_wait(m.exclusive_lock_wait);
  std::unique_lock<std::shared_mutex> lock(mu_);
  lock_wait.stop();
  // Write-ahead, one frame per record but one fsync per batch (see
  // IngestWal::append_batch); same ordering rationale as add_post.
  if (wal_ != nullptr && !records.empty() && wal_->append_batch(records)) {
    m.wal_appends.inc(records.size());
  }
  {
    obs::TraceScope publish(obs::Stage::kIndexPublish);
    for (size_t i = 0; i < prepared.size(); ++i) {
      double dist = pipeline_.ingest(std::move(prepared[i]));
      if (dist > recluster_options_.pending_distance_threshold) {
        pending_pool_.push_back(ids[i]);
      }
      epoch_.fetch_add(1, std::memory_order_relaxed);
      docs_since_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  pending_size_.store(pending_pool_.size(), std::memory_order_relaxed);
  m.pending_pool_size.set(static_cast<double>(pending_pool_.size()));
  m.posts_ingested.inc(ids.size());
  if (!ids.empty()) m.ingest_batches.inc();
  m.corpus_docs.set(static_cast<double>(pipeline_.docs().size()));
  m.index_segments.set(static_cast<double>(pipeline_.matcher().num_segments()));
  m.postings_bytes.set(
      static_cast<double>(pipeline_.matcher().postings_bytes()));
  return ids;
}

uint64_t ServingPipeline::recluster() {
  ServingMetrics& m = ServingMetrics::get();
  // One shadow build at a time; a second caller queues behind the first
  // and then runs against the first one's output (still correct — the
  // capture below sees the freshest state).
  std::lock_guard<std::mutex> job(recluster_job_mu_);
  Stopwatch watch;
  // Phase 1 — capture: copy a consistent cut of the corpus under the
  // shared lock. Queries and the capture coexist; only the copy cost is
  // inside the lock.
  std::vector<Document> docs;
  std::vector<Segmentation> segs;
  PipelineOptions opts;
  std::vector<std::vector<double>> old_centroids;
  size_t captured = 0;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    docs = pipeline_.docs();
    segs = pipeline_.segmentations();
    opts = pipeline_.options();
    old_centroids = pipeline_.clustering().centroids();
    captured = docs.size();
  }
  // Phase 2 — shadow rebuild, no lock held: the full offline phase
  // (clustering + indexing) over the captured cut, reusing the stored
  // segmentations (deterministic, so rebuild() == build(); see
  // RelatedPostPipeline::rebuild). Readers keep serving the old
  // generation for the entire duration.
  RelatedPostPipeline shadow =
      RelatedPostPipeline::rebuild(std::move(docs), std::move(segs), opts);
  const double drift =
      centroid_drift(old_centroids, shadow.clustering().centroids());
  // Phase 3 — catch-up + swap under ONE exclusive acquisition: documents
  // published while the shadow built are ingested into the shadow through
  // the exact deterministic path that placed them in the old pipeline
  // (stored segmentation + nearest-centroid), then the shadow replaces
  // the live pipeline. Queries before the swap see the old generation,
  // queries after see the new one; nothing in between.
  uint64_t gen = 0;
  size_t pool_size = 0;
  {
    obs::TraceScope lock_wait(m.exclusive_lock_wait);
    std::unique_lock<std::shared_mutex> lock(mu_);
    lock_wait.stop();
    const std::vector<Document>& cur = pipeline_.docs();
    const std::vector<Segmentation>& cur_segs = pipeline_.segmentations();
    std::vector<DocId> pool;
    for (size_t d = captured; d < cur.size(); ++d) {
      PreparedPost post;
      post.doc = cur[d];
      post.seg = cur_segs[d];
      double dist = shadow.ingest(std::move(post));
      if (dist > recluster_options_.pending_distance_threshold) {
        pool.push_back(cur[d].id());
      }
    }
    const uint64_t tail = cur.size() - captured;
    pipeline_ = std::move(shadow);
    offline_docs_ = captured;
    pending_pool_ = std::move(pool);
    pool_size = pending_pool_.size();
    pending_size_.store(pool_size, std::memory_order_relaxed);
    docs_since_.store(tail, std::memory_order_relaxed);
    // The new matcher's work counters restart at zero; re-base the
    // export watermark so the next sync does not stall until the new
    // counter overtakes the old one's final value.
    pruned_exported_.store(0, std::memory_order_relaxed);
    // Publish the new generation last (still under the lock): every
    // query that can observe the new pipeline also observes the new
    // generation in its cache key.
    gen = generation_.fetch_add(1, std::memory_order_relaxed) + 1;
    m.index_segments.set(
        static_cast<double>(pipeline_.matcher().num_segments()));
    m.postings_bytes.set(
        static_cast<double>(pipeline_.matcher().postings_bytes()));
  }
  last_drift_ = drift;
  m.recluster_drift.set(drift);
  m.offline_generation.set(static_cast<double>(gen));
  m.pending_pool_size.set(static_cast<double>(pool_size));
  m.recluster_total.inc();
  m.recluster_seconds.observe(watch.elapsed_seconds());
  return gen;
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
  // Every logged record is now baked into the snapshot; an empty WAL makes
  // the next restart replay nothing. Ordering matters: truncating first
  // and crashing before the snapshot rename would lose the records. The
  // reverse crash window (snapshot renamed, WAL not yet truncated) is
  // harmless — replay skips records whose document is already present.
  if (wal_ != nullptr) wal_->reset();
  m.snapshot_bytes.set(static_cast<double>(bytes));
  m.snapshot_save_seconds.observe(watch.elapsed_seconds());
  return true;
}

std::unique_ptr<ServingPipeline> ServingPipeline::restore(
    const std::string& snapshot_path, const PipelineOptions& pipeline_options,
    ServingOptions options) {
  ServingMetrics& m = ServingMetrics::get();
  Stopwatch watch;
  std::optional<ServingSnapshot> snap = load_snapshot_v2_file(snapshot_path);
  if (!snap.has_value()) return nullptr;
  const size_t total = snap->doc_ids.size();
  const size_t seed = snap->num_seed_docs;
  // The offline-covered prefix: the seed corpus until the first
  // recluster, everything the last recluster saw after one. Restore
  // rebuilds indices over exactly this prefix from stored labels — no
  // dependency on the seed corpus being "special" remains.
  const size_t eff_offline = static_cast<size_t>(
      std::max<uint64_t>(snap->offline_docs, seed));
  std::vector<Document> offline_docs;
  offline_docs.reserve(eff_offline);
  for (size_t d = 0; d < eff_offline; ++d) {
    offline_docs.push_back(
        Document::analyze(snap->doc_ids[d], snap->doc_texts[d]));
  }
  // Offline part: stored segmentations + labels + vocabulary skip the
  // segmentation and clustering phases; preloading the vocabulary pins
  // every TermId to its pre-save value.
  RelatedPostPipeline pipeline = RelatedPostPipeline::build_from_snapshot(
      std::move(offline_docs), snap->offline_full(), pipeline_options,
      &snap->vocab_terms);
  // Pin the centroids to the exact saved values. Until the first
  // recluster the label-derived recomputation reproduces them anyway
  // (legacy snapshots carry no centroid section and this is a no-op);
  // after one they are the recluster's output and MUST come from the
  // snapshot — this is what makes post-recluster restore bit-identical.
  if (!snap->centroids.empty()) {
    pipeline.override_centroids(snap->centroids);
  }
  // Online part: re-publish ingested documents through the same
  // nearest-centroid ingest path that placed them originally, with their
  // *stored* segmentations — deterministic given the restored centroids,
  // and immune to segmenter-option drift between save and restore.
  for (size_t d = eff_offline; d < total; ++d) {
    PreparedPost post;
    post.doc =
        Document::analyze(snap->doc_ids[d], std::move(snap->doc_texts[d]));
    post.seg = std::move(snap->segmentations[d]);
    pipeline.ingest(std::move(post));
  }
  RestoreState state;
  state.epoch = total - seed;
  state.ingested_docs = total - seed;
  state.next_id = snap->next_id;
  state.generation = snap->offline_generation;
  state.offline_docs = eff_offline;
  state.pending_pool = std::move(snap->pending_pool);
  state.docs_since = snap->docs_since_recluster;
  // The constructor replays the WAL (if configured) on top of the
  // snapshot, completing recovery to the exact pre-crash epoch.
  std::unique_ptr<ServingPipeline> sp(new ServingPipeline(
      std::move(pipeline), std::move(options), std::move(state)));
  if (!sp->persist_.wal_path.empty() && sp->wal_ == nullptr) return nullptr;
  m.restore_seconds.observe(watch.elapsed_seconds());
  return sp;
}

void ServingPipeline::publish_prepared(PreparedPost post) {
  ServingMetrics& m = ServingMetrics::get();
  obs::TraceScope lock_wait(m.exclusive_lock_wait);
  std::unique_lock<std::shared_mutex> lock(mu_);
  lock_wait.stop();
  DocId id = post.doc.id();
  double dist = 0.0;
  {
    obs::TraceScope publish(obs::Stage::kIndexPublish);
    dist = pipeline_.ingest(std::move(post));
  }
  if (dist > recluster_options_.pending_distance_threshold) {
    pending_pool_.push_back(id);
    pending_size_.store(pending_pool_.size(), std::memory_order_relaxed);
    m.pending_pool_size.set(static_cast<double>(pending_pool_.size()));
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
  m.corpus_docs.set(static_cast<double>(pipeline_.docs().size()));
  m.index_segments.set(static_cast<double>(pipeline_.matcher().num_segments()));
  m.postings_bytes.set(
      static_cast<double>(pipeline_.matcher().postings_bytes()));
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
  ServingMetrics& m = ServingMetrics::get();
  ShardMatch out;
  out.lists.resize(queries.size());
  obs::TraceScope lock_wait(m.shared_lock_wait);
  std::shared_lock<std::shared_mutex> lock(mu_);
  lock_wait.stop();
  for (size_t i = 0; i < queries.size(); ++i) {
    const ClusterCollectionStats* view =
        i < stats.size() ? stats[i].get() : nullptr;
    out.lists[i] = pipeline_.matcher().match_cluster_terms(
        queries[i].first, queries[i].second, exclude, n, view);
  }
  out.epoch = epoch_.load(std::memory_order_relaxed);
  out.num_docs = pipeline_.docs().size();
  return out;
}

void ServingPipeline::set_stats_sink(GlobalIndexStats* sink) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  pipeline_.set_stats_sink(sink);
}

PreparedPost ServingPipeline::prepare(DocId id, std::string text) const {
  // Stage attribution happens inside the callees: Document::analyze
  // records "analyze", Segmenter::segment records "segment".
  PreparedPost post;
  post.doc = Document::analyze(id, std::move(text));
  Vocabulary scratch;
  post.seg = segmenter_.segment(post.doc, scratch);
  return post;
}

}  // namespace ibseg
