#include "core/sharded_serving.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/snapshot_v2.h"
#include "storage/wal_codec.h"
#include "text/term_vector.h"
#include "util/memory.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace ibseg {
namespace {

std::string shard_subdir(const std::string& dir, uint32_t s) {
  return dir + "/shard-" + std::to_string(s);
}
/// Shard snapshot filenames are generation-qualified past generation 0
/// (snapshot.g<G>.v2; generation 0 keeps the legacy snapshot.v2), so a
/// post-recluster save that crashes before its manifest commit never
/// overwrites the files the surviving manifest points at — restore comes
/// back at exactly the old generation, never a torn mix of label spaces.
std::string shard_snapshot_path(const std::string& dir, uint32_t s,
                                uint64_t gen) {
  if (gen == 0) return shard_subdir(dir, s) + "/snapshot.v2";
  return shard_subdir(dir, s) + "/snapshot.g" + std::to_string(gen) + ".v2";
}

/// The logs of the earlier per-shard layout, which split the ingest log
/// into a publication journal (ids) and one WAL per shard (texts).
std::vector<std::string> legacy_logs(const std::string& dir,
                                     uint32_t num_shards) {
  std::vector<std::string> logs = {dir + "/ingest.order"};
  for (uint32_t s = 0; s < num_shards; ++s) {
    logs.push_back(shard_subdir(dir, s) + "/wal");
  }
  return logs;
}

/// True when `dir` still holds records in a legacy log. A drained
/// directory has them empty (its last save reset them); records there are
/// acknowledged ingests of a crashed deployment, which this layout does
/// not read, so restore and promotion refuse the directory instead of
/// coming back without them.
bool has_legacy_log_records(const std::string& dir, uint32_t num_shards) {
  for (const std::string& path : legacy_logs(dir, num_shards)) {
    std::error_code ec;
    const uintmax_t size = std::filesystem::file_size(path, ec);
    if (!ec && size > 0) return true;
  }
  return false;
}

/// A state directory's durable publication sequence: the manifest's
/// publication order, then every logged record the manifest does not
/// list, in log order (records a committed save already holds — left by a
/// crash before the log reset — dedup away, as would a seed id). `*at`
/// maps each logged id to its index in `log`.
std::vector<DocId> durable_order(const ShardManifest& m,
                                 const std::vector<WalRecord>& log,
                                 std::unordered_map<DocId, size_t>* at) {
  std::vector<DocId> order = m.publication_order;
  std::unordered_set<DocId> listed(m.seed_order.begin(), m.seed_order.end());
  listed.insert(order.begin(), order.end());
  for (size_t i = 0; i < log.size(); ++i) {
    at->emplace(log[i].id, i);
    if (listed.insert(log[i].id).second) order.push_back(log[i].id);
  }
  return order;
}

/// How many labels make_snapshot emitted for this segmentation: one per
/// non-empty raw segment (documents with no units contribute none).
size_t num_labels(const Segmentation& seg) {
  if (seg.num_units == 0) return 0;
  size_t n = 0;
  for (auto [b, e] : seg.segments()) {
    if (b != e) ++n;
  }
  return n;
}

double weight_of(const MatcherOptions& options, int cluster) {
  return static_cast<size_t>(cluster) < options.cluster_weights.size()
             ? options.cluster_weights[static_cast<size_t>(cluster)]
             : 1.0;
}

bool by_score_then_doc(const ScoredDoc& a, const ScoredDoc& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.doc < b.doc;
}

}  // namespace

uint32_t ShardedServing::shard_of(DocId id, uint32_t num_shards) {
  if (num_shards <= 1) return 0;
  // FNV-1a over the id's 4 little-endian bytes.
  uint64_t h = 14695981039346656037ull;
  for (int i = 0; i < 4; ++i) {
    h ^= (static_cast<uint64_t>(id) >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return static_cast<uint32_t>(h % num_shards);
}

std::unique_ptr<ShardedServing> ShardedServing::create(
    std::vector<Document> docs, const PipelineOptions& pipeline_options,
    ServingOptions options) {
  uint32_t ns =
      options.num_shards <= 1 ? 1 : static_cast<uint32_t>(options.num_shards);

  // Offline phase over the FULL corpus — segmentation and clustering see
  // exactly what an unpartitioned build would, so centroids, labels and
  // every derived statistic are the unpartitioned values by construction.
  std::vector<Segmentation> segmentations(docs.size());
  if (pipeline_options.num_threads > 1 && docs.size() > 1) {
    ThreadPool pool(pipeline_options.num_threads);
    pool.parallel_for(docs.size(), [&](size_t d) {
      Vocabulary scratch;
      segmentations[d] = pipeline_options.segmenter.segment(docs[d], scratch);
    });
  } else {
    Vocabulary scratch;
    for (size_t d = 0; d < docs.size(); ++d) {
      segmentations[d] = pipeline_options.segmenter.segment(docs[d], scratch);
    }
  }
  IntentionClustering clustering;
  {
    obs::TraceScope grouping(obs::Stage::kGroup);
    clustering = IntentionClustering::build(docs, segmentations,
                                            pipeline_options.grouping);
  }

  std::unique_ptr<ShardedServing> s(new ShardedServing());
  if (!s->init_shards(std::move(docs), std::move(segmentations), clustering,
                      pipeline_options, options, ns)) {
    return nullptr;
  }
  s->refresh_corpus_gauges();
  s->gen_history_.push_back(GenSpan{0, 0});
  s->persist_dir_ = options.persist.shard_dir;
  s->wal_options_ = options.persist.wal;
  if (!s->persist_dir_.empty()) {
    // A fresh deployment: whatever an earlier one logged there is stale,
    // in this layout's log or in the legacy ones.
    std::error_code ec;
    for (const std::string& path : legacy_logs(s->persist_dir_, ns)) {
      std::filesystem::remove(path, ec);
    }
    std::vector<WalRecord> stale;
    if (!s->open_log(&stale) || (!stale.empty() && !s->log_->reset())) {
      return nullptr;
    }
  }
  release_free_heap();
  return s;
}

ShardedServing::~ShardedServing() {
  // The generation first: its shards, board and vocabulary are nearly all
  // of the deployment's heap.
  shards_.clear();
  stats_.reset();
  vocab_.reset();
  cache_.reset();
  release_free_heap();
}

ShardedServing::ShardSet ShardedServing::build_shard_set(
    std::vector<Document> docs, std::vector<Segmentation> segmentations,
    const IntentionClustering& clustering,
    const PipelineOptions& pipeline_options,
    const ReclusterOptions& recluster_options, uint32_t num_shards,
    const std::vector<ServingPipeline::RestoreState>* shard_states) const {
  ShardSet set;
  set.num_clusters = clustering.num_clusters();
  set.centroids = clustering.centroids();

  // Global label assignment, resolved against real document ids.
  std::vector<DocId> ids;
  ids.reserve(docs.size());
  for (const Document& d : docs) ids.push_back(d.id());
  PipelineSnapshot global_snap = make_snapshot(segmentations, clustering, ids);

  // Seeding pass: build every refined segment's term bag once, interning
  // the shared vocabulary in EXACTLY the order IntentionMatcher::build
  // would (cluster-major, member order within each cluster), and seed the
  // statistics board in that order. TermIds are thus corpus-global and
  // independent of the partitioning. The bags then move into their
  // owner shards' indices, so the documents' token arrays are done with.
  set.vocab = std::make_shared<Vocabulary>();
  std::vector<TermVector> bags =
      IntentionMatcher::segment_terms(docs, clustering, *set.vocab);
  set.stats = IntentionMatcher::seed_stats(
      clustering, bags, pipeline_options.matcher.min_norm_fraction);
  for (Document& d : docs) d.drop_tokens();

  // Partition the corpus in global document order: per-shard docs,
  // segmentations and label slices stay in that order, so each shard's
  // restore_clustering sees its members in the global relative order.
  std::vector<std::vector<Document>> shard_docs(num_shards);
  std::vector<std::vector<Segmentation>> shard_segs(num_shards);
  std::vector<std::vector<int>> shard_labels(num_shards);
  // A shard's clustering lists its refined segments in global segment
  // order (document-major, and each document keeps its segments), so the
  // owner-filtered bags line up with it one to one.
  std::vector<std::vector<TermVector>> shard_bags(num_shards);
  for (size_t i = 0; i < bags.size(); ++i) {
    shard_bags[shard_of(clustering.segments()[i].doc, num_shards)].push_back(
        std::move(bags[i]));
  }
  size_t label_pos = 0;
  set.doc_order.reserve(docs.size());
  for (size_t d = 0; d < docs.size(); ++d) {
    DocId id = docs[d].id();
    uint32_t s = shard_of(id, num_shards);
    size_t labels = num_labels(segmentations[d]);
    for (size_t i = 0; i < labels; ++i) {
      shard_labels[s].push_back(global_snap.segment_labels[label_pos + i]);
    }
    label_pos += labels;
    shard_segs[s].push_back(std::move(segmentations[d]));
    shard_docs[s].push_back(std::move(docs[d]));
    set.doc_order.push_back(id);
    set.watermark = std::max(set.watermark, id + 1);
  }

  // Build each shard over its slice: shared vocabulary, global centroids,
  // global cluster count, and the one statistics board every shard scores
  // against and publishes into. Shard pipelines carry no cache and no WAL
  // of their own — both live at this layer — but DO own their slice's
  // pending pool (recluster_options carries the threshold).
  set.shards.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    PipelineSnapshot snap;
    snap.segmentations = std::move(shard_segs[s]);
    snap.segment_labels = std::move(shard_labels[s]);
    snap.num_clusters = set.num_clusters;
    RelatedPostPipeline p = RelatedPostPipeline::build_shard(
        std::move(shard_docs[s]), snap, set.vocab, set.centroids,
        std::move(shard_bags[s]), set.stats, pipeline_options);
    if (shard_states != nullptr) {
      set.shards.push_back(ServingPipeline::adopt(
          std::move(p), recluster_options, (*shard_states)[s]));
    } else {
      set.shards.push_back(
          std::make_unique<ServingPipeline>(std::move(p), recluster_options));
    }
  }
  return set;
}

bool ShardedServing::init_shards(
    std::vector<Document> docs, std::vector<Segmentation> segmentations,
    const IntentionClustering& clustering,
    const PipelineOptions& pipeline_options, const ServingOptions& options,
    uint32_t num_shards,
    const std::vector<ServingPipeline::RestoreState>* shard_states) {
  matcher_options_ = pipeline_options.matcher;
  segmenter_ = pipeline_options.segmenter;
  pipeline_options_ = pipeline_options;
  recluster_options_ = options.recluster;

  ShardSet set = build_shard_set(std::move(docs), std::move(segmentations),
                                 clustering, pipeline_options,
                                 options.recluster, num_shards, shard_states);
  shards_ = std::move(set.shards);
  vocab_ = std::move(set.vocab);
  stats_ = std::move(set.stats);
  centroids_ = std::move(set.centroids);
  num_clusters_ = set.num_clusters;
  seed_order_ = std::move(set.doc_order);
  next_id_.store(set.watermark, std::memory_order_relaxed);

  tenant_label_ = options.tenant.empty() ? "default" : options.tenant;
  if (options.cache.capacity > 0) {
    cache_ = std::make_unique<QueryCache>(options.cache, tenant_label_);
  }

  // Every per-instance series carries the tenant label: the registry is
  // process-wide and find_or_create dedupes on (kind, name, labels), so
  // without it two coexisting instances would share one ibseg_shard_docs
  // gauge and clobber each other's values.
  obs::MetricsRegistry& r = obs::MetricsRegistry::global();
  obs::Labels tenant_only{{"tenant", tenant_label_}};
  const char* ops[2] = {"find_related", "find_related_external"};
  for (int op : {kRelated, kExternal}) {
    obs::Labels labels{{"op", ops[op]}, {"tenant", tenant_label_}};
    queries_[op] = &r.counter("ibseg_queries_total", "Queries served.",
                              labels);
    query_seconds_[op] = &r.histogram(
        "ibseg_query_seconds",
        "End-to-end serving query latency (cache hits included), in "
        "seconds.",
        labels);
  }
  scatter_seconds_ = &r.histogram(
      "ibseg_scatter_seconds",
      "Scatter-phase latency of a sharded query (all shard legs), in "
      "seconds.",
      tenant_only);
  merge_seconds_ = &r.histogram(
      "ibseg_merge_seconds",
      "Gather/merge-phase latency of a sharded query, in seconds.",
      tenant_only);
  shard_queries_.reserve(num_shards);
  shard_docs_.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    obs::Labels labels{{"shard", std::to_string(s)},
                       {"tenant", tenant_label_}};
    shard_queries_.push_back(&r.counter(
        "ibseg_shard_queries_total",
        "Scatter legs dispatched to this shard.", labels));
    shard_docs_.push_back(&r.gauge(
        "ibseg_shard_docs", "Documents resident on this shard.", labels));
  }
  corpus_gauges_.docs = &r.gauge(
      "ibseg_corpus_docs",
      "Documents in the tenant's corpus (seed + published, all shards).",
      tenant_only);
  corpus_gauges_.segments = &r.gauge(
      "ibseg_index_segments",
      "Segments indexed across all intention clusters and shards.",
      tenant_only);
  corpus_gauges_.postings_bytes = &r.gauge(
      "ibseg_postings_bytes",
      "Bytes of the sealed flat postings runs (per-term metadata "
      "included) across all intention clusters and shards.",
      tenant_only);
  corpus_gauges_.pending_pool = &r.gauge(
      "ibseg_pending_pool_size",
      "Ingested documents currently in the outlier/pending pool "
      "(assignment distance above the serving threshold), all shards; "
      "drained at the next recluster.",
      tenant_only);
  corpus_gauges_.generation = &r.gauge(
      "ibseg_offline_generation",
      "Offline generation: completed background reclusters.", tenant_only);
  corpus_gauges_.analysis_bytes = &r.gauge(
      "ibseg_analysis_bytes",
      "Bytes of the tenant's resident document analyses (text, "
      "sentences, CM profiles; published posts hold no tokens), all "
      "shards; each analysis counted once.",
      tenant_only);
  return true;
}

void ShardedServing::refresh_corpus_gauges() const {
  size_t docs = 0;
  size_t segments = 0;
  size_t postings_bytes = 0;
  size_t pending = 0;
  size_t analysis_bytes = 0;
  for (uint32_t s = 0; s < num_shards(); ++s) {
    const ServingPipeline& shard = *shards_[s];
    const size_t shard_docs = shard.num_docs();
    shard_docs_[s]->set(static_cast<double>(shard_docs));
    docs += shard_docs;
    segments += shard.quiescent().matcher().num_segments();
    postings_bytes += shard.quiescent().matcher().postings_bytes();
    pending += shard.pending_pool_size();
    analysis_bytes += shard.analysis_bytes();
  }
  corpus_gauges_.docs->set(static_cast<double>(docs));
  corpus_gauges_.segments->set(static_cast<double>(segments));
  corpus_gauges_.postings_bytes->set(static_cast<double>(postings_bytes));
  corpus_gauges_.pending_pool->set(static_cast<double>(pending));
  corpus_gauges_.generation->set(
      static_cast<double>(generation_.load(std::memory_order_relaxed)));
  corpus_gauges_.analysis_bytes->set(static_cast<double>(analysis_bytes));
}

bool ShardedServing::open_log(std::vector<WalRecord>* replayed) {
  std::error_code ec;
  std::filesystem::create_directories(persist_dir_, ec);
  if (ec) return false;
  log_ = IngestWal::open(persist_dir_ + "/wal", wal_options_, replayed);
  return log_ != nullptr;
}

uint64_t ShardedServing::epoch_unlocked() const {
  uint64_t e = 0;
  for (const auto& s : shards_) e += s->epoch();
  return e;
}

size_t ShardedServing::num_docs_unlocked() const {
  size_t n = 0;
  for (const auto& s : shards_) n += s->num_docs();
  return n;
}

uint64_t ShardedServing::epoch() const {
  std::shared_lock<std::shared_mutex> gen_lock(recluster_mu_);
  return epoch_unlocked();
}

size_t ShardedServing::num_docs() const {
  std::shared_lock<std::shared_mutex> gen_lock(recluster_mu_);
  return num_docs_unlocked();
}

size_t ShardedServing::pending_pool_size() const {
  std::shared_lock<std::shared_mutex> gen_lock(recluster_mu_);
  size_t n = 0;
  for (const auto& s : shards_) n += s->pending_pool_size();
  return n;
}

uint64_t ShardedServing::docs_since_recluster() const {
  std::shared_lock<std::shared_mutex> gen_lock(recluster_mu_);
  uint64_t n = 0;
  for (const auto& s : shards_) n += s->docs_since_recluster();
  return n;
}

uint64_t ShardedServing::offline_publications() const {
  std::shared_lock<std::shared_mutex> lock(publish_mu_);
  return offline_pubs_;
}

int ShardedServing::num_clusters() const {
  std::shared_lock<std::shared_mutex> lock(publish_mu_);
  return num_clusters_;
}

ShardedServing::QueryResult ShardedServing::scatter_gather(
    const std::vector<std::pair<int, TermVector>>& queries, DocId exclude,
    int k) const {
  QueryResult r;
  if (queries.empty() || k <= 0) {
    r.epoch = epoch_unlocked();
    r.num_docs = num_docs_unlocked();
    return r;
  }
  int n = matcher_options_.top_n_factor * k;

  // One copy-on-write statistics view per queried cluster, grabbed once —
  // every shard scores against the same snapshot, and a publication racing
  // this query cannot shift the collection statistics mid-scatter.
  std::vector<std::shared_ptr<const ClusterCollectionStats>> views;
  views.reserve(queries.size());
  for (const auto& [cluster, terms] : queries) {
    views.push_back(stats_->cluster(cluster));
  }

  // The legs run one after another on the calling thread. Concurrency
  // comes from concurrent queries (the server's workers); handing a leg to
  // another thread costs a queue round trip and a wake-up, which at this
  // index size outweighs the leg itself.
  const uint32_t ns = num_shards();
  std::vector<ServingPipeline::ShardMatch> legs(ns);
  {
    Stopwatch watch;
    for (uint32_t s = 0; s < ns; ++s) {
      legs[s] = shards_[s]->match_clusters(queries, exclude, n, views);
      shard_queries_[s]->inc();
    }
    scatter_seconds_->observe(watch.elapsed_seconds());
  }

  // Gather. Per cluster: concatenate the shard lists, re-sort by the
  // deterministic (score desc, DocId asc) rule and cut to n — within one
  // cluster a document has at most one refined segment, so the ordering
  // is total and the merged list equals the unpartitioned per-intention
  // list element for element. Then Algorithm 2's weighted sum runs in
  // ascending cluster order over those identical sequences, making the
  // accumulated doubles bit-identical to the single-pipeline path.
  Stopwatch merge_watch;
  std::unordered_map<DocId, double> merged;
  for (size_t i = 0; i < queries.size(); ++i) {
    std::vector<ScoredDoc> combined;
    size_t total = 0;
    for (uint32_t s = 0; s < ns; ++s) total += legs[s].lists[i].size();
    combined.reserve(total);
    for (uint32_t s = 0; s < ns; ++s) {
      combined.insert(combined.end(), legs[s].lists[i].begin(),
                      legs[s].lists[i].end());
    }
    std::sort(combined.begin(), combined.end(), by_score_then_doc);
    if (matcher_options_.score_threshold <= 0.0 &&
        combined.size() > static_cast<size_t>(n)) {
      combined.resize(static_cast<size_t>(n));
    }
    double weight = weight_of(matcher_options_, queries[i].first);
    for (const ScoredDoc& sd : combined) {
      merged[sd.doc] += weight * sd.score;
    }
  }
  obs::TraceScope top_k(obs::Stage::kTopK);
  r.results.reserve(merged.size());
  for (const auto& [doc, score] : merged) {
    r.results.push_back(ScoredDoc{doc, score});
  }
  std::sort(r.results.begin(), r.results.end(), by_score_then_doc);
  if (r.results.size() > static_cast<size_t>(k)) {
    r.results.resize(static_cast<size_t>(k));
  }
  for (uint32_t s = 0; s < ns; ++s) {
    r.epoch += legs[s].epoch;
    r.num_docs += legs[s].num_docs;
  }
  merge_seconds_->observe(merge_watch.elapsed_seconds());
  return r;
}

ShardedServing::QueryResult ShardedServing::find_related(DocId query,
                                                         int k) const {
  // One generation end to end: held shared across lookup, scatter and
  // insert, so a recluster swap (which needs this lock exclusively) can
  // never replace the shard set, statistics board or vocabulary
  // mid-query — and the generation read below is pinned for the whole
  // call, keying any insert to the generation that produced it.
  obs::TraceScope latency(*query_seconds_[kRelated]);
  queries_[kRelated]->inc();
  std::shared_lock<std::shared_mutex> gen_lock(recluster_mu_);
  QueryCache::Key key{query, k, generation_.load(std::memory_order_relaxed)};
  if (cache_ != nullptr) {
    if (auto cached = cache_->lookup(key, epoch_unlocked())) {
      return QueryResult{std::move(cached->results), cached->epoch,
                         cached->num_docs};
    }
  }
  uint32_t owner = shard_of(query, num_shards());
  std::vector<std::pair<int, TermVector>> qterms =
      shards_[owner]->doc_cluster_terms(query);
  // Zero-weight clusters never contribute (their unpartitioned lists stay
  // empty), so dropping them before the scatter is exact.
  qterms.erase(std::remove_if(qterms.begin(), qterms.end(),
                              [&](const std::pair<int, TermVector>& q) {
                                return weight_of(matcher_options_, q.first) <=
                                       0.0;
                              }),
               qterms.end());
  QueryResult r = scatter_gather(qterms, query, k);
  if (cache_ != nullptr && epoch_unlocked() == r.epoch) {
    // Only a quiescent cut is worth caching: if any shard published while
    // the scatter ran, the combined epoch moved and the entry would be
    // born stale anyway.
    cache_->insert(key, QueryCache::Value{r.results, r.epoch, r.num_docs});
  }
  return r;
}

ShardedServing::QueryResult ShardedServing::find_related_external(
    const Document& doc, int k) const {
  obs::TraceScope latency(*query_seconds_[kExternal]);
  queries_[kExternal]->inc();
  Vocabulary scratch;
  Segmentation seg = segmenter_.segment(doc, scratch);
  // Generation pin (see find_related); taken after the lock-free
  // segmentation, before touching centroids_/vocab_/shards_. Lock order:
  // recluster_mu_ (shared) then publish_mu_ (shared) — the same nesting
  // the swap uses exclusively.
  std::shared_lock<std::shared_mutex> gen_lock(recluster_mu_);
  std::map<int, TermVector> per_cluster;
  {
    // The shared vocabulary grows under publish_mu_; assignment only reads
    // it, so shared mode suffices and queries still run concurrently.
    std::shared_lock<std::shared_mutex> lock(publish_mu_);
    per_cluster = IntentionMatcher::assign_external(
        doc, seg, centroids_, *vocab_,
        static_cast<size_t>(num_clusters_));
  }
  std::vector<std::pair<int, TermVector>> queries;
  queries.reserve(per_cluster.size());
  for (auto& [cluster, terms] : per_cluster) {
    if (terms.empty()) continue;
    if (weight_of(matcher_options_, cluster) <= 0.0) continue;
    queries.emplace_back(cluster, std::move(terms));
  }
  return scatter_gather(queries, IntentionMatcher::kNoDocId, k);
}

PreparedPost ShardedServing::prepare(DocId id, std::string text) const {
  PreparedPost post;
  post.doc = Document::analyze(id, std::move(text));
  Vocabulary scratch;
  post.seg = segmenter_.segment(post.doc, scratch);
  return post;
}

bool ShardedServing::log_locked(const std::vector<WalRecord>& records) {
  return log_ == nullptr || log_->append_batch(records);
}

void ShardedServing::publish_locked(uint32_t owner, PreparedPost post) {
  DocId id = post.doc.id();
  pub_shard_pos_.push_back(shards_[owner]->num_docs());
  shards_[owner]->publish_prepared(std::move(post));
  publication_order_.push_back(id);
  refresh_corpus_gauges();
}

std::optional<DocId> ShardedServing::add_post(std::string text) {
  std::vector<std::string> texts;
  texts.push_back(std::move(text));
  std::optional<std::vector<DocId>> ids = add_posts(std::move(texts));
  if (!ids.has_value()) return std::nullopt;
  return ids->front();
}

std::optional<std::vector<DocId>> ShardedServing::add_posts(
    std::vector<std::string> texts) {
  std::vector<DocId> ids;
  std::vector<PreparedPost> prepared;
  std::vector<WalRecord> logged;
  ids.reserve(texts.size());
  prepared.reserve(texts.size());
  const bool logging = log_ != nullptr;
  if (logging) logged.reserve(texts.size());
  for (std::string& text : texts) {
    DocId id = next_id_.fetch_add(1, std::memory_order_relaxed);
    ids.push_back(id);
    if (logging) logged.push_back(WalRecord{id, text});
    prepared.push_back(prepare(id, std::move(text)));
  }
  std::unique_lock<std::shared_mutex> lock(publish_mu_);
  if (!log_locked(logged)) return std::nullopt;
  for (size_t i = 0; i < prepared.size(); ++i) {
    publish_locked(shard_of(ids[i], num_shards()), std::move(prepared[i]));
  }
  return ids;
}

uint64_t ShardedServing::recluster() {
  std::lock_guard<std::mutex> job(recluster_job_mu_);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  Stopwatch watch;
  const uint32_t ns = num_shards();

  // Phase 1 — capture a consistent global cut under publish_mu_ shared:
  // ingests (exclusive) are blocked for the duration of the capture,
  // queries are not. A captured document shares the live one's immutable
  // analysis (a pointer copy), so the shadow generation built from it
  // holds no second copy of the corpus. Shard corpora are append-only in
  // publication order, so the global order (seed_order_ then
  // publication_order_) walks each shard's docs front to back with a
  // plain per-shard cursor — no id lookup maps.
  std::vector<Document> docs;
  std::vector<Segmentation> segs;
  std::vector<size_t> captured_per_shard(ns, 0);
  size_t captured_pubs = 0;
  std::vector<std::vector<double>> old_centroids;
  {
    std::shared_lock<std::shared_mutex> lock(publish_mu_);
    captured_pubs = publication_order_.size();
    old_centroids = centroids_;
    docs.reserve(seed_order_.size() + captured_pubs);
    segs.reserve(seed_order_.size() + captured_pubs);
    auto grab = [&](DocId id) {
      uint32_t s = shard_of(id, ns);
      const RelatedPostPipeline& q = shards_[s]->quiescent();
      size_t d = captured_per_shard[s]++;
      docs.push_back(q.docs()[d]);
      segs.push_back(q.segmentations()[d]);
    };
    for (DocId id : seed_order_) grab(id);
    for (size_t i = 0; i < captured_pubs; ++i) grab(publication_order_[i]);
  }

  // Phase 2 — shadow build, no lock held: the FULL offline phase over the
  // captured cut (clustering from the stored segmentations — segmentation
  // itself is deterministic and already done), then a complete shard set:
  // fresh shared vocabulary, fresh statistics board, fresh per-shard
  // indices. Bit-identical to ShardedServing::create over the captured
  // corpus by construction — it runs the same code. The live generation
  // keeps serving untouched.
  IntentionClustering clustering;
  {
    obs::TraceScope grouping(obs::Stage::kGroup);
    clustering =
        IntentionClustering::build(docs, segs, pipeline_options_.grouping);
  }
  const double drift = centroid_drift(old_centroids, clustering.centroids());
  const uint64_t new_gen = generation_.load(std::memory_order_relaxed) + 1;
  std::vector<ServingPipeline::RestoreState> states(ns);
  for (uint32_t s = 0; s < ns; ++s) {
    // The new shard pipelines adopt their shard's prior coordinates: the
    // whole captured slice is offline-covered, but the publication epoch
    // keeps counting from the original seed partition so the manifest
    // invariant (docs == seed + epoch, summed to the global orders) and
    // the serving invariant (num_docs == seed_docs + epoch) both survive
    // the swap unchanged.
    states[s].epoch = captured_per_shard[s] - shards_[s]->seed_docs();
    states[s].ingested_docs = states[s].epoch;
    states[s].next_id = next_id_.load(std::memory_order_relaxed);
    states[s].generation = new_gen;
    states[s].offline_docs = captured_per_shard[s];
  }
  ShardSet set =
      build_shard_set(std::move(docs), std::move(segs), clustering,
                      pipeline_options_, recluster_options_, ns, &states);

  // Phase 3 — catch-up + swap under recluster_mu_ exclusive (queries
  // drain and block) then publish_mu_ exclusive (ingests block):
  // publications that landed during the shadow build are replayed into
  // the new shard set through the deterministic publish path — taken
  // from the OLD shards' tails, again by cursor, sharing their analyses —
  // then every generation-scoped member swaps in one block. The old
  // generation moves into these locals and is freed only after both
  // locks are released, so no query or ingest waits for its destructors.
  std::shared_ptr<GlobalIndexStats> retired_stats;
  std::shared_ptr<Vocabulary> retired_vocab;
  std::vector<std::unique_ptr<ServingPipeline>> retired_shards;
  uint64_t gen = 0;
  {
    std::unique_lock<std::shared_mutex> gen_lock(recluster_mu_);
    std::unique_lock<std::shared_mutex> lock(publish_mu_);
    std::vector<size_t> cursor = captured_per_shard;
    for (size_t i = captured_pubs; i < publication_order_.size(); ++i) {
      DocId id = publication_order_[i];
      uint32_t s = shard_of(id, ns);
      const RelatedPostPipeline& q = shards_[s]->quiescent();
      size_t d = cursor[s]++;
      PreparedPost post;
      post.doc = q.docs()[d];
      post.seg = q.segmentations()[d];
      set.shards[s]->publish_prepared(std::move(post));
    }
    retired_shards = std::exchange(shards_, std::move(set.shards));
    retired_vocab = std::exchange(vocab_, std::move(set.vocab));
    retired_stats = std::exchange(stats_, std::move(set.stats));
    centroids_ = std::move(set.centroids);
    num_clusters_ = set.num_clusters;
    offline_pubs_ = captured_pubs;
    gen = generation_.fetch_add(1, std::memory_order_relaxed) + 1;
    // Publications from the captured cut onward carry the new generation —
    // followers mirror this boundary by reclustering at exactly
    // captured_pubs applied frames (ship_segment never lets frames cross
    // it), which reproduces this clustering bit-identically.
    gen_history_.push_back(GenSpan{captured_pubs, gen});
    refresh_corpus_gauges();
  }
  // Free the old generation and hand the epoch's freed heap back.
  retired_shards.clear();
  retired_vocab.reset();
  retired_stats.reset();
  release_free_heap();
  obs::Labels tenant_only{{"tenant", tenant_label_}};
  reg.counter("ibseg_recluster_total",
              "Completed background re-clustering epochs (shadow "
              "rebuild + atomic swap).",
              tenant_only)
      .inc();
  reg.gauge("ibseg_recluster_drift",
            "Centroid drift repaired by the last recluster: 1 - "
            "mean best-cosine alignment between the old and new "
            "centroid sets.",
            tenant_only)
      .set(drift);
  reg.histogram("ibseg_recluster_seconds",
                "End-to-end background recluster latency (capture + "
                "shadow rebuild + catch-up + swap), in seconds.",
                tenant_only)
      .observe(watch.elapsed_seconds());
  return gen;
}

bool ShardedServing::save(const std::string& dir) {
  std::unique_lock<std::shared_mutex> lock(publish_mu_);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return false;
  // The generation cannot move under us: a swap needs publish_mu_
  // exclusively. Snapshot files are generation-qualified, so a
  // post-recluster save never overwrites the previous generation's files
  // — a crash anywhere in this function leaves the old manifest pointing
  // at old-generation files that are still intact.
  const uint64_t gen = generation_.load(std::memory_order_relaxed);
  for (uint32_t s = 0; s < num_shards(); ++s) {
    std::filesystem::create_directories(shard_subdir(dir, s), ec);
    if (ec) return false;
    if (!shards_[s]->save(shard_snapshot_path(dir, s, gen))) return false;
  }
  ShardManifest m;
  m.num_shards = num_shards();
  m.next_id = next_id_.load(std::memory_order_relaxed);
  m.num_clusters = num_clusters_;
  m.generation = gen;
  m.offline_publications = offline_pubs_;
  m.seed_order = seed_order_;
  m.publication_order = publication_order_;
  m.shards.reserve(shards_.size());
  for (const auto& s : shards_) {
    m.shards.push_back(
        ShardManifestEntry{s->num_docs(), s->seed_docs(), s->epoch()});
  }
  // The manifest rename is the commit point: every snapshot it describes
  // is already on disk. A crash before this line restores from the OLD
  // manifest (new snapshots are "ahead" — the legal direction); after it,
  // from the new one.
  if (!save_shard_manifest_file(m, dir + "/MANIFEST")) return false;
  // Logged records are now baked into the snapshots; reset AFTER the
  // commit so a crash in between merely replays-and-dedups. A failed reset
  // fails the save: the log then refuses ingests until a later save
  // resets it (IngestWal::reset).
  const bool log_reset =
      log_ == nullptr || dir != persist_dir_ || log_->reset();
  // Post-commit garbage collection: earlier generations' snapshot files
  // are unreachable now (the manifest names this generation) — deleting
  // them is safe at any point after the commit, and a crash mid-sweep
  // just leaves harmless orphans for the next save to collect. Only names
  // this layer itself writes ("snapshot.v2" / "snapshot.g<N>.v2") are
  // collected; foreign files in the shard directory are left alone.
  auto is_generation_snapshot = [](const std::string& name) {
    if (name == "snapshot.v2") return true;
    if (name.rfind("snapshot.g", 0) != 0) return false;
    size_t i = std::string("snapshot.g").size();
    size_t digits = 0;
    while (i < name.size() && name[i] >= '0' && name[i] <= '9') {
      ++i;
      ++digits;
    }
    return digits > 0 && name.compare(i, std::string::npos, ".v2") == 0;
  };
  for (uint32_t s = 0; s < num_shards(); ++s) {
    const std::string keep =
        std::filesystem::path(shard_snapshot_path(dir, s, gen))
            .filename()
            .string();
    for (const auto& entry :
         std::filesystem::directory_iterator(shard_subdir(dir, s), ec)) {
      if (ec) break;
      const std::string name = entry.path().filename().string();
      if (name != keep && is_generation_snapshot(name)) {
        std::filesystem::remove(entry.path(), ec);
      }
    }
  }
  return log_reset;
}

std::unique_ptr<ShardedServing> ShardedServing::restore(
    const std::string& dir, const PipelineOptions& pipeline_options,
    ServingOptions options) {
  std::optional<ShardManifest> m =
      load_shard_manifest_file(dir + "/MANIFEST");
  if (!m.has_value() || has_legacy_log_records(dir, m->num_shards)) {
    return nullptr;
  }
  const uint32_t ns = m->num_shards;
  const uint64_t gen = m->generation;
  const size_t offline_pubs = static_cast<size_t>(m->offline_publications);

  std::vector<ServingSnapshot> snaps;
  snaps.reserve(ns);
  for (uint32_t s = 0; s < ns; ++s) {
    std::optional<ServingSnapshot> snap =
        load_snapshot_v2_file(shard_snapshot_path(dir, s, gen));
    if (!snap.has_value()) return nullptr;
    // Cross-file torn-restore checks against the sibling manifest entry:
    // the committed manifest was written AFTER every snapshot rename, so a
    // snapshot with fewer documents than its entry claims — or a different
    // seed partition, cluster count, or offline generation — cannot be the
    // file this manifest committed. Snapshot AHEAD of the entry is the
    // legal crash window (save interrupted between renames and commit).
    if (snap->num_seed_docs != m->shards[s].seed_docs) return nullptr;
    if (snap->doc_ids.size() < m->shards[s].docs) return nullptr;
    if (snap->num_clusters != m->num_clusters) return nullptr;
    if (snap->offline_generation != gen) return nullptr;
    snaps.push_back(std::move(*snap));
  }

  // Reassemble the global OFFLINE-COVERED corpus in the recorded global
  // order: the seed corpus plus — past the first recluster — the leading
  // offline_publications publications whose labels the recluster baked
  // into the shard snapshots. Every document must sit at its hash-owner
  // shard's offline section, and the per-shard offline coverage must add
  // up to exactly that global prefix.
  std::vector<size_t> eff_offline(ns);
  uint64_t offline_total = 0;
  for (uint32_t s = 0; s < ns; ++s) {
    eff_offline[s] = static_cast<size_t>(std::max<uint64_t>(
        snaps[s].offline_docs, snaps[s].num_seed_docs));
    offline_total += eff_offline[s];
  }
  if (offline_total != m->seed_order.size() + offline_pubs) return nullptr;
  std::vector<std::unordered_map<DocId, size_t>> offline_pos(ns);
  std::vector<std::vector<size_t>> label_offset(ns);
  for (uint32_t s = 0; s < ns; ++s) {
    size_t off = 0;
    label_offset[s].reserve(eff_offline[s]);
    for (size_t d = 0; d < eff_offline[s]; ++d) {
      offline_pos[s][snaps[s].doc_ids[d]] = d;
      label_offset[s].push_back(off);
      off += num_labels(snaps[s].segmentations[d]);
    }
    if (off != snaps[s].seed_labels.size() + snaps[s].offline_labels.size()) {
      return nullptr;
    }
  }
  std::vector<Document> docs;
  std::vector<Segmentation> segmentations;
  std::vector<int> labels;
  docs.reserve(offline_total);
  segmentations.reserve(offline_total);
  std::vector<DocId> offline_order = m->seed_order;
  offline_order.insert(offline_order.end(), m->publication_order.begin(),
                       m->publication_order.begin() +
                           static_cast<std::ptrdiff_t>(offline_pubs));
  for (DocId id : offline_order) {
    uint32_t s = shard_of(id, ns);
    auto it = offline_pos[s].find(id);
    if (it == offline_pos[s].end()) return nullptr;
    size_t d = it->second;
    // The seeding pass reads each document's tokens once more (one
    // re-tokenize); holding all of their arrays until then would set the
    // restore's memory peak.
    docs.push_back(Document::analyze(id, std::move(snaps[s].doc_texts[d])));
    docs.back().drop_tokens();
    segmentations.push_back(snaps[s].segmentations[d]);
    size_t off = label_offset[s][d];
    size_t count = num_labels(snaps[s].segmentations[d]);
    const std::vector<int>& seed_l = snaps[s].seed_labels;
    for (size_t i = 0; i < count; ++i) {
      size_t idx = off + i;
      labels.push_back(idx < seed_l.size()
                           ? seed_l[idx]
                           : snaps[s].offline_labels[idx - seed_l.size()]);
    }
  }
  PipelineSnapshot global_snap;
  global_snap.segmentations = segmentations;
  global_snap.segment_labels = std::move(labels);
  global_snap.num_clusters = m->num_clusters;
  if (!global_snap.is_consistent()) return nullptr;
  IntentionClustering clustering = restore_clustering(docs, global_snap);
  // Pin the centroids to the saved values (each shard snapshot stores the
  // GLOBAL centroids — shards score with overridden global centroids, so
  // any one copy is authoritative). Until the first recluster this
  // reproduces the label-derived recomputation; after one it is the only
  // correct source: the label-derived recomputation over the offline
  // slice alone yields different centroids.
  if (!snaps[0].centroids.empty() &&
      static_cast<int>(snaps[0].centroids.size()) ==
          clustering.num_clusters()) {
    clustering.override_centroids(snaps[0].centroids);
  }

  // Per-shard coordinates at the moment the offline slice alone is
  // loaded: everything past the shard's seed partition counts as
  // publication epoch; the pending pool and docs-since counters start
  // empty/zero and are re-derived deterministically by the replay below
  // (every pool member is by definition a post-offline ingest).
  std::vector<ServingPipeline::RestoreState> states(ns);
  for (uint32_t s = 0; s < ns; ++s) {
    states[s].epoch = eff_offline[s] - snaps[s].num_seed_docs;
    states[s].ingested_docs = states[s].epoch;
    states[s].next_id = m->next_id;
    states[s].generation = gen;
    states[s].offline_docs = eff_offline[s];
  }

  std::unique_ptr<ShardedServing> sp(new ShardedServing());
  if (!sp->init_shards(std::move(docs), std::move(segmentations), clustering,
                       pipeline_options, options, ns, &states)) {
    return nullptr;
  }
  // init_shards derived doc_order from its input — the offline corpus.
  // The durable global orders come from the manifest: the seed order
  // proper, and the offline-covered publications pre-filled so replay
  // continues exactly where the offline coverage ends.
  sp->seed_order_ = m->seed_order;
  sp->publication_order_.assign(
      m->publication_order.begin(),
      m->publication_order.begin() +
          static_cast<std::ptrdiff_t>(offline_pubs));
  // Rebuild each prefilled publication's owner-shard offset by walking the
  // global order with per-shard cursors — the same arithmetic the shard
  // arrays were assembled with. The replay below extends this through
  // publish_locked like live ingests do.
  {
    std::vector<size_t> cursor(ns, 0);
    for (DocId id : sp->seed_order_) cursor[shard_of(id, ns)]++;
    sp->pub_shard_pos_.reserve(sp->publication_order_.size());
    for (DocId id : sp->publication_order_) {
      sp->pub_shard_pos_.push_back(cursor[shard_of(id, ns)]++);
    }
  }
  // Generation attribution is known from the offline coverage on (older
  // spans died with the pre-save history); ship_segment answers
  // kSnapshotNeeded for anything earlier.
  sp->gen_history_.push_back(GenSpan{offline_pubs, gen});
  sp->generation_.store(gen, std::memory_order_relaxed);
  sp->offline_pubs_ = offline_pubs;
  sp->persist_dir_ = dir;
  sp->wal_options_ = options.persist.wal;

  // Open the ingest log with replay (a torn tail is truncated by open).
  std::vector<WalRecord> logged;
  if (!sp->open_log(&logged)) return nullptr;
  std::unordered_map<DocId, size_t> logged_at;
  const std::vector<DocId> order = durable_order(*m, logged, &logged_at);
  // Snapshot tails: ingested documents baked into each shard snapshot
  // BEYOND its offline coverage, with their stored segmentations. (The
  // offline slice itself was consumed by the cold rebuild above.)
  std::vector<std::unordered_map<DocId, size_t>> tail_pos(ns);
  for (uint32_t s = 0; s < ns; ++s) {
    for (size_t d = eff_offline[s]; d < snaps[s].doc_ids.size(); ++d) {
      tail_pos[s][snaps[s].doc_ids[d]] = d;
    }
  }

  // Replay every NOT-offline-covered publication of the durable sequence
  // (the first offline_publications entries were restored with the
  // offline corpus above), each from its shard's snapshot tail or else
  // from the log. Manifest-listed publications are committed state: one
  // found in neither is a torn directory. Replaying through
  // publish_prepared also re-derives each shard's pending pool and
  // docs-since-recluster counter: every pool member is a post-recluster
  // ingest, so the replayed tail contains exactly the pool the save saw
  // plus whatever log-tail survivors joined it.
  DocId watermark = m->next_id;
  for (size_t i = offline_pubs; i < order.size(); ++i) {
    const DocId id = order[i];
    const uint32_t s = shard_of(id, ns);
    PreparedPost post;
    auto tail = tail_pos[s].find(id);
    if (tail != tail_pos[s].end()) {
      size_t d = tail->second;
      post.doc = Document::analyze(id, std::move(snaps[s].doc_texts[d]));
      post.seg = std::move(snaps[s].segmentations[d]);
    } else {
      auto log = logged_at.find(id);
      if (log == logged_at.end()) return nullptr;
      post = sp->prepare(id, std::move(logged[log->second].text));
    }
    sp->publish_locked(s, std::move(post));
    watermark = std::max(watermark, id + 1);
  }
  DocId seen = sp->next_id_.load(std::memory_order_relaxed);
  sp->next_id_.store(std::max(seen, watermark), std::memory_order_relaxed);
  sp->refresh_corpus_gauges();
  release_free_heap();
  return sp;
}

ShardedServing::ShipSegment ShardedServing::ship_segment(
    uint64_t from_seq, uint64_t replica_generation, uint32_t max_frames,
    uint32_t max_bytes) const {
  ShipSegment out;
  // recluster_mu_ shared pins the shard set (a generation swap replaces
  // shards_ wholesale); publish_mu_ shared pins publication_order_ /
  // pub_shard_pos_ / gen_history_. Same order as queries — no new edges
  // in the lock graph.
  std::shared_lock<std::shared_mutex> gen_lock(recluster_mu_);
  std::shared_lock<std::shared_mutex> lock(publish_mu_);
  const uint64_t pubs = publication_order_.size();
  out.base_seq = from_seq;
  out.leader_seq = pubs;
  out.leader_generation = generation_.load(std::memory_order_relaxed);
  out.segment_generation = replica_generation;
  if (from_seq > pubs) {
    out.status = ShipSegment::Status::kAhead;
    return out;
  }
  // Locate the history span the follower's generation covers; generations
  // are unique in gen_history_ (each recluster mints a new one).
  size_t span = gen_history_.size();
  for (size_t i = 0; i < gen_history_.size(); ++i) {
    if (gen_history_[i].generation == replica_generation) {
      span = i;
      break;
    }
  }
  if (span == gen_history_.size()) {
    out.status = ShipSegment::Status::kSnapshotNeeded;
    return out;
  }
  const uint64_t lo = gen_history_[span].start_pubs;
  const uint64_t hi = span + 1 < gen_history_.size()
                          ? gen_history_[span + 1].start_pubs
                          : pubs;
  if (from_seq < lo || from_seq > hi) {
    // The follower claims a (seq, generation) pair that never existed on
    // this leader — divergent history or pre-coverage staleness. Either
    // way frames cannot help; only a snapshot can.
    out.status = ShipSegment::Status::kSnapshotNeeded;
    return out;
  }
  if (from_seq == hi) {
    // End of this generation's span: either a recluster boundary the
    // follower must now cross, or — at the last span — fully caught up.
    if (span + 1 < gen_history_.size()) {
      out.recluster_after = true;
      out.recluster_target = gen_history_[span + 1].generation;
    }
    return out;
  }
  const uint32_t ns = num_shards();
  const uint64_t end = std::min<uint64_t>(hi, from_seq + max_frames);
  for (uint64_t seq = from_seq; seq < end; ++seq) {
    const DocId id = publication_order_[seq];
    const uint32_t owner = shard_of(id, ns);
    const Document& doc =
        shards_[owner]->quiescent().docs()[pub_shard_pos_[seq]];
    std::string frame;
    wal_encode_frame(WalRecord{id, doc.text()}, &frame);
    // Byte cap applies once at least one frame is in: a single frame
    // larger than max_bytes still ships alone, so progress is guaranteed.
    if (out.frame_count > 0 && out.raw.size() + frame.size() > max_bytes) {
      break;
    }
    out.raw.append(frame);
    ++out.frame_count;
  }
  if (from_seq + out.frame_count == hi && span + 1 < gen_history_.size()) {
    out.recluster_after = true;
    out.recluster_target = gen_history_[span + 1].generation;
  }
  return out;
}

bool ShardedServing::apply_shipped(uint64_t base_seq,
                                   const std::vector<WalRecord>& records) {
  // Analysis + segmentation outside the lock, exactly like add_posts —
  // only the publications serialize.
  std::vector<PreparedPost> prepared;
  prepared.reserve(records.size());
  for (const WalRecord& rec : records) {
    prepared.push_back(prepare(rec.id, rec.text));
  }
  std::unique_lock<std::shared_mutex> lock(publish_mu_);
  const uint64_t pubs = publication_order_.size();
  if (base_seq > pubs) return false;  // gap: applying would reorder history
  // Records before the local epoch are a duplicate delivery (a retried
  // segment) — legal, but only of the same history.
  const size_t dups =
      static_cast<size_t>(std::min<uint64_t>(pubs - base_seq, records.size()));
  for (size_t i = 0; i < dups; ++i) {
    if (publication_order_[base_seq + i] != records[i].id) return false;
  }
  if (!log_locked(std::vector<WalRecord>(records.begin() + dups,
                                         records.end()))) {
    return false;
  }
  for (size_t i = dups; i < records.size(); ++i) {
    const DocId id = records[i].id;
    // Watermark before publish: the leader reserved this id, and any local
    // id reservation at or below it would collide after promotion.
    DocId seen = next_id_.load(std::memory_order_relaxed);
    while (seen < id + 1 &&
           !next_id_.compare_exchange_weak(seen, id + 1,
                                           std::memory_order_relaxed)) {
    }
    publish_locked(shard_of(id, num_shards()), std::move(prepared[i]));
  }
  return true;
}

bool ShardedServing::catch_up_from_dir(const std::string& leader_dir) {
  std::optional<ShardManifest> m =
      load_shard_manifest_file(leader_dir + "/MANIFEST");
  if (!m.has_value() || m->num_shards != num_shards() ||
      has_legacy_log_records(leader_dir, m->num_shards)) {
    return false;
  }
  // Scan the dead leader's log read-only: promotion must not mutate the
  // leader directory (forensics, or a second promotion attempt, may still
  // need it). A torn tail is tolerated exactly like IngestWal::open — the
  // scan stops at the first invalid frame. A missing log is an empty tail
  // (the leader may have reset it at its last save).
  std::vector<WalRecord> logged;
  {
    std::ifstream is(leader_dir + "/wal", std::ios::binary);
    const std::string data((std::istreambuf_iterator<char>(is)),
                           std::istreambuf_iterator<char>());
    wal_scan_frames(data.data(), data.size(), &logged);
  }
  std::unordered_map<DocId, size_t> logged_at;
  const std::vector<DocId> order = durable_order(*m, logged, &logged_at);

  // Lineage checks: same seed order, and my applied history must be a
  // prefix of the leader's durable one.
  uint64_t applied = 0;
  {
    std::shared_lock<std::shared_mutex> lock(publish_mu_);
    applied = publication_order_.size();
    if (seed_order_ != m->seed_order || applied > order.size() ||
        !std::equal(publication_order_.begin(), publication_order_.end(),
                    order.begin())) {
      return false;
    }
  }
  // Every leader publication past my epoch needs its text from the log.
  // A manifest-committed one the log no longer holds means a save reset
  // the log since: this follower lags a save boundary and must
  // re-bootstrap, not promote. apply_shipped re-checks the cursor under
  // the exclusive lock, so a publication racing in fails the call rather
  // than reorder history.
  std::vector<WalRecord> tail;
  for (uint64_t seq = applied; seq < order.size(); ++seq) {
    auto it = logged_at.find(order[seq]);
    if (it == logged_at.end()) return false;
    tail.push_back(std::move(logged[it->second]));
  }
  if (!apply_shipped(applied, tail)) return false;
  DocId seen = next_id_.load(std::memory_order_relaxed);
  next_id_.store(std::max(seen, m->next_id), std::memory_order_relaxed);
  return true;
}

}  // namespace ibseg
