#ifndef IBSEG_CORE_SERVING_H_
#define IBSEG_CORE_SERVING_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/query_cache.h"
#include "storage/wal.h"

/// \file
/// ServingPipeline: one shard of a ShardedServing deployment — the
/// reader/writer lock around a RelatedPostPipeline slice, its publication
/// epoch and offline/pending-pool counters, and the publish / match /
/// save primitives the scatter-gather layer drives (docs/ARCHITECTURE.md
/// §3, §6). ShardedServing (core/sharded_serving.h) is the serving facade.

namespace ibseg {

class ThreadPool;  // util/thread_pool.h

/// Durability configuration for the serving layer (see
/// ShardedServing::save/restore and docs/ARCHITECTURE.md §5).
struct ServingPersistOptions {
  /// fsync policy for WAL and journal appends (WalFsync::kEveryAppend by
  /// default — strongest; see the fsync policy table in
  /// docs/ARCHITECTURE.md).
  WalOptions wal;
  /// Root directory of the deployment's durable state (per-shard WALs,
  /// publication journal, snapshots + manifest on save). Empty (the
  /// default) disables persistence.
  std::string shard_dir;
};

/// Drift score of a recluster: 1 - mean best-cosine alignment of each old
/// centroid against the new centroid set (greedy, no one-to-one matching —
/// the score is an operator signal, not an assignment). 0 when the new
/// clustering preserves every old intention direction; approaches 1 as the
/// intention structure the old centroids described disappears. Exported as
/// the ibseg_recluster_drift gauge.
double centroid_drift(const std::vector<std::vector<double>>& before,
                      const std::vector<std::vector<double>>& after);

/// Configuration of the incremental offline phase (docs/ARCHITECTURE.md
/// §9): streaming nearest-centroid ingest assignment stays the hot path,
/// and recluster() periodically re-runs the full offline clustering off it.
struct ReclusterOptions {
  /// Ingested documents whose largest nearest-centroid assignment distance
  /// exceeds this threshold enter the outlier/pending pool — they are
  /// still indexed normally (assignment is unchanged, so results stay
  /// bit-identical), but the pool size is a recluster-trigger signal and
  /// the pool drains at the next recluster. The default (infinity)
  /// disables the pool.
  double pending_distance_threshold =
      std::numeric_limits<double>::infinity();
};

/// Serving-layer configuration (everything beyond the wrapped pipeline's
/// own build options), consumed by ShardedServing::create/restore.
struct ServingOptions {
  /// Result cache for in-corpus find_related queries. capacity 0 (the
  /// default) disables caching entirely — no cache is constructed.
  QueryCacheOptions cache;
  /// Directory-format WAL + snapshot durability (off by default).
  ServingPersistOptions persist;
  /// Number of document-partitioned shards. Values <= 1 mean one shard.
  int num_shards = 1;
  /// Incremental offline phase: pending-pool threshold (the trigger
  /// policy itself lives in core/recluster.h).
  ReclusterOptions recluster;
  /// Instance (tenant) label stamped onto every per-instance metric the
  /// sharded layer registers (ibseg_queries_total, ibseg_query_seconds,
  /// ibseg_shard_docs, ibseg_shard_queries_total, ibseg_scatter_seconds,
  /// ibseg_merge_seconds and the recluster series). Two ShardedServing
  /// instances in one process MUST use distinct labels, or their series
  /// collide in the process-wide registry and gauges clobber each other.
  /// Empty means "default".
  std::string tenant;
  /// Scatter thread pool to share with other ShardedServing instances
  /// (not owned; must outlive the serving object). When null, a sharded
  /// instance owns a private pool sized to its shard count. Sharing is
  /// safe because scatter legs are leaf tasks — they never wait on another
  /// TaskGroup in the same pool (util/thread_pool.h).
  ThreadPool* scatter_pool = nullptr;
};

/// One shard of a ShardedServing deployment: a RelatedPostPipeline slice
/// behind a reader/writer lock. The scatter-gather layer owns everything
/// deployment-wide — id reservation, analysis, publication order, the
/// result cache, WAL + journal, recluster — and drives each shard through
/// the primitives below:
///
///  * match_clusters and doc_cluster_terms run under the shared lock. The
///    wrapped pipeline's query path is strictly const, so any number of
///    scatter legs proceed concurrently.
///  * publish_prepared takes the exclusive lock only for index publication
///    of an already analyzed and segmented post.
///
/// Publication semantics: `epoch()` counts documents published into this
/// shard. A leg reports the epoch and corpus size observed under its
/// shared lock, so `num_docs == seed_docs + epoch` holds for every leg —
/// and, summed, for every sharded query result. A leg never observes a
/// half-published post: either all of a post's segments (and its
/// vocabulary entries, norms and postings) are visible, or none are.
class ServingPipeline {
 public:
  /// Wraps a freshly built shard pipeline (moved in). The pipeline must
  /// not be accessed through any other handle afterwards. `recluster`
  /// carries the pending-pool threshold.
  explicit ServingPipeline(RelatedPostPipeline pipeline,
                           ReclusterOptions recluster = {});

  ServingPipeline(const ServingPipeline&) = delete;
  ServingPipeline& operator=(const ServingPipeline&) = delete;

  /// Persists this shard's full state (snapshot v2: every document's text
  /// and segmentation, offline cluster labels, centroids, vocabulary, id
  /// watermark, pending pool) to `path` atomically. Runs under the
  /// exclusive lock so the snapshot is a publication boundary: it contains
  /// exactly the posts a leg could see at that moment. Returns false
  /// (previous file intact) on any I/O failure. ShardedServing::save
  /// commits these files with its manifest.
  bool save(const std::string& path);

  /// Completed background reclusters (0 for a freshly built pipeline;
  /// restored pipelines resume the saved value). Monotone.
  uint64_t offline_generation() const {
    return generation_.load(std::memory_order_relaxed);
  }

  /// Leading documents covered by the current offline clustering; the
  /// rest were nearest-centroid assigned. seed_docs() until the first
  /// recluster.
  size_t offline_docs() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return offline_docs_;
  }

  /// Current outlier/pending-pool size (lock-free; the recluster-trigger
  /// policy polls this).
  size_t pending_pool_size() const {
    return pending_size_.load(std::memory_order_relaxed);
  }

  /// Documents ingested since the offline state was last (re)computed
  /// (lock-free; trigger-policy input).
  uint64_t docs_since_recluster() const {
    return docs_since_.load(std::memory_order_relaxed);
  }

  /// Copy of the pending pool (diagnostics/persistence/tests).
  std::vector<DocId> pending_pool() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return pending_pool_;
  }

  /// Number of documents published since construction. Monotone.
  uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }

  /// Corpus size the pipeline was built with (before any online ingest).
  size_t seed_docs() const { return seed_docs_; }

  /// Current corpus size (seed_docs() + epoch(), read consistently).
  size_t num_docs() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return pipeline_.docs().size();
  }

  /// Upper bound on published ids: every id published here is
  /// < next_id().
  DocId next_id() const { return next_id_.load(std::memory_order_relaxed); }

  /// Direct read access to the wrapped pipeline. Only valid while no
  /// writer is running (e.g. after joining all ingest threads in a test,
  /// or under the sharded layer's publication lock).
  const RelatedPostPipeline& quiescent() const { return pipeline_; }

  /// The publication primitive: ingests an already-prepared post under
  /// the exclusive lock and bumps the epoch. The id was reserved by the
  /// caller (the sharded layer's global counter), and nothing is
  /// WAL-logged here — the caller write-ahead-logs before calling.
  void publish_prepared(PreparedPost post);

  /// The per-cluster term bags of an indexed document (ascending cluster
  /// order), read under the shared lock. Empty when unknown.
  std::vector<std::pair<int, TermVector>> doc_cluster_terms(DocId doc) const;

  /// One scatter leg: evaluates IntentionMatcher::match_cluster_terms for
  /// every (cluster, query-bag) pair against this shard's indices —
  /// scoring with the caller-supplied cross-shard statistics views
  /// (stats[i] pairs with queries[i]; nullptr entries fall back to local
  /// statistics) — under a single shared-lock acquisition. Also reports
  /// the epoch/num_docs observed under that lock so the gather layer can
  /// stamp its combined result.
  struct ShardMatch {
    std::vector<std::vector<ScoredDoc>> lists;  ///< parallel to queries
    uint64_t epoch = 0;
    size_t num_docs = 0;
  };
  ShardMatch match_clusters(
      const std::vector<std::pair<int, TermVector>>& queries, DocId exclude,
      int n,
      const std::vector<std::shared_ptr<const ClusterCollectionStats>>& stats)
      const;

  /// Forwards RelatedPostPipeline::set_stats_sink under the exclusive
  /// lock: subsequent publications also feed the cross-shard statistics
  /// board.
  void set_stats_sink(GlobalIndexStats* sink);

  /// State carried into a shard whose pipeline is not fresh: how far it
  /// had already progressed (restore from a directory, or a recluster
  /// adopting a rebuilt shard).
  struct RestoreState {
    uint64_t epoch = 0;          ///< published-ingest count at snapshot time
    size_t ingested_docs = 0;    ///< docs beyond the original seed corpus
    DocId next_id = 0;           ///< id watermark at snapshot time
    uint64_t generation = 0;     ///< completed background reclusters
    /// Leading docs the offline clustering covers; 0 means "everything up
    /// to seed_docs" (the pre-recluster default).
    size_t offline_docs = 0;
    std::vector<DocId> pending_pool;  ///< saved outlier pool
    uint64_t docs_since = 0;          ///< docs since last recluster
  };

  /// Wraps a pipeline that already carries history — ShardedServing uses
  /// this to stand up restored and post-recluster shard pipelines whose
  /// epoch/offline coordinates must match the shard's prior life.
  static std::unique_ptr<ServingPipeline> adopt(RelatedPostPipeline pipeline,
                                                ReclusterOptions recluster,
                                                RestoreState state) {
    return std::unique_ptr<ServingPipeline>(
        new ServingPipeline(std::move(pipeline), recluster, std::move(state)));
  }

 private:
  /// Shared constructor body; the public constructor delegates with a
  /// default RestoreState (fresh pipeline: epoch 0, everything is seed).
  ServingPipeline(RelatedPostPipeline pipeline, ReclusterOptions recluster,
                  RestoreState state);

  mutable std::shared_mutex mu_;
  RelatedPostPipeline pipeline_;  ///< guarded by mu_
  const size_t seed_docs_;
  std::atomic<DocId> next_id_;
  std::atomic<uint64_t> epoch_{0};
  /// --- Incremental offline phase (docs/ARCHITECTURE.md §9). A recluster
  /// replaces the whole shard (adopt), so these only move forward here.
  std::atomic<uint64_t> generation_{0};
  /// Leading documents the current offline clustering covers (guarded by
  /// mu_; == seed_docs_ until the first recluster).
  size_t offline_docs_ = 0;
  /// Outlier/pending pool (guarded by mu_): ids whose ingest assignment
  /// distance exceeded recluster_options_.pending_distance_threshold.
  std::vector<DocId> pending_pool_;
  /// pending_pool_.size(), mirrored lock-free for the trigger policy.
  std::atomic<size_t> pending_size_{0};
  /// Documents ingested since the offline state was last (re)computed.
  std::atomic<uint64_t> docs_since_{0};
  const ReclusterOptions recluster_options_;
};

}  // namespace ibseg

#endif  // IBSEG_CORE_SERVING_H_
