#ifndef IBSEG_CORE_SHARDED_SERVING_H_
#define IBSEG_CORE_SHARDED_SERVING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/serving.h"
#include "index/collection_stats.h"
#include "obs/metrics.h"
#include "storage/shard_manifest.h"
#include "util/thread_pool.h"

/// \file
/// ShardedServing: the serving facade — N >= 1 ServingPipeline shards
/// behind hash partitioning and scatter-gather, bit-identical to the
/// unpartitioned pipeline at any shard count, with per-shard crash-safe
/// persistence (docs/ARCHITECTURE.md §3, §6). The network front-end
/// (net/server.h), the tenant registry, replicas and the CLI all serve
/// through this class.

namespace ibseg {

/// Document-partitioned serving: N ServingPipeline shards behind one
/// scatter-gather facade, with results **bit-identical** to a single
/// unpartitioned pipeline at any shard count (the differential suite
/// enforces exact score-and-order equality, not approximate agreement).
///
/// Partitioning. Every document — seed or ingested — lives on exactly one
/// shard, `shard_of(id)` (a stable FNV-1a hash of the id; pure function,
/// identical across processes and runs). Each shard wraps a full
/// ServingPipeline over its slice: its own reader/writer lock, epoch, and
/// per-intention indices.
///
/// Why naive partitioning breaks bit-identity, and what fixes it: the
/// Eq. 8/9 scores depend on *collection* statistics — |I| and |I^t| in the
/// probabilistic IDF, the average-unique-terms pivot and the norm floor in
/// the unit norms, the BM25 length pivot, the LM collection model. A shard
/// that scored against its own slice's statistics would produce different
/// bits (and different rankings) than the unpartitioned index. Three
/// shared pieces restore exactness:
///
///   * one GlobalIndexStats board aggregates per-cluster collection
///     statistics across all shards, in the unpartitioned publication
///     order (the norm floor is an order-sensitive float sum; everything
///     else is a sum of integer-valued doubles and therefore exact in any
///     order). Queries score every shard against the same copy-on-write
///     stats view (index/collection_stats.h);
///   * one shared Vocabulary, seeded in the unpartitioned interning order
///     before any shard index is built, keeps TermIds — and with them the
///     TermId-ordered per-unit accumulation order — corpus-global;
///   * a global publication lock serializes ingest publications, so board
///     order, vocabulary growth and the id watermark evolve exactly as a
///     single pipeline's would. Only publication is serialized: analysis
///     and segmentation (the expensive part of an ingest) stay parallel,
///     and queries never take the global lock.
///
/// Scatter-gather. A query resolves its per-cluster term bags once, fans
/// them out to all shards (each evaluates Algorithm 1's candidate list
/// over its slice under its own shared lock), then merges: per cluster,
/// the shard lists are concatenated, re-sorted by the deterministic
/// (score desc, DocId asc) rule and cut to n. Within one cluster a
/// document has at most one refined segment, so that ordering is total
/// and the global top-n is a subset of the union of per-shard top-n —
/// the merged list *is* the unpartitioned list, bit for bit. Algorithm 2's
/// weighted score summation then runs in ascending cluster order over
/// identical sorted sequences, reproducing the unpartitioned accumulation
/// order exactly.
///
/// Caching. The epoch-invalidated result cache sits above the
/// scatter layer, keyed on the *combined* epoch (the sum of per-shard
/// epochs — each publication bumps exactly one shard by one, so the sum
/// is monotone and equality implies every addend is unchanged). An entry
/// is only inserted when no publication raced the scatter, so hits always
/// reproduce a quiescent-cut answer.
///
/// Consistency. Each shard's answer is a consistent cut of that shard;
/// under concurrent ingest the combined answer may straddle publications
/// on different shards (per-shard, not global, snapshot isolation). The
/// invariant num_docs == seed_docs + epoch holds for the summed values of
/// every result. At quiescence (no in-flight ingests) every query is
/// bit-identical to the unpartitioned pipeline.
///
/// Persistence. save(dir) writes one snapshot-v2 per shard
/// (dir/shard-<i>/snapshot.v2) and then commits dir/MANIFEST atomically
/// (storage/shard_manifest.h); per-shard WALs (dir/shard-<i>/wal) and the
/// publication-order journal (dir/ingest.order) absorb ingests between
/// saves and are truncated after the manifest commit. restore(dir)
/// rebuilds the global offline state from the shard slices, replays every
/// publication in the recorded global order, and rejects torn directories
/// (a shard snapshot shorter than its manifest entry, or a
/// manifest-listed document missing from snapshot+WAL).
class ShardedServing {
 public:
  /// The stable partition function: FNV-1a over the id's 4 little-endian
  /// bytes, reduced modulo num_shards. Pure — same mapping in every
  /// process, every run, every shard count.
  static uint32_t shard_of(DocId id, uint32_t num_shards);

  /// Builds a sharded deployment over `docs` (moved in). Shard count
  /// comes from options.num_shards (<= 1 means one shard — still exact,
  /// still scatter-gather, useful as the differential baseline). When
  /// options.persist.shard_dir is set, per-shard WALs and the publication
  /// journal are created under it (fresh — create() truncates any
  /// leftovers; restore() is the recovery path). Returns nullptr only
  /// when persistence directories cannot be created.
  static std::unique_ptr<ShardedServing> create(
      std::vector<Document> docs, const PipelineOptions& pipeline_options = {},
      ServingOptions options = {});

  /// Warm restart from a directory written by save() (+ any WAL/journal
  /// tail since). The shard count is read from the manifest;
  /// options.num_shards is ignored. Returns nullptr when the manifest or
  /// any shard snapshot is missing/corrupt, when a shard snapshot holds
  /// fewer documents than its manifest entry committed (stale snapshot —
  /// a torn directory, since snapshots are renamed before the manifest),
  /// or when a manifest-listed publication is found in neither its
  /// shard's snapshot nor its WAL. The restored instance reaches the
  /// exact pre-crash combined epoch with bit-identical query results.
  static std::unique_ptr<ShardedServing> restore(
      const std::string& dir, const PipelineOptions& pipeline_options = {},
      ServingOptions options = {});

  ShardedServing(const ShardedServing&) = delete;
  ShardedServing& operator=(const ShardedServing&) = delete;

  /// Persists every shard's snapshot, then commits the manifest (the
  /// atomic commit point), then truncates WALs + journal — in that order,
  /// so a crash anywhere leaves a restorable directory (see
  /// storage/shard_manifest.h for the window-by-window analysis). Runs
  /// under the global publication lock. Returns false with the previous
  /// manifest intact on any failure.
  bool save(const std::string& dir);

  /// A query answer plus the snapshot coordinates it was computed under.
  struct QueryResult {
    std::vector<ScoredDoc> results;
    /// Documents published (summed over shards) as observed under the
    /// shards' shared locks.
    uint64_t epoch = 0;
    /// Corpus size at the same moments; always seed docs + epoch.
    size_t num_docs = 0;
  };

  /// Top-k related posts for an in-corpus reference post — Algorithm 2
  /// over all shards, bit-identical to the unpartitioned pipeline.
  /// epoch/num_docs are the summed per-shard values observed under the
  /// shards' shared locks. Counted in ibseg_queries_total and timed in
  /// ibseg_query_seconds ({op="find_related", tenant}), cache hits
  /// included.
  QueryResult find_related(DocId query, int k) const;

  /// Top-k related posts for an external (non-ingested) post. Segmented
  /// lock-free; centroid assignment under the global lock in shared mode
  /// (the shared vocabulary may be growing); scoring scattered like
  /// find_related. Metered under op="find_related_external".
  QueryResult find_related_external(const Document& doc, int k) const;

  /// Ingests one post into its hash-owner shard; returns the reserved id.
  /// Analysis/segmentation run lock-free; the publication (journal + WAL
  /// append + index publish) is serialized globally.
  DocId add_post(std::string text);

  /// Batched ingestion. Every post is analyzed lock-free, then the batch
  /// is published in request order inside one publication-lock section:
  /// its posts take consecutive publication sequence numbers (no
  /// concurrent add_post lands between them) and the call returns — the
  /// acknowledgement — only after all of them are published. Publication
  /// is NOT atomic towards queries: each post publishes under its own
  /// shard's lock and queries never take the publication lock, so a
  /// concurrent query may observe a prefix of the batch.
  std::vector<DocId> add_posts(std::vector<std::string> texts);

  /// One background re-clustering epoch across the whole deployment,
  /// synchronous on the calling thread (core/recluster.h provides the
  /// worker that makes it background): capture a consistent
  /// global cut (publication lock, shared — queries keep flowing),
  /// re-run the FULL offline phase over it and build a complete shadow
  /// shard set (vocabulary, statistics board, per-shard indices) with no
  /// lock held, then swap everything in under one exclusive section after
  /// catching up publications that landed during the shadow build.
  /// Post-swap state is bit-identical to ShardedServing::create over the
  /// same corpus followed by the same tail of ingests (the differential
  /// suite proves this at shard counts 1/2/4). Returns the new offline
  /// generation. Concurrent calls serialize.
  uint64_t recluster();

  /// Completed reclusters (monotone; restored deployments resume the
  /// manifest's value).
  uint64_t offline_generation() const {
    return generation_.load(std::memory_order_relaxed);
  }

  /// Combined outlier/pending-pool size (sum over shards).
  size_t pending_pool_size() const;

  /// Documents ingested since the offline state was last (re)computed,
  /// summed over shards.
  uint64_t docs_since_recluster() const;

  /// Leading publication_order entries covered by the current offline
  /// clustering (0 until the first recluster).
  uint64_t offline_publications() const;

  /// Cluster count of the current offline generation.
  int num_clusters() const;

  /// Combined publication epoch: the sum of per-shard epochs.
  uint64_t epoch() const;

  /// Total documents across shards.
  size_t num_docs() const;

  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }

  /// Upper bound on handed-out ids (global watermark).
  DocId next_id() const { return next_id_.load(std::memory_order_relaxed); }

  // --- Replication (docs/ARCHITECTURE.md §10) -----------------------------
  //
  // The leader's publication sequence IS its replication log: seq n is the
  // n-th entry of publication_order_, WAL order == publication order (PR 4),
  // and replay through the publish path is deterministic (PR 5) — so a
  // follower that applies shipped frames in sequence is bit-identical to
  // the leader at every frame boundary, by construction. Because each
  // shard retains its documents (and their texts) in memory, frames are
  // reconstructed on demand from the live shards — no separate ship buffer,
  // no WAL-file retention requirement on the leader.

  /// One shippable cut of the publication sequence, in WAL frame encoding
  /// (storage/wal_codec.h — byte-identical to what the leader's own WAL
  /// appends carry).
  struct ShipSegment {
    enum class Status {
      kOk,              ///< frames returned (possibly zero when caught up)
      kSnapshotNeeded,  ///< (from_seq, generation) not servable — the
                        ///< follower must re-bootstrap from a snapshot
      kAhead,           ///< from_seq beyond the leader's epoch (divergent
                        ///< follower, or a stale leader after failover)
    };
    Status status = Status::kOk;
    uint64_t base_seq = 0;    ///< sequence number of the first frame in raw
    uint64_t leader_seq = 0;  ///< leader publication count at capture time
    uint64_t leader_generation = 0;   ///< leader offline generation
    uint64_t segment_generation = 0;  ///< generation the frames belong to
    /// After applying the frames the follower sits on a recluster boundary
    /// and must run recluster() — which deterministically reproduces the
    /// leader's clustering over the identical corpus cut — before asking
    /// for more. recluster_target is the generation that recluster reaches.
    bool recluster_after = false;
    uint64_t recluster_target = 0;
    uint32_t frame_count = 0;
    std::string raw;  ///< frame_count WAL-framed records, back to back
  };

  /// Builds the segment a follower at (from_seq publications applied,
  /// replica_generation) should consume next: at most max_frames frames,
  /// and at most max_bytes of raw bytes once at least one frame is in
  /// (a single oversized frame still ships alone). Frames never straddle a
  /// recluster boundary — the follower reclusters between generations at
  /// exactly the leader's corpus cut, which is what keeps it bit-identical
  /// across epochs. Takes the generation + publication locks shared;
  /// queries and other subscribers keep flowing.
  ShipSegment ship_segment(uint64_t from_seq, uint64_t replica_generation,
                           uint32_t max_frames, uint32_t max_bytes) const;

  /// Applies shipped records whose first entry is publication base_seq.
  /// Records at sequences already applied are checked for id agreement and
  /// skipped (duplicate delivery is legal); a sequence gap fails — applying
  /// past one would reorder publication. Persistence-enabled followers
  /// journal applied frames exactly like local ingests, so a follower
  /// restart (and promotion) recovers from its own directory. Returns
  /// false on gap or id mismatch (divergent histories).
  bool apply_shipped(uint64_t base_seq,
                     const std::vector<WalRecord>& records);

  /// Crash promotion: drains the dead leader's on-disk tail (journal +
  /// per-shard WALs under leader_dir, scanned read-only — torn tails are
  /// tolerated, the files are never modified) into this instance, which
  /// must be a caught-up follower of the same lineage (same seed order,
  /// publication history a prefix-compatible replay). Every acknowledged
  /// leader ingest is on disk by write-ahead order, so after this returns
  /// true the promoted instance has lost none of them; journal entries
  /// without a durable WAL payload were never acknowledged and are
  /// skipped. Returns false on lineage mismatch or a manifest-committed
  /// publication whose payload is unrecoverable (the follower is too
  /// stale to promote from tails alone — re-bootstrap instead). The
  /// caller must have stopped applying shipped segments first.
  bool catch_up_from_dir(const std::string& leader_dir);

  /// Shard access for tests/diagnostics.
  const ServingPipeline& shard(uint32_t i) const { return *shards_[i]; }

  /// The cross-shard result cache, or nullptr when disabled.
  const QueryCache* query_cache() const { return cache_.get(); }

  /// The cross-shard statistics board (diagnostics).
  const GlobalIndexStats& stats_board() const { return *stats_; }

 private:
  ShardedServing() = default;

  /// A freshly built shard set — everything a generation swap replaces in
  /// one assignment block. Produced by build_shard_set (pure; no member
  /// mutation), consumed by init_shards (construction) and recluster()
  /// (shadow build + swap).
  struct ShardSet {
    std::vector<std::unique_ptr<ServingPipeline>> shards;
    std::shared_ptr<Vocabulary> vocab;
    std::unique_ptr<GlobalIndexStats> stats;
    std::vector<std::vector<double>> centroids;
    int num_clusters = 0;
    DocId watermark = 1;
    std::vector<DocId> doc_order;  ///< input document order (= seed order
                                   ///< at construction; capture order at
                                   ///< recluster)
  };

  /// The pure shard-set builder: seeds a fresh vocabulary + statistics
  /// board from `clustering` in the unpartitioned interning order, slices
  /// the corpus per shard, builds the shard pipelines and wires the stats
  /// sink. `shard_states` (parallel to shard index, may be null for
  /// "fresh") presets each shard pipeline's epoch/offline coordinates via
  /// ServingPipeline::adopt — the recluster/restore paths, where a shard's
  /// document count is not its seed count. Touches NO members, so
  /// recluster() can run it off-lock against a captured cut.
  ShardSet build_shard_set(
      std::vector<Document> docs, std::vector<Segmentation> segmentations,
      const IntentionClustering& clustering,
      const PipelineOptions& pipeline_options,
      const ReclusterOptions& recluster_options, uint32_t num_shards,
      const std::vector<ServingPipeline::RestoreState>* shard_states) const;

  /// Shared construction tail: build_shard_set + member assignment +
  /// cache/pool/metric registration.
  bool init_shards(std::vector<Document> docs,
                   std::vector<Segmentation> segmentations,
                   const IntentionClustering& clustering,
                   const PipelineOptions& pipeline_options,
                   const ServingOptions& options, uint32_t num_shards,
                   const std::vector<ServingPipeline::RestoreState>*
                       shard_states = nullptr);

  /// Opens (or creates) WALs + journal under persist_dir_. When `fresh`,
  /// existing contents are truncated (create() path).
  bool open_persistence(bool fresh);

  QueryResult scatter_gather(
      const std::vector<std::pair<int, TermVector>>& queries, DocId exclude,
      int k) const;

  /// Lock-free sums for callers already holding recluster_mu_ (shared
  /// shared_mutex acquisition does not nest on one thread).
  uint64_t epoch_unlocked() const;
  size_t num_docs_unlocked() const;

  PreparedPost prepare(DocId id, std::string text) const;

  /// Sets the tenant's corpus gauges (ibseg_corpus_docs,
  /// ibseg_index_segments, ibseg_postings_bytes, ibseg_pending_pool_size,
  /// ibseg_offline_generation — all {tenant}) and every ibseg_shard_docs
  /// to the current shard set's totals. Caller holds publish_mu_
  /// exclusively or owns the instance outright (create/restore), so no
  /// shard publishes while it reads.
  void refresh_corpus_gauges() const;

  /// Publication body shared by add_post/add_posts/restore replay; caller
  /// holds publish_mu_ exclusively. `log` false skips journal/WAL appends
  /// (restore replay — the records are already durable).
  void publish_locked(uint32_t owner, PreparedPost post, bool log,
                      const std::string& text);

  std::vector<std::unique_ptr<ServingPipeline>> shards_;
  std::shared_ptr<Vocabulary> vocab_;
  std::unique_ptr<GlobalIndexStats> stats_;
  std::vector<std::vector<double>> centroids_;  ///< global centroids
  int num_clusters_ = 0;
  MatcherOptions matcher_options_;
  Segmenter segmenter_ = Segmenter::cm_tiling();
  /// The full build option set, kept so recluster() reruns the offline
  /// phase with exactly the options the deployment was built with.
  PipelineOptions pipeline_options_;
  ReclusterOptions recluster_options_;
  std::atomic<DocId> next_id_{1};

  /// Generation lock, ordered BEFORE publish_mu_ everywhere. Queries hold
  /// it shared across their whole scatter (so a generation swap can never
  /// replace shards_/stats_/vocab_ mid-query — one query sees one
  /// generation, end to end); recluster()'s swap phase holds it exclusive
  /// (then publish_mu_ exclusive, nested). Ingests and save() take only
  /// publish_mu_ and cannot deadlock against the swap.
  mutable std::shared_mutex recluster_mu_;
  /// Serializes concurrent recluster() jobs (one shadow build at a time).
  std::mutex recluster_job_mu_;
  /// Completed reclusters; bumped under recluster_mu_ exclusive and
  /// folded into every cache key, so a pre-swap entry is unreachable the
  /// instant the swap publishes (QueryCache::Key::generation).
  std::atomic<uint64_t> generation_{0};
  /// Leading publication_order_ entries the current offline clustering
  /// covers (guarded by publish_mu_).
  uint64_t offline_pubs_ = 0;

  /// Global publication order lock: exclusive for publications and save()
  /// (board order == vocabulary order == journal order == publication
  /// order), shared for external-query vocabulary lookups. Queries never
  /// take it.
  mutable std::shared_mutex publish_mu_;
  std::vector<DocId> seed_order_;         ///< immutable after construction
  std::vector<DocId> publication_order_;  ///< guarded by publish_mu_
  /// Position of publication i inside its owner shard's document array —
  /// maintained alongside publication_order_ so ship_segment() can find
  /// the i-th publication's text without an id lookup. The value is the
  /// owner's document count at publish time, and it is invariant across
  /// recluster swaps and restores: shard arrays are always rebuilt in the
  /// global order (seed entries owned by the shard, then publications
  /// owned by the shard), so a publication's offset never moves. Guarded
  /// by publish_mu_.
  std::vector<size_t> pub_shard_pos_;
  /// Which offline generation each span of the publication sequence was
  /// ingested under: entry {start_pubs, generation} says publications from
  /// start_pubs up to the next entry's start (or the current epoch) carry
  /// that generation. create() starts {{0, 0}}; restore() knows history
  /// only from the manifest's offline coverage on; recluster() appends its
  /// boundary. ship_segment() refuses to serve a (seq, generation) pair
  /// outside this history — the follower re-bootstraps instead of applying
  /// frames under the wrong clustering. Guarded by publish_mu_.
  struct GenSpan {
    uint64_t start_pubs = 0;
    uint64_t generation = 0;
  };
  std::vector<GenSpan> gen_history_;

  /// Persistence (empty dir = disabled).
  std::string persist_dir_;
  WalOptions wal_options_;
  std::vector<std::unique_ptr<IngestWal>> wals_;  ///< guarded by publish_mu_
  std::unique_ptr<IngestWal> journal_;            ///< guarded by publish_mu_

  /// Result cache above the scatter layer (combined-epoch invalidation).
  mutable std::unique_ptr<QueryCache> cache_;
  uint64_t matcher_fingerprint_ = 0;

  /// Scatter fan-out pool. Either owned (pool_, created when sharded and
  /// no shared pool was supplied) or borrowed from ServingOptions::
  /// scatter_pool (shared_pool_, multi-tenant deployments — the registry
  /// owns one pool for every tenant). scatter_pool() picks whichever is
  /// set; nullptr when one shard and no injection.
  std::unique_ptr<ThreadPool> pool_;
  ThreadPool* shared_pool_ = nullptr;
  ThreadPool* scatter_pool() const {
    return shared_pool_ != nullptr ? shared_pool_ : pool_.get();
  }

  /// Tenant (instance) label from ServingOptions::tenant — stamped onto
  /// every per-instance metric so coexisting instances never collide in
  /// the process-wide registry. "default" when unset.
  std::string tenant_label_;

  /// Query rate and latency per op (ibseg_queries_total{op,tenant},
  /// ibseg_query_seconds{op,tenant}), indexed by QueryOp.
  enum QueryOp { kRelated = 0, kExternal = 1 };
  obs::Counter* queries_[2] = {nullptr, nullptr};
  obs::Histogram* query_seconds_[2] = {nullptr, nullptr};
  /// Per-shard instruments (ibseg_shard_queries_total{shard,tenant},
  /// ibseg_shard_docs{shard,tenant}) + scatter/merge stage timers.
  std::vector<obs::Counter*> shard_queries_;
  std::vector<obs::Gauge*> shard_docs_;
  /// The tenant's corpus gauges, refreshed by refresh_corpus_gauges().
  struct CorpusGauges {
    obs::Gauge* docs = nullptr;
    obs::Gauge* segments = nullptr;
    obs::Gauge* postings_bytes = nullptr;
    obs::Gauge* pending_pool = nullptr;
    obs::Gauge* generation = nullptr;
  };
  CorpusGauges corpus_gauges_;
  obs::Histogram* scatter_seconds_ = nullptr;
  obs::Histogram* merge_seconds_ = nullptr;
};

}  // namespace ibseg

#endif  // IBSEG_CORE_SHARDED_SERVING_H_
