#ifndef IBSEG_STORAGE_SNAPSHOT_V2_H_
#define IBSEG_STORAGE_SNAPSHOT_V2_H_

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "seg/document.h"
#include "storage/snapshot.h"

namespace ibseg {

/// Binary snapshot v2: the complete durable state of one serving shard
/// (ServingPipeline), not just the offline phase — self-contained (texts
/// included) and crash-evident:
///
///   magic "IBSGSNP2" | u32 version | u32 section count | sections...
///   section := u32 id | u64 payload size | u32 CRC-32(payload) | payload
///
/// All integers are little-endian. Every section is CRC-framed, so any
/// truncation or bit rot — including mid-text truncations a line-oriented
/// text format cannot detect — fails the load instead of producing a
/// mangled corpus. Files are written via atomic_write_file (temp + fsync
/// + rename), so the previous snapshot survives a crash mid-save.
///
/// Contents: every document's id + raw text + segmentation (in pipeline
/// order), the intention-cluster label of every *offline* segment, the
/// vocabulary in interning order, and the id watermark. Documents beyond
/// `num_seed_docs` were ingested online; their cluster assignment is not
/// stored — on restore they are re-published through the same
/// nearest-centroid ingest path that placed them originally, which is
/// deterministic given the (restored) offline centroids and reproduces the
/// exact pre-save matcher state.
struct ServingSnapshot {
  /// All documents, in pipeline (publication) order: ids, raw texts and
  /// segmentations are parallel vectors.
  std::vector<DocId> doc_ids;
  std::vector<std::string> doc_texts;
  std::vector<Segmentation> segmentations;
  /// How many leading documents the offline clustering covers; the rest
  /// were ingested online.
  uint32_t num_seed_docs = 0;
  /// Cluster label per segment of the first `num_seed_docs` segmentations,
  /// flattened like PipelineSnapshot::segment_labels.
  std::vector<int> seed_labels;
  int num_clusters = 0;
  /// --- Incremental offline phase (section 6; absent in legacy 5-section
  /// files, which load with these defaults). A background recluster
  /// (docs/ARCHITECTURE.md §9) re-runs the offline clustering over the
  /// whole corpus at that moment, so after generation G > 0 the offline
  /// state covers MORE than the seed corpus: `offline_docs` leading
  /// documents carry labels (the first num_seed_docs of them in
  /// seed_labels — layout unchanged for legacy readers — and the rest in
  /// offline_labels), and the centroids are the recluster's, which the
  /// label-derived recomputation cannot reproduce from seed docs alone.
  /// Persisting them is what frees warm restore from re-deriving offline
  /// state out of seed documents.
  /// Offline generation: number of completed background reclusters.
  uint64_t offline_generation = 0;
  /// Leading documents covered by the offline clustering (>= num_seed_docs;
  /// == num_seed_docs until the first recluster).
  uint64_t offline_docs = 0;
  /// Cluster label per segment of segmentations [num_seed_docs,
  /// offline_docs), flattened exactly like seed_labels.
  std::vector<int> offline_labels;
  /// The offline clustering's centroids (28-dim CM space), stored as raw
  /// IEEE-754 bit patterns so restore reproduces nearest-centroid ingest
  /// assignment bit-for-bit. One row per cluster.
  std::vector<std::vector<double>> centroids;
  /// Outlier/pending pool: ids of ingested documents whose max
  /// nearest-centroid assignment distance exceeded the serving threshold —
  /// the recluster-trigger signal, drained at the next recluster.
  std::vector<DocId> pending_pool;
  /// Documents ingested since the offline state was last (re)computed.
  uint64_t docs_since_recluster = 0;
  /// Vocabulary terms in interning order (restore re-derives the same
  /// order; see docs/ARCHITECTURE.md §5).
  std::vector<std::string> vocab_terms;
  /// Id watermark at save time (>= every handed-out id, including ids
  /// reserved by in-flight ingests that had not yet published).
  DocId next_id = 1;

  /// Structural validity: parallel vectors agree, every segmentation is
  /// valid, the seed label count matches the seed segment count and every
  /// label is within [0, num_clusters).
  bool is_consistent() const;
};

/// Serializes `snapshot` to `os` (binary). Returns false on stream failure.
bool save_snapshot_v2(const ServingSnapshot& snapshot, std::ostream& os);

/// Writes `snapshot` to `path` atomically (temp file + fsync + rename). On
/// success `*bytes_out` (if non-null) receives the encoded size. The
/// previous file at `path` is untouched on any failure.
bool save_snapshot_v2_file(const ServingSnapshot& snapshot,
                           const std::string& path,
                           uint64_t* bytes_out = nullptr);

/// Parses a v2 snapshot. Returns nullopt on bad magic/version, any
/// section CRC or size mismatch, truncation, or structural inconsistency.
std::optional<ServingSnapshot> load_snapshot_v2(std::istream& is);
std::optional<ServingSnapshot> load_snapshot_v2_file(const std::string& path);

}  // namespace ibseg

#endif  // IBSEG_STORAGE_SNAPSHOT_V2_H_
