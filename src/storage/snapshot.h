#ifndef IBSEG_STORAGE_SNAPSHOT_H_
#define IBSEG_STORAGE_SNAPSHOT_H_

#include <vector>

#include "cluster/intention_clusters.h"
#include "seg/segmentation.h"

namespace ibseg {

/// The offline state of the related-post pipeline that is expensive to
/// recompute: the per-document segmentations and the intention-cluster
/// assignment of every segment. Together with the raw post texts this is
/// enough to rebuild the matcher exactly (indices re-derive from it), so a
/// deployment can segment+cluster once and reload on every restart — the
/// paper's offline/online split (Sec. 7 "Indexing"). Persisted as part of
/// the snapshot v2 format (storage/snapshot_v2.h).
struct PipelineSnapshot {
  /// One segmentation per document, in corpus order.
  std::vector<Segmentation> segmentations;
  /// Cluster label per segment, flattened in document order then segment
  /// order (the layout IntentionClustering::from_labels consumes).
  std::vector<int> segment_labels;
  int num_clusters = 0;

  /// True when the label count matches the segment count and every label
  /// is within [0, num_clusters).
  bool is_consistent() const;
};

/// Captures a snapshot from the clustering built over `segmentations`.
/// `doc_ids[d]` is the document id of segmentations[d] — required whenever
/// corpus ids are not the dense 0..n-1 identity (shard slices, seed
/// corpora with id gaps); the labels are resolved against the clustering's
/// RefinedSegment doc ids, so an index/id mismatch silently mislabels
/// every segment of the affected documents as cluster 0.
PipelineSnapshot make_snapshot(const std::vector<Segmentation>& segmentations,
                               const IntentionClustering& clustering,
                               const std::vector<DocId>& doc_ids);

/// Identity-id convenience overload: document d has id d.
PipelineSnapshot make_snapshot(const std::vector<Segmentation>& segmentations,
                               const IntentionClustering& clustering);

/// Rebuilds the clustering (including refinement) from a snapshot.
IntentionClustering restore_clustering(const std::vector<Document>& docs,
                                       const PipelineSnapshot& snapshot);

}  // namespace ibseg

#endif  // IBSEG_STORAGE_SNAPSHOT_H_
