#include "storage/snapshot.h"

#include <map>

namespace ibseg {

bool PipelineSnapshot::is_consistent() const {
  size_t segments = 0;
  for (const Segmentation& s : segmentations) {
    if (!s.is_valid()) return false;
    if (s.num_units > 0) segments += s.num_segments();
  }
  if (segments != segment_labels.size()) return false;
  for (int l : segment_labels) {
    if (l < 0 || l >= num_clusters) return false;
  }
  return true;
}

PipelineSnapshot make_snapshot(const std::vector<Segmentation>& segmentations,
                               const IntentionClustering& clustering,
                               const std::vector<DocId>& doc_ids) {
  PipelineSnapshot snap;
  snap.segmentations = segmentations;
  snap.num_clusters = clustering.num_clusters();

  // Map (doc, unit) -> cluster via the refined segments, then read off the
  // label of each raw segment from its first unit.
  std::map<std::pair<DocId, size_t>, int> unit_cluster;
  for (const RefinedSegment& seg : clustering.segments()) {
    for (auto [b, e] : seg.ranges) {
      for (size_t u = b; u < e; ++u) {
        unit_cluster[{seg.doc, u}] = seg.cluster;
      }
    }
  }
  for (size_t d = 0; d < segmentations.size(); ++d) {
    DocId id = d < doc_ids.size() ? doc_ids[d] : static_cast<DocId>(d);
    for (auto [b, e] : segmentations[d].segments()) {
      if (b == e) continue;
      auto it = unit_cluster.find({id, b});
      snap.segment_labels.push_back(it == unit_cluster.end() ? 0
                                                             : it->second);
    }
  }
  return snap;
}

PipelineSnapshot make_snapshot(const std::vector<Segmentation>& segmentations,
                               const IntentionClustering& clustering) {
  return make_snapshot(segmentations, clustering, {});
}

IntentionClustering restore_clustering(const std::vector<Document>& docs,
                                       const PipelineSnapshot& snapshot) {
  return IntentionClustering::from_labels(docs, snapshot.segmentations,
                                          snapshot.segment_labels,
                                          snapshot.num_clusters);
}

}  // namespace ibseg
