#ifndef IBSEG_STORAGE_SHARD_MANIFEST_H_
#define IBSEG_STORAGE_SHARD_MANIFEST_H_

#include <optional>
#include <string>
#include <vector>

#include "seg/document.h"

namespace ibseg {

/// Per-shard bookkeeping stored in the manifest: how many documents the
/// shard's snapshot held when the manifest was committed, how many of them
/// were seed documents, and the shard's publication epoch (= ingested
/// documents) at that moment.
struct ShardManifestEntry {
  uint64_t docs = 0;
  uint64_t seed_docs = 0;
  uint64_t epoch = 0;
};

/// The commit record of a sharded save (core/sharded_serving.h). A sharded
/// persist directory holds one snapshot-v2 file per shard
/// (shard-<i>/snapshot.v2), one ingest log (wal: (id, text) frames in
/// publication order since the last save), and this manifest (MANIFEST) —
/// written last, atomically, after every shard snapshot has been renamed
/// into place, so its presence asserts that every state it describes is on
/// disk. Restore composes the shards back into the unpartitioned
/// publication history:
///
///   * seed_order is the global document order of the seed corpus — the
///     order segmentation/clustering/vocabulary seeding iterate in, which
///     fixes TermIds and the statistics board's unit order.
///   * publication_order is the global order of every online ingest baked
///     into the shard snapshots. Ingests after the save live in the
///     ingest log, in publication order.
///   * shards[i] lets restore detect a torn directory: a shard snapshot
///     holding fewer documents than its manifest entry claims cannot be the
///     one this manifest committed (snapshots are renamed before the
///     manifest), so restore must reject it rather than resurrect a
///     shorter history. The reverse — snapshot ahead of manifest — is the
///     legal crash window between shard renames and the manifest commit,
///     recovered via log replay dedup.
struct ShardManifest {
  uint32_t num_shards = 0;
  DocId next_id = 0;
  int num_clusters = 0;
  /// Offline generation the committed shard snapshots were cut at. Shard
  /// snapshot files are generation-qualified (shard-<i>/snapshot.g<G>.v2;
  /// generation 0 keeps the legacy name snapshot.v2), so a crash between a
  /// post-recluster save's snapshot renames and this manifest's commit
  /// leaves the OLD generation's files — the ones the surviving manifest
  /// points at — untouched: restore comes back at exactly the old
  /// generation, never a torn mix of label spaces. v1 manifests load with
  /// generation 0.
  uint64_t generation = 0;
  /// How many leading publication_order entries the committed offline
  /// state covers (labels baked into the shard snapshots' offline
  /// sections). 0 until the first recluster is saved.
  uint64_t offline_publications = 0;
  std::vector<DocId> seed_order;
  std::vector<DocId> publication_order;
  std::vector<ShardManifestEntry> shards;

  /// Structural validity: one entry per shard, per-shard docs =
  /// seed_docs + epoch, and the global orders sum to the per-shard counts.
  bool is_consistent() const;
};

/// Atomic save (temp + fsync + rename, like every storage format). Returns
/// false with the previous file intact on any failure.
bool save_shard_manifest_file(const ShardManifest& manifest,
                              const std::string& path);

/// Strict load: any missing/duplicated/garbled line, count mismatch, or
/// failed consistency check yields nullopt, never a partial manifest.
std::optional<ShardManifest> load_shard_manifest_file(const std::string& path);

}  // namespace ibseg

#endif  // IBSEG_STORAGE_SHARD_MANIFEST_H_
