// Property suite for the sharded-serving building blocks that everything
// else leans on: the stable hash partitioner (core/sharded_serving.h
// shard_of), the shard-manifest commit record (storage/shard_manifest.h),
// the id-aware make_snapshot overload that shard slices depend on, and
// the shared document analyses a recluster's new generation reuses.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/sharded_serving.h"
#include "datagen/post_generator.h"
#include "storage/shard_manifest.h"
#include "storage/snapshot.h"

namespace ibseg {
namespace {

std::string tmp_path(const std::string& name) {
  std::string path = ::testing::TempDir() + "/ibseg_" + name;
  std::remove(path.c_str());
  return path;
}

// ------------------------------------------------------ hash partition ----

TEST(ShardOf, EveryIdOwnedByExactlyOneValidShard) {
  for (uint32_t shards : {1u, 2u, 3u, 8u, 13u}) {
    for (DocId id = 0; id < 1000; ++id) {
      uint32_t s = ShardedServing::shard_of(id, shards);
      EXPECT_LT(s, shards);
      // Deterministic: the partition function is pure.
      EXPECT_EQ(ShardedServing::shard_of(id, shards), s);
    }
  }
}

TEST(ShardOf, DegenerateShardCountsMapToShardZero) {
  EXPECT_EQ(ShardedServing::shard_of(123, 0), 0u);
  EXPECT_EQ(ShardedServing::shard_of(123, 1), 0u);
}

TEST(ShardOf, StableAcrossRuns) {
  // Golden values: the partition function is part of the persistence
  // format (restore routes manifest-listed ids back to their owner
  // shards), so its outputs may NEVER change. FNV-1a over the id's 4
  // little-endian bytes, mod num_shards.
  EXPECT_EQ(ShardedServing::shard_of(0, 8), 5u);
  EXPECT_EQ(ShardedServing::shard_of(1, 8), 4u);
  EXPECT_EQ(ShardedServing::shard_of(2, 8), 7u);
  EXPECT_EQ(ShardedServing::shard_of(42, 8), 7u);
  EXPECT_EQ(ShardedServing::shard_of(1000000, 8), 0u);
}

void expect_balanced(const std::vector<DocId>& ids, uint32_t shards,
                     const std::string& what) {
  std::vector<size_t> counts(shards, 0);
  for (DocId id : ids) ++counts[ShardedServing::shard_of(id, shards)];
  const double uniform = static_cast<double>(ids.size()) / shards;
  for (uint32_t s = 0; s < shards; ++s) {
    EXPECT_GE(counts[s], uniform * 0.8) << what << " shard " << s;
    EXPECT_LE(counts[s], uniform * 1.2) << what << " shard " << s;
  }
}

TEST(ShardOf, SequentialIdsBalanceWithin20Percent) {
  // Sequential ids are the real workload: the global counter hands out
  // 1, 2, 3, ... — a partitioner that clumped consecutive ids would turn
  // one shard into the hot shard.
  std::vector<DocId> ids(10000);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<DocId>(i);
  expect_balanced(ids, 8, "sequential");
}

TEST(ShardOf, RandomIdsBalanceWithin20Percent) {
  std::mt19937_64 rng(20260805);
  std::uniform_int_distribution<uint64_t> dist(0, 1u << 30);
  std::vector<DocId> ids(10000);
  for (DocId& id : ids) id = static_cast<DocId>(dist(rng));
  expect_balanced(ids, 8, "random");
}

// ------------------------------------------------------ shard manifest ----

ShardManifest sample_manifest() {
  ShardManifest m;
  m.num_shards = 3;
  m.next_id = 40;
  m.num_clusters = 5;
  m.seed_order = {0, 1, 2, 3, 4, 5};
  m.publication_order = {30, 31, 33};
  // shard_of(·, 3) over the nine ids above: shard 0 gets {2,3,31}, shard 1
  // gets {0,4,33}, shard 2 gets {1,5,30} — but the entries only need to be
  // count-consistent, which is what is_consistent checks.
  m.shards = {{3, 2, 1}, {3, 2, 1}, {3, 2, 1}};
  return m;
}

TEST(ShardManifestFile, RoundTripPreservesEverything) {
  ShardManifest m = sample_manifest();
  ASSERT_TRUE(m.is_consistent());
  std::string path = tmp_path("manifest_rt");
  ASSERT_TRUE(save_shard_manifest_file(m, path));
  auto loaded = load_shard_manifest_file(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_shards, m.num_shards);
  EXPECT_EQ(loaded->next_id, m.next_id);
  EXPECT_EQ(loaded->num_clusters, m.num_clusters);
  EXPECT_EQ(loaded->seed_order, m.seed_order);
  EXPECT_EQ(loaded->publication_order, m.publication_order);
  ASSERT_EQ(loaded->shards.size(), m.shards.size());
  for (size_t s = 0; s < m.shards.size(); ++s) {
    EXPECT_EQ(loaded->shards[s].docs, m.shards[s].docs);
    EXPECT_EQ(loaded->shards[s].seed_docs, m.shards[s].seed_docs);
    EXPECT_EQ(loaded->shards[s].epoch, m.shards[s].epoch);
  }
}

TEST(ShardManifestFile, LoadRejectsMissingFile) {
  EXPECT_FALSE(load_shard_manifest_file(tmp_path("manifest_missing")));
}

TEST(ShardManifestFile, LoadRejectsTruncation) {
  // Strict parse: ANY truncation point must be rejected, never read as a
  // shorter-but-valid manifest (that is how torn commits resurrect old
  // state). Chop the canonical serialization at every byte.
  ShardManifest m = sample_manifest();
  std::string path = tmp_path("manifest_full");
  ASSERT_TRUE(save_shard_manifest_file(m, path));
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  std::string full = buf.str();
  ASSERT_FALSE(full.empty());
  std::string cut_path = tmp_path("manifest_cut");
  for (size_t len = 0; len < full.size(); ++len) {
    std::ofstream out(cut_path, std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(len));
    out.close();
    EXPECT_FALSE(load_shard_manifest_file(cut_path).has_value())
        << "accepted a manifest truncated to " << len << " of "
        << full.size() << " bytes";
  }
}

TEST(ShardManifestFile, LoadRejectsTrailingGarbage) {
  ShardManifest m = sample_manifest();
  std::string path = tmp_path("manifest_garbage");
  ASSERT_TRUE(save_shard_manifest_file(m, path));
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << "tail that no writer emits\n";
  out.close();
  EXPECT_FALSE(load_shard_manifest_file(path).has_value());
}

TEST(ShardManifestFile, LoadRejectsInconsistentCounts) {
  // Entries that disagree with the global orders (docs != seed + epoch, or
  // summed counts != order lengths) fail is_consistent and must not load.
  ShardManifest m = sample_manifest();
  m.shards[1].epoch += 1;
  EXPECT_FALSE(m.is_consistent());
  std::string path = tmp_path("manifest_inconsistent");
  std::ofstream probe(path, std::ios::binary | std::ios::trunc);
  probe.close();
  if (save_shard_manifest_file(m, path)) {
    EXPECT_FALSE(load_shard_manifest_file(path).has_value());
  }
}

// ------------------------------------------- id-aware snapshot labels ----

TEST(ShardSnapshot, NonContiguousIdsKeepTheirLabels) {
  // Shard slices carry corpus-global ids with gaps. make_snapshot resolves
  // labels against the clustering's RefinedSegment doc ids, so the 3-arg
  // overload with the slice's real ids must reproduce the labels the
  // identity-id corpus gets — the regression was every gapped document
  // silently collapsing to cluster 0.
  SyntheticCorpus corpus = generate_corpus([] {
    GeneratorOptions gen;
    gen.num_posts = 12;
    gen.posts_per_scenario = 4;
    gen.seed = 7;
    return gen;
  }());
  std::vector<Document> dense = analyze_corpus(corpus);
  std::vector<Document> gapped;
  std::vector<DocId> ids;
  for (size_t d = 0; d < corpus.posts.size(); ++d) {
    DocId id = static_cast<DocId>(10 + 7 * d);  // gaps, non-zero base
    gapped.push_back(Document::analyze(id, corpus.posts[d].text));
    ids.push_back(id);
  }
  Segmenter segmenter = Segmenter::cm_tiling();
  auto segment_all = [&](const std::vector<Document>& docs) {
    Vocabulary vocab;
    std::vector<Segmentation> segs(docs.size());
    for (size_t d = 0; d < docs.size(); ++d) {
      segs[d] = segmenter.segment(docs[d], vocab);
    }
    return segs;
  };
  std::vector<Segmentation> dense_segs = segment_all(dense);
  std::vector<Segmentation> gapped_segs = segment_all(gapped);
  IntentionClustering dense_clustering =
      IntentionClustering::build(dense, dense_segs);
  IntentionClustering gapped_clustering =
      IntentionClustering::build(gapped, gapped_segs);
  PipelineSnapshot want = make_snapshot(dense_segs, dense_clustering);
  PipelineSnapshot got = make_snapshot(gapped_segs, gapped_clustering, ids);
  ASSERT_TRUE(got.is_consistent());
  EXPECT_EQ(got.num_clusters, want.num_clusters);
  EXPECT_EQ(got.segment_labels, want.segment_labels);
}

// ------------------------------------------------------ shared analyses ----

TEST(ShardedRecluster, NewGenerationSharesTheDocumentAnalyses) {
  // A recluster captures the live documents and builds a new generation
  // from them; the capture must share each document's analysis, not copy
  // it, so the epoch never holds the corpus twice.
  GeneratorOptions gen;
  gen.num_posts = 24;
  gen.seed = 9;
  ServingOptions options;
  options.num_shards = 2;
  auto serving =
      ShardedServing::create(analyze_corpus(generate_corpus(gen)), {}, options);
  ASSERT_NE(serving, nullptr);
  ASSERT_TRUE(
      serving->add_post("My laptop will not boot. I tried safe mode.")
          .has_value());
  std::unordered_map<DocId, Document> before;
  for (uint32_t s = 0; s < serving->num_shards(); ++s) {
    for (const Document& d : serving->shard(s).quiescent().docs()) {
      before.emplace(d.id(), d);
    }
  }
  ASSERT_EQ(before.size(), 25u);

  ASSERT_EQ(serving->recluster(), 1u);
  size_t checked = 0;
  for (uint32_t s = 0; s < serving->num_shards(); ++s) {
    for (const Document& d : serving->shard(s).quiescent().docs()) {
      auto it = before.find(d.id());
      ASSERT_NE(it, before.end()) << d.id();
      const Document& old = it->second;
      EXPECT_EQ(d.text().data(), old.text().data()) << d.id();
      EXPECT_EQ(d.tokens().data(), old.tokens().data()) << d.id();
      EXPECT_EQ(d.sentences().data(), old.sentences().data()) << d.id();
      ++checked;
    }
  }
  EXPECT_EQ(checked, before.size());
}

}  // namespace
}  // namespace ibseg
