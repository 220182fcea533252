// Property suite for the sharded-serving building blocks that everything
// else leans on: the stable hash partitioner (core/sharded_serving.h
// shard_of), the shard-manifest commit record (storage/shard_manifest.h),
// the id-aware make_snapshot overload that shard slices depend on, and
// the shared document analyses a recluster's new generation reuses.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/sharded_serving.h"
#include "datagen/post_generator.h"
#include "index/intention_matcher.h"
#include "storage/shard_manifest.h"
#include "storage/snapshot.h"
#include "temp_dir.h"

namespace ibseg {
namespace {

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
  const std::string dir = fresh_temp_dir("shard_manifest_rt");
  std::string path = dir + "/MANIFEST";
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
  std::filesystem::remove_all(dir);
}

TEST(ShardManifestFile, LoadRejectsMissingFile) {
  const std::string dir = fresh_temp_dir("shard_manifest_missing");
  EXPECT_FALSE(load_shard_manifest_file(dir + "/MANIFEST"));
  std::filesystem::remove_all(dir);
}

TEST(ShardManifestFile, LoadRejectsTruncation) {
  // Strict parse: ANY truncation point must be rejected, never read as a
  // shorter-but-valid manifest (that is how torn commits resurrect old
  // state). Chop the canonical serialization at every byte.
  ShardManifest m = sample_manifest();
  const std::string dir = fresh_temp_dir("shard_manifest_cut");
  std::string path = dir + "/MANIFEST";
  ASSERT_TRUE(save_shard_manifest_file(m, path));
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  std::string full = buf.str();
  ASSERT_FALSE(full.empty());
  std::string cut_path = dir + "/MANIFEST.cut";
  for (size_t len = 0; len < full.size(); ++len) {
    std::ofstream out(cut_path, std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(len));
    out.close();
    EXPECT_FALSE(load_shard_manifest_file(cut_path).has_value())
        << "accepted a manifest truncated to " << len << " of "
        << full.size() << " bytes";
  }
  std::filesystem::remove_all(dir);
}

TEST(ShardManifestFile, LoadRejectsTrailingGarbage) {
  ShardManifest m = sample_manifest();
  const std::string dir = fresh_temp_dir("shard_manifest_garbage");
  std::string path = dir + "/MANIFEST";
  ASSERT_TRUE(save_shard_manifest_file(m, path));
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << "tail that no writer emits\n";
  out.close();
  EXPECT_FALSE(load_shard_manifest_file(path).has_value());
  std::filesystem::remove_all(dir);
}

TEST(ShardManifestFile, LoadRejectsInconsistentCounts) {
  // Entries that disagree with the global orders (docs != seed + epoch, or
  // summed counts != order lengths) fail is_consistent and must not load.
  ShardManifest m = sample_manifest();
  m.shards[1].epoch += 1;
  EXPECT_FALSE(m.is_consistent());
  const std::string dir = fresh_temp_dir("shard_manifest_inconsistent");
  std::string path = dir + "/MANIFEST";
  std::ofstream probe(path, std::ios::binary | std::ios::trunc);
  probe.close();
  if (save_shard_manifest_file(m, path)) {
    EXPECT_FALSE(load_shard_manifest_file(path).has_value());
  }
  std::filesystem::remove_all(dir);
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
  // it, so the epoch never holds the corpus twice — and it must not bring
  // the dropped token arrays back.
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
      EXPECT_FALSE(d.holds_tokens()) << d.id();
      EXPECT_EQ(d.sentences().data(), old.sentences().data()) << d.id();
      ++checked;
    }
  }
  EXPECT_EQ(checked, before.size());
}

// ------------------------------------------------------ dropped tokens ----

/// Every document the deployment's shards hold.
std::vector<Document> shard_documents(const ShardedServing& serving) {
  std::vector<Document> out;
  for (uint32_t s = 0; s < serving.num_shards(); ++s) {
    const auto& docs = serving.shard(s).quiescent().docs();
    out.insert(out.end(), docs.begin(), docs.end());
  }
  return out;
}

/// A term bag's entries as (term, weight bits) pairs, for exact equality.
std::vector<std::pair<TermId, uint64_t>> bag_bits(const TermVector& tv) {
  std::vector<std::pair<TermId, uint64_t>> out;
  for (const auto& [term, w] : tv.entries()) {
    uint64_t bits = 0;
    std::memcpy(&bits, &w, sizeof(bits));
    out.emplace_back(term, bits);
  }
  return out;
}

TEST(DroppedTokens, TrimmedAndUntrimmedCorporaIndexIdentically) {
  // A re-index over documents whose token arrays were dropped re-tokenizes
  // their text; the bags, TermIds and answers must be the ones the held
  // arrays give. TermIds must also come out in the order a segment-by-
  // segment build interns them in: scores add their terms in TermId
  // order, so another order would change the sums' last bits.
  GeneratorOptions gen;
  gen.num_posts = 40;
  gen.seed = 21;
  std::vector<Document> full = analyze_corpus(generate_corpus(gen));
  std::vector<Document> trimmed = full;
  for (Document& d : trimmed) d.drop_tokens();
  std::vector<Segmentation> segs(full.size());
  Vocabulary seg_vocab;
  for (size_t d = 0; d < full.size(); ++d) {
    segs[d] = Segmenter::cm_tiling().segment(full[d], seg_vocab);
  }
  IntentionClustering clustering = IntentionClustering::build(full, segs);

  // The reference interning order: every refined segment's ranges,
  // cluster by cluster in member order, each range's tokens in order.
  Vocabulary reference_vocab;
  for (const std::vector<size_t>& members : clustering.cluster_members()) {
    for (size_t seg_idx : members) {
      const RefinedSegment& seg = clustering.segments()[seg_idx];
      const Document& doc = full[seg.doc];
      ASSERT_EQ(doc.id(), seg.doc);
      for (auto [b, e] : seg.ranges) {
        build_term_vector(doc.tokens(), doc.sentences()[b].token_begin,
                          doc.sentences()[e - 1].token_end, reference_vocab);
      }
    }
  }
  Vocabulary full_vocab;
  Vocabulary trimmed_vocab;
  IntentionMatcher a = IntentionMatcher::build(full, clustering, full_vocab);
  IntentionMatcher b =
      IntentionMatcher::build(trimmed, clustering, trimmed_vocab);
  ASSERT_EQ(full_vocab.size(), reference_vocab.size());
  ASSERT_EQ(trimmed_vocab.size(), reference_vocab.size());
  for (size_t t = 0; t < reference_vocab.size(); ++t) {
    const TermId id = static_cast<TermId>(t);
    ASSERT_EQ(full_vocab.term(id), reference_vocab.term(id)) << t;
    ASSERT_EQ(trimmed_vocab.term(id), reference_vocab.term(id)) << t;
  }

  // One more post through add_document on each side.
  GeneratorOptions more = gen;
  more.num_posts = 1;
  more.seed = 22;
  Document post = Document::analyze(
      1000, generate_corpus(more).posts.front().text);
  Document trimmed_post = post;
  trimmed_post.drop_tokens();
  Vocabulary scratch;
  Segmentation post_seg = Segmenter::cm_tiling().segment(post, scratch);
  a.add_document(post, post_seg, clustering.centroids(), full_vocab);
  b.add_document(trimmed_post, post_seg, clustering.centroids(),
                 trimmed_vocab);

  std::vector<DocId> ids;
  for (const Document& d : full) ids.push_back(d.id());
  ids.push_back(post.id());
  for (DocId id : ids) {
    const auto bags_a = a.doc_cluster_terms(id);
    const auto bags_b = b.doc_cluster_terms(id);
    ASSERT_EQ(bags_a.size(), bags_b.size()) << id;
    for (size_t i = 0; i < bags_a.size(); ++i) {
      EXPECT_EQ(bags_a[i].first, bags_b[i].first) << id;
      EXPECT_EQ(bag_bits(bags_a[i].second), bag_bits(bags_b[i].second)) << id;
    }
    const std::vector<ScoredDoc> ra = a.find_related(id, 5);
    const std::vector<ScoredDoc> rb = b.find_related(id, 5);
    ASSERT_EQ(ra.size(), rb.size()) << id;
    for (size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].doc, rb[i].doc) << id;
      EXPECT_EQ(std::memcmp(&ra[i].score, &rb[i].score, sizeof(double)), 0)
          << id;
    }
  }
}

TEST(DroppedTokens, NoShardDocumentHoldsATokenArray) {
  // After every path that puts a document into a shard — create, publish,
  // recluster (capture and catch-up), restore (offline slice and replay) —
  // the shard's copy has dropped its token array.
  const std::string dir = fresh_temp_dir("shard_dropped_tokens");
  GeneratorOptions gen;
  gen.num_posts = 30;
  gen.seed = 23;
  std::vector<Document> seed = analyze_corpus(generate_corpus(gen));
  ServingOptions options;
  options.num_shards = 2;
  options.persist.shard_dir = dir;
  auto serving = ShardedServing::create(seed, {}, options);
  ASSERT_NE(serving, nullptr);
  // The caller's own copies keep theirs.
  for (const Document& d : seed) EXPECT_TRUE(d.holds_tokens()) << d.id();
  auto expect_none_held = [](const ShardedServing& s, const char* when) {
    size_t docs = 0;
    for (const Document& d : shard_documents(s)) {
      EXPECT_FALSE(d.holds_tokens()) << when << " doc " << d.id();
      ++docs;
    }
    EXPECT_EQ(docs, s.num_docs()) << when;
  };
  expect_none_held(*serving, "after create");

  GeneratorOptions more = gen;
  more.num_posts = 6;
  more.seed = 24;
  SyntheticCorpus extra = generate_corpus(more);
  ASSERT_TRUE(serving->add_post(extra.posts[0].text).has_value());
  ASSERT_TRUE(serving
                  ->add_posts({extra.posts[1].text, extra.posts[2].text})
                  .has_value());
  expect_none_held(*serving, "after publish");
  ASSERT_EQ(serving->recluster(), 1u);
  expect_none_held(*serving, "after recluster");
  ASSERT_TRUE(serving->add_post(extra.posts[3].text).has_value());
  ASSERT_TRUE(serving->save(dir));
  // Logged after the save: restore replays it from the log.
  ASSERT_TRUE(serving->add_post(extra.posts[4].text).has_value());
  const size_t docs = serving->num_docs();
  serving.reset();
  auto restored = ShardedServing::restore(dir, {}, options);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->num_docs(), docs);
  expect_none_held(*restored, "after restore");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ibseg
