// Differential proof of background re-clustering epochs (ctest labels
// "differential" + "recluster"): after a quiescent recluster(), the
// serving state must be BIT-IDENTICAL — ranked lists AND scores,
// operator== on the doubles — to a cold pipeline built from scratch over
// the same corpus (the Oracle, tests/oracle.h). The suite proves it for
// ShardedServing at shard counts {1, 2, 4}, across interleaved
// ingests before/after the epoch, cache on/off (with the
// generation-keyed staleness guarantee), save/restore at generation > 0
// including the restore-without-seed-dependency contract, plus a
// bounded-divergence soft gate for queries served BETWEEN reclusters and
// the ReclusterWorker trigger policy. scripts/reproduce.sh
// IBSEG_RECLUSTER_CHECK=1 runs the "recluster" label (normally and under
// TSan via the differential label's sanitizer pass).

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/recluster.h"
#include "core/sharded_serving.h"
#include "datagen/post_generator.h"
#include "oracle.h"
#include "temp_dir.h"

namespace ibseg {
namespace {

constexpr int kShardCounts[] = {1, 2, 4};
constexpr size_t kPosts = 24;
constexpr size_t kTail = 7;

GeneratorOptions corpus_options(size_t posts, uint64_t seed) {
  GeneratorOptions gen;
  gen.num_posts = posts;
  gen.posts_per_scenario = 4;
  gen.seed = seed;
  return gen;
}

std::vector<std::string> ingest_texts(size_t count, uint64_t seed) {
  SyntheticCorpus extra = generate_corpus(corpus_options(count, seed));
  std::vector<std::string> texts;
  texts.reserve(extra.posts.size());
  for (const GeneratedPost& p : extra.posts) texts.push_back(p.text);
  return texts;
}

/// The full corpus a quiescent post-recluster state must be equivalent
/// to: the seed docs plus the ingested tail at the ids add_post assigned.
std::vector<Document> full_docs(const SyntheticCorpus& corpus,
                                const std::vector<std::string>& tail) {
  std::vector<Document> docs = analyze_corpus(corpus);
  DocId next = static_cast<DocId>(docs.size());
  for (const std::string& text : tail) {
    docs.push_back(Document::analyze(next++, text));
  }
  return docs;
}

void expect_identical(const std::vector<ScoredDoc>& got,
                      const std::vector<ScoredDoc>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].doc, want[i].doc) << what << " rank " << i;
    // Bit-identical is the contract, not merely close.
    EXPECT_EQ(got[i].score, want[i].score) << what << " rank " << i;
  }
}

/// Every in-corpus query at several k against a cold-built reference.
/// Publication coordinates are NOT compared: the reclustered side carries
/// its ingest history in the epoch while the cold side was born with
/// everything as seed — the identity claim is about the index, i.e. the
/// rankings and scores.
void expect_same_index(const ShardedServing& got, const Oracle& cold,
                       const std::string& what) {
  ASSERT_EQ(got.num_docs(), cold.num_docs()) << what;
  for (const Document& d : cold.docs()) {
    for (int k : {1, 3, 10}) {
      expect_identical(got.find_related(d.id(), k).results,
                       cold.find_related(d.id(), k).results,
                       what + " doc " + std::to_string(d.id()) + " k " +
                           std::to_string(k));
    }
  }
}

// --------------------------------------------- one shard: swap == rebuild ----

TEST(ReclusterDifferential, QuiescentReclusterEqualsColdRebuild) {
  for (uint64_t seed : {11u, 407u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SyntheticCorpus corpus = generate_corpus(corpus_options(kPosts, seed));
    std::vector<std::string> tail = ingest_texts(kTail, seed + 1);

    auto built = ShardedServing::create(analyze_corpus(corpus));
    ShardedServing& serving = *built;
    for (const std::string& text : tail) serving.add_post(text);
    ASSERT_EQ(serving.offline_generation(), 0u);
    ASSERT_EQ(serving.docs_since_recluster(), kTail);

    EXPECT_EQ(serving.recluster(), 1u);

    // The swap moved the offline coverage forward without disturbing the
    // publication history: epoch/num_docs unchanged, counters reset.
    EXPECT_EQ(serving.offline_generation(), 1u);
    EXPECT_EQ(serving.epoch(), kTail);
    EXPECT_EQ(serving.num_docs(), serving.shard(0).seed_docs() + serving.epoch());
    EXPECT_EQ(serving.shard(0).offline_docs(), kPosts + kTail);
    EXPECT_EQ(serving.docs_since_recluster(), 0u);
    EXPECT_EQ(serving.pending_pool_size(), 0u);

    Oracle cold(full_docs(corpus, tail));
    expect_same_index(serving, cold, "post-recluster");

    // A second epoch over the same corpus is a fixed point.
    EXPECT_EQ(serving.recluster(), 2u);
    expect_same_index(serving, cold, "second recluster");
  }
}

TEST(ReclusterDifferential, IngestsAfterTheSwapStayIdentical) {
  SyntheticCorpus corpus = generate_corpus(corpus_options(kPosts, 19));
  std::vector<std::string> tail = ingest_texts(kTail, 20);
  std::vector<std::string> later = ingest_texts(4, 21);

  auto built = ShardedServing::create(analyze_corpus(corpus));
  ShardedServing& serving = *built;
  for (const std::string& text : tail) serving.add_post(text);
  ASSERT_EQ(serving.recluster(), 1u);
  for (const std::string& text : later) serving.add_post(text);
  EXPECT_EQ(serving.docs_since_recluster(), later.size());

  // Reference: cold build over the reclustered coverage, then the same
  // post-swap ingests through the identical streaming path.
  Oracle cold(full_docs(corpus, tail));
  for (const std::string& text : later) cold.add_post(text);
  expect_same_index(serving, cold, "post-swap ingests");
}

// -------------------------------------------------- pending/outlier pool ----

TEST(ReclusterDifferential, PendingPoolTracksThresholdAndDrainsAtSwap) {
  SyntheticCorpus corpus = generate_corpus(corpus_options(kPosts, 31));
  std::vector<std::string> tail = ingest_texts(5, 32);

  // Threshold 0: every assignment distance exceeds it, so every ingest
  // joins the pool — in ingest order.
  ServingOptions options;
  options.recluster.pending_distance_threshold = 0.0;
  auto built = ShardedServing::create(analyze_corpus(corpus), {}, options);
  ShardedServing& serving = *built;
  std::vector<DocId> ids;
  for (const std::string& text : tail) {
    ids.push_back(serving.add_post(text).value());
  }
  EXPECT_EQ(serving.pending_pool_size(), tail.size());
  EXPECT_EQ(serving.shard(0).pending_pool(), ids);

  // The pool is a trigger signal, not an index partition: pooled posts
  // answer queries like any other document.
  auto r = serving.find_related(ids[0], 3);
  EXPECT_EQ(r.num_docs, serving.num_docs());

  // The swap folds the pool into the new offline coverage and drains it.
  ASSERT_EQ(serving.recluster(), 1u);
  EXPECT_EQ(serving.pending_pool_size(), 0u);
  EXPECT_TRUE(serving.shard(0).pending_pool().empty());

  // The default (infinite) threshold never pools.
  auto relaxed = ShardedServing::create(analyze_corpus(corpus));
  for (const std::string& text : tail) relaxed->add_post(text);
  EXPECT_EQ(relaxed->pending_pool_size(), 0u);
}

// -------------------------------------------------------------- sharded ----

TEST(ReclusterDifferential, ShardedReclusterEqualsColdRebuildAtEveryCount) {
  SyntheticCorpus corpus = generate_corpus(corpus_options(kPosts, 53));
  std::vector<std::string> tail = ingest_texts(kTail, 54);
  std::vector<std::string> later = ingest_texts(3, 55);
  Oracle cold(full_docs(corpus, tail));

  for (int shards : kShardCounts) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    ServingOptions options;
    options.num_shards = shards;
    std::unique_ptr<ShardedServing> sharded =
        ShardedServing::create(analyze_corpus(corpus), {}, options);
    ASSERT_NE(sharded, nullptr);
    for (const std::string& text : tail) sharded->add_post(text);
    ASSERT_EQ(sharded->offline_generation(), 0u);
    ASSERT_EQ(sharded->docs_since_recluster(), kTail);

    EXPECT_EQ(sharded->recluster(), 1u);
    EXPECT_EQ(sharded->offline_generation(), 1u);
    EXPECT_EQ(sharded->epoch(), kTail);
    EXPECT_EQ(sharded->docs_since_recluster(), 0u);
    EXPECT_EQ(sharded->offline_publications(), kTail);
    expect_same_index(*sharded, cold, "sharded post-recluster");

    // Life continues: further ingests on both sides stay identical.
    Oracle cold_plus(full_docs(corpus, tail));
    for (const std::string& text : later) {
      sharded->add_post(text);
      cold_plus.add_post(text);
    }
    expect_same_index(*sharded, cold_plus, "sharded post-swap ingests");
  }
}

TEST(ReclusterDifferential, CacheServesNoStaleGenerationHits) {
  SyntheticCorpus corpus = generate_corpus(corpus_options(kPosts, 61));
  std::vector<std::string> tail = ingest_texts(kTail, 62);

  for (int shards : kShardCounts) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    ServingOptions cached;
    cached.num_shards = shards;
    cached.cache.capacity = 256;
    std::unique_ptr<ShardedServing> sharded =
        ShardedServing::create(analyze_corpus(corpus), {}, cached);
    ASSERT_NE(sharded, nullptr);
    for (const std::string& text : tail) sharded->add_post(text);

    // Warm the cache at generation 0, twice (the second pass hits).
    for (int round = 0; round < 2; ++round) {
      for (DocId q = 0; q < kPosts; ++q) sharded->find_related(q, 5);
    }
    ASSERT_NE(sharded->query_cache(), nullptr);
    uint64_t hits_before = sharded->query_cache()->hits();
    EXPECT_GT(hits_before, 0u);

    ASSERT_EQ(sharded->recluster(), 1u);

    // Every post-swap answer must come from the new index: bit-identical
    // to the cold rebuild even though epoch did not move (epoch-only
    // invalidation would have served the old generation from cache).
    Oracle cold(full_docs(corpus, tail));
    expect_same_index(*sharded, cold, "cached post-recluster");
    // And the new generation caches normally: a repeat pass hits again.
    uint64_t hits_mid = sharded->query_cache()->hits();
    expect_same_index(*sharded, cold, "cached post-recluster repeat");
    EXPECT_GT(sharded->query_cache()->hits(), hits_mid);
  }
}

// ------------------------------------------- bounded divergence soft gate ----

TEST(ReclusterDifferential, DivergenceBetweenReclustersIsBoundedAndRepaired) {
  // Between reclusters the streaming path serves from the aging offline
  // clustering: answers may diverge from the ideal (cold full rebuild),
  // but boundedly — the nearest-centroid assignment keeps most rankings
  // aligned. The recluster then repairs the divergence EXACTLY.
  SyntheticCorpus corpus = generate_corpus(corpus_options(kPosts, 71));
  std::vector<std::string> tail = ingest_texts(12, 72);

  auto built = ShardedServing::create(analyze_corpus(corpus));
  ShardedServing& drifted = *built;
  for (const std::string& text : tail) drifted.add_post(text);
  Oracle ideal(full_docs(corpus, tail));

  size_t queries = 0;
  double overlap_sum = 0.0;
  for (const Document& d : ideal.docs()) {
    auto want = ideal.find_related(d.id(), 5).results;
    auto got = drifted.find_related(d.id(), 5).results;
    if (want.empty() && got.empty()) continue;
    std::set<DocId> want_set, got_set;
    for (const ScoredDoc& sd : want) want_set.insert(sd.doc);
    for (const ScoredDoc& sd : got) got_set.insert(sd.doc);
    size_t inter = 0;
    for (DocId id : got_set) inter += want_set.count(id);
    size_t uni = want_set.size() + got_set.size() - inter;
    overlap_sum += uni == 0 ? 1.0 : static_cast<double>(inter) / uni;
    ++queries;
  }
  ASSERT_GT(queries, 0u);
  double mean_overlap = overlap_sum / static_cast<double>(queries);
  // Soft gate: the streaming approximation must stay in the same
  // neighborhood as the ideal clustering. (Empirically ~0.8+ on these
  // seeds; 0.4 is the don't-regress floor, not the expectation.)
  EXPECT_GE(mean_overlap, 0.4)
      << "streaming ingest diverged too far from the ideal clustering "
         "between reclusters";

  // After the epoch the divergence is zero, bit for bit.
  ASSERT_EQ(drifted.recluster(), 1u);
  expect_same_index(drifted, ideal, "divergence repaired");
}

// ------------------------------------------- persistence at generation > 0 ----

TEST(ReclusterDifferential, RestoreWithoutSeedRebuildIsBitIdentical) {
  // THE correctness fix this layer required: after a recluster the
  // centroids and labels derive from the full captured corpus, so a
  // restore that re-ran the offline phase over the SEED docs only would
  // silently resurrect generation 0. The snapshot carries the offline
  // state; restore must reproduce the post-recluster index exactly.
  std::string path = fresh_temp_dir("recluster_snap_gen1");
  SyntheticCorpus corpus = generate_corpus(corpus_options(kPosts, 81));
  std::vector<std::string> tail = ingest_texts(kTail, 82);
  std::vector<std::string> later = ingest_texts(3, 83);

  ServingOptions options;
  options.recluster.pending_distance_threshold = 0.0;  // pool everything
  auto built = ShardedServing::create(analyze_corpus(corpus), {}, options);
  ShardedServing& serving = *built;
  for (const std::string& text : tail) serving.add_post(text);
  ASSERT_EQ(serving.recluster(), 1u);
  // Two more ingests AFTER the swap: the snapshot's offline section and
  // its post-offline tail are both non-trivial.
  for (const std::string& text : later) serving.add_post(text);
  EXPECT_EQ(serving.pending_pool_size(), later.size());
  ASSERT_TRUE(serving.save(path));

  auto restored = ShardedServing::restore(path, {}, options);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->offline_generation(), 1u);
  EXPECT_EQ(restored->shard(0).offline_docs(), kPosts + kTail);
  EXPECT_EQ(restored->epoch(), serving.epoch());
  EXPECT_EQ(restored->num_docs(), serving.num_docs());
  EXPECT_EQ(restored->docs_since_recluster(), serving.docs_since_recluster());
  EXPECT_EQ(restored->shard(0).pending_pool(), serving.shard(0).pending_pool());

  ASSERT_EQ(restored->num_docs(), serving.num_docs());
  for (const Document& d : serving.shard(0).quiescent().docs()) {
    for (int k : {1, 3, 10}) {
      expect_identical(restored->find_related(d.id(), k).results,
                       serving.find_related(d.id(), k).results,
                       "restored doc " + std::to_string(d.id()) + " k " +
                           std::to_string(k));
    }
  }

  // The restored instance reclusters and keeps serving.
  EXPECT_EQ(restored->recluster(), 2u);
  EXPECT_EQ(restored->pending_pool_size(), 0u);
  std::filesystem::remove_all(path);
}

TEST(ReclusterDifferential, ShardedSaveRestoreRoundTripsGenerationOne) {
  SyntheticCorpus corpus = generate_corpus(corpus_options(kPosts, 91));
  std::vector<std::string> tail = ingest_texts(kTail, 92);
  std::vector<std::string> later = ingest_texts(3, 93);
  std::vector<std::string> more = ingest_texts(3, 94);

  for (int shards : kShardCounts) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    std::string dir =
        fresh_temp_dir("recluster_gen1_s" + std::to_string(shards));
    ServingOptions options;
    options.num_shards = shards;
    std::unique_ptr<ShardedServing> original =
        ShardedServing::create(analyze_corpus(corpus), {}, options);
    ASSERT_NE(original, nullptr);
    for (const std::string& text : tail) original->add_post(text);
    ASSERT_EQ(original->recluster(), 1u);
    for (const std::string& text : later) original->add_post(text);
    ASSERT_TRUE(original->save(dir));
    const uint64_t epoch_at_save = original->epoch();
    const DocId next_at_save = original->next_id();

    std::unique_ptr<ShardedServing> restored =
        ShardedServing::restore(dir, {}, options);
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(restored->offline_generation(), 1u);
    EXPECT_EQ(restored->offline_publications(), kTail);
    EXPECT_EQ(restored->epoch(), epoch_at_save);
    EXPECT_EQ(restored->next_id(), next_at_save);

    // Reference: the cold offline coverage plus the post-swap ingests.
    Oracle cold(full_docs(corpus, tail));
    for (const std::string& text : later) cold.add_post(text);
    expect_same_index(*restored, cold, "restored generation 1");

    // Further history on both sides stays aligned (ids included).
    for (const std::string& text : more) {
      ASSERT_EQ(restored->add_post(text), cold.add_post(text));
    }
    expect_same_index(*restored, cold, "post-restore ingests");

    // And the restored deployment can run the NEXT epoch.
    EXPECT_EQ(restored->recluster(), 2u);
    Oracle cold2(full_docs(corpus, [&] {
      std::vector<std::string> all = tail;
      all.insert(all.end(), later.begin(), later.end());
      all.insert(all.end(), more.begin(), more.end());
      return all;
    }()));
    expect_same_index(*restored, cold2, "second epoch after restore");
  }
}

// ------------------------------------------------------ trigger policy ----

TEST(ReclusterWorkerPolicy, FiresOnDocsSinceTriggerAndResets) {
  SyntheticCorpus corpus = generate_corpus(corpus_options(kPosts, 101));
  std::vector<std::string> tail = ingest_texts(6, 102);
  auto built = ShardedServing::create(analyze_corpus(corpus));
  ShardedServing& serving = *built;

  ReclusterPolicy policy;
  policy.max_docs_since = 4;
  policy.poll_interval_ms = 5;
  ReclusterWorker worker(serving, policy);
  EXPECT_TRUE(worker.enabled());
  worker.start();
  // One batch: the worker may trip mid-batch, but recluster() captures
  // the corpus under the publication lock the batch holds, so its cut
  // always contains all six posts — the cold reference below.
  serving.add_posts(tail);

  // The worker must notice 6 >= 4 and fire within a few poll intervals.
  for (int i = 0; i < 1000 && serving.offline_generation() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  worker.stop();  // joins; no epoch in flight afterwards
  EXPECT_GE(serving.offline_generation(), 1u);
  EXPECT_GE(worker.reclusters_fired(), 1u);
  EXPECT_LT(serving.docs_since_recluster(), 4u);

  // Post-fire state is the usual identity.
  Oracle cold(full_docs(corpus, tail));
  expect_same_index(serving, cold, "worker-fired epoch");
}

TEST(ReclusterWorkerPolicy, DisabledPolicyNeverFiresAndStopIsIdempotent) {
  SyntheticCorpus corpus = generate_corpus(corpus_options(12, 111));
  auto built = ShardedServing::create(analyze_corpus(corpus));
  ShardedServing& serving = *built;
  ReclusterPolicy policy;  // both triggers 0 = disabled
  policy.poll_interval_ms = 1;
  ReclusterWorker worker(serving, policy);
  EXPECT_FALSE(worker.enabled());
  worker.start();
  for (const std::string& text : ingest_texts(5, 112)) serving.add_post(text);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  worker.stop();
  worker.stop();  // idempotent
  EXPECT_EQ(serving.offline_generation(), 0u);
  EXPECT_EQ(worker.reclusters_fired(), 0u);
}

TEST(ReclusterWorkerPolicy, PendingPoolTriggerFires) {
  SyntheticCorpus corpus = generate_corpus(corpus_options(kPosts, 121));
  ServingOptions options;
  options.recluster.pending_distance_threshold = 0.0;  // pool everything
  auto built = ShardedServing::create(analyze_corpus(corpus), {}, options);
  ShardedServing& serving = *built;
  ReclusterPolicy policy;
  policy.max_pending = 3;
  policy.poll_interval_ms = 5;
  ReclusterWorker worker(serving, policy);
  worker.start();
  for (const std::string& text : ingest_texts(4, 122)) serving.add_post(text);
  for (int i = 0; i < 1000 && serving.offline_generation() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  worker.stop();
  EXPECT_GE(serving.offline_generation(), 1u);
  // The swap drained the pool below the trigger.
  EXPECT_LT(serving.pending_pool_size(), 3u);
}

}  // namespace
}  // namespace ibseg
