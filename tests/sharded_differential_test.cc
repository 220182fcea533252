// Differential proof of the sharded serving layer: ShardedServing at ANY
// shard count must answer every query bit-identically — ranked lists AND
// scores, operator== on the doubles — to the single unpartitioned
// pipeline (the Oracle, tests/oracle.h) over the same corpus and
// publication history. The suite
// runs shard counts {1, 2, 3, 8} against the unsharded reference across
// fresh builds, interleaved online ingests, cache on/off, external
// queries, unknown ids, and save/restore round-trips (including a restart
// mid-history with further ingests on both sides afterwards, and a failed
// save). Registered under the `differential` ctest label;
// scripts/reproduce.sh IBSEG_DIFF_CHECK=1 runs the label under TSan.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/sharded_serving.h"
#include "datagen/post_generator.h"
#include "oracle.h"
#include "temp_dir.h"

namespace ibseg {
namespace {

constexpr int kShardCounts[] = {1, 2, 3, 8};
constexpr size_t kPosts = 28;

GeneratorOptions corpus_options(size_t posts, uint64_t seed) {
  GeneratorOptions gen;
  gen.num_posts = posts;
  gen.posts_per_scenario = 4;
  gen.seed = seed;
  return gen;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
}

/// Extra posts to ingest online, drawn from a differently seeded corpus so
/// they are fresh text but from the same domain vocabulary.
std::vector<std::string> ingest_texts(size_t count, uint64_t seed) {
  SyntheticCorpus extra = generate_corpus(corpus_options(count, seed));
  std::vector<std::string> texts;
  texts.reserve(extra.posts.size());
  for (const GeneratedPost& p : extra.posts) texts.push_back(p.text);
  return texts;
}

void expect_identical(const std::vector<ScoredDoc>& got,
                      const std::vector<ScoredDoc>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].doc, want[i].doc) << what << " rank " << i;
    // Bit-identical is the contract, not merely close: operator== on the
    // accumulated doubles.
    EXPECT_EQ(got[i].score, want[i].score) << what << " rank " << i;
  }
}

/// Every in-corpus query at several k, plus coordinates: sharded answers
/// must equal the unsharded reference exactly.
void expect_equivalent(const ShardedServing& sharded, const Oracle& reference,
                       const std::string& what) {
  ASSERT_EQ(sharded.num_docs(), reference.num_docs()) << what;
  ASSERT_EQ(sharded.epoch(), reference.epoch()) << what;
  for (const Document& d : reference.docs()) {
    for (int k : {1, 3, 10}) {
      ShardedServing::QueryResult want = reference.find_related(d.id(), k);
      ShardedServing::QueryResult got = sharded.find_related(d.id(), k);
      EXPECT_EQ(got.epoch, want.epoch) << what;
      EXPECT_EQ(got.num_docs, want.num_docs) << what;
      expect_identical(got.results, want.results,
                       what + " doc " + std::to_string(d.id()) + " k " +
                           std::to_string(k));
    }
  }
}

ServingOptions sharded_options(int shards, size_t cache_capacity = 0) {
  ServingOptions options;
  options.num_shards = shards;
  options.cache.capacity = cache_capacity;
  return options;
}

// ------------------------------------------------------ fresh corpus ----

TEST(ShardedDifferential, FreshBuildIdenticalAtEveryShardCount) {
  for (uint64_t seed : {5u, 902u}) {
    SyntheticCorpus corpus = generate_corpus(corpus_options(kPosts, seed));
    Oracle reference(analyze_corpus(corpus));
    for (int shards : kShardCounts) {
      std::unique_ptr<ShardedServing> sharded = ShardedServing::create(
          analyze_corpus(corpus), {}, sharded_options(shards));
      ASSERT_NE(sharded, nullptr);
      ASSERT_EQ(sharded->num_shards(), static_cast<uint32_t>(shards));
      expect_equivalent(*sharded, reference,
                        "fresh shards=" + std::to_string(shards));
    }
  }
}

TEST(ShardedDifferential, EveryDocumentOnItsHashShard) {
  SyntheticCorpus corpus = generate_corpus(corpus_options(kPosts, 31));
  std::unique_ptr<ShardedServing> sharded =
      ShardedServing::create(analyze_corpus(corpus), {}, sharded_options(8));
  ASSERT_NE(sharded, nullptr);
  size_t total = 0;
  for (uint32_t s = 0; s < sharded->num_shards(); ++s) {
    for (const Document& d : sharded->shard(s).quiescent().docs()) {
      EXPECT_EQ(ShardedServing::shard_of(d.id(), 8), s);
    }
    total += sharded->shard(s).num_docs();
  }
  EXPECT_EQ(total, kPosts);
}

// ------------------------------------------------ interleaved ingests ----

TEST(ShardedDifferential, InterleavedIngestsStayIdentical) {
  SyntheticCorpus corpus = generate_corpus(corpus_options(kPosts, 44));
  std::vector<std::string> extra = ingest_texts(8, 4400);
  for (int shards : kShardCounts) {
    Oracle reference(analyze_corpus(corpus));
    std::unique_ptr<ShardedServing> sharded = ShardedServing::create(
        analyze_corpus(corpus), {}, sharded_options(shards));
    ASSERT_NE(sharded, nullptr);
    std::string what = "interleaved shards=" + std::to_string(shards);
    for (size_t i = 0; i < extra.size(); ++i) {
      DocId want_id = reference.add_post(extra[i]);
      DocId got_id = sharded->add_post(extra[i]).value();
      ASSERT_EQ(got_id, want_id) << what;
      // Query between every ingest — each publication must be visible and
      // identically scored immediately.
      expect_identical(sharded->find_related(want_id, 5).results,
                       reference.find_related(want_id, 5).results,
                       what + " after ingest " + std::to_string(i));
    }
    expect_equivalent(*sharded, reference, what + " final");
    // Batched ingest too: one lock section, same ids, same answers.
    std::vector<std::string> batch = ingest_texts(4, 4401);
    std::vector<DocId> want_ids = reference.add_posts(batch);
    std::vector<DocId> got_ids = sharded->add_posts(batch).value();
    ASSERT_EQ(got_ids, want_ids) << what;
    expect_equivalent(*sharded, reference, what + " after batch");
  }
}

// --------------------------------------------------------- query cache ----

TEST(ShardedDifferential, CacheOnEqualsCacheOff) {
  SyntheticCorpus corpus = generate_corpus(corpus_options(kPosts, 77));
  std::vector<std::string> extra = ingest_texts(4, 7700);
  for (int shards : {2, 8}) {
    Oracle reference(analyze_corpus(corpus));
    std::unique_ptr<ShardedServing> cached = ShardedServing::create(
        analyze_corpus(corpus), {}, sharded_options(shards, 256));
    ASSERT_NE(cached, nullptr);
    ASSERT_NE(cached->query_cache(), nullptr);
    std::string what = "cache shards=" + std::to_string(shards);
    // Two passes: the second is served from the cache and must still be
    // bit-identical.
    expect_equivalent(*cached, reference, what + " cold");
    uint64_t hits_before = cached->query_cache()->hits();
    expect_equivalent(*cached, reference, what + " warm");
    EXPECT_GT(cached->query_cache()->hits(), hits_before) << what;
    // Publications invalidate: ingest, then answers must track the new
    // corpus, never a stale entry.
    for (const std::string& text : extra) {
      reference.add_post(text);
      cached->add_post(text);
    }
    expect_equivalent(*cached, reference, what + " after invalidation");
  }
}

// ----------------------------------------------------- external queries ----

TEST(ShardedDifferential, ExternalQueriesIdentical) {
  SyntheticCorpus corpus = generate_corpus(corpus_options(kPosts, 13));
  std::vector<std::string> externals = ingest_texts(6, 1300);
  Oracle reference(analyze_corpus(corpus));
  for (int shards : kShardCounts) {
    std::unique_ptr<ShardedServing> sharded = ShardedServing::create(
        analyze_corpus(corpus), {}, sharded_options(shards));
    ASSERT_NE(sharded, nullptr);
    for (size_t i = 0; i < externals.size(); ++i) {
      Document doc = Document::analyze(100000 + static_cast<DocId>(i),
                                       externals[i]);
      auto want = reference.find_related_external(doc, 5);
      auto got = sharded->find_related_external(doc, 5);
      EXPECT_EQ(got.epoch, want.epoch);
      EXPECT_EQ(got.num_docs, want.num_docs);
      expect_identical(got.results, want.results,
                       "external shards=" + std::to_string(shards) +
                           " query " + std::to_string(i));
    }
  }
}

// --------------------------------------------------------- unknown ids ----

// An id the corpus does not hold — reserved next but not yet published,
// or far past the watermark — answers an empty list stamped with the
// current coordinates, exactly like the single pipeline. The moment a
// post publishes under that id the next query must see it: the cached
// empty answer belongs to the previous epoch and may not be replayed.
TEST(ShardedDifferential, UnknownIdsAnswerEmptyUntilPublished) {
  SyntheticCorpus corpus = generate_corpus(corpus_options(kPosts, 37));
  std::vector<std::string> extra = ingest_texts(2, 3700);
  for (int shards : kShardCounts) {
    Oracle reference(analyze_corpus(corpus));
    std::unique_ptr<ShardedServing> sharded = ShardedServing::create(
        analyze_corpus(corpus), {}, sharded_options(shards, 64));
    ASSERT_NE(sharded, nullptr);
    std::string what = "unknown shards=" + std::to_string(shards);
    for (const std::string& text : extra) {
      const DocId next = sharded->next_id();
      for (DocId unknown : {next, next + 1000}) {
        // Twice: the second answer comes from the cache.
        for (int round = 0; round < 2; ++round) {
          ShardedServing::QueryResult want = reference.find_related(unknown, 5);
          ShardedServing::QueryResult got = sharded->find_related(unknown, 5);
          EXPECT_TRUE(want.results.empty()) << what << " id " << unknown;
          EXPECT_TRUE(got.results.empty()) << what << " id " << unknown;
          EXPECT_EQ(got.epoch, want.epoch) << what << " id " << unknown;
          EXPECT_EQ(got.num_docs, want.num_docs) << what << " id " << unknown;
        }
      }
      ASSERT_EQ(reference.add_post(text), next) << what;
      ASSERT_EQ(sharded->add_post(text), next) << what;
      ShardedServing::QueryResult want = reference.find_related(next, 5);
      ShardedServing::QueryResult got = sharded->find_related(next, 5);
      ASSERT_FALSE(want.results.empty()) << what << " id " << next;
      EXPECT_EQ(got.epoch, want.epoch) << what;
      EXPECT_EQ(got.num_docs, want.num_docs) << what;
      expect_identical(got.results, want.results,
                       what + " published id " + std::to_string(next));
    }
    EXPECT_GT(sharded->query_cache()->hits(), 0u) << what;
  }
}

// -------------------------------------------------- sharded x pruned ----

// The dense kernel composes with sharding: each shard selects its own
// per-intention lists with shard-local heaps, and the scatter-gather
// merge must still reproduce the unpartitioned map-based reference bit
// for bit. Crossed with interleaved ingests, which re-seal every touched
// shard's flat postings and swap the cross-shard statistics snapshot
// every shard's cached unit operands were computed under.
TEST(ShardedDifferential, PrunedShardsEqualExhaustiveUnsharded) {
  SyntheticCorpus corpus = generate_corpus(corpus_options(kPosts, 83));
  std::vector<std::string> extra = ingest_texts(6, 8300);
  PipelineOptions exhaustive_opt;
  exhaustive_opt.matcher.exhaustive_fallback = true;
  PipelineOptions pruned_opt;  // default: the dense kernel
  pruned_opt.matcher.top_n_factor = 1;  // tightest heaps
  exhaustive_opt.matcher.top_n_factor = 1;
  for (int shards : kShardCounts) {
    Oracle reference(analyze_corpus(corpus), exhaustive_opt);
    std::unique_ptr<ShardedServing> sharded = ShardedServing::create(
        analyze_corpus(corpus), pruned_opt, sharded_options(shards));
    ASSERT_NE(sharded, nullptr);
    std::string what = "pruned shards=" + std::to_string(shards);
    expect_equivalent(*sharded, reference, what + " fresh");
    for (size_t i = 0; i < extra.size(); ++i) {
      DocId want_id = reference.add_post(extra[i]);
      DocId got_id = sharded->add_post(extra[i]).value();
      ASSERT_EQ(got_id, want_id) << what;
      expect_equivalent(*sharded, reference,
                        what + " after ingest " + std::to_string(i));
    }
  }
}

// And the converse pairing: exhaustive shards vs the pruned unsharded
// pipeline, so both code paths are exercised on both sides of the
// scatter-gather boundary.
TEST(ShardedDifferential, ExhaustiveShardsEqualPrunedUnsharded) {
  SyntheticCorpus corpus = generate_corpus(corpus_options(kPosts, 29));
  PipelineOptions exhaustive_opt;
  exhaustive_opt.matcher.exhaustive_fallback = true;
  Oracle reference(analyze_corpus(corpus));  // pruned default
  for (int shards : {2, 8}) {
    std::unique_ptr<ShardedServing> sharded = ShardedServing::create(
        analyze_corpus(corpus), exhaustive_opt, sharded_options(shards));
    ASSERT_NE(sharded, nullptr);
    expect_equivalent(*sharded, reference,
                      "exhaustive shards=" + std::to_string(shards) +
                          " vs pruned unsharded");
  }
}

// ------------------------------------------------- save/restore cycles ----

TEST(ShardedDifferential, SaveRestoreRoundTripIdentical) {
  SyntheticCorpus corpus = generate_corpus(corpus_options(kPosts, 59));
  std::vector<std::string> before = ingest_texts(5, 5900);
  std::vector<std::string> after = ingest_texts(5, 5901);
  for (int shards : kShardCounts) {
    std::string what = "roundtrip shards=" + std::to_string(shards);
    std::string dir = fresh_temp_dir("shard_rt" + std::to_string(shards));
    Oracle reference(analyze_corpus(corpus));
    ServingOptions options = sharded_options(shards);
    options.persist.shard_dir = dir;
    std::unique_ptr<ShardedServing> original =
        ShardedServing::create(analyze_corpus(corpus), {}, options);
    ASSERT_NE(original, nullptr) << what;
    // History split across the save: some ingests baked into the shard
    // snapshots, some only in the ingest log.
    for (const std::string& text : before) {
      reference.add_post(text);
      original->add_post(text);
    }
    ASSERT_TRUE(original->save(dir)) << what;
    for (const std::string& text : after) {
      reference.add_post(text);
      original->add_post(text);
    }
    uint64_t epoch_at_exit = original->epoch();
    DocId next_at_exit = original->next_id();
    original.reset();  // clean shutdown; WAL tail holds `after`

    std::unique_ptr<ShardedServing> restored =
        ShardedServing::restore(dir, {}, sharded_options(shards));
    ASSERT_NE(restored, nullptr) << what;
    EXPECT_EQ(restored->epoch(), epoch_at_exit) << what;
    EXPECT_EQ(restored->next_id(), next_at_exit) << what;
    expect_equivalent(*restored, reference, what);
    // Life continues after restore: further ingests on both sides keep
    // the histories aligned (id sequence included).
    std::vector<std::string> more = ingest_texts(3, 5902);
    for (const std::string& text : more) {
      ASSERT_EQ(restored->add_post(text), reference.add_post(text)) << what;
    }
    expect_equivalent(*restored, reference, what + " post-restore ingests");
  }
}

TEST(ShardedDifferential, RestoredCacheStillIdentical) {
  SyntheticCorpus corpus = generate_corpus(corpus_options(kPosts, 23));
  std::string dir = fresh_temp_dir("shard_cache_rt");
  Oracle reference(analyze_corpus(corpus));
  std::unique_ptr<ShardedServing> original =
      ShardedServing::create(analyze_corpus(corpus), {}, sharded_options(3));
  ASSERT_NE(original, nullptr);
  ASSERT_TRUE(original->save(dir));
  original.reset();
  std::unique_ptr<ShardedServing> restored =
      ShardedServing::restore(dir, {}, sharded_options(3, 128));
  ASSERT_NE(restored, nullptr);
  ASSERT_NE(restored->query_cache(), nullptr);
  expect_equivalent(*restored, reference, "restored cache cold");
  expect_equivalent(*restored, reference, "restored cache warm");
  EXPECT_GT(restored->query_cache()->hits(), 0u);
}

// The shard count is saved state: restore() reads it from the manifest
// and ignores ServingOptions::num_shards (ibseg_cli passes --shards
// through to --restore unchanged). A 3-shard directory restored under any
// requested count is the 3-shard deployment — documents on their mod-3
// hash shards, later ingests routed there — with the oracle's answers.
TEST(ShardedDifferential, RestoreTakesShardCountFromManifest) {
  SyntheticCorpus corpus = generate_corpus(corpus_options(kPosts, 61));
  std::vector<std::string> before = ingest_texts(4, 6100);
  std::vector<std::string> after = ingest_texts(3, 6101);
  std::string dir = fresh_temp_dir("shard_manifest_count");
  Oracle reference(analyze_corpus(corpus));
  {
    ServingOptions options = sharded_options(3);
    options.persist.shard_dir = dir;
    std::unique_ptr<ShardedServing> original =
        ShardedServing::create(analyze_corpus(corpus), {}, options);
    ASSERT_NE(original, nullptr);
    for (const std::string& text : before) {
      reference.add_post(text);
      original->add_post(text);
    }
    ASSERT_TRUE(original->save(dir));
  }
  std::unique_ptr<ShardedServing> restored;
  for (int requested : {1, 8}) {
    std::string what = "requested shards=" + std::to_string(requested);
    restored.reset();
    restored = ShardedServing::restore(dir, {}, sharded_options(requested));
    ASSERT_NE(restored, nullptr) << what;
    ASSERT_EQ(restored->num_shards(), 3u) << what;
    for (uint32_t s = 0; s < 3; ++s) {
      for (const Document& d : restored->shard(s).quiescent().docs()) {
        EXPECT_EQ(ShardedServing::shard_of(d.id(), 3), s) << what;
      }
    }
    expect_equivalent(*restored, reference, what);
  }
  // Ingests after the restore land on their mod-3 owner.
  for (const std::string& text : after) {
    DocId id = reference.add_post(text);
    uint32_t owner = ShardedServing::shard_of(id, 3);
    size_t owner_docs = restored->shard(owner).num_docs();
    ASSERT_EQ(restored->add_post(text), id);
    EXPECT_EQ(restored->shard(owner).num_docs(), owner_docs + 1);
  }
  expect_equivalent(*restored, reference, "post-restore ingests");
}

// A save that fails part-way returns false and leaves the previous commit
// in force: here shard 1's directory is blocked after shard 0's snapshot
// was already rewritten (the legal "snapshot ahead of manifest" state).
// The manifest and the ingest log stay byte-identical, the directory still
// restores to the full history, and the live deployment keeps serving
// and saves again once the path is clear.
TEST(ShardedDifferential, FailedSaveKeepsPreviousCommit) {
  SyntheticCorpus corpus = generate_corpus(corpus_options(kPosts, 89));
  std::vector<std::string> before = ingest_texts(3, 8900);
  std::vector<std::string> after = ingest_texts(4, 8901);
  std::string dir = fresh_temp_dir("shard_failed_save");
  std::string copy = fresh_temp_dir("shard_failed_save_copy");
  Oracle reference(analyze_corpus(corpus));
  ServingOptions options = sharded_options(3);
  options.persist.shard_dir = dir;
  std::unique_ptr<ShardedServing> sharded =
      ShardedServing::create(analyze_corpus(corpus), {}, options);
  ASSERT_NE(sharded, nullptr);
  for (const std::string& text : before) {
    reference.add_post(text);
    sharded->add_post(text);
  }
  ASSERT_TRUE(sharded->save(dir));
  for (const std::string& text : after) {
    reference.add_post(text);
    sharded->add_post(text);
  }
  const std::string manifest = read_file(dir + "/MANIFEST");
  const std::string log = read_file(dir + "/wal");
  ASSERT_FALSE(log.empty());

  const std::string blocked = dir + "/shard-1";
  const std::string aside = blocked + ".aside";
  ASSERT_EQ(std::rename(blocked.c_str(), aside.c_str()), 0);
  { std::ofstream(blocked) << "not a directory"; }
  EXPECT_FALSE(sharded->save(dir));
  ASSERT_EQ(std::remove(blocked.c_str()), 0);
  ASSERT_EQ(std::rename(aside.c_str(), blocked.c_str()), 0);
  EXPECT_EQ(read_file(dir + "/MANIFEST"), manifest);
  EXPECT_EQ(read_file(dir + "/wal"), log);
  expect_equivalent(*sharded, reference, "live after failed save");

  // Restored from a copy, so the live deployment keeps sole use of its
  // logs.
  std::filesystem::copy(dir, copy, std::filesystem::copy_options::recursive);
  std::unique_ptr<ShardedServing> restored =
      ShardedServing::restore(copy, {}, sharded_options(3));
  ASSERT_NE(restored, nullptr);
  expect_equivalent(*restored, reference, "restored after failed save");

  ASSERT_TRUE(sharded->save(dir));
  EXPECT_NE(read_file(dir + "/MANIFEST"), manifest);
  EXPECT_TRUE(read_file(dir + "/wal").empty());
  restored.reset();
  std::filesystem::remove_all(copy);
}

// ------------------------------------------------------- torn restores ----

TEST(ShardedDifferential, RestoreRejectsStaleShardSnapshot) {
  SyntheticCorpus corpus = generate_corpus(corpus_options(kPosts, 67));
  std::string dir = fresh_temp_dir("shard_stale");
  ServingOptions options = sharded_options(4);
  options.persist.shard_dir = dir;
  std::unique_ptr<ShardedServing> original =
      ShardedServing::create(analyze_corpus(corpus), {}, options);
  ASSERT_NE(original, nullptr);
  ASSERT_TRUE(original->save(dir));
  // Stash one shard's committed snapshot, advance history so the next
  // manifest commits MORE docs for that shard, then put the stale file
  // back — the forbidden direction (snapshot BEHIND manifest), which a
  // crash cannot produce because snapshots rename before the commit.
  std::vector<std::string> extra = ingest_texts(8, 6700);
  for (const std::string& text : extra) original->add_post(text);
  uint32_t victim = 0;
  for (uint32_t s = 0; s < 4; ++s) {
    if (original->shard(s).epoch() > 0) victim = s;
  }
  ASSERT_GT(original->shard(victim).epoch(), 0u);
  std::string snap_path =
      dir + "/shard-" + std::to_string(victim) + "/snapshot.v2";
  std::string stale_copy = snap_path + ".stale";
  ASSERT_EQ(std::rename(snap_path.c_str(), stale_copy.c_str()), 0);
  ASSERT_TRUE(original->save(dir));
  original.reset();
  ASSERT_EQ(std::rename(stale_copy.c_str(), snap_path.c_str()), 0);
  EXPECT_EQ(ShardedServing::restore(dir, {}, sharded_options(4)), nullptr);
}

TEST(ShardedDifferential, RestoreSurvivesSnapshotAheadOfManifest) {
  // The legal crash window: a save that renamed some shard snapshots but
  // died before the manifest commit. Simulated by saving to `dir`, then
  // overlaying ONE shard's snapshot from a later save — restore must
  // succeed from the old manifest and reach the full pre-crash history
  // via WAL replay dedup.
  SyntheticCorpus corpus = generate_corpus(corpus_options(kPosts, 71));
  std::vector<std::string> extra = ingest_texts(6, 7100);
  std::string dir = fresh_temp_dir("shard_ahead");
  std::string dir2 = fresh_temp_dir("shard_ahead_late");
  Oracle reference(analyze_corpus(corpus));
  ServingOptions options = sharded_options(4);
  options.persist.shard_dir = dir;
  std::unique_ptr<ShardedServing> original =
      ShardedServing::create(analyze_corpus(corpus), {}, options);
  ASSERT_NE(original, nullptr);
  ASSERT_TRUE(original->save(dir));
  uint32_t victim = ShardedServing::shard_of(original->next_id(), 4);
  for (const std::string& text : extra) {
    reference.add_post(text);
    original->add_post(text);
  }
  // Second save goes to a scratch directory (so dir's log is NOT
  // truncated — exactly the state an interrupted in-place save leaves),
  // then one shard's newer snapshot is copied over dir's.
  ASSERT_TRUE(original->save(dir2));
  original.reset();
  {
    std::string late = dir2 + "/shard-" + std::to_string(victim);
    std::string target = dir + "/shard-" + std::to_string(victim);
    std::ifstream src(late + "/snapshot.v2", std::ios::binary);
    std::ofstream dst(target + "/snapshot.v2",
                      std::ios::binary | std::ios::trunc);
    dst << src.rdbuf();
    ASSERT_TRUE(dst.good());
  }
  std::unique_ptr<ShardedServing> restored =
      ShardedServing::restore(dir, {}, sharded_options(4));
  ASSERT_NE(restored, nullptr);
  expect_equivalent(*restored, reference, "snapshot-ahead recovery");
}

}  // namespace
}  // namespace ibseg
