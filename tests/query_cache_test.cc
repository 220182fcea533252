// Unit goldens for the serving-layer result cache (core/query_cache.h):
// LRU eviction order, epoch invalidation, TTL expiry against an injected
// fake clock, and the MatcherOptions fingerprint — including the
// static-coverage watchdog that fails when a field is added to
// MatcherOptions/ScoringOptions without extending the fingerprint.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/query_cache.h"

namespace ibseg {
namespace {

QueryCache::Key key_for(DocId query, int k = 5, uint64_t fp = 42,
                        uint64_t generation = 0) {
  return QueryCache::Key{query, k, fp, generation};
}

QueryCache::Value value_for(DocId doc, uint64_t epoch = 0,
                            size_t num_docs = 10) {
  QueryCache::Value v;
  v.results = {ScoredDoc{doc, 1.0}};
  v.epoch = epoch;
  v.num_docs = num_docs;
  return v;
}

TEST(QueryCache, CapacityZeroDisablesEverything) {
  QueryCacheOptions options;  // capacity 0
  QueryCache cache(options);
  cache.insert(key_for(1), value_for(1));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(key_for(1), 0).has_value());
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 1u);  // the insert was dropped, the lookup missed
}

TEST(QueryCache, LruEvictionOrderGolden) {
  QueryCacheOptions options;
  options.capacity = 3;
  options.shards = 1;  // single shard: the LRU order is globally observable
  QueryCache cache(options);
  cache.insert(key_for(1), value_for(1));
  cache.insert(key_for(2), value_for(2));
  cache.insert(key_for(3), value_for(3));
  EXPECT_EQ(cache.size(), 3u);
  // Touch key 1: it becomes most-recently-used, key 2 is now the LRU.
  EXPECT_TRUE(cache.lookup(key_for(1), 0).has_value());
  cache.insert(key_for(4), value_for(4));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.lookup(key_for(2), 0).has_value()) << "LRU not evicted";
  EXPECT_TRUE(cache.lookup(key_for(1), 0).has_value());
  EXPECT_TRUE(cache.lookup(key_for(3), 0).has_value());
  EXPECT_TRUE(cache.lookup(key_for(4), 0).has_value());
  // Next eviction order: 3 is now LRU (1 and 4 were touched after it...
  // but so was 3 — the lookups above refreshed in order 1, 3, 4).
  cache.insert(key_for(5), value_for(5));
  EXPECT_FALSE(cache.lookup(key_for(1), 0).has_value());
  EXPECT_EQ(cache.evictions(), 2u);
}

TEST(QueryCache, HitReturnsStoredValueAndOverwriteUpdatesIt) {
  QueryCacheOptions options;
  options.capacity = 8;
  QueryCache cache(options);
  cache.insert(key_for(7), value_for(100, /*epoch=*/2, /*num_docs=*/12));
  auto got = cache.lookup(key_for(7), 2);
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->results.size(), 1u);
  EXPECT_EQ(got->results[0].doc, 100u);
  EXPECT_EQ(got->epoch, 2u);
  EXPECT_EQ(got->num_docs, 12u);
  // Same key, newer answer: overwrite in place, size unchanged.
  cache.insert(key_for(7), value_for(200, /*epoch=*/3, /*num_docs=*/13));
  EXPECT_EQ(cache.size(), 1u);
  auto updated = cache.lookup(key_for(7), 3);
  ASSERT_TRUE(updated.has_value());
  EXPECT_EQ(updated->results[0].doc, 200u);
}

TEST(QueryCache, DistinctKeyComponentsAreDistinctEntries) {
  QueryCacheOptions options;
  options.capacity = 16;
  QueryCache cache(options);
  cache.insert(key_for(1, 5, 42), value_for(10));
  EXPECT_FALSE(cache.lookup(key_for(1, 6, 42), 0).has_value()) << "k ignored";
  EXPECT_FALSE(cache.lookup(key_for(2, 5, 42), 0).has_value())
      << "query ignored";
  EXPECT_FALSE(cache.lookup(key_for(1, 5, 43), 0).has_value())
      << "fingerprint ignored";
  EXPECT_TRUE(cache.lookup(key_for(1, 5, 42), 0).has_value());
}

TEST(QueryCache, GenerationIsAKeyComponent) {
  // A background recluster swaps the index WITHOUT bumping the epoch (no
  // document was published), so epoch validation alone would serve
  // pre-swap answers forever. The offline generation is part of the key:
  // entries filled under the old generation become unreachable the
  // moment the serving layer starts looking up with the new one, and age
  // out via LRU.
  QueryCacheOptions options;
  options.capacity = 16;
  QueryCache cache(options);
  cache.insert(key_for(1, 5, 42, /*generation=*/0), value_for(10));
  EXPECT_FALSE(cache.lookup(key_for(1, 5, 42, /*generation=*/1), 0).has_value())
      << "generation ignored: a post-swap lookup reached a pre-swap entry";
  EXPECT_TRUE(cache.lookup(key_for(1, 5, 42, /*generation=*/0), 0).has_value());
  // The generations are independent entries, not overwrites.
  cache.insert(key_for(1, 5, 42, /*generation=*/1), value_for(20));
  EXPECT_EQ(cache.size(), 2u);
  auto old_gen = cache.lookup(key_for(1, 5, 42, 0), 0);
  auto new_gen = cache.lookup(key_for(1, 5, 42, 1), 0);
  ASSERT_TRUE(old_gen.has_value());
  ASSERT_TRUE(new_gen.has_value());
  EXPECT_EQ(old_gen->results[0].doc, 10u);
  EXPECT_EQ(new_gen->results[0].doc, 20u);
}

TEST(QueryCache, EpochMismatchInvalidatesAndErases) {
  QueryCacheOptions options;
  options.capacity = 8;
  QueryCache cache(options);
  cache.insert(key_for(3), value_for(30, /*epoch=*/5));
  EXPECT_TRUE(cache.lookup(key_for(3), 5).has_value());
  // One publish later the entry is stale — and physically gone.
  EXPECT_FALSE(cache.lookup(key_for(3), 6).has_value());
  EXPECT_EQ(cache.size(), 0u);
  // Refill at the new epoch serves again.
  cache.insert(key_for(3), value_for(30, /*epoch=*/6));
  EXPECT_TRUE(cache.lookup(key_for(3), 6).has_value());
}

TEST(QueryCache, TtlExpiryWithInjectedFakeTime) {
  double now = 0.0;
  QueryCacheOptions options;
  options.capacity = 8;
  options.ttl_seconds = 10.0;
  options.time_source = [&now] { return now; };
  QueryCache cache(options);
  cache.insert(key_for(1), value_for(1));
  now = 9.9;
  EXPECT_TRUE(cache.lookup(key_for(1), 0).has_value());
  now = 10.1;  // a hit does NOT refresh fill time; the entry is now dead
  EXPECT_FALSE(cache.lookup(key_for(1), 0).has_value());
  EXPECT_EQ(cache.size(), 0u);
  // Re-inserting restarts the clock.
  now = 20.0;
  cache.insert(key_for(1), value_for(1));
  now = 29.0;
  EXPECT_TRUE(cache.lookup(key_for(1), 0).has_value());
  now = 31.0;
  EXPECT_FALSE(cache.lookup(key_for(1), 0).has_value());
}

TEST(QueryCache, ShardedKeysAllServeAndCountInSize) {
  QueryCacheOptions options;
  options.capacity = 64;
  options.shards = 8;
  QueryCache cache(options);
  for (DocId q = 0; q < 40; ++q) cache.insert(key_for(q), value_for(q));
  EXPECT_EQ(cache.size(), 40u);
  for (DocId q = 0; q < 40; ++q) {
    auto got = cache.lookup(key_for(q), 0);
    ASSERT_TRUE(got.has_value()) << "q " << q;
    EXPECT_EQ(got->results[0].doc, q);
  }
  EXPECT_EQ(cache.hits(), 40u);
}

// ------------------------------------------------ options fingerprint ----

TEST(QueryCacheFingerprint, SensitiveToEveryMatcherOptionsField) {
  MatcherOptions base;
  const uint64_t fp = matcher_options_fingerprint(base);

  MatcherOptions o = base;
  o.top_n_factor = 3;
  EXPECT_NE(matcher_options_fingerprint(o), fp) << "top_n_factor";

  o = base;
  o.cluster_weights = {1.0, 2.0};
  EXPECT_NE(matcher_options_fingerprint(o), fp) << "cluster_weights";

  o = base;
  o.cluster_weights = {1.0};
  MatcherOptions o2 = base;
  o2.cluster_weights = {2.0};
  EXPECT_NE(matcher_options_fingerprint(o), matcher_options_fingerprint(o2))
      << "cluster_weights values";

  o = base;
  o.score_threshold = 0.5;
  EXPECT_NE(matcher_options_fingerprint(o), fp) << "score_threshold";

  o = base;
  o.min_norm_fraction = 0.5;
  EXPECT_NE(matcher_options_fingerprint(o), fp) << "min_norm_fraction";

  o = base;
  o.scoring.function = ScoringFunction::kBm25;
  EXPECT_NE(matcher_options_fingerprint(o), fp) << "scoring.function";

  o = base;
  o.scoring.bm25_k1 = 2.0;
  EXPECT_NE(matcher_options_fingerprint(o), fp) << "scoring.bm25_k1";

  o = base;
  o.scoring.bm25_b = 0.5;
  EXPECT_NE(matcher_options_fingerprint(o), fp) << "scoring.bm25_b";

  o = base;
  o.scoring.lm_lambda = 0.3;
  EXPECT_NE(matcher_options_fingerprint(o), fp) << "scoring.lm_lambda";

  // exhaustive_fallback lives in what used to be tail padding (sizeof is
  // unchanged), so the layout watchdog below cannot see it — this
  // mutation case is its only guard.
  o = base;
  o.exhaustive_fallback = true;
  EXPECT_NE(matcher_options_fingerprint(o), fp) << "exhaustive_fallback";
}

TEST(QueryCacheFingerprint, IsStableForEqualOptions) {
  MatcherOptions a;
  a.cluster_weights = {1.0, 0.5};
  a.scoring.function = ScoringFunction::kBm25;
  MatcherOptions b = a;
  EXPECT_EQ(matcher_options_fingerprint(a), matcher_options_fingerprint(b));
}

// Static-coverage watchdog: adding a field to MatcherOptions (or its
// nested ScoringOptions) changes the struct size, which fails here until
// matcher_options_fingerprint() and the sensitivity test above are
// extended to cover the new field. If you hit this assertion: fold the
// new field into matcher_options_fingerprint() (core/query_cache.cc),
// add a mutation case to SensitiveToEveryMatcherOptionsField, and only
// then update the expected sizes. (A same-size field smuggled into
// padding would evade this check — the sensitivity test is the
// belt-and-braces companion.)
TEST(QueryCacheFingerprint, StaticCoverageOfMatcherOptionsLayout) {
  EXPECT_EQ(sizeof(MatcherOptions), 88u)
      << "MatcherOptions changed: extend matcher_options_fingerprint() and "
         "the fingerprint sensitivity test before updating this size";
  EXPECT_EQ(sizeof(ScoringOptions), 32u)
      << "ScoringOptions changed: extend matcher_options_fingerprint() and "
         "the fingerprint sensitivity test before updating this size";
}

}  // namespace
}  // namespace ibseg
