// Unit goldens for the serving-layer result cache (core/query_cache.h):
// LRU eviction order, epoch invalidation and the key components.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/query_cache.h"

namespace ibseg {
namespace {

QueryCache::Key key_for(DocId query, int k = 5, uint64_t generation = 0) {
  return QueryCache::Key{query, k, generation};
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
  QueryCache cache(options, "query_cache_test");
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
  QueryCache cache(options, "query_cache_test");
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
  QueryCache cache(options, "query_cache_test");
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
  QueryCache cache(options, "query_cache_test");
  cache.insert(key_for(1, 5), value_for(10));
  EXPECT_FALSE(cache.lookup(key_for(1, 6), 0).has_value()) << "k ignored";
  EXPECT_FALSE(cache.lookup(key_for(2, 5), 0).has_value()) << "query ignored";
  EXPECT_TRUE(cache.lookup(key_for(1, 5), 0).has_value());
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
  QueryCache cache(options, "query_cache_test");
  cache.insert(key_for(1, 5, /*generation=*/0), value_for(10));
  EXPECT_FALSE(cache.lookup(key_for(1, 5, /*generation=*/1), 0).has_value())
      << "generation ignored: a post-swap lookup reached a pre-swap entry";
  EXPECT_TRUE(cache.lookup(key_for(1, 5, /*generation=*/0), 0).has_value());
  // The generations are independent entries, not overwrites.
  cache.insert(key_for(1, 5, /*generation=*/1), value_for(20));
  EXPECT_EQ(cache.size(), 2u);
  auto old_gen = cache.lookup(key_for(1, 5, 0), 0);
  auto new_gen = cache.lookup(key_for(1, 5, 1), 0);
  ASSERT_TRUE(old_gen.has_value());
  ASSERT_TRUE(new_gen.has_value());
  EXPECT_EQ(old_gen->results[0].doc, 10u);
  EXPECT_EQ(new_gen->results[0].doc, 20u);
}

TEST(QueryCache, EpochMismatchInvalidatesAndErases) {
  QueryCacheOptions options;
  options.capacity = 8;
  QueryCache cache(options, "query_cache_test");
  cache.insert(key_for(3), value_for(30, /*epoch=*/5));
  EXPECT_TRUE(cache.lookup(key_for(3), 5).has_value());
  // One publish later the entry is stale — and physically gone.
  EXPECT_FALSE(cache.lookup(key_for(3), 6).has_value());
  EXPECT_EQ(cache.size(), 0u);
  // Refill at the new epoch serves again.
  cache.insert(key_for(3), value_for(30, /*epoch=*/6));
  EXPECT_TRUE(cache.lookup(key_for(3), 6).has_value());
}

TEST(QueryCache, ShardedKeysAllServeAndCountInSize) {
  QueryCacheOptions options;
  options.capacity = 64;
  options.shards = 8;
  QueryCache cache(options, "query_cache_test");
  for (DocId q = 0; q < 40; ++q) cache.insert(key_for(q), value_for(q));
  EXPECT_EQ(cache.size(), 40u);
  for (DocId q = 0; q < 40; ++q) {
    auto got = cache.lookup(key_for(q), 0);
    ASSERT_TRUE(got.has_value()) << "q " << q;
    EXPECT_EQ(got->results[0].doc, q);
  }
  EXPECT_EQ(cache.hits(), 40u);
}

}  // namespace
}  // namespace ibseg
