#ifndef IBSEG_CORE_QUERY_CACHE_H_
#define IBSEG_CORE_QUERY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "index/intention_matcher.h"
#include "obs/metrics.h"

/// \file
/// QueryCache: the bounded LRU result cache above the serving layer,
/// invalidated wholesale by publication epoch — a hit is always as fresh
/// as an uncached query at the same epoch (docs/ARCHITECTURE.md §3).

namespace ibseg {

/// Tuning knobs for QueryCache.
struct QueryCacheOptions {
  /// Maximum cached entries across all shards. 0 disables the cache
  /// (every lookup misses, inserts are dropped).
  size_t capacity = 0;
  /// Number of independently locked buckets. Clamped to >= 1; rounded up
  /// to a power of two so shard selection is a mask.
  size_t shards = 8;
};

/// Sharded, epoch-validated LRU cache for serving query results.
///
/// Key: (query DocId, k, offline generation). The matcher options are
/// not part of it: each serving instance owns one cache and fixes its
/// options at construction. Value: the ranked
/// list plus the (epoch, num_docs) snapshot it was computed under.
/// Invalidation is by epoch comparison at lookup time: every ingest
/// publish bumps the serving layer's epoch, so an entry filled at epoch E
/// stops validating the moment any post is published — no writer ever
/// has to touch the cache, and a hit is exactly as fresh as a query that
/// took the shared lock at the same instant. Stale entries are erased by
/// the lookup that discovers them.
///
/// Thread-safety: keys hash to one of `shards` buckets, each guarded by
/// its own mutex; lookups and inserts on different shards never contend.
/// Capacity is enforced per shard (capacity/shards each, at least 1),
/// evicting the shard's least-recently-used entry.
///
/// Metrics: ibseg_query_cache_hits / _misses / _evictions (counters) and
/// ibseg_query_cache_size (gauge) in the global registry, labeled with
/// the owning instance's tenant; the same counts are readable per
/// instance via hits()/misses()/evictions().
class QueryCache {
 public:
  struct Key {
    DocId query = 0;
    int k = 0;
    /// Offline generation the entry was computed under. A background
    /// recluster (docs/ARCHITECTURE.md §9) swaps the whole index without
    /// bumping the publication epoch — epoch validation alone would keep
    /// old-generation entries alive across the swap. Keying by generation
    /// makes every pre-swap entry unreachable the instant the swap
    /// publishes; the orphans age out through LRU eviction.
    uint64_t generation = 0;

    bool operator==(const Key& other) const {
      return query == other.query && k == other.k &&
             generation == other.generation;
    }
  };

  /// A cached answer with its publication-snapshot coordinates.
  struct Value {
    std::vector<ScoredDoc> results;
    uint64_t epoch = 0;
    size_t num_docs = 0;
  };

  /// `tenant` labels the instance's metric series.
  QueryCache(QueryCacheOptions options, const std::string& tenant);

  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  /// Returns the entry for `key` iff it was filled at exactly
  /// `current_epoch`; otherwise a miss. A stale entry is erased on
  /// discovery.
  /// A hit refreshes the entry's LRU position.
  std::optional<Value> lookup(const Key& key, uint64_t current_epoch);

  /// Stores `value` under `key` (overwriting any previous entry),
  /// evicting the shard's LRU entry if the shard is full. No-op when the
  /// cache is disabled (capacity 0).
  void insert(const Key& key, Value value);

  /// Current number of entries across all shards.
  size_t size() const { return size_.load(std::memory_order_relaxed); }

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    Key key;
    Value value;
  };

  struct KeyHash {
    size_t operator()(const Key& key) const;
  };

  /// One independently locked bucket: LRU list (front = most recent)
  /// plus a key -> list-position map.
  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index;
  };

  Shard& shard_for(const Key& key);

  /// This instance's {tenant} series.
  obs::Counter& hits_metric_;
  obs::Counter& misses_metric_;
  obs::Counter& evictions_metric_;
  obs::Gauge& size_metric_;
  size_t shard_mask_ = 0;
  size_t per_shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<size_t> size_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace ibseg

#endif  // IBSEG_CORE_QUERY_CACHE_H_
