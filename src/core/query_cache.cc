#include "core/query_cache.h"

#include <algorithm>
#include <bit>

#include "obs/clock.h"
#include "obs/metrics.h"

namespace ibseg {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void fold(uint64_t& h, uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (byte * 8)) & 0xffu;
    h *= kFnvPrime;
  }
}

void fold(uint64_t& h, double v) { fold(h, std::bit_cast<uint64_t>(v)); }

/// Cache-wide metrics, registered once (same eager-catalog pattern as the
/// serving metrics: operators find the series at zero, not absent).
struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& evictions;
  obs::Gauge& size;

  static CacheMetrics& get() {
    static CacheMetrics* m = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::global();
      return new CacheMetrics{
          r.counter("ibseg_query_cache_hits",
                    "Query-cache lookups answered from a valid entry."),
          r.counter("ibseg_query_cache_misses",
                    "Query-cache lookups that fell through to the index "
                    "(absent, stale epoch, or TTL-expired entry)."),
          r.counter("ibseg_query_cache_evictions",
                    "Entries evicted for capacity."),
          r.gauge("ibseg_query_cache_size",
                  "Entries currently held across all cache shards."),
      };
    }();
    return *m;
  }
};

}  // namespace

uint64_t matcher_options_fingerprint(const MatcherOptions& options) {
  uint64_t h = kFnvOffset;
  fold(h, static_cast<uint64_t>(options.top_n_factor));
  fold(h, static_cast<uint64_t>(options.cluster_weights.size()));
  for (double w : options.cluster_weights) fold(h, w);
  fold(h, options.score_threshold);
  fold(h, options.min_norm_fraction);
  fold(h, static_cast<uint64_t>(options.scoring.function));
  fold(h, options.scoring.bm25_k1);
  fold(h, options.scoring.bm25_b);
  fold(h, options.scoring.lm_lambda);
  fold(h, static_cast<uint64_t>(options.exhaustive_fallback ? 1 : 0));
  return h;
}

size_t QueryCache::KeyHash::operator()(const Key& key) const {
  uint64_t h = kFnvOffset;
  fold(h, static_cast<uint64_t>(key.query));
  fold(h, static_cast<uint64_t>(key.k));
  fold(h, key.fingerprint);
  fold(h, key.generation);
  return static_cast<size_t>(h);
}

QueryCache::QueryCache(QueryCacheOptions options)
    : options_(std::move(options)) {
  time_ = options_.time_source
              ? options_.time_source
              : [start = obs::Clock::now()] {
                  return obs::seconds_between(start, obs::Clock::now());
                };
  size_t shards = options_.shards == 0 ? 1 : options_.shards;
  shards = std::bit_ceil(shards);
  shard_mask_ = shards - 1;
  per_shard_capacity_ =
      options_.capacity == 0
          ? 0
          : std::max<size_t>(1, (options_.capacity + shards - 1) / shards);
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  CacheMetrics::get();  // register the catalog eagerly
}

QueryCache::Shard& QueryCache::shard_for(const Key& key) {
  return *shards_[KeyHash{}(key)&shard_mask_];
}

std::optional<QueryCache::Value> QueryCache::lookup(const Key& key,
                                                    uint64_t current_epoch) {
  CacheMetrics& m = CacheMetrics::get();
  if (per_shard_capacity_ == 0) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    m.misses.inc();
    return std::nullopt;
  }
  Shard& shard = shard_for(key);
  std::optional<Value> result;
  bool erased = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      const Entry& entry = *it->second;
      bool stale = entry.value.epoch != current_epoch;
      bool expired = options_.ttl_seconds > 0.0 &&
                     now() - entry.fill_time > options_.ttl_seconds;
      if (stale || expired) {
        // Invalid entries can never validate again (the epoch only moves
        // forward, time only elapses) — drop them on discovery so the
        // capacity goes to live answers.
        shard.lru.erase(it->second);
        shard.index.erase(it);
        erased = true;
      } else {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        result = entry.value;
      }
    }
  }
  if (erased) {
    size_.fetch_sub(1, std::memory_order_relaxed);
    m.size.set(static_cast<double>(size()));
  }
  if (result.has_value()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    m.hits.inc();
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    m.misses.inc();
  }
  return result;
}

void QueryCache::insert(const Key& key, Value value) {
  if (per_shard_capacity_ == 0) return;
  CacheMetrics& m = CacheMetrics::get();
  Shard& shard = shard_for(key);
  int size_delta = 0;
  uint64_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      // Refresh in place (a newer epoch's answer supersedes the old one).
      it->second->value = std::move(value);
      it->second->fill_time = now();
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      if (shard.lru.size() >= per_shard_capacity_) {
        const Entry& victim = shard.lru.back();
        shard.index.erase(victim.key);
        shard.lru.pop_back();
        ++evicted;
        --size_delta;
      }
      shard.lru.push_front(Entry{key, std::move(value), now()});
      shard.index.emplace(key, shard.lru.begin());
      ++size_delta;
    }
  }
  if (size_delta > 0) {
    size_.fetch_add(static_cast<size_t>(size_delta),
                    std::memory_order_relaxed);
  }
  if (evicted > 0) {
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    m.evictions.inc(evicted);
  }
  m.size.set(static_cast<double>(size()));
}

}  // namespace ibseg
