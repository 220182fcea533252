#include "core/query_cache.h"

#include <algorithm>
#include <bit>

namespace ibseg {

size_t QueryCache::KeyHash::operator()(const Key& key) const {
  // FNV-1a over the key's three fields, byte by byte.
  uint64_t h = 1469598103934665603ull;
  for (uint64_t v : {static_cast<uint64_t>(key.query),
                     static_cast<uint64_t>(key.k), key.generation}) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (byte * 8)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return static_cast<size_t>(h);
}

QueryCache::QueryCache(QueryCacheOptions options, const std::string& tenant)
    : hits_metric_(obs::MetricsRegistry::global().counter(
          "ibseg_query_cache_hits",
          "Query-cache lookups answered from a valid entry.",
          {{"tenant", tenant}})),
      misses_metric_(obs::MetricsRegistry::global().counter(
          "ibseg_query_cache_misses",
          "Query-cache lookups that fell through to the index (absent or "
          "stale-epoch entry).",
          {{"tenant", tenant}})),
      evictions_metric_(obs::MetricsRegistry::global().counter(
          "ibseg_query_cache_evictions", "Entries evicted for capacity.",
          {{"tenant", tenant}})),
      size_metric_(obs::MetricsRegistry::global().gauge(
          "ibseg_query_cache_size",
          "Entries currently held across all cache shards.",
          {{"tenant", tenant}})) {
  size_t shards = options.shards == 0 ? 1 : options.shards;
  shards = std::bit_ceil(shards);
  shard_mask_ = shards - 1;
  per_shard_capacity_ =
      options.capacity == 0
          ? 0
          : std::max<size_t>(1, (options.capacity + shards - 1) / shards);
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

QueryCache::Shard& QueryCache::shard_for(const Key& key) {
  return *shards_[KeyHash{}(key)&shard_mask_];
}

std::optional<QueryCache::Value> QueryCache::lookup(const Key& key,
                                                    uint64_t current_epoch) {
  if (per_shard_capacity_ == 0) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    misses_metric_.inc();
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
      if (entry.value.epoch != current_epoch) {
        // A stale entry can never validate again (the epoch only moves
        // forward) — drop it on discovery so the capacity goes to live
        // answers.
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
    size_metric_.set(static_cast<double>(size()));
  }
  if (result.has_value()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    hits_metric_.inc();
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    misses_metric_.inc();
  }
  return result;
}

void QueryCache::insert(const Key& key, Value value) {
  if (per_shard_capacity_ == 0) return;
  Shard& shard = shard_for(key);
  int size_delta = 0;
  uint64_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      // Refresh in place (a newer epoch's answer supersedes the old one).
      it->second->value = std::move(value);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      if (shard.lru.size() >= per_shard_capacity_) {
        const Entry& victim = shard.lru.back();
        shard.index.erase(victim.key);
        shard.lru.pop_back();
        ++evicted;
        --size_delta;
      }
      shard.lru.push_front(Entry{key, std::move(value)});
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
    evictions_metric_.inc(evicted);
  }
  size_metric_.set(static_cast<double>(size()));
}

}  // namespace ibseg
