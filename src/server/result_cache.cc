#include "server/result_cache.h"

#include <algorithm>

#include "common/hash.h"

namespace scdwarf::server {

ResultCache::ResultCache(size_t capacity, size_t num_shards,
                         metrics::MetricRegistry* registry)
    : capacity_(capacity) {
  num_shards = std::max<size_t>(1, std::min(num_shards, std::max<size_t>(1, capacity)));
  shard_capacity_ = capacity == 0 ? 0 : std::max<size_t>(1, capacity / num_shards);
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<metrics::MetricRegistry>();
    registry = owned_registry_.get();
  }
  hits_ = registry->GetCounter("server_cache_hits_total", {},
                               "result-cache lookups answered from cache");
  misses_ = registry->GetCounter("server_cache_misses_total", {},
                                 "result-cache lookups that executed a query");
  evictions_ = registry->GetCounter("server_cache_evictions_total", {},
                                    "entries evicted by LRU capacity pressure");
  invalidations_ =
      registry->GetCounter("server_cache_invalidations_total", {},
                           "entries dropped by epoch publishes/InvalidateAll");
  revalidated_ =
      registry->GetCounter("server_cache_revalidated_total", {},
                           "entries carried over to a new epoch unexecuted");
}

ResultCache::Shard& ResultCache::ShardFor(const std::string& key) {
  // Sharded by the epoch-less key: every epoch of one query shares a shard,
  // so Revalidate can re-tag an entry without migrating it.
  return *shards_[HashString(key) % shards_.size()];
}

std::string ResultCache::ComposeKey(const std::string& key, uint64_t epoch) {
  return std::to_string(epoch) + "|" + key;
}

std::optional<CachedResult> ResultCache::Get(const std::string& key,
                                             uint64_t epoch) {
  if (capacity_ == 0) {
    misses_->Increment();
    return std::nullopt;
  }
  Shard& shard = ShardFor(key);
  std::string composed = ComposeKey(key, epoch);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(composed);
  if (it == shard.index.end()) {
    misses_->Increment();
    return std::nullopt;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_->Increment();
  return it->second->result;
}

void ResultCache::Put(const std::string& key, uint64_t epoch,
                      CachedResult result, QueryRequest request) {
  if (capacity_ == 0) return;
  Shard& shard = ShardFor(key);
  std::string composed = ComposeKey(key, epoch);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(composed);
  if (it != shard.index.end()) {
    it->second->result = std::move(result);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(
      Entry{key, epoch, std::move(result), std::move(request)});
  shard.index.emplace(std::move(composed), shard.lru.begin());
  while (shard.lru.size() > shard_capacity_) {
    const Entry& victim = shard.lru.back();
    shard.index.erase(ComposeKey(victim.key, victim.epoch));
    shard.lru.pop_back();
    evictions_->Increment();
  }
}

size_t ResultCache::Revalidate(
    uint64_t new_epoch,
    const std::function<bool(const QueryRequest& request)>& unaffected) {
  size_t kept = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      if (it->epoch == new_epoch) {
        ++it;  // a reader cached it at the new epoch before this sweep
        continue;
      }
      shard->index.erase(ComposeKey(it->key, it->epoch));
      // Only the immediately-previous epoch is a carry-over candidate: an
      // older entry missed at least one intervening publish, so nothing
      // proves its result still holds. A publish makes its epoch visible
      // before it sweeps, so a reader may already have cached this key at
      // the new epoch; that entry stays and this one goes, or one key would
      // own two LRU nodes.
      bool keep =
          it->epoch + 1 == new_epoch && unaffected &&
          unaffected(it->request) &&
          shard->index.try_emplace(ComposeKey(it->key, new_epoch), it).second;
      if (keep) {
        it->epoch = new_epoch;
        revalidated_->Increment();
        ++kept;
        ++it;
      } else {
        it = shard->lru.erase(it);
        invalidations_->Increment();
      }
    }
  }
  return kept;
}

void ResultCache::InvalidateAll() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    invalidations_->Increment(shard->lru.size());
    shard->lru.clear();
    shard->index.clear();
  }
}

ResultCacheStats ResultCache::stats() const {
  ResultCacheStats stats;
  stats.hits = hits_->value();
  stats.misses = misses_->value();
  stats.evictions = evictions_->value();
  stats.invalidations = invalidations_->value();
  stats.revalidated = revalidated_->value();
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    stats.entries += shard->lru.size();
  }
  return stats;
}

}  // namespace scdwarf::server
