/// \file result_cache.h
/// \brief Sharded LRU cache of serialized query results, keyed by
/// (normalized request, epoch).
///
/// The epoch is part of the lookup key, so results from superseded epochs
/// can never be served. On an epoch publish the cache is *revalidated*, not
/// wholesale invalidated: Revalidate() re-tags every previous-epoch entry
/// whose query a caller-supplied predicate proves unaffected by the publish
/// (counted as `revalidated`), and drops the rest (counted as
/// `invalidations`). Each entry keeps the parsed request it was computed
/// from, so the predicate never re-parses a key. A later Get at the new
/// epoch then hits the carried-over
/// entry without recomputing anything. Sharding is by the *normalized
/// request* alone — all epochs of one query live in one shard — which keeps
/// re-tagging a per-shard operation and the lock a short critical section on
/// the query hot path.

#ifndef SCDWARF_SERVER_RESULT_CACHE_H_
#define SCDWARF_SERVER_RESULT_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "server/wire.h"

namespace scdwarf::server {

/// \brief One cached execution result (see wire.h ExecResult).
struct CachedResult {
  bool ok = false;
  std::string payload_json;
};

/// \brief Monotonic cache counters (read from the registry's counter series;
/// totals are exact, the entries count is a point-in-time sum over shards).
struct ResultCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;      ///< capacity evictions, not invalidations
  uint64_t invalidations = 0;  ///< entries dropped by Revalidate/InvalidateAll
  uint64_t revalidated = 0;    ///< entries re-tagged to a new epoch
  uint64_t entries = 0;
};

/// \brief Thread-safe sharded LRU. A capacity of 0 disables caching (every
/// Get misses, Put is a no-op).
class ResultCache {
 public:
  /// \p registry receives the cache's counter series (server_cache_*_total).
  /// When null the cache owns a private registry — the counters still work,
  /// they just aren't exported anywhere.
  explicit ResultCache(size_t capacity, size_t num_shards,
                       metrics::MetricRegistry* registry = nullptr);

  /// Returns the cached result for (key, epoch), refreshing its LRU
  /// position, or nullopt (counted as a miss) when absent.
  std::optional<CachedResult> Get(const std::string& key, uint64_t epoch);

  /// Inserts or refreshes (key, epoch) -> result, evicting the shard's
  /// least-recently-used entry when over capacity. \p request is the parsed
  /// form of \p key, kept for Revalidate.
  void Put(const std::string& key, uint64_t epoch, CachedResult result,
           QueryRequest request);

  /// \brief Epoch-publish sweep. Entries tagged \p new_epoch - 1 whose
  /// request satisfies \p unaffected are re-tagged to \p new_epoch (their
  /// results provably carry over); every other stale entry is dropped, and
  /// so is a re-tag candidate whose key a reader already cached at
  /// \p new_epoch. Returns the number of entries re-tagged. \p unaffected
  /// runs under the shard lock — keep it cheap relative to a query
  /// execution.
  size_t Revalidate(
      uint64_t new_epoch,
      const std::function<bool(const QueryRequest& request)>& unaffected);

  /// Drops every entry unconditionally (a Revalidate that keeps nothing).
  void InvalidateAll();

  ResultCacheStats stats() const;

  size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::string key;  ///< normalized request, without the epoch
    uint64_t epoch = 0;
    CachedResult result;
    QueryRequest request;  ///< parsed form of key, for Revalidate
  };
  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;  ///< front = most recently used
    /// Composed "epoch|key" -> LRU position.
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
  };

  Shard& ShardFor(const std::string& key);
  static std::string ComposeKey(const std::string& key, uint64_t epoch);

  size_t capacity_ = 0;        ///< total across shards
  size_t shard_capacity_ = 0;  ///< per shard
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Fallback registry when the caller injected none; the counter pointers
  /// below stay valid for the cache's lifetime either way.
  std::unique_ptr<metrics::MetricRegistry> owned_registry_;
  metrics::Counter* hits_ = nullptr;
  metrics::Counter* misses_ = nullptr;
  metrics::Counter* evictions_ = nullptr;
  metrics::Counter* invalidations_ = nullptr;
  metrics::Counter* revalidated_ = nullptr;
};

}  // namespace scdwarf::server

#endif  // SCDWARF_SERVER_RESULT_CACHE_H_
