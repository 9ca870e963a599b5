// Unit tests of the sharded LRU result cache (src/server/result_cache):
// eviction order, per-shard capacity accounting, and the revalidated-vs-
// invalidated split of the epoch-publish sweep.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "server/result_cache.h"

namespace scdwarf::server {
namespace {

CachedResult MakeResult(const std::string& payload) {
  return CachedResult{true, payload};
}

/// The parsed request stored beside an entry: a slice on \p key, so
/// revalidation predicates can tell entries apart by slice_key.
QueryRequest Slice(const std::string& key) {
  QueryRequest request;
  request.op = RequestOp::kSlice;
  request.slice_key = key;
  return request;
}

bool KeepAll(const QueryRequest&) { return true; }

TEST(ResultCacheTest, GetMissesThenHitsAfterPut) {
  ResultCache cache(/*capacity=*/8, /*num_shards=*/1);
  EXPECT_FALSE(cache.Get("q1", 0).has_value());
  cache.Put("q1", 0, MakeResult("r1"), Slice("q1"));
  auto hit = cache.Get("q1", 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->payload_json, "r1");
  ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ResultCacheTest, EpochIsPartOfTheLookupKey) {
  ResultCache cache(8, 1);
  cache.Put("q1", 0, MakeResult("epoch0"), Slice("q1"));
  cache.Put("q1", 1, MakeResult("epoch1"), Slice("q1"));
  EXPECT_EQ(cache.Get("q1", 0)->payload_json, "epoch0");
  EXPECT_EQ(cache.Get("q1", 1)->payload_json, "epoch1");
  EXPECT_FALSE(cache.Get("q1", 2).has_value());
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsedFirst) {
  ResultCache cache(/*capacity=*/3, /*num_shards=*/1);
  cache.Put("a", 0, MakeResult("ra"), Slice("a"));
  cache.Put("b", 0, MakeResult("rb"), Slice("b"));
  cache.Put("c", 0, MakeResult("rc"), Slice("c"));
  // Touch "a" so "b" becomes the LRU victim.
  EXPECT_TRUE(cache.Get("a", 0).has_value());
  cache.Put("d", 0, MakeResult("rd"), Slice("d"));

  EXPECT_TRUE(cache.Get("a", 0).has_value());
  EXPECT_FALSE(cache.Get("b", 0).has_value());  // evicted
  EXPECT_TRUE(cache.Get("c", 0).has_value());
  EXPECT_TRUE(cache.Get("d", 0).has_value());
  ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 3u);
}

TEST(ResultCacheTest, RefreshingAnEntryDoesNotGrowTheCache) {
  ResultCache cache(2, 1);
  cache.Put("a", 0, MakeResult("v1"), Slice("a"));
  cache.Put("a", 0, MakeResult("v2"), Slice("a"));  // refresh, not insert
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.Get("a", 0)->payload_json, "v2");
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(ResultCacheTest, CapacityIsSplitAcrossShards) {
  // 8 entries over 4 shards: each shard holds at most 2, so inserting many
  // keys can never push the total past the configured capacity.
  ResultCache cache(/*capacity=*/8, /*num_shards=*/4);
  for (int i = 0; i < 64; ++i) {
    std::string key = "key" + std::to_string(i);
    cache.Put(key, 0, MakeResult("r"), Slice(key));
  }
  ResultCacheStats stats = cache.stats();
  EXPECT_LE(stats.entries, 8u);
  EXPECT_GT(stats.evictions, 0u);
}

TEST(ResultCacheTest, ZeroCapacityDisablesCaching) {
  ResultCache cache(0, 4);
  cache.Put("a", 0, MakeResult("r"), Slice("a"));
  EXPECT_FALSE(cache.Get("a", 0).has_value());
  ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(ResultCacheTest, RevalidateSplitsKeptAndDroppedEntries) {
  ResultCache cache(8, 2);
  cache.Put("keep1", 0, MakeResult("r1"), Slice("keep1"));
  cache.Put("keep2", 0, MakeResult("r2"), Slice("keep2"));
  cache.Put("drop1", 0, MakeResult("r3"), Slice("drop1"));

  // The predicate sees the parsed request stored with each entry.
  size_t kept = cache.Revalidate(1, [](const QueryRequest& request) {
    return request.slice_key.rfind("keep", 0) == 0;
  });
  EXPECT_EQ(kept, 2u);

  ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.revalidated, 2u);
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.entries, 2u);

  // Kept entries answer at the new epoch only; the old epoch is gone.
  EXPECT_TRUE(cache.Get("keep1", 1).has_value());
  EXPECT_TRUE(cache.Get("keep2", 1).has_value());
  EXPECT_FALSE(cache.Get("keep1", 0).has_value());
  EXPECT_FALSE(cache.Get("drop1", 1).has_value());
}

TEST(ResultCacheTest, RevalidateKeepsOnlyImmediatelyPreviousEpoch) {
  ResultCache cache(8, 1);
  cache.Put("old", 0, MakeResult("r0"), Slice("old"));
  cache.Put("fresh", 1, MakeResult("r1"), Slice("fresh"));

  // Publishing epoch 2: "fresh" (epoch 1) may carry over, "old" (epoch 0)
  // missed the epoch-1 publish and must drop even though the predicate says
  // it is unaffected.
  size_t kept = cache.Revalidate(2, KeepAll);
  EXPECT_EQ(kept, 1u);
  EXPECT_TRUE(cache.Get("fresh", 2).has_value());
  EXPECT_FALSE(cache.Get("old", 2).has_value());
  ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.revalidated, 1u);
  EXPECT_EQ(stats.invalidations, 1u);
}

TEST(ResultCacheTest, RevalidatedEntryKeepsWorkingAcrossChainedPublishes) {
  ResultCache cache(8, 1);
  cache.Put("q", 0, MakeResult("r"), Slice("q"));
  for (uint64_t epoch = 1; epoch <= 4; ++epoch) {
    EXPECT_EQ(cache.Revalidate(epoch, KeepAll), 1u);
  }
  EXPECT_TRUE(cache.Get("q", 4).has_value());
  EXPECT_EQ(cache.stats().revalidated, 4u);
  EXPECT_EQ(cache.stats().invalidations, 0u);
}

// A publish makes its epoch visible before it sweeps the cache, so a reader
// that misses in between caches the key at the new epoch first. The sweep
// must then drop the old entry rather than re-tag it into a second LRU node
// for the same key: evicting that orphan later would erase the live entry's
// index slot, and the key would miss from then on.
TEST(ResultCacheTest, RevalidateDropsEntryWhoseKeyIsAlreadyAtNewEpoch) {
  ResultCache cache(/*capacity=*/2, /*num_shards=*/1);
  cache.Put("q", 1, MakeResult("old"), Slice("q"));
  cache.Put("q", 2, MakeResult("new"), Slice("q"));
  EXPECT_EQ(cache.Revalidate(2, KeepAll), 0u);
  ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.revalidated, 0u);
  EXPECT_EQ(stats.invalidations, 1u);

  // Filling the shard evicts nothing, and the live entry stays reachable.
  cache.Put("a", 2, MakeResult("ra"), Slice("a"));
  auto hit = cache.Get("q", 2);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->payload_json, "new");
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(ResultCacheTest, InvalidateAllDropsEverythingAndCounts) {
  ResultCache cache(8, 2);
  cache.Put("a", 0, MakeResult("r"), Slice("a"));
  cache.Put("b", 0, MakeResult("r"), Slice("b"));
  cache.InvalidateAll();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().invalidations, 2u);
  EXPECT_FALSE(cache.Get("a", 0).has_value());
}

TEST(ResultCacheTest, RevalidateWithNullPredicateDropsStaleEntries) {
  ResultCache cache(8, 1);
  cache.Put("a", 0, MakeResult("r"), Slice("a"));
  EXPECT_EQ(cache.Revalidate(1, nullptr), 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

}  // namespace
}  // namespace scdwarf::server
