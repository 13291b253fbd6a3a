// Unit tests for the server-side best-effort shadow cache (paper §5.1).
#include <gtest/gtest.h>

#include "cache/shadow_cache.hpp"
#include "util/crc32.hpp"

namespace shadow::cache {
namespace {

Status put(ShadowCache& cache, const std::string& key, u64 version,
           const std::string& content) {
  return cache.put(key, version, content,
                   crc32(reinterpret_cast<const u8*>(content.data()),
                         content.size()));
}

TEST(ShadowCacheTest, PutGetRoundTrip) {
  ShadowCache cache;
  ASSERT_TRUE(put(cache, "k", 1, "hello").ok());
  auto entry = cache.get("k");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry.value()->content, "hello");
  EXPECT_EQ(entry.value()->version, 1u);
  EXPECT_EQ(cache.bytes_used(), 5u);
}

TEST(ShadowCacheTest, MissIsCacheMissError) {
  ShadowCache cache;
  EXPECT_EQ(cache.get("ghost").code(), ErrorCode::kCacheMiss);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ShadowCacheTest, ReplaceUpdatesBytes) {
  ShadowCache cache;
  ASSERT_TRUE(put(cache, "k", 1, "short").ok());
  ASSERT_TRUE(put(cache, "k", 2, "much longer content").ok());
  EXPECT_EQ(cache.bytes_used(), 19u);
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(cache.version_of("k").value(), 2u);
}

// Replacing the least recently used entry under pressure evicts the
// others, never the entry being replaced.
TEST(ShadowCacheTest, ReplacingTheLruEntryUnderPressureKeepsIt) {
  ShadowCache cache(100, EvictionPolicy::kLru);
  ASSERT_TRUE(cache.put("a", 1, std::string(50, 'a'), 1).ok());
  ASSERT_TRUE(cache.put("b", 1, std::string(40, 'b'), 1).ok());
  ASSERT_TRUE(cache.get("b").ok());  // "a" is now least recently used
  ASSERT_TRUE(cache.put("a", 2, std::string(70, 'A'), 2).ok());
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(cache.bytes_used(), 70u);
  auto a = cache.get("a");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value()->version, 2u);
  EXPECT_FALSE(cache.contains("b"));
}

TEST(ShadowCacheTest, VersionOfDoesNotCountAsHit) {
  ShadowCache cache;
  ASSERT_TRUE(put(cache, "k", 3, "x").ok());
  EXPECT_EQ(cache.version_of("k").value(), 3u);
  EXPECT_FALSE(cache.version_of("ghost").has_value());
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(ShadowCacheTest, EraseRemoves) {
  ShadowCache cache;
  ASSERT_TRUE(put(cache, "k", 1, "data").ok());
  cache.erase("k");
  EXPECT_EQ(cache.bytes_used(), 0u);
  EXPECT_FALSE(cache.contains("k"));
  cache.erase("k");  // idempotent
}

TEST(ShadowCacheTest, BudgetTriggersEviction) {
  ShadowCache cache(/*byte_budget=*/10, EvictionPolicy::kLru);
  ASSERT_TRUE(put(cache, "a", 1, "12345").ok());
  ASSERT_TRUE(put(cache, "b", 1, "12345").ok());
  ASSERT_TRUE(put(cache, "c", 1, "12345").ok());  // evicts one
  EXPECT_LE(cache.bytes_used(), 10u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.entry_count(), 2u);
}

TEST(ShadowCacheTest, LruEvictsLeastRecentlyUsed) {
  ShadowCache cache(10, EvictionPolicy::kLru);
  ASSERT_TRUE(put(cache, "a", 1, "12345").ok());
  ASSERT_TRUE(put(cache, "b", 1, "12345").ok());
  ASSERT_TRUE(cache.get("a").ok());  // refresh a
  ASSERT_TRUE(put(cache, "c", 1, "12345").ok());
  EXPECT_TRUE(cache.contains("a"));
  EXPECT_FALSE(cache.contains("b"));
}

TEST(ShadowCacheTest, FifoIgnoresRecency) {
  ShadowCache cache(10, EvictionPolicy::kFifo);
  ASSERT_TRUE(put(cache, "a", 1, "12345").ok());
  ASSERT_TRUE(put(cache, "b", 1, "12345").ok());
  ASSERT_TRUE(cache.get("a").ok());  // does not save "a" under FIFO
  ASSERT_TRUE(put(cache, "c", 1, "12345").ok());
  EXPECT_FALSE(cache.contains("a"));
  EXPECT_TRUE(cache.contains("b"));
}

TEST(ShadowCacheTest, LargestFirstEvictsBiggest) {
  ShadowCache cache(100, EvictionPolicy::kLargestFirst);
  ASSERT_TRUE(put(cache, "big", 1, std::string(60, 'b')).ok());
  ASSERT_TRUE(put(cache, "small", 1, std::string(10, 's')).ok());
  ASSERT_TRUE(put(cache, "medium", 1, std::string(40, 'm')).ok());
  EXPECT_FALSE(cache.contains("big"));
  EXPECT_TRUE(cache.contains("small"));
}

TEST(ShadowCacheTest, OversizedPutRefused) {
  ShadowCache cache(10, EvictionPolicy::kLru);
  ASSERT_TRUE(put(cache, "old", 1, "tiny").ok());
  Status st = put(cache, "huge", 1, std::string(100, 'x'));
  EXPECT_EQ(st.code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(cache.stats().rejected, 1u);
  // Best-effort: nothing else was harmed... except a stale same-key entry
  // which must not survive (it would be the WRONG version).
  EXPECT_TRUE(cache.contains("old"));
  EXPECT_FALSE(cache.contains("huge"));
}

TEST(ShadowCacheTest, OversizedReplaceDropsStaleEntry) {
  ShadowCache cache(10, EvictionPolicy::kLru);
  ASSERT_TRUE(put(cache, "k", 1, "1234567").ok());
  Status st = put(cache, "k", 2, std::string(50, 'x'));
  EXPECT_FALSE(st.ok());
  // v1 must not masquerade as current.
  EXPECT_FALSE(cache.contains("k"));
}

TEST(ShadowCacheTest, UnlimitedBudgetNeverEvicts) {
  ShadowCache cache(0, EvictionPolicy::kLru);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        put(cache, "k" + std::to_string(i), 1, std::string(1000, 'x')).ok());
  }
  EXPECT_EQ(cache.entry_count(), 100u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(ShadowCacheTest, ShrinkBudgetEvictsImmediately) {
  ShadowCache cache(100, EvictionPolicy::kLru);
  ASSERT_TRUE(put(cache, "a", 1, std::string(40, 'a')).ok());
  ASSERT_TRUE(put(cache, "b", 1, std::string(40, 'b')).ok());
  cache.set_byte_budget(50);
  EXPECT_LE(cache.bytes_used(), 50u);
  EXPECT_EQ(cache.entry_count(), 1u);
}

TEST(ShadowCacheTest, EvictOneFailureInjection) {
  ShadowCache cache;
  EXPECT_FALSE(cache.evict_one());
  ASSERT_TRUE(put(cache, "k", 1, "x").ok());
  EXPECT_TRUE(cache.evict_one());
  EXPECT_EQ(cache.entry_count(), 0u);
}

TEST(ShadowCacheTest, ClearResets) {
  ShadowCache cache;
  ASSERT_TRUE(put(cache, "a", 1, "xx").ok());
  cache.clear();
  EXPECT_EQ(cache.bytes_used(), 0u);
  EXPECT_EQ(cache.entry_count(), 0u);
}

TEST(ShadowCacheTest, HitRateAccounting) {
  ShadowCache cache;
  ASSERT_TRUE(put(cache, "k", 1, "v").ok());
  (void)cache.get("k");
  (void)cache.get("k");
  (void)cache.get("miss");
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_NEAR(cache.stats().hit_rate(), 2.0 / 3.0, 1e-9);
}

TEST(ShadowCacheTest, PolicyNames) {
  EXPECT_STREQ(eviction_policy_name(EvictionPolicy::kLru), "lru");
  EXPECT_STREQ(eviction_policy_name(EvictionPolicy::kFifo), "fifo");
  EXPECT_STREQ(eviction_policy_name(EvictionPolicy::kLargestFirst),
               "largest-first");
}

}  // namespace
}  // namespace shadow::cache
