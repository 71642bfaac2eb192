// ShardedLru, the one cache behind the decision cache and the plan cache:
// recency order, refresh on insert, Clear, tag invalidation, per-shard
// counters summed by Stats, and concurrent use.

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/sharded_lru.h"

namespace relcont {
namespace {

using Cache = ShardedLru<std::string>;

TEST(ShardedLruTest, EvictsLeastRecentlyUsedAtOneShard) {
  // One shard so recency order is global and deterministic.
  Cache cache(/*capacity=*/3, /*num_shards=*/1);
  EXPECT_FALSE(cache.Lookup("a").has_value());
  cache.Insert("a", "cat", "value-a");
  cache.Insert("b", "cat", "value-b");
  cache.Insert("c", "cat", "value-c");
  // Refresh "a": now "b" is the least recently used entry.
  std::optional<std::string> hit = cache.Lookup("a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "value-a");
  cache.Insert("d", "cat", "value-d");
  EXPECT_TRUE(cache.Lookup("a").has_value());
  EXPECT_FALSE(cache.Lookup("b").has_value());
  EXPECT_TRUE(cache.Lookup("c").has_value());
  EXPECT_TRUE(cache.Lookup("d").has_value());
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_EQ(stats.misses, 2u);
  // LRU pressure is not invalidation.
  EXPECT_EQ(stats.invalidated, 0u);
}

TEST(ShardedLruTest, InsertRefreshesValueTagAndRecency) {
  Cache cache(/*capacity=*/2, /*num_shards=*/1);
  cache.Insert("a", "old-cat", "old");
  cache.Insert("b", "cat", "b");
  cache.Insert("a", "new-cat", "new");
  // The re-insert made "a" most recent, so "b" is the victim.
  cache.Insert("c", "cat", "c");
  std::optional<std::string> hit = cache.Lookup("a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "new");
  EXPECT_FALSE(cache.Lookup("b").has_value());
  // The refresh carried the new tag: the old one no longer owns "a".
  cache.InvalidateTag("old-cat");
  EXPECT_TRUE(cache.Lookup("a").has_value());
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.invalidated, 0u);
}

// The index holds views of the entries' own keys. A key refreshed through
// Insert and then evicted, and one refreshed and then dropped by
// InvalidateTag, must leave no view behind: Stats and every later Lookup
// stay right (and ASan flags a dangling view). The keys are longer than
// the small-string buffer, so each lives on the heap.
TEST(ShardedLruTest, RefreshedKeysEvictAndInvalidateCleanly) {
  Cache cache(/*capacity=*/2, /*num_shards=*/1);
  auto key = [](const std::string& name) {
    return std::string(48, '#') + name;
  };
  cache.Insert(key("a"), "cat", "a1");
  cache.Insert(key("b"), "cat", "b1");
  cache.Insert(key("a"), "cat", "a2");  // refresh: "b" is now the oldest
  cache.Insert(key("b"), "cat", "b2");  // refresh: "a" is now the oldest
  cache.Insert(key("c"), "cat", "c1");  // evicts the refreshed "a"
  EXPECT_FALSE(cache.Lookup(key("a")).has_value());
  EXPECT_EQ(cache.Lookup(key("b")), "b2");
  EXPECT_EQ(cache.Lookup(key("c")), "c1");
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);

  // Refresh "c" under a new tag, then drop that tag.
  cache.Insert(key("c"), "doomed", "c2");
  cache.InvalidateTag("doomed");
  EXPECT_FALSE(cache.Lookup(key("c")).has_value());
  EXPECT_EQ(cache.Lookup(key("b")), "b2");
  stats = cache.Stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.invalidated, 1u);
  EXPECT_EQ(stats.evictions, 1u);

  // The freed slots are reusable, under the dropped keys too.
  cache.Insert(key("a"), "cat", "a3");
  cache.Insert(key("c"), "cat", "c3");  // evicts "b"
  EXPECT_EQ(cache.Lookup(key("a")), "a3");
  EXPECT_EQ(cache.Lookup(key("c")), "c3");
  EXPECT_FALSE(cache.Lookup(key("b")).has_value());
  stats = cache.Stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.hits, 5u);
  EXPECT_EQ(stats.misses, 3u);
}

TEST(ShardedLruTest, ClearDropsEntriesKeepsCounters) {
  Cache cache(/*capacity=*/4, /*num_shards=*/1);
  cache.Insert("a", "cat", "a");
  EXPECT_TRUE(cache.Lookup("a").has_value());
  cache.Clear();
  EXPECT_FALSE(cache.Lookup("a").has_value());
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(ShardedLruTest, InvalidateTagDropsOnlyThatTag) {
  Cache cache(/*capacity=*/64, /*num_shards=*/4);
  for (int i = 0; i < 8; ++i) {
    cache.Insert("left-" + std::to_string(i), "left", "l");
    cache.Insert("right-" + std::to_string(i), "right", "r");
  }
  // Accumulate some hits and a miss so we can assert the counters survive.
  EXPECT_TRUE(cache.Lookup("left-0").has_value());
  EXPECT_TRUE(cache.Lookup("right-0").has_value());
  EXPECT_FALSE(cache.Lookup("absent").has_value());
  CacheStats before = cache.Stats();

  cache.InvalidateTag("left");

  CacheStats after = cache.Stats();
  EXPECT_EQ(after.invalidated, 8u);
  EXPECT_EQ(after.entries, 8u);
  EXPECT_EQ(after.evictions, 0u);
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(cache.Lookup("left-" + std::to_string(i)).has_value());
    EXPECT_TRUE(cache.Lookup("right-" + std::to_string(i)).has_value());
  }
}

TEST(ShardedLruTest, StatsAddUpAcrossShards) {
  // 10 entries over 4 shards round up to 3 per shard.
  Cache rounded(/*capacity=*/10, /*num_shards=*/4);
  EXPECT_EQ(rounded.capacity(), 12u);
  EXPECT_EQ(rounded.num_shards(), 4u);

  Cache cache(/*capacity=*/64, /*num_shards=*/8);
  EXPECT_EQ(cache.capacity(), 64u);
  for (int i = 0; i < 20; ++i) {
    cache.Insert("k" + std::to_string(i), "cat", std::to_string(i));
  }
  for (int i = 0; i < 20; ++i) {
    std::optional<std::string> hit = cache.Lookup("k" + std::to_string(i));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, std::to_string(i));
  }
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(cache.Lookup("missing" + std::to_string(i)).has_value());
  }
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 20u);
  EXPECT_EQ(stats.misses, 5u);
  EXPECT_EQ(stats.entries, 20u);
  EXPECT_EQ(stats.evictions, 0u);
}

// Eight threads share keys across four tags and race Lookup, Insert and
// InvalidateTag (run under the thread sanitizer in CI). Every hit must
// carry its key's own value, the counters must account for every lookup,
// and the cache never exceeds its capacity.
TEST(ShardedLruTest, ConcurrentLookupInsertInvalidate) {
  constexpr int kThreads = 8;
  constexpr int kOps = 4000;
  constexpr int kKeys = 96;
  Cache cache(/*capacity=*/64, /*num_shards=*/4);
  std::atomic<uint64_t> lookups{0};
  std::atomic<int> wrong_values{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kOps; ++i) {
        int k = (i * 7 + t * 13) % kKeys;
        std::string key = "k" + std::to_string(k);
        std::string tag = "tag" + std::to_string(k % 4);
        switch ((i + t) % 8) {
          case 0:
            cache.InvalidateTag(tag);
            break;
          case 1:
          case 2:
          case 3:
            cache.Insert(key, tag, "v" + key);
            break;
          default: {
            std::optional<std::string> hit = cache.Lookup(key);
            lookups.fetch_add(1, std::memory_order_relaxed);
            if (hit.has_value() && *hit != "v" + key) {
              wrong_values.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong_values.load(), 0);
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits + stats.misses, lookups.load());
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.invalidated, 0u);
  EXPECT_LE(stats.entries, cache.capacity());
  for (int tag = 0; tag < 4; ++tag) {
    cache.InvalidateTag("tag" + std::to_string(tag));
  }
  EXPECT_EQ(cache.Stats().entries, 0u);
}

}  // namespace
}  // namespace relcont
