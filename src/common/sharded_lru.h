#ifndef RELCONT_COMMON_SHARDED_LRU_H_
#define RELCONT_COMMON_SHARDED_LRU_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace relcont {

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  /// Entries dropped by InvalidateTag (not LRU pressure).
  uint64_t invalidated = 0;
  uint64_t entries = 0;
};

/// A sharded LRU cache from string keys to `V` values. Each shard holds its
/// own mutex, recency list, and counters, so lookups from different
/// threads contend only when their keys collide on a shard. Thread-safe.
///
/// Every entry carries a tag (the service uses the catalog name), so
/// InvalidateTag can evict exactly one catalog's entries when a
/// re-registration bumps its version. A versioned key already prevents
/// stale *hits*; invalidation reclaims the dead entries instead of letting
/// them age out under LRU pressure.
template <typename V>
class ShardedLru {
 public:
  /// `capacity` is the total entry budget, split evenly across
  /// `num_shards` shards (each shard holds at least one entry).
  ShardedLru(size_t capacity, size_t num_shards) {
    num_shards = std::max<size_t>(1, num_shards);
    per_shard_capacity_ =
        std::max<size_t>(1, (capacity + num_shards - 1) / num_shards);
    shards_.reserve(num_shards);
    for (size_t i = 0; i < num_shards; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

  /// Returns the cached value and refreshes its recency, or nullopt.
  /// Counts a hit or a miss.
  std::optional<V> Lookup(std::string_view key) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      ++shard.misses;
      return std::nullopt;
    }
    ++shard.hits;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->value;
  }

  /// Inserts (or refreshes) `key` under `tag`, evicting the shard's least
  /// recently used entry when the shard is full.
  void Insert(std::string_view key, const std::string& tag, V value) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->tag = tag;
      it->second->value = std::move(value);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    if (shard.lru.size() >= per_shard_capacity_) {
      shard.index.erase(shard.lru.back().key);
      shard.lru.pop_back();
      ++shard.evictions;
    }
    shard.lru.push_front(Entry{std::string(key), tag, std::move(value)});
    shard.index.emplace(shard.lru.front().key, shard.lru.begin());
  }

  /// Drops every entry tagged `tag` (every shard is swept — invalidation
  /// is rare, lookups are not). Counts each dropped entry under
  /// `invalidated`; other tags' entries and the hit/miss counters are
  /// untouched.
  void InvalidateTag(std::string_view tag) {
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      for (auto it = shard->lru.begin(); it != shard->lru.end();) {
        if (it->tag == tag) {
          shard->index.erase(it->key);
          it = shard->lru.erase(it);
          ++shard->invalidated;
        } else {
          ++it;
        }
      }
    }
  }

  /// Aggregated counters across shards.
  CacheStats Stats() const {
    CacheStats out;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      out.hits += shard->hits;
      out.misses += shard->misses;
      out.evictions += shard->evictions;
      out.invalidated += shard->invalidated;
      out.entries += shard->lru.size();
    }
    return out;
  }

  /// Drops every entry; counters keep accumulating.
  void Clear() {
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->index.clear();
      shard->lru.clear();
    }
  }

  size_t capacity() const { return per_shard_capacity_ * shards_.size(); }
  size_t num_shards() const { return shards_.size(); }

 private:
  struct Entry {
    std::string key;
    std::string tag;
    V value;
  };

  struct Shard {
    std::mutex mu;
    /// Front = most recently used.
    std::list<Entry> lru;
    /// Keyed by a view of the entry's own key, so each key is stored once;
    /// list nodes never move, and an index slot is erased before its node.
    std::unordered_map<std::string_view, typename std::list<Entry>::iterator>
        index;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t invalidated = 0;
  };

  Shard& ShardFor(std::string_view key) {
    return *shards_[std::hash<std::string_view>{}(key) % shards_.size()];
  }

  size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace relcont

#endif  // RELCONT_COMMON_SHARDED_LRU_H_
