#pragma once
// Result cache (layer 2 of src/service/): maps a scheduling request key
// (interned tree uid, algorithm, p, memory cap) to the fully scored
// result (makespan, peak memory, schedule).
//
// Entries are immutable and shared: get() hands out shared_ptrs, so an
// entry evicted while a reader still holds it simply lives until the last
// reader drops it. The index is a sharded exact LRU: each shard has its
// own mutex, map, LRU list and slice of the byte budget, so concurrent
// requests for different keys rarely touch the same lock. The scheduler
// roster is deterministic, so an evicted entry only ever costs a
// recompute.

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/schedule.hpp"
#include "service/instance_store.hpp"

namespace treesched {

/// Cache identity of one scheduling request. `tree_uid` is the interned
/// tree's store-assigned identity (TreeHandle::uid) — not the raw
/// fingerprint, which could collide. `p` is pre-normalized by the service
/// (sequential-only algorithms store p = 1, since they ignore it);
/// `memory_cap` is 0 unless the algorithm is memory-capped.
struct ResultKey {
  std::uint64_t tree_uid = 0;
  std::string algo;
  int p = 1;
  MemSize memory_cap = 0;

  bool operator==(const ResultKey&) const = default;
};

struct ResultKeyHash {
  std::size_t operator()(const ResultKey& k) const noexcept;
};

/// A scored schedule: what the service returns and the cache stores.
struct CachedResult {
  double makespan = 0.0;
  MemSize peak_memory = 0;
  Schedule schedule;

  /// Approximate footprint used for the cache byte budget.
  [[nodiscard]] std::size_t bytes() const {
    return sizeof(CachedResult) +
           schedule.start.capacity() * sizeof(double) +
           schedule.proc.capacity() * sizeof(int);
  }
};

using CachedResultPtr = std::shared_ptr<const CachedResult>;

/// Monotonic counters plus a point-in-time size snapshot, aggregated over
/// all shards. Counters from different shards are read one shard at a
/// time, so under contention totals are momentarily approximate but never
/// lose increments (each is bumped under its shard mutex).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t insertions = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;

  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

class ResultCache {
 public:
  /// `byte_budget` 0 disables the cache entirely (every get misses, every
  /// put is dropped) — the service's "uncached" mode. Otherwise the budget
  /// is split evenly across `shards`; each shard LRU-evicts past its
  /// slice but always retains at least its most recent entry, so one
  /// oversized result still caches.
  explicit ResultCache(std::size_t byte_budget = kDefaultByteBudget,
                       unsigned shards = 16);

  /// Looks up `key`, refreshing its LRU position. Counts a hit or miss.
  [[nodiscard]] CachedResultPtr get(const ResultKey& key);

  /// get() for opportunistic probes (the service's I/O-thread fast
  /// path): a hit counts and refreshes LRU, but a miss counts nothing —
  /// the prober falls back to the full path, whose get() records the
  /// one authoritative miss.
  [[nodiscard]] CachedResultPtr peek(const ResultKey& key);

  /// Inserts (or overwrites) `key`. Never throws on a full cache; evicts
  /// least-recently-used entries from the shard instead.
  void put(const ResultKey& key, CachedResultPtr value);

  [[nodiscard]] CacheStats stats() const;
  void clear();  ///< Drops all entries; counters are preserved.

  [[nodiscard]] std::size_t byte_budget() const { return byte_budget_; }
  [[nodiscard]] unsigned shard_count() const {
    return static_cast<unsigned>(shards_.size());
  }
  [[nodiscard]] bool enabled() const { return byte_budget_ != 0; }

  static constexpr std::size_t kDefaultByteBudget = 256u << 20;  // 256 MiB

 private:
  struct Shard {
    std::mutex mutex;
    /// Most-recently-used at the front.
    std::list<std::pair<ResultKey, CachedResultPtr>> lru;
    std::unordered_map<ResultKey, decltype(lru)::iterator, ResultKeyHash> map;
    std::size_t bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t insertions = 0;
  };

  Shard& shard_for(const ResultKey& key);

  std::size_t byte_budget_ = 0;
  std::size_t shard_budget_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace treesched
