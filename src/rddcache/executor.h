// Mini-Spark executor with a bounded partition cache and pluggable
// overflow handling (paper §V.B).
//
// An Executor is a JVM-executor-class virtual server: it computes RDD
// partitions (charging CPU time per record of lineage) and caches the
// partitions of .cache()'d RDDs in its heap up to `cache_bytes`. When a
// partition does not fit, the overflow policy decides:
//
//   kRecompute — vanilla Spark MEMORY_ONLY: the partition is dropped and
//                recomputed from lineage on the next use;
//   kDahi      — DAHI: serialize off-heap through the executor's LDMC, in
//                window-batched chunks as DAHI does on Accelio (default
//                64 KiB = window of eight 8 KiB messages). The LDMC's
//                options pick the tiers: the default is the node-level
//                shared pool first, then remote memory; a disk-only LDMC
//                (shm_fraction = 0, allow_remote = false) is vanilla
//                Spark's MEMORY_AND_DISK, spilling to the node's disk
//                through its device tier.
#pragma once

#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/lru.h"
#include "common/status.h"
#include "common/units.h"
#include "core/ldmc.h"
#include "rddcache/rdd.h"

namespace dm::rdd {

enum class OverflowPolicy { kRecompute, kDahi };

class Executor {
 public:
  struct Config {
    std::uint64_t cache_bytes = 8 * MiB;  // heap partition-cache budget
    OverflowPolicy overflow = OverflowPolicy::kRecompute;
    std::uint64_t dahi_chunk_bytes = 64 * KiB;
  };

  Executor(core::Ldmc& client, Config config);

  core::Ldmc& client() noexcept { return client_; }

  // Returns partition `p` of `rdd`, from cache if possible; on miss,
  // computes from lineage (or fetches the off-heap copy) and, if the RDD is
  // marked cached, stores it. Charges all virtual-time costs.
  StatusOr<std::vector<Record>> get_partition(const RddPtr& rdd,
                                              std::size_t p);

  std::uint64_t cache_hits() const noexcept { return hits_; }
  std::uint64_t recomputes() const noexcept { return recomputes_; }
  std::uint64_t offheap_fetches() const noexcept { return offheap_fetches_; }

 private:
  struct CacheKey {
    RddId rdd;
    std::uint64_t partition;
    bool operator==(const CacheKey&) const = default;
  };
  struct CacheKeyHash {
    std::size_t operator()(const CacheKey& k) const noexcept {
      return std::hash<std::uint64_t>()(
          (static_cast<std::uint64_t>(k.rdd) << 40) ^ k.partition);
    }
  };
  struct OffHeapRef {
    std::uint64_t chunks = 0;
    std::uint64_t bytes = 0;
  };

  void charge(SimTime cost);
  static std::vector<std::byte> serialize(const std::vector<Record>& records);
  static std::vector<Record> deserialize(std::span<const std::byte> bytes);
  mem::EntryId chunk_entry(const CacheKey& key, std::uint64_t chunk) const;

  // Installs `records` in the heap cache, evicting LRU partitions; on
  // overflow defers to the policy. Never fails the caller: worst case the
  // partition simply is not cached.
  void cache_store(const CacheKey& key, const std::vector<Record>& records);
  void overflow_store(const CacheKey& key, const std::vector<Record>& records);
  std::optional<std::vector<Record>> cache_load(const CacheKey& key);

  core::Ldmc& client_;
  Config config_;
  std::unordered_map<CacheKey, std::vector<Record>, CacheKeyHash> heap_;
  std::unordered_map<CacheKey, OffHeapRef, CacheKeyHash> offheap_;
  LruTracker<std::uint64_t> lru_;  // packed CacheKey
  std::unordered_set<std::uint64_t> computed_before_;
  std::uint64_t heap_used_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t recomputes_ = 0;
  std::uint64_t offheap_fetches_ = 0;
};

}  // namespace dm::rdd
