// Node-coordinated shared memory pool (paper §III, §IV.F).
//
// Every virtual server hosted on a node donates a configurable fraction of
// its allocated memory (10% initially; the node manager may proactively grow
// a server's donation to 40% or shrink it to zero). The pool is the sum of
// live donations, carved out of one arena owned by the node, and accessed at
// DRAM speed — this is the paper's key node-level disaggregation argument.
//
// The pool stores *entries* (swapped-out pages, cached partitions) keyed by
// a 64-bit id. Entries carry their stored (possibly compressed) bytes in
// blocks from a slab allocator. Capacity enforcement is logical: used bytes
// never exceed total donated bytes even if the arena is larger.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/lru.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/zero_arena.h"
#include "mem/slab_allocator.h"

namespace dm::mem {

using EntryId = std::uint64_t;
using ServerId = std::uint32_t;

class SharedMemoryPool {
 public:
  struct Config {
    std::uint64_t arena_bytes = 64 * 1024 * 1024;
  };

  SharedMemoryPool();
  explicit SharedMemoryPool(Config config);

  // --- donation ledger ------------------------------------------------------
  // Sets the server's donation to `bytes` (absolute). Shrinking below the
  // server's currently stored bytes fails with kFailedPrecondition until
  // entries are evicted.
  Status set_donation(ServerId server, std::uint64_t bytes);
  std::uint64_t donation_of(ServerId server) const;
  std::uint64_t total_donated() const noexcept { return total_donated_; }
  std::uint64_t used_bytes() const noexcept { return allocator_.used_bytes(); }
  std::uint64_t free_bytes() const noexcept {
    const std::uint64_t cap =
        std::min(total_donated_, allocator_.capacity_bytes());
    return cap > used_bytes() ? cap - used_bytes() : 0;
  }

  // --- entry store ----------------------------------------------------------
  // Stores `data` under (owner, id). Fails with kResourceExhausted when the
  // donated capacity or the arena is full — the caller then goes remote.
  Status put(ServerId owner, EntryId id, std::span<const std::byte> data);
  // Copies the stored bytes into `out` (sized by stored_size()).
  Status get(ServerId owner, EntryId id, std::span<std::byte> out) const;
  // Copies `out.size()` stored bytes starting at `offset` (sub-entry read,
  // used by the swap layer's non-PBS path to pull one page from a batch).
  Status get_range(ServerId owner, EntryId id, std::uint64_t offset,
                   std::span<std::byte> out) const;
  // Like get(), but does NOT refresh recency — for maintenance reads
  // (spill/migration) that must not promote the entry they are evicting.
  Status peek(ServerId owner, EntryId id, std::span<std::byte> out) const;
  StatusOr<std::size_t> stored_size(ServerId owner, EntryId id) const;
  bool contains(ServerId owner, EntryId id) const;
  Status remove(ServerId owner, EntryId id);

  // Least-recently-used entry across the pool (victim for spill-to-remote).
  std::optional<std::pair<ServerId, EntryId>> lru_entry() const;
  // Removes the LRU entry and returns its bytes (for migration down-tier).
  StatusOr<std::vector<std::byte>> evict_lru(ServerId* owner_out,
                                             EntryId* id_out);

  std::size_t entry_count() const noexcept { return entries_.size(); }
  MetricsRegistry& metrics() noexcept { return metrics_; }

 private:
  struct Entry {
    std::uint64_t offset;
    std::uint32_t size;  // stored bytes (the block rounds them up to 64 B)
  };
  using Key = std::pair<ServerId, EntryId>;
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept {
      return mix64(key.second ^ mix64(key.first));
    }
  };

  ZeroArena arena_;
  SlabAllocator allocator_;
  std::unordered_map<ServerId, std::uint64_t> donations_;
  std::uint64_t total_donated_ = 0;
  std::unordered_map<ServerId, std::uint64_t> stored_per_server_;
  std::unordered_map<Key, Entry, KeyHash> entries_;
  // get() refreshes recency and counters on a logically-const read path.
  mutable LruTracker<Key, KeyHash> lru_;
  mutable MetricsRegistry metrics_;
};

}  // namespace dm::mem
