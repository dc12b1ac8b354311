// RDMA buffer pools (paper §IV.B, §IV.F).
//
// Each node maintains two cluster-level pools carved from memory it reserved
// for RDMA at bring-up:
//
//  * RegisteredBufferPool — the *receive* pool: slabs of donated DRAM,
//    individually registered with the fabric so remote peers can one-sided
//    WRITE/READ blocks inside them. Blocks come from the same exact-fit
//    SlabAllocator as the shared pool (64 B granules, any size up to one
//    slab); a slab is registered when the allocator opens it and stays
//    registered until it is drained. Registration is per-slab because the
//    eviction handler deregisters whole slabs preemptively when local
//    pressure rises (§IV.F policy 1); the owner then migrates the evicted
//    blocks' entries elsewhere. A slab under drain is fenced: it takes no
//    new blocks, so the drain ends once the notified owners have moved.
//
//  * SendStagingPool — the *send* pool: a bump arena where outgoing entries
//    are staged and coalesced by the window-based batcher before a single
//    RDMA write covers the whole batch (§IV.H).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/zero_arena.h"
#include "mem/slab_allocator.h"
#include "net/fabric.h"

namespace dm::mem {

using SlabId = std::uint32_t;

// A block inside a registered slab, addressable by remote peers.
struct BlockRef {
  SlabId slab = 0;
  net::RKey rkey = net::kInvalidRKey;
  std::uint64_t offset = 0;  // offset within the slab's registered region
  std::uint32_t size = 0;    // block bytes: the request rounded up to 64 B
};

class RegisteredBufferPool {
 public:
  struct Config {
    std::uint64_t arena_bytes = 64 * 1024 * 1024;
    std::uint64_t slab_bytes = 256 * 1024;
  };

  RegisteredBufferPool(net::Fabric& fabric, net::NodeId owner);
  RegisteredBufferPool(net::Fabric& fabric, net::NodeId owner, Config config);
  ~RegisteredBufferPool();

  RegisteredBufferPool(const RegisteredBufferPool&) = delete;
  RegisteredBufferPool& operator=(const RegisteredBufferPool&) = delete;

  net::NodeId owner() const noexcept { return owner_; }

  // Allocates a block of `size` bytes rounded up to 64 B (at most one slab),
  // registering a fresh slab when no registered one has room.
  StatusOr<BlockRef> allocate(std::uint32_t size);
  Status free(const BlockRef& ref);

  // Local view of a block's bytes (the owner reads/writes directly).
  std::span<std::byte> block_bytes(const BlockRef& ref);

  // Blocks currently live in a slab (eviction planning).
  std::vector<BlockRef> blocks_in_slab(SlabId slab) const;
  std::size_t active_slabs() const noexcept {
    return allocator_.open_slabs();
  }
  // While fenced, a registered slab takes no new blocks (it is draining).
  // Deregistering the slab lifts the fence.
  void fence_slab(SlabId slab, bool fenced);
  // Deregisters a slab from the fabric. Fails while blocks are live.
  Status deregister_slab(SlabId slab);
  // Slab with the fewest live blocks (cheapest to drain), if any active.
  std::optional<SlabId> least_loaded_slab() const;

  std::uint64_t used_bytes() const noexcept { return allocator_.used_bytes(); }
  std::uint64_t registered_bytes() const noexcept {
    return active_slabs() * config_.slab_bytes;
  }
  std::uint64_t capacity_bytes() const noexcept { return arena_.size(); }
  MetricsRegistry& metrics() noexcept { return metrics_; }

 private:
  net::Fabric& fabric_;
  net::NodeId owner_;
  Config config_;
  ZeroArena arena_;
  // A slab is open in the allocator exactly while it is registered.
  SlabAllocator allocator_;
  std::vector<net::RKey> rkeys_;  // per slab; kInvalidRKey when closed
  MetricsRegistry metrics_;
};

// Bump arena for batched sends; reset after each flush.
class SendStagingPool {
 public:
  explicit SendStagingPool(std::uint64_t bytes) : arena_(bytes) {}

  StatusOr<std::span<std::byte>> stage(std::size_t size) {
    if (cursor_ + size > arena_.size())
      return ResourceExhaustedError("send staging pool full");
    auto out = std::span(arena_).subspan(cursor_, size);
    cursor_ += size;
    return out;
  }

  std::span<const std::byte> staged() const {
    return std::span(arena_).first(cursor_);
  }
  std::uint64_t staged_bytes() const noexcept { return cursor_; }
  std::uint64_t capacity() const noexcept { return arena_.size(); }
  void reset() noexcept { cursor_ = 0; }

 private:
  ZeroArena arena_;
  std::uint64_t cursor_ = 0;
};

}  // namespace dm::mem
