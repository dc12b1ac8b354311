// The RDMA receive buffer pool (paper §IV.B, §IV.F).
//
// RegisteredBufferPool is the cluster-level *receive* pool each node carves
// from memory it reserved for RDMA at bring-up: slabs of donated DRAM,
// individually registered with the fabric so remote peers can one-sided
// WRITE/READ blocks inside them. Blocks come from the same exact-fit
// SlabAllocator as the shared pool (64 B granules, any size up to one
// slab); a slab is registered when the allocator opens it and stays
// registered until it is drained. Registration is per-slab because the
// eviction handler deregisters whole slabs preemptively when local
// pressure rises (§IV.F policy 1); the owner then migrates the evicted
// blocks' entries elsewhere. A slab under drain is fenced: it takes no
// new blocks, so the drain ends once the notified owners have moved.
//
// The paper's *send* buffer is the swap layer's write-back staging buffer
// (swap::SwapManager), where the window-based batcher assembles a batch
// before one put carries it (§IV.H).
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

}  // namespace dm::mem
