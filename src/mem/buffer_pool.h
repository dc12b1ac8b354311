// RDMA buffer pools (paper §IV.B, §IV.F).
//
// Each node maintains two cluster-level pools carved from memory it reserved
// for RDMA at bring-up:
//
//  * RegisteredBufferPool — the *receive* pool: slabs of donated DRAM,
//    individually registered with the fabric so remote peers can one-sided
//    WRITE/READ blocks inside them. Registration is per-slab because the
//    eviction handler deregisters whole slabs preemptively when local
//    pressure rises (§IV.F policy 1); the owner then migrates the evicted
//    blocks' entries elsewhere.
//
//  * SendStagingPool — the *send* pool: a bump arena where outgoing entries
//    are staged and coalesced by the window-based batcher before a single
//    RDMA write covers the whole batch (§IV.H).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/zero_arena.h"
#include "net/fabric.h"

namespace dm::mem {

using SlabId = std::uint32_t;

// A block inside a registered slab, addressable by remote peers.
struct BlockRef {
  SlabId slab = 0;
  net::RKey rkey = net::kInvalidRKey;
  std::uint64_t offset = 0;  // offset within the slab's registered region
  std::uint32_t size = 0;    // size class of the block
};

class RegisteredBufferPool {
 public:
  struct Config {
    std::uint64_t arena_bytes = 64 * 1024 * 1024;
    std::uint64_t slab_bytes = 256 * 1024;
    std::vector<std::uint32_t> size_classes{512,  1024,  2048,  4096,
                                            8192, 16384, 32768, 65536};
  };

  RegisteredBufferPool(net::Fabric& fabric, net::NodeId owner);
  RegisteredBufferPool(net::Fabric& fabric, net::NodeId owner, Config config);
  ~RegisteredBufferPool();

  RegisteredBufferPool(const RegisteredBufferPool&) = delete;
  RegisteredBufferPool& operator=(const RegisteredBufferPool&) = delete;

  net::NodeId owner() const noexcept { return owner_; }

  // Allocates a block >= size, registering a fresh slab if needed.
  StatusOr<BlockRef> allocate(std::uint32_t size);
  Status free(const BlockRef& ref);

  // Local view of a block's bytes (the owner reads/writes directly).
  std::span<std::byte> block_bytes(const BlockRef& ref);

  // Blocks currently live in a slab (eviction planning).
  std::vector<BlockRef> blocks_in_slab(SlabId slab) const;
  std::size_t active_slabs() const noexcept;
  // Deregisters a slab from the fabric. Fails while blocks are live.
  Status deregister_slab(SlabId slab);
  // Slab with the fewest live blocks (cheapest to drain), if any active.
  std::optional<SlabId> least_loaded_slab() const;

  std::uint64_t used_bytes() const noexcept { return used_bytes_; }
  std::uint64_t registered_bytes() const noexcept { return registered_bytes_; }
  std::uint64_t capacity_bytes() const noexcept { return arena_.size(); }
  MetricsRegistry& metrics() noexcept { return metrics_; }

 private:
  struct Slab {
    int size_class = -1;            // -1 = unbound
    net::RKey rkey = net::kInvalidRKey;
    std::uint32_t live = 0;
    std::vector<std::uint32_t> free_blocks;
  };

  std::size_t class_for(std::uint32_t size) const;

  net::Fabric& fabric_;
  net::NodeId owner_;
  Config config_;
  ZeroArena arena_;
  std::vector<Slab> slabs_;
  std::vector<SlabId> free_slabs_;
  std::vector<std::vector<SlabId>> partials_;  // per size class
  std::uint64_t used_bytes_ = 0;
  std::uint64_t registered_bytes_ = 0;
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
