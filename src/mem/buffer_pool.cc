#include "mem/buffer_pool.h"

#include "common/status.h"
#include "mem/slab_allocator.h"
#include "net/fabric.h"

namespace dm::mem {

RegisteredBufferPool::RegisteredBufferPool(net::Fabric& fabric,
                                           net::NodeId owner)
    : RegisteredBufferPool(fabric, owner, Config{}) {}

RegisteredBufferPool::RegisteredBufferPool(net::Fabric& fabric,
                                           net::NodeId owner, Config config)
    : fabric_(fabric), owner_(owner), config_(config),
      arena_(config_.arena_bytes),
      allocator_(arena_, {.slab_bytes = config_.slab_bytes}),
      rkeys_(allocator_.slab_count(), net::kInvalidRKey) {}

RegisteredBufferPool::~RegisteredBufferPool() {
  for (const net::RKey rkey : rkeys_) {
    if (rkey != net::kInvalidRKey)
      (void)fabric_.deregister_memory(owner_, rkey);
  }
}

StatusOr<BlockRef> RegisteredBufferPool::allocate(std::uint32_t size) {
  auto offset = allocator_.allocate(size);
  if (!offset.ok()) return offset.status();
  const auto slab_id = static_cast<SlabId>(*offset / config_.slab_bytes);
  if (rkeys_[slab_id] == net::kInvalidRKey) {
    // The allocator opened a fresh slab: register it before first use.
    auto region = std::span(arena_).subspan(
        static_cast<std::uint64_t>(slab_id) * config_.slab_bytes,
        config_.slab_bytes);
    auto rkey = fabric_.register_memory(owner_, region);
    if (!rkey.ok()) {
      (void)allocator_.free(*offset);
      (void)allocator_.close_slab(slab_id);
      return rkey.status();
    }
    rkeys_[slab_id] = *rkey;
    ++metrics_.counter("rbuf.slabs_registered");
  }
  ++metrics_.counter("rbuf.allocs");
  return BlockRef{slab_id, rkeys_[slab_id], *offset % config_.slab_bytes,
                  static_cast<std::uint32_t>(
                      SlabAllocator::block_bytes_for(size))};
}

Status RegisteredBufferPool::free(const BlockRef& ref) {
  if (ref.slab >= rkeys_.size()) return InvalidArgumentError("bad slab id");
  if (rkeys_[ref.slab] != ref.rkey)
    return InvalidArgumentError("block's slab is not active");
  DM_RETURN_IF_ERROR(allocator_.free(
      static_cast<std::uint64_t>(ref.slab) * config_.slab_bytes + ref.offset));
  ++metrics_.counter("rbuf.frees");
  return Status::Ok();
}

std::span<std::byte> RegisteredBufferPool::block_bytes(const BlockRef& ref) {
  const std::uint64_t base =
      static_cast<std::uint64_t>(ref.slab) * config_.slab_bytes;
  return std::span(arena_).subspan(base + ref.offset, ref.size);
}

std::vector<BlockRef> RegisteredBufferPool::blocks_in_slab(SlabId id) const {
  std::vector<BlockRef> out;
  if (id >= rkeys_.size()) return out;
  for (const auto& block : allocator_.blocks_in_slab(id))
    out.push_back(BlockRef{id, rkeys_[id], block.offset % config_.slab_bytes,
                           static_cast<std::uint32_t>(block.bytes)});
  return out;
}

void RegisteredBufferPool::fence_slab(SlabId id, bool fenced) {
  if (id < rkeys_.size()) allocator_.set_fenced(id, fenced);
}

Status RegisteredBufferPool::deregister_slab(SlabId id) {
  if (id >= rkeys_.size()) return InvalidArgumentError("bad slab id");
  // Fails unless the slab is open, so registered, and holds no live block.
  DM_RETURN_IF_ERROR(allocator_.close_slab(id));
  DM_RETURN_IF_ERROR(fabric_.deregister_memory(owner_, rkeys_[id]));
  rkeys_[id] = net::kInvalidRKey;
  ++metrics_.counter("rbuf.slabs_deregistered");
  return Status::Ok();
}

std::optional<SlabId> RegisteredBufferPool::least_loaded_slab() const {
  std::optional<SlabId> best;
  std::size_t best_live = ~std::size_t{0};
  for (SlabId i = 0; i < rkeys_.size(); ++i) {
    if (rkeys_[i] == net::kInvalidRKey) continue;
    if (allocator_.live_blocks_in(i) < best_live) {
      best_live = allocator_.live_blocks_in(i);
      best = i;
    }
  }
  return best;
}

}  // namespace dm::mem
