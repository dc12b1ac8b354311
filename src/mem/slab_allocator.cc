#include "mem/slab_allocator.h"

#include <algorithm>
#include <cassert>
#include <iterator>

#include "common/status.h"

namespace dm::mem {
namespace {

// First extent at or past `start` in an address-ordered extent list.
template <typename Extents>
auto at_or_after(Extents& extents, std::uint32_t start) {
  return std::lower_bound(
      extents.begin(), extents.end(), start,
      [](const auto& e, std::uint32_t at) { return e.offset < at; });
}

}  // namespace

SlabAllocator::SlabAllocator(std::span<std::byte> arena)
    : SlabAllocator(arena, Config{}) {}

SlabAllocator::SlabAllocator(std::span<std::byte> arena, Config config)
    : config_(config) {
  assert(config_.slab_bytes % kGranuleBytes == 0);
  const std::size_t slab_count = arena.size() / config_.slab_bytes;
  slabs_.resize(slab_count);
  fit_.assign(slab_count, 0);
  free_slabs_.reserve(slab_count);
  // LIFO free list: reuse warm slabs first.
  for (std::size_t i = slab_count; i-- > 0;) free_slabs_.push_back(i);
}

void SlabAllocator::refresh(std::size_t slab) {
  const Slab& s = slabs_[slab];
  std::uint32_t largest = 0;
  if (s.open && !s.fenced)
    for (const Extent& e : s.free) largest = std::max(largest, e.bytes);
  fit_[slab] = largest;
}

StatusOr<std::uint64_t> SlabAllocator::allocate(std::size_t size) {
  if (size > config_.slab_bytes)
    return InvalidArgumentError("size exceeds one slab");
  const auto bytes = static_cast<std::uint32_t>(block_bytes_for(size));

  auto it = std::find_if(fit_.begin(), fit_.end(),
                         [bytes](std::uint32_t fit) { return fit >= bytes; });
  std::size_t index;
  if (it != fit_.end()) {
    index = static_cast<std::size_t>(it - fit_.begin());
  } else {
    if (free_slabs_.empty())
      return ResourceExhaustedError("arena out of slabs");
    index = free_slabs_.back();
    free_slabs_.pop_back();
    Slab& fresh = slabs_[index];
    fresh.open = true;
    fresh.free.assign(1, {0, static_cast<std::uint32_t>(config_.slab_bytes)});
    ++open_slabs_;
  }

  Slab& slab = slabs_[index];
  auto extent = std::find_if(slab.free.begin(), slab.free.end(),
                             [bytes](const Extent& e) {
                               return e.bytes >= bytes;
                             });
  assert(extent != slab.free.end());
  const std::uint32_t start = extent->offset;
  extent->offset += bytes;
  extent->bytes -= bytes;
  if (extent->bytes == 0) slab.free.erase(extent);
  refresh(index);
  slab.blocks.insert(at_or_after(slab.blocks, start), Extent{start, bytes});
  ++live_blocks_;
  used_bytes_ += bytes;
  return static_cast<std::uint64_t>(index) * config_.slab_bytes + start;
}

Status SlabAllocator::free(std::uint64_t offset) {
  const std::size_t index = offset / config_.slab_bytes;
  const auto start = static_cast<std::uint32_t>(offset % config_.slab_bytes);
  if (index >= slabs_.size())
    return InvalidArgumentError("free of unallocated offset");
  Slab& slab = slabs_[index];
  auto block = at_or_after(slab.blocks, start);
  if (block == slab.blocks.end() || block->offset != start)
    return InvalidArgumentError("free of unallocated offset");
  const std::uint32_t bytes = block->bytes;
  slab.blocks.erase(block);

  // Return the bytes as a free extent, merged with its free neighbours.
  auto extent = slab.free.insert(at_or_after(slab.free, start),
                                 Extent{start, bytes});
  if (auto next = std::next(extent);
      next != slab.free.end() && start + bytes == next->offset) {
    extent->bytes += next->bytes;
    slab.free.erase(next);
  }
  if (extent != slab.free.begin()) {
    auto prev = std::prev(extent);
    if (prev->offset + prev->bytes == start) {
      prev->bytes += extent->bytes;
      slab.free.erase(extent);
    }
  }
  refresh(index);
  --live_blocks_;
  used_bytes_ -= bytes;
  return Status::Ok();
}

StatusOr<std::size_t> SlabAllocator::block_size(std::uint64_t offset) const {
  const std::size_t index = offset / config_.slab_bytes;
  const auto start = static_cast<std::uint32_t>(offset % config_.slab_bytes);
  if (index < slabs_.size()) {
    auto block = at_or_after(slabs_[index].blocks, start);
    if (block != slabs_[index].blocks.end() && block->offset == start)
      return static_cast<std::size_t>(block->bytes);
  }
  return InvalidArgumentError("offset not allocated");
}

std::vector<SlabAllocator::Block> SlabAllocator::blocks_in_slab(
    std::size_t slab) const {
  std::vector<Block> out;
  const std::uint64_t base =
      static_cast<std::uint64_t>(slab) * config_.slab_bytes;
  for (const Extent& block : slabs_[slab].blocks)
    out.push_back(Block{base + block.offset, block.bytes});
  return out;
}

Status SlabAllocator::close_slab(std::size_t slab) {
  Slab& s = slabs_[slab];
  if (!s.open) return FailedPreconditionError("slab not open");
  if (!s.blocks.empty())
    return FailedPreconditionError("slab has live blocks");
  s = Slab{};
  refresh(slab);
  free_slabs_.push_back(slab);
  --open_slabs_;
  return Status::Ok();
}

void SlabAllocator::set_fenced(std::size_t slab, bool fenced) {
  if (!slabs_[slab].open) return;
  slabs_[slab].fenced = fenced;
  refresh(slab);
}

std::uint64_t SlabAllocator::slack_bytes() const noexcept {
  std::uint64_t bound = 0;
  for (const Slab& slab : slabs_)
    if (!slab.blocks.empty()) bound += config_.slab_bytes;
  return bound - used_bytes_;
}

}  // namespace dm::mem
