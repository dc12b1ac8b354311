// Exact-fit slab allocator over a caller-provided arena.
//
// The disaggregated memory pools store whole compressed batches and stripe
// shards, whose lengths are exact byte counts that fit no fixed set of size
// classes. The arena is carved into fixed-size slabs, and a block is any
// run of 64 B granules inside one slab, so one slab holds blocks of every
// size up to `slab_bytes` at once. An open slab keeps its free space as
// address-ordered extents; a freed block merges with its free neighbours.
//
// Allocation first-fits the open slabs, lowest id first, and opens a fresh
// slab (the most recently closed first) only when none of them has room.
// A slab stays open until its owner closes it empty, which is how the
// receive pool ties a slab's life to its fabric registration. A fenced slab
// takes no new blocks (it is being drained).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"

namespace dm::mem {

class SlabAllocator {
 public:
  struct Config {
    std::size_t slab_bytes = 64 * 1024;  // a multiple of kGranuleBytes
  };

  struct Block {
    std::uint64_t offset = 0;  // arena offset
    std::size_t bytes = 0;
  };

  static constexpr std::size_t kGranuleBytes = 64;

  // The bytes a request of `size` occupies: rounded up to whole granules,
  // at least one.
  static constexpr std::size_t block_bytes_for(std::size_t size) noexcept {
    const std::size_t granules =
        size == 0 ? 1 : (size + kGranuleBytes - 1) / kGranuleBytes;
    return granules * kGranuleBytes;
  }

  // Hands out offsets into `arena` and never touches its bytes. The arena's
  // size is rounded down to a whole number of slabs.
  explicit SlabAllocator(std::span<std::byte> arena);
  SlabAllocator(std::span<std::byte> arena, Config config);

  // Allocates block_bytes_for(size) bytes inside one slab. Returns the
  // arena offset of the block.
  StatusOr<std::uint64_t> allocate(std::size_t size);

  // Frees a block previously returned by allocate().
  Status free(std::uint64_t offset);

  // The usable bytes of the block at `offset`.
  StatusOr<std::size_t> block_size(std::uint64_t offset) const;

  // Live blocks of `slab`, ascending offset.
  std::vector<Block> blocks_in_slab(std::size_t slab) const;
  std::size_t live_blocks_in(std::size_t slab) const {
    return slabs_[slab].blocks.size();
  }
  // Returns an open slab with no live blocks to the fresh-slab list.
  Status close_slab(std::size_t slab);
  // While fenced, an open slab takes no new blocks. Closing lifts it.
  void set_fenced(std::size_t slab, bool fenced);

  std::size_t slab_count() const noexcept { return slabs_.size(); }
  std::size_t open_slabs() const noexcept { return open_slabs_; }
  std::uint64_t used_bytes() const noexcept { return used_bytes_; }
  std::uint64_t capacity_bytes() const noexcept {
    return static_cast<std::uint64_t>(slabs_.size()) * config_.slab_bytes;
  }
  std::size_t live_blocks() const noexcept { return live_blocks_; }
  // Bytes of slabs holding live blocks beyond those blocks (free space
  // stranded inside partly used slabs).
  std::uint64_t slack_bytes() const noexcept;

 private:
  struct Extent {
    std::uint32_t offset;  // within the slab
    std::uint32_t bytes;
  };
  struct Slab {
    bool open = false;
    bool fenced = false;
    std::vector<Extent> free;    // address-ordered, never adjacent
    std::vector<Extent> blocks;  // live blocks, address-ordered
  };

  // Recomputes `fit_[slab]` after its extents, open or fence state change.
  void refresh(std::size_t slab);

  Config config_;
  std::vector<Slab> slabs_;
  // Per slab: the largest block it can take now (0 if closed or fenced).
  // Contiguous so the first-fit scan touches one small array.
  std::vector<std::uint32_t> fit_;
  std::vector<std::size_t> free_slabs_;  // closed slabs, LIFO
  std::size_t open_slabs_ = 0;
  std::size_t live_blocks_ = 0;
  std::uint64_t used_bytes_ = 0;
};

}  // namespace dm::mem
