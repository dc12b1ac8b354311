// Demand-zero byte arena for the stores sized by configured capacity.
//
// The shared pool, the receive and send-staging pools, the block devices
// and the CXL home region each reserve their full configured capacity up
// front but hold only the bytes a run writes into them. A ZeroArena backs
// such a store with an anonymous private mapping: the kernel commits a page
// on its first write, and untouched bytes read as zero, as in a zero-filled
// buffer, though construction writes (and so makes resident) nothing. Host
// memory then follows the bytes stored, not the capacity configured.
//
// Why mmap and not calloc: glibc skips calloc's memset only for chunks it
// maps itself, and its mmap threshold climbs at run time (up to 32 MiB), so
// whether a calloc'd arena costs its full size up front would depend on
// what the process freed earlier.
//
// Bytes are never handed back to the kernel on free: peak resident memory
// is what gets measured, and a freed block keeps its old contents.
//
// Move-only. A move keeps data() and leaves the source empty, so spans into
// the arena (slab regions registered with the fabric) stay valid.
#pragma once

#include <cstddef>

namespace dm {

class ZeroArena {
 public:
  // Maps `bytes` zero bytes; throws std::bad_alloc when the mapping fails.
  explicit ZeroArena(std::size_t bytes);
  ~ZeroArena();

  ZeroArena(ZeroArena&& other) noexcept;
  ZeroArena& operator=(ZeroArena&& other) noexcept;
  ZeroArena(const ZeroArena&) = delete;
  ZeroArena& operator=(const ZeroArena&) = delete;

  std::byte* data() noexcept { return data_; }
  const std::byte* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }

  // A contiguous range, so std::span(arena) views every byte.
  std::byte* begin() noexcept { return data_; }
  std::byte* end() noexcept { return data_ + size_; }
  const std::byte* begin() const noexcept { return data_; }
  const std::byte* end() const noexcept { return data_ + size_; }

 private:
  void unmap() noexcept;

  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace dm
