#include "common/zero_arena.h"

#include <sys/mman.h>

#include <new>
#include <utility>

namespace dm {

ZeroArena::ZeroArena(std::size_t bytes) {
  if (bytes == 0) return;
  void* mapped = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mapped == MAP_FAILED) throw std::bad_alloc();
  data_ = static_cast<std::byte*>(mapped);
  size_ = bytes;
}

ZeroArena::~ZeroArena() { unmap(); }

ZeroArena::ZeroArena(ZeroArena&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

ZeroArena& ZeroArena::operator=(ZeroArena&& other) noexcept {
  if (this != &other) {
    unmap();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

void ZeroArena::unmap() noexcept {
  if (data_ != nullptr) munmap(data_, size_);
}

}  // namespace dm
