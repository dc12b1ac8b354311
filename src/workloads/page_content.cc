#include "workloads/page_content.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/rng.h"

namespace dm::workloads {

// A motif run copies the motif word's bytes in memory order, which must be
// its little-endian bytes, lowest first.
static_assert(std::endian::native == std::endian::little,
              "fill_page's motif copies assume a little-endian host");

void fill_page(std::span<std::byte> out, std::uint64_t page_id,
               double random_fraction, std::uint64_t seed) {
  Rng rng(mix64(seed ^ (page_id * 0x9e3779b97f4a7c15ULL)));
  constexpr std::size_t kRun = 64;
  // A per-page structured motif: repeating 8-byte stride, as columnar
  // numeric data would look.
  const std::uint64_t motif = rng.next_u64();
  std::size_t pos = 0;
  while (pos < out.size()) {
    const std::size_t run = std::min(kRun, out.size() - pos);
    std::byte* const p = out.data() + pos;
    if (rng.next_double() < random_fraction) {
      for (std::size_t i = 0; i < run; ++i)
        p[i] = static_cast<std::byte>(rng.next_u64() & 0xff);
    } else {
      // The motif restarts at every run: whole words, then its first bytes.
      std::size_t i = 0;
      for (; i + 8 <= run; i += 8) std::memcpy(p + i, &motif, 8);
      std::memcpy(p + i, &motif, run - i);
    }
    pos += run;
  }
}

}  // namespace dm::workloads
