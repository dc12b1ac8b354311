// Checksums over byte spans.
//
// Tests use checksums to verify end-to-end integrity of pages that travel
// shared-memory -> remote -> disk and back (no silent corruption in any
// copy/compress/replicate path).
//
//  * fnv1a — FNV-1a 64-bit, byte at a time. Stable across hosts, so it
//    feeds KV entry ids (and through them placement) and every golden
//    hash the tests pin.
//  * word_checksum — the data-path checksum (entry checksums on put and
//    verified get, per-shard stripe checksums). Eight bytes per step
//    across four independent lanes, several times faster than fnv1a on a
//    32 KiB batch. Every step maps the running lane state through a
//    bijection of the word it absorbs, so changing any one 8-byte word —
//    in particular any single byte — always changes the result.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

namespace dm {

constexpr std::uint64_t fnv1a(std::span<const std::byte> data) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::byte b : data) {
    hash ^= static_cast<std::uint64_t>(b);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

inline std::uint64_t word_checksum(std::span<const std::byte> data) noexcept {
  // x -> (x * odd) and x -> x ^ (x >> 32) are both bijections on 64 bits.
  constexpr std::uint64_t kOdd = 0x9e3779b97f4a7c15ULL;
  auto mix = [](std::uint64_t x) {
    x *= kOdd;
    return x ^ (x >> 32);
  };
  auto load = [](const std::byte* p) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    return word;
  };
  std::uint64_t lanes[4] = {0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL,
                            0xa4093822299f31d0ULL, 0x082efa98ec4e6c89ULL};
  const std::byte* p = data.data();
  std::size_t left = data.size();
  for (; left >= 32; p += 32, left -= 32)
    for (int lane = 0; lane < 4; ++lane)
      lanes[lane] = mix(lanes[lane] ^ load(p + 8 * lane));
  std::uint64_t hash = mix(data.size());
  for (std::uint64_t lane : lanes) hash = mix(hash ^ lane);
  for (; left >= 8; p += 8, left -= 8) hash = mix(hash ^ load(p));
  if (left > 0) {
    std::uint64_t tail = 0;  // zero-padded; the length is already mixed in
    std::memcpy(&tail, p, left);
    hash = mix(hash ^ tail);
  }
  return hash;
}

}  // namespace dm
