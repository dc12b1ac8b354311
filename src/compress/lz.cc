#include "compress/lz.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "common/status.h"

namespace dm::compress {
namespace {

// The word loads read a stream's bytes in memory order into the low bytes
// first, which is the order the format packs keys and tokens in.
static_assert(std::endian::native == std::endian::little,
              "the LZ codec's word loads assume a little-endian host");

inline std::uint64_t load64(const std::byte* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store64(std::byte* p, std::uint64_t v) noexcept {
  std::memcpy(p, &v, sizeof v);
}

// The 3 bytes a match must start with, as the low bytes of a word.
constexpr std::uint32_t kKeyMask = 0xffffff;

// Hash of a 3-byte key, for the match-finder table.
inline std::uint32_t hash3(std::uint32_t key) noexcept {
  return (key * 2654435761u) >> 20;  // 12-bit table index
}

constexpr std::size_t kHashSize = 1u << 12;
using HashTable = std::array<std::uint32_t, kHashSize>;

// Records `pos` as the last position whose key hashes like `key`, and
// returns the offset back to the one recorded before it. An entry is
// kBias plus a position, so the zero fill stands for a position out of
// every window.
constexpr std::size_t kBias = kLzWindow + 1;

inline std::size_t swap_last(HashTable& table, std::uint32_t key,
                             std::size_t pos) noexcept {
  std::uint32_t& entry = table[hash3(key)];
  const std::size_t offset = pos + kBias - entry;
  entry = static_cast<std::uint32_t>(pos + kBias);
  return offset;
}

struct Match {
  std::size_t length = 0;  // 0: emit a literal
  std::size_t offset = 0;
};

// The match for `pos`, which has at least 8 input bytes from it on. The
// candidate is probed without a branch on its validity: out of the window
// the probe reads `pos` itself, whose key always matches, and the window
// test alone rejects it. The match then extends 8 bytes at a time.
inline Match find_match(const std::byte* in, std::size_t size,
                        std::size_t pos, HashTable& table) noexcept {
  const std::uint64_t word = load64(in + pos);
  const std::size_t offset =
      swap_last(table, static_cast<std::uint32_t>(word) & kKeyMask, pos);
  const std::size_t far = offset > kLzWindow;  // 1 out of the window
  const std::byte* const from = in + pos - (offset & (far - 1));
  std::uint64_t diff = load64(from) ^ word;
  if (((diff & kKeyMask) | far) != 0) return {};

  const std::byte* const cur = in + pos;
  const std::size_t limit = std::min(kMaxMatch, size - pos);
  std::size_t length = 0;
  while (diff == 0) {
    length += 8;
    if (length + 8 > limit) {
      while (length < limit && from[length] == cur[length]) ++length;
      return {length, offset};
    }
    diff = load64(from + length) ^ load64(cur + length);
  }
  return {length + static_cast<std::size_t>(std::countr_zero(diff)) / 8,
          offset};
}

// The same search a byte at a time, for the last 8 input bytes.
inline Match find_match_tail(const std::byte* in, std::size_t size,
                             std::size_t pos, HashTable& table) noexcept {
  if (pos + kMinMatch > size) return {};
  std::uint32_t key = 0;
  std::memcpy(&key, in + pos, kMinMatch);
  const std::size_t offset = swap_last(table, key, pos);
  if (offset > kLzWindow) return {};
  const std::size_t limit = size - pos;  // under 8, so under kMaxMatch
  std::size_t length = 0;
  while (length < limit && in[pos - offset + length] == in[pos + length])
    ++length;
  if (length < kMinMatch) return {};
  return {length, offset};
}

// Copies a match of `length` bytes from `offset` bytes back. From an
// offset of 8 on, each 8-byte chunk reads only bytes already final, and
// the last chunk ends where the match does, overlapping the one before.
// Nearer, a byte can repeat one this copy wrote, so it goes a byte at a
// time.
inline void copy_match(std::byte* dst, std::size_t offset,
                       std::size_t length) noexcept {
  const std::byte* const from = dst - offset;
  if (offset < 8 || length < 8) {
    for (std::size_t i = 0; i < length; ++i) dst[i] = from[i];
    return;
  }
  for (std::size_t i = 0; i + 8 < length; i += 8)
    store64(dst + i, load64(from + i));
  store64(dst + length - 8, load64(from + length - 8));
}

// The largest input whose stream is built on the stack: one 4 KiB page.
constexpr std::size_t kStackInput = 4096;

}  // namespace

std::vector<std::byte> lz_compress(std::span<const std::byte> input) {
  const std::byte* const in = input.data();
  const std::size_t size = input.size();
  // The stream is built in a buffer of the worst-case size, on the stack
  // for an input of up to one page, and returned as an exact-size copy: a
  // page costs one heap allocation, and a stream that is kept holds no
  // spare bytes.
  std::array<std::byte, lz_max_compressed_size(kStackInput)> page_buffer;
  std::vector<std::byte> large_buffer;
  if (size > kStackInput) large_buffer.resize(lz_max_compressed_size(size));
  std::byte* const begin =
      size > kStackInput ? large_buffer.data() : page_buffer.data();
  std::byte* out = begin;

  HashTable table{};
  std::size_t pos = 0;
  while (pos < size) {
    // One control byte covering up to 8 items.
    std::byte* const control_at = out++;
    unsigned control = 0;
    for (unsigned item = 0; item < 8 && pos < size; ++item) {
      const Match match = pos + 8 <= size
                              ? find_match(in, size, pos, table)
                              : find_match_tail(in, size, pos, table);
      if (match.length != 0) {
        control |= 1u << item;
        // offset-1 fits 11 bits (1..2048), length-3 fits 5 bits (3..34).
        const std::size_t packed =
            ((match.offset - 1) << 5) | (match.length - kMinMatch);
        out[0] = static_cast<std::byte>(packed & 0xff);
        out[1] = static_cast<std::byte>(packed >> 8);
        out += 2;
        pos += match.length;
      } else {
        *out++ = in[pos++];
      }
    }
    *control_at = static_cast<std::byte>(control);
  }
  return {begin, out};
}

Status lz_decompress(std::span<const std::byte> input,
                     std::span<std::byte> output) {
  const std::byte* const src = input.data();
  std::byte* const dst = output.data();
  std::size_t in = 0;
  std::size_t out = 0;
  while (out < output.size()) {
    if (in >= input.size()) return DataLossError("compressed stream truncated");
    const auto control = static_cast<std::uint8_t>(src[in++]);
    // Eight literals that both buffers hold whole: one 8-byte copy.
    if (control == 0 && in + 8 <= input.size() && out + 8 <= output.size()) {
      store64(dst + out, load64(src + in));
      in += 8;
      out += 8;
      continue;
    }
    for (unsigned item = 0; item < 8 && out < output.size(); ++item) {
      if (control & (1u << item)) {
        if (in + 2 > input.size())
          return DataLossError("truncated match token");
        const auto packed = static_cast<std::size_t>(src[in]) |
                            static_cast<std::size_t>(src[in + 1]) << 8;
        in += 2;
        const std::size_t offset = (packed >> 5) + 1;
        const std::size_t length = (packed & 0x1f) + kMinMatch;
        if (offset > out) return DataLossError("match offset before start");
        if (out + length > output.size())
          return DataLossError("match overruns output");
        copy_match(dst + out, offset, length);
        out += length;
      } else {
        if (in >= input.size()) return DataLossError("truncated literal");
        dst[out++] = src[in++];
      }
    }
  }
  return Status::Ok();
}

}  // namespace dm::compress
