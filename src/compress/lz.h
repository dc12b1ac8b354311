// LZSS-style compressor used for page compression.
//
// This is a real, round-trip-correct implementation (not a model): FastSwap's
// compression benefit in the paper comes from actual page contents being
// compressible, so the reproduction compresses actual page bytes. Format:
// groups of 8 items preceded by a control byte; each item is either a
// literal byte or a (offset:11, length:5) match of 3..34 bytes within a
// 2 KiB window — a good fit for 4 KiB pages. A page compresses in 2-8 µs
// and decompresses in 0.7-1.5 µs (perfbench's compress.host_ns_per_page
// and compress.host_ns_per_decompress on ml_scan and kv_zipf_ec, 2.0 GHz
// Xeon VM). Stored sizes drive virtual time, so the
// bytes each call returns are pinned (LzTest.CompressedBytesMatchGolden).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"

namespace dm::compress {

inline constexpr std::size_t kLzWindow = 2048;
inline constexpr std::size_t kMinMatch = 3;
inline constexpr std::size_t kMaxMatch = 34;

// Compresses `input`; output is self-delimiting given the original size.
std::vector<std::byte> lz_compress(std::span<const std::byte> input);

// Decompresses into `output`, which must be exactly the original size.
Status lz_decompress(std::span<const std::byte> input,
                     std::span<std::byte> output);

// Upper bound on compressed size for worst-case (incompressible) input.
constexpr std::size_t lz_max_compressed_size(std::size_t input_size) {
  return input_size + (input_size + 7) / 8 + 8;
}

}  // namespace dm::compress
