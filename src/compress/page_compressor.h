// Multi-granularity page compression (FastSwap §IV.H) and the Zswap
// baseline's zbud-style packing model.
//
// FastSwap stores each compressed 4 KiB page in the smallest bucket from a
// fixed granularity set that fits it. The paper evaluates two sets:
//   2-granularity: {2 KiB, 4 KiB}
//   4-granularity: {512 B, 1 KiB, 2 KiB, 4 KiB}
// A page whose compressed form does not fit the largest sub-page bucket is
// stored raw (4 KiB, ratio 1.0). The *effective* compression ratio is
// page_size / bucket_size — slack inside the bucket is wasted, which is
// exactly why more granularities help (Fig 3).
//
// Zswap (the paper's compression baseline) compresses into a zbud pool that
// packs at most two compressed pages per 4 KiB frame, capping its effective
// ratio at 2.0 regardless of how compressible the data is.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "compress/lz.h"

namespace dm::compress {

inline constexpr std::size_t kPageSize = 4096;

enum class GranularityMode {
  kTwo,   // {2K, 4K}
  kFour,  // {512, 1K, 2K, 4K}
};

// Bucket sizes for a mode, ascending.
std::span<const std::size_t> buckets_for(GranularityMode mode) noexcept;

struct CompressedPage {
  std::vector<std::byte> data;     // stored bytes (LZ payload, or the raw
                                   // page itself when is_raw)
  std::size_t bucket = kPageSize;  // storage footprint charged
  bool is_raw = false;             // incompressible: stored as-is

  double ratio() const noexcept {
    return static_cast<double>(kPageSize) / static_cast<double>(bucket);
  }
};

class PageCompressor {
 public:
  explicit PageCompressor(GranularityMode mode = GranularityMode::kFour)
      : mode_(mode) {}

  GranularityMode mode() const noexcept { return mode_; }

  // Compresses a 4 KiB page into the smallest fitting bucket.
  CompressedPage compress(std::span<const std::byte> page) const;

  // Restores the original 4 KiB page into `out` (must be kPageSize).
  Status decompress(const CompressedPage& compressed,
                    std::span<std::byte> out) const;

 private:
  GranularityMode mode_;
};

// Restores a 4 KiB page into `out` (must be kPageSize) from its stored
// bytes: an LZ stream when `lz`, else the raw page itself. A caller that
// keeps pages as slices of a larger buffer decodes one without copying it
// out into a CompressedPage.
Status decode_page(std::span<const std::byte> stored, bool lz,
                   std::span<std::byte> out);

// Effective storage charged by Zswap's zbud pool for a page whose LZ size is
// `compressed_size`: half a frame when two such pages pair up, a full frame
// otherwise.
std::size_t zswap_zbud_footprint(std::size_t compressed_size) noexcept;

}  // namespace dm::compress
