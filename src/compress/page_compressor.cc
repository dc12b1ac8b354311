#include "compress/page_compressor.h"

#include <array>
#include <cassert>
#include <cstring>

#include "common/status.h"

namespace dm::compress {
namespace {

constexpr std::array<std::size_t, 2> kTwoBuckets{2048, 4096};
constexpr std::array<std::size_t, 4> kFourBuckets{512, 1024, 2048, 4096};

}  // namespace

std::span<const std::size_t> buckets_for(GranularityMode mode) noexcept {
  switch (mode) {
    case GranularityMode::kTwo: return kTwoBuckets;
    case GranularityMode::kFour: return kFourBuckets;
  }
  return kFourBuckets;
}

CompressedPage PageCompressor::compress(std::span<const std::byte> page) const {
  assert(page.size() == kPageSize);
  CompressedPage result;
  result.data = lz_compress(page);

  const auto buckets = buckets_for(mode_);
  for (std::size_t bucket : buckets) {
    if (bucket == kPageSize) break;  // the raw fallback, handled below
    if (result.data.size() <= bucket) {
      result.bucket = bucket;
      result.is_raw = false;
      return result;
    }
  }
  // Did not fit any sub-page bucket: store the raw page.
  result.data.assign(page.begin(), page.end());
  result.bucket = kPageSize;
  result.is_raw = true;
  return result;
}

Status PageCompressor::decompress(const CompressedPage& compressed,
                                  std::span<std::byte> out) const {
  return decode_page(compressed.data, !compressed.is_raw, out);
}

Status decode_page(std::span<const std::byte> stored, bool lz,
                   std::span<std::byte> out) {
  if (out.size() != kPageSize)
    return InvalidArgumentError("output must be one page");
  if (lz) return lz_decompress(stored, out);
  if (stored.size() != kPageSize)
    return DataLossError("raw page has wrong size");
  std::memcpy(out.data(), stored.data(), kPageSize);
  return Status::Ok();
}

std::size_t zswap_zbud_footprint(std::size_t compressed_size) noexcept {
  // zbud pairs two buddies per frame when each fits half a frame.
  if (compressed_size <= kPageSize / 2) return kPageSize / 2;
  return kPageSize;
}

}  // namespace dm::compress
