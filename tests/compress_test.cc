// Tests for the LZ compressor and the multi-granularity page compressor,
// including property-style round-trip sweeps over content classes.
#include <gtest/gtest.h>

#include <cstring>
#include <string_view>
#include <tuple>

#include "common/checksum.h"
#include "common/rng.h"
#include "common/status.h"
#include "compress/lz.h"
#include "compress/page_compressor.h"
#include "workloads/app_catalog.h"
#include "workloads/page_content.h"

namespace dm::compress {
namespace {

// Appends `bytes` to `sink` behind their length as 8 little-endian bytes,
// so a digest of the sink pins each stream's size as well as its bytes.
void append_framed(std::vector<std::byte>& sink,
                   std::span<const std::byte> bytes) {
  const std::uint64_t size = bytes.size();
  for (int i = 0; i < 8; ++i)
    sink.push_back(static_cast<std::byte>(size >> (8 * i)));
  sink.insert(sink.end(), bytes.begin(), bytes.end());
}

// Appends one match item's token (offset 1..2048, length 3..34).
void push_match(std::vector<std::byte>& stream, std::size_t offset,
                std::size_t length) {
  const std::size_t packed = ((offset - 1) << 5) | (length - kMinMatch);
  stream.push_back(static_cast<std::byte>(packed & 0xff));
  stream.push_back(static_cast<std::byte>(packed >> 8));
}

// A control byte of all literals followed by eight literal bytes, `first`
// and the seven letters after it.
void push_literal_group(std::vector<std::byte>& stream, char first = 'A') {
  stream.push_back(std::byte{0});
  for (int i = 0; i < 8; ++i)
    stream.push_back(static_cast<std::byte>(first + i));
}

// What the tests fill an output buffer with, to see which bytes a decode
// wrote.
constexpr std::byte kUnwritten{0xee};

struct Decoded {
  Status status;
  std::vector<std::byte> out;
};

Decoded decode(std::span<const std::byte> stream, std::size_t out_size) {
  Decoded decoded{Status::Ok(), std::vector<std::byte>(out_size, kUnwritten)};
  decoded.status = lz_decompress(stream, decoded.out);
  return decoded;
}

// True when bytes [from, out.size()) are as `decode` left them.
bool unwritten_from(const std::vector<std::byte>& out, std::size_t from) {
  for (std::size_t i = from; i < out.size(); ++i)
    if (out[i] != kUnwritten) return false;
  return true;
}

TEST(LzTest, EmptyInput) {
  auto compressed = lz_compress({});
  EXPECT_TRUE(compressed.empty());
  EXPECT_TRUE(lz_decompress(compressed, {}).ok());
}

TEST(LzTest, AllZerosCompressesHard) {
  std::vector<std::byte> input(4096, std::byte{0});
  auto compressed = lz_compress(input);
  EXPECT_LT(compressed.size(), 600u);
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(lz_decompress(compressed, out).ok());
  EXPECT_EQ(out, input);
}

TEST(LzTest, RandomDataDoesNotExplode) {
  Rng rng(5);
  std::vector<std::byte> input(4096);
  for (auto& b : input) b = static_cast<std::byte>(rng.next_u64() & 0xff);
  auto compressed = lz_compress(input);
  EXPECT_LE(compressed.size(), lz_max_compressed_size(input.size()));
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(lz_decompress(compressed, out).ok());
  EXPECT_EQ(out, input);
}

TEST(LzTest, RepeatedTextCompresses) {
  std::string text;
  while (text.size() < 4096)
    text += "the quick brown fox jumps over the lazy dog. ";
  text.resize(4096);
  std::vector<std::byte> input(4096);
  std::memcpy(input.data(), text.data(), 4096);
  auto compressed = lz_compress(input);
  EXPECT_LT(compressed.size(), 2048u);
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(lz_decompress(compressed, out).ok());
  EXPECT_EQ(out, input);
}

TEST(LzTest, TruncatedStreamDetected) {
  std::vector<std::byte> input(4096, std::byte{0});
  auto compressed = lz_compress(input);
  compressed.resize(compressed.size() / 2);
  std::vector<std::byte> out(4096);
  EXPECT_EQ(lz_decompress(compressed, out).code(), StatusCode::kDataLoss);
}

TEST(LzTest, GarbageStreamDoesNotCrash) {
  Rng rng(77);
  std::vector<std::byte> out(4096);
  for (int round = 0; round < 64; ++round) {
    std::vector<std::byte> garbage(rng.next_below(1024));
    for (auto& b : garbage) b = static_cast<std::byte>(rng.next_u64() & 0xff);
    // Must either succeed (valid by chance) or fail cleanly — never UB.
    const Status s = lz_decompress(garbage, out);
    EXPECT_TRUE(s.ok() || s.code() == StatusCode::kDataLoss) << s;
  }
}

// ---- one case per DataLossError of lz_decompress ------------------------------
// Each stream fails once in its first group and once after a full group of
// eight literals, and no byte past the last complete item is written.

TEST(LzTest, StreamEndingBeforeAControlByteIsTruncated) {
  auto empty = decode({}, 1);
  EXPECT_EQ(empty.status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(empty.status.message(), "compressed stream truncated");
  EXPECT_TRUE(unwritten_from(empty.out, 0));

  std::vector<std::byte> stream;
  push_literal_group(stream);
  auto after_group = decode(stream, 9);
  EXPECT_EQ(after_group.status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(after_group.status.message(), "compressed stream truncated");
  EXPECT_EQ(after_group.out[7], std::byte{'H'});
  EXPECT_TRUE(unwritten_from(after_group.out, 8));
}

TEST(LzTest, MatchTokenCutShortIsTruncated) {
  const std::vector<std::byte> first{std::byte{0x01}};
  auto in_first = decode(first, 8);
  EXPECT_EQ(in_first.status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(in_first.status.message(), "truncated match token");
  EXPECT_TRUE(unwritten_from(in_first.out, 0));

  std::vector<std::byte> stream;
  push_literal_group(stream);
  stream.push_back(std::byte{0x01});
  stream.push_back(std::byte{0x00});
  auto after_group = decode(stream, 20);
  EXPECT_EQ(after_group.status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(after_group.status.message(), "truncated match token");
  EXPECT_TRUE(unwritten_from(after_group.out, 8));
}

TEST(LzTest, LiteralMissingFromTheStreamIsTruncated) {
  const std::vector<std::byte> first{std::byte{0x00}};
  auto in_first = decode(first, 1);
  EXPECT_EQ(in_first.status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(in_first.status.message(), "truncated literal");
  EXPECT_TRUE(unwritten_from(in_first.out, 0));

  // An all-literal group holding seven of its eight literals: the first
  // seven are written, the eighth fails.
  std::vector<std::byte> stream;
  push_literal_group(stream);
  stream.pop_back();
  auto seven = decode(stream, 8);
  EXPECT_EQ(seven.status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(seven.status.message(), "truncated literal");
  EXPECT_EQ(seven.out[6], std::byte{'G'});
  EXPECT_TRUE(unwritten_from(seven.out, 7));
}

TEST(LzTest, MatchReachingBeforeTheStartIsRejected) {
  std::vector<std::byte> first{std::byte{0x01}};
  push_match(first, 1, 3);
  auto in_first = decode(first, 8);
  EXPECT_EQ(in_first.status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(in_first.status.message(), "match offset before start");
  EXPECT_TRUE(unwritten_from(in_first.out, 0));

  std::vector<std::byte> stream;
  push_literal_group(stream);
  stream.push_back(std::byte{0x01});
  push_match(stream, 9, 8);
  auto after_group = decode(stream, 30);
  EXPECT_EQ(after_group.status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(after_group.status.message(), "match offset before start");
  EXPECT_TRUE(unwritten_from(after_group.out, 8));
}

TEST(LzTest, MatchOverrunningTheOutputIsRejected) {
  std::vector<std::byte> first{std::byte{0x02}, std::byte{'a'}};
  push_match(first, 1, 3);
  auto in_first = decode(first, 3);
  EXPECT_EQ(in_first.status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(in_first.status.message(), "match overruns output");
  EXPECT_EQ(in_first.out[0], std::byte{'a'});
  EXPECT_TRUE(unwritten_from(in_first.out, 1));

  // A long match at an offset of 8 that ends one byte past the output.
  std::vector<std::byte> stream;
  push_literal_group(stream);
  stream.push_back(std::byte{0x01});
  push_match(stream, 8, kMaxMatch);
  auto after_group = decode(stream, 8 + kMaxMatch - 1);
  EXPECT_EQ(after_group.status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(after_group.status.message(), "match overruns output");
  EXPECT_TRUE(unwritten_from(after_group.out, 8));
}

// Streams whose last item ends 0..8 bytes before the end of the input
// (trailing bytes the decoder never needs) or of the output (the stream
// runs out first): every load and copy runs right up to both ends.
TEST(LzTest, StreamsEndingNearEitherBufferEndDecodeExactly) {
  Rng rng(31);
  std::vector<std::size_t> sizes;
  for (std::size_t size = 1; size <= 48; ++size) sizes.push_back(size);
  for (std::size_t size = 4088; size <= 4104; ++size) sizes.push_back(size);
  for (std::size_t size : sizes) {
    std::vector<std::byte> literals(size);
    for (auto& b : literals) b = static_cast<std::byte>(rng.next_u64() & 0xff);
    std::vector<std::byte> runs(size);
    workloads::fill_page(runs, size, 0.3, 5);
    std::vector<std::byte> zeros(size, std::byte{0});
    for (const auto* input : {&literals, &runs, &zeros}) {
      const auto stream = lz_compress(*input);
      for (std::size_t slack = 0; slack <= 8; ++slack) {
        auto padded = stream;
        padded.insert(padded.end(), slack, std::byte{0xff});
        std::vector<std::byte> out(size);
        ASSERT_TRUE(lz_decompress(padded, out).ok()) << size << "+" << slack;
        ASSERT_EQ(out, *input) << size << "+" << slack;

        auto longer = decode(stream, size + slack);
        ASSERT_TRUE(std::equal(input->begin(), input->end(),
                               longer.out.begin()))
            << size << "+" << slack;
        ASSERT_TRUE(unwritten_from(longer.out, size)) << size << "+" << slack;
        if (slack == 0) {
          ASSERT_TRUE(longer.status.ok());
          continue;
        }
        ASSERT_EQ(longer.status.code(), StatusCode::kDataLoss);
        const std::string_view message = longer.status.message();
        ASSERT_TRUE(message == "compressed stream truncated" ||
                    message == "truncated literal")
            << message;
      }
    }
  }
}

// Matches at offsets below their length copy bytes they have just written
// (RLE-style); every offset and length expands as a byte-at-a-time copy.
TEST(LzTest, SelfOverlappingMatchesExpandLikeAByteCopy) {
  for (std::size_t offset = 1; offset <= 16; ++offset) {
    for (std::size_t length = kMinMatch; length <= kMaxMatch; ++length) {
      // Sixteen distinct literals, the match, then one literal after it.
      std::vector<std::byte> stream;
      push_literal_group(stream, 'A');
      push_literal_group(stream, 'I');
      stream.push_back(std::byte{0x01});
      push_match(stream, offset, length);
      stream.push_back(std::byte{'z'});
      std::vector<std::byte> expect;
      for (int i = 0; i < 16; ++i)
        expect.push_back(static_cast<std::byte>('A' + i));
      for (std::size_t i = 0; i < length; ++i)
        expect.push_back(expect[expect.size() - offset]);
      expect.push_back(std::byte{'z'});

      std::vector<std::byte> out(expect.size());
      ASSERT_TRUE(lz_decompress(stream, out).ok()) << offset << "/" << length;
      ASSERT_EQ(out, expect) << offset << "/" << length;
      // Without the trailing literal the match ends the output exactly.
      auto ends = decode(std::span(stream).first(stream.size() - 1),
                         expect.size() - 1);
      ASSERT_TRUE(ends.status.ok()) << offset << "/" << length;
      ASSERT_TRUE(std::equal(ends.out.begin(), ends.out.end(), expect.begin()))
          << offset << "/" << length;
    }
  }
}

// Pins the codec's bytes: stored sizes drive virtual time, so every stream
// must stay byte-identical. Catalog pages at three seeds, plus zero, random
// and short-period inputs at lengths around the 8-byte and page edges; each
// stream also round-trips.
TEST(LzTest, CompressedBytesMatchGolden) {
  std::vector<std::byte> sink;
  auto add = [&](const std::vector<std::byte>& input) {
    const auto stream = lz_compress(input);
    std::vector<std::byte> out(input.size());
    ASSERT_TRUE(lz_decompress(stream, out).ok());
    ASSERT_EQ(out, input);
    append_framed(sink, stream);
  };
  std::vector<std::byte> page(kPageSize);
  for (const auto& app : workloads::app_catalog()) {
    for (std::uint64_t seed : {1u, 7u, 424242u}) {
      for (std::uint64_t id = 0; id < 64; ++id) {
        workloads::fill_page(page, id, app.random_fraction, seed);
        add(page);
      }
    }
  }
  Rng rng(2025);
  std::vector<std::size_t> sizes{4095, 4096, 4097, 9000};
  for (std::size_t size = 0; size <= 9; ++size) sizes.push_back(size);
  for (std::size_t size : sizes) {
    std::vector<std::byte> input(size, std::byte{0});
    add(input);
    for (auto& b : input) b = static_cast<std::byte>(rng.next_u64() & 0xff);
    add(input);
    for (std::size_t period = 1; period <= 13; ++period) {
      std::vector<std::byte> motif(period);
      for (auto& b : motif) b = static_cast<std::byte>(rng.next_u64() & 0xff);
      for (std::size_t i = 0; i < size; ++i) input[i] = motif[i % period];
      add(input);
    }
  }
  EXPECT_EQ(sink.size(), 2151519u);
  EXPECT_EQ(fnv1a(sink), 0xa198722d4e423f8cULL);
}

// Property sweep: round-trip over (random_fraction, size) grid.
class LzRoundTrip
    : public ::testing::TestWithParam<std::tuple<double, std::size_t>> {};

TEST_P(LzRoundTrip, RoundTripsExactly) {
  const auto [random_fraction, size] = GetParam();
  for (std::uint64_t page = 0; page < 16; ++page) {
    std::vector<std::byte> input(size);
    workloads::fill_page(input, page, random_fraction, /*seed=*/99);
    auto compressed = lz_compress(input);
    std::vector<std::byte> out(size);
    ASSERT_TRUE(lz_decompress(compressed, out).ok());
    ASSERT_EQ(out, input) << "r=" << random_fraction << " size=" << size
                          << " page=" << page;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ContentGrid, LzRoundTrip,
    ::testing::Combine(::testing::Values(0.0, 0.1, 0.25, 0.5, 0.75, 1.0),
                       ::testing::Values(1u, 100u, 512u, 4096u, 16384u)));

TEST(LzTest, MoreRandomContentCompressesWorse) {
  std::size_t prev = 0;
  for (double r : {0.0, 0.3, 0.6, 1.0}) {
    std::size_t total = 0;
    for (std::uint64_t page = 0; page < 8; ++page) {
      std::vector<std::byte> input(4096);
      workloads::fill_page(input, page, r, 1);
      total += lz_compress(input).size();
    }
    EXPECT_GT(total, prev) << "r=" << r;
    prev = total;
  }
}

// ---- page compressor ---------------------------------------------------------

TEST(PageCompressorTest, BucketsAscend) {
  auto two = buckets_for(GranularityMode::kTwo);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0], 2048u);
  auto four = buckets_for(GranularityMode::kFour);
  ASSERT_EQ(four.size(), 4u);
  EXPECT_EQ(four[0], 512u);
}

TEST(PageCompressorTest, HighlyCompressibleLandsInSmallBucket) {
  PageCompressor pc(GranularityMode::kFour);
  std::vector<std::byte> page(kPageSize, std::byte{7});
  auto cp = pc.compress(page);
  EXPECT_FALSE(cp.is_raw);
  EXPECT_EQ(cp.bucket, 512u);
  EXPECT_DOUBLE_EQ(cp.ratio(), 8.0);
  std::vector<std::byte> out(kPageSize);
  ASSERT_TRUE(pc.decompress(cp, out).ok());
  EXPECT_EQ(out, page);
}

TEST(PageCompressorTest, IncompressibleFallsBackToRaw) {
  PageCompressor pc(GranularityMode::kFour);
  Rng rng(3);
  std::vector<std::byte> page(kPageSize);
  for (auto& b : page) b = static_cast<std::byte>(rng.next_u64() & 0xff);
  auto cp = pc.compress(page);
  EXPECT_TRUE(cp.is_raw);
  EXPECT_EQ(cp.bucket, kPageSize);
  EXPECT_DOUBLE_EQ(cp.ratio(), 1.0);
  std::vector<std::byte> out(kPageSize);
  ASSERT_TRUE(pc.decompress(cp, out).ok());
  EXPECT_EQ(out, page);
}

TEST(PageCompressorTest, FourGranularityNeverWorseThanTwo) {
  PageCompressor two(GranularityMode::kTwo);
  PageCompressor four(GranularityMode::kFour);
  for (double r : {0.05, 0.2, 0.4, 0.6}) {
    for (std::uint64_t page = 0; page < 8; ++page) {
      std::vector<std::byte> bytes(kPageSize);
      workloads::fill_page(bytes, page, r, 17);
      EXPECT_LE(four.compress(bytes).bucket, two.compress(bytes).bucket);
    }
  }
}

TEST(PageCompressorTest, DecompressRejectsWrongOutputSize) {
  PageCompressor pc;
  std::vector<std::byte> page(kPageSize, std::byte{1});
  auto cp = pc.compress(page);
  std::vector<std::byte> small(100);
  EXPECT_EQ(pc.decompress(cp, small).code(), StatusCode::kInvalidArgument);
}

TEST(ZswapTest, ZbudCapsEffectiveRatioAtTwo) {
  // Even a 10:1-compressible page only saves half a frame under zbud.
  EXPECT_EQ(zswap_zbud_footprint(400), kPageSize / 2);
  EXPECT_EQ(zswap_zbud_footprint(2048), kPageSize / 2);
  EXPECT_EQ(zswap_zbud_footprint(2049), kPageSize);
  EXPECT_EQ(zswap_zbud_footprint(4096), kPageSize);
}

// Round-trip property across both modes and content classes.
class PageRoundTrip
    : public ::testing::TestWithParam<std::tuple<GranularityMode, double>> {};

TEST_P(PageRoundTrip, RoundTripsExactly) {
  const auto [mode, r] = GetParam();
  PageCompressor pc(mode);
  for (std::uint64_t page = 0; page < 32; ++page) {
    std::vector<std::byte> bytes(kPageSize);
    workloads::fill_page(bytes, page, r, 23);
    auto cp = pc.compress(bytes);
    std::vector<std::byte> out(kPageSize);
    ASSERT_TRUE(pc.decompress(cp, out).ok());
    ASSERT_EQ(out, bytes);
    EXPECT_GE(cp.ratio(), 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndContent, PageRoundTrip,
    ::testing::Combine(::testing::Values(GranularityMode::kTwo,
                                         GranularityMode::kFour),
                       ::testing::Values(0.0, 0.2, 0.5, 0.8, 1.0)));

}  // namespace
}  // namespace dm::compress
