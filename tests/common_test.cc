// Unit tests for src/common: status, rng, histogram, lru, units, checksum,
// metrics, zero arena.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "common/checksum.h"
#include "common/histogram.h"
#include "common/lru.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/units.h"
#include "common/zero_arena.h"

namespace dm {
namespace {

// ---- Status -----------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFoundError("missing entry");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.to_string(), "NOT_FOUND: missing entry");
}

TEST(StatusTest, AllCodesHaveNames) {
  // kInternal is the enum's last code.
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_NE(to_string(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(7), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = ResourceExhaustedError("full");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(v.value_or(7), 7);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(5);
  ASSERT_TRUE(v.ok());
  auto owned = *std::move(v);
  EXPECT_EQ(*owned, 5);
}

// ---- Rng --------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(9);
  std::map<std::uint64_t, int> seen;
  for (int i = 0; i < 20000; ++i) ++seen[rng.uniform(3, 10)];
  EXPECT_EQ(seen.size(), 8u);
  EXPECT_EQ(seen.begin()->first, 3u);
  EXPECT_EQ(seen.rbegin()->first, 10u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMeanRoughlyCorrect) {
  Rng rng(13);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(100.0);
  EXPECT_NEAR(sum / n, 100.0, 3.0);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(15);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.shuffle(v);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
}

TEST(ZipfTest, SamplesWithinRange) {
  Rng rng(17);
  ZipfGenerator zipf(1000, 0.99);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(zipf.next(rng), 1000u);
}

TEST(ZipfTest, SkewConcentratesMass) {
  Rng rng(19);
  ZipfGenerator zipf(1000, 0.99);
  std::uint64_t top10 = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i)
    if (zipf.next(rng) < 10) ++top10;
  // With theta=0.99 the top-10 keys of 1000 should get a large share.
  EXPECT_GT(static_cast<double>(top10) / n, 0.25);
}

TEST(ZipfTest, LowThetaIsNearUniform) {
  Rng rng(21);
  ZipfGenerator zipf(100, 0.01);
  std::uint64_t top10 = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i)
    if (zipf.next(rng) < 10) ++top10;
  EXPECT_NEAR(static_cast<double>(top10) / n, 0.10, 0.05);
}

// ---- Histogram ----------------------------------------------------------------

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0u);
  EXPECT_EQ(h.min(), 0u);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.record(42);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 42u);
  EXPECT_EQ(h.max(), 42u);
  EXPECT_EQ(h.mean(), 42.0);
}

TEST(HistogramTest, PercentileWithinBucketError) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 10000; ++v) h.record(v);
  const auto p50 = static_cast<double>(h.p50());
  // Log-bucketed: <= ~13% relative error (one sub-bucket).
  EXPECT_NEAR(p50, 5000.0, 5000.0 * 0.15);
  const auto p99 = static_cast<double>(h.p99());
  EXPECT_NEAR(p99, 9900.0, 9900.0 * 0.15);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  a.record(10);
  b.record(1000);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000u);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.record(5);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramTest, RecordNWeights) {
  Histogram h;
  h.record_n(100, 5);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 500u);
}

// ---- LruTracker ---------------------------------------------------------------

TEST(LruTest, EvictsLeastRecent) {
  LruTracker<int> lru;
  lru.touch(1);
  lru.touch(2);
  lru.touch(3);
  lru.touch(1);  // refresh 1
  EXPECT_EQ(lru.evict_lru(), std::optional<int>(2));
  EXPECT_EQ(lru.evict_lru(), std::optional<int>(3));
  EXPECT_EQ(lru.evict_lru(), std::optional<int>(1));
  EXPECT_EQ(lru.evict_lru(), std::nullopt);
}

TEST(LruTest, EraseRemoves) {
  LruTracker<int> lru;
  lru.touch(1);
  lru.touch(2);
  EXPECT_TRUE(lru.erase(1));
  EXPECT_FALSE(lru.erase(1));
  EXPECT_EQ(lru.size(), 1u);
  EXPECT_EQ(lru.peek_lru(), std::optional<int>(2));
}

TEST(LruTest, PeekDoesNotRemove) {
  LruTracker<int> lru;
  lru.touch(7);
  EXPECT_EQ(lru.peek_lru(), std::optional<int>(7));
  EXPECT_EQ(lru.size(), 1u);
}

TEST(LruTest, ManyKeysOrderPreserved) {
  LruTracker<int> lru;
  for (int i = 0; i < 100; ++i) lru.touch(i);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(lru.evict_lru(), std::optional<int>(i));
}

// ---- units --------------------------------------------------------------------

TEST(UnitsTest, FormatBytes) {
  EXPECT_EQ(format_bytes(617), "617B");
  EXPECT_EQ(format_bytes(4 * KiB), "4.0KiB");
  EXPECT_EQ(format_bytes(3 * GiB / 2), "1.5GiB");
}

TEST(UnitsTest, FormatDuration) {
  EXPECT_EQ(format_duration(800), "800ns");
  EXPECT_EQ(format_duration(1500 * kMicro), "1.50ms");
  EXPECT_EQ(format_duration(2 * kMicro + 500), "2.50us");
}

// ---- checksum -------------------------------------------------------------------

TEST(ChecksumTest, DeterministicAndSensitive) {
  std::vector<std::byte> a(100, std::byte{1});
  std::vector<std::byte> b(100, std::byte{1});
  EXPECT_EQ(fnv1a(a), fnv1a(b));
  b[50] = std::byte{2};
  EXPECT_NE(fnv1a(a), fnv1a(b));
}

TEST(ChecksumTest, EmptyHasKnownValue) {
  EXPECT_EQ(fnv1a({}), 0xcbf29ce484222325ULL);
}

// The data-path checksum must catch a single-byte change at every offset:
// over a page, over a whole 8-page batch, and over lengths that leave a
// partial lane block and a partial word.
TEST(ChecksumTest, WordChecksumCatchesEverySingleByteChange) {
  Rng rng(17);
  for (std::size_t size : {std::size_t{4 * KiB}, std::size_t{32 * KiB},
                           std::size_t{1}, std::size_t{7}, std::size_t{13},
                           std::size_t{4 * KiB + 5}, std::size_t{1001}}) {
    std::vector<std::byte> data(size);
    for (auto& b : data) b = static_cast<std::byte>(rng.next_u64() & 0xff);
    const std::uint64_t clean = word_checksum(data);
    EXPECT_EQ(word_checksum(data), clean);
    for (std::size_t i = 0; i < size; ++i) {
      const std::byte saved = data[i];
      data[i] = saved ^ static_cast<std::byte>(1 + rng.next_below(255));
      ASSERT_NE(word_checksum(data), clean)
          << "size " << size << " offset " << i;
      data[i] = saved;
    }
  }
}

TEST(ChecksumTest, WordChecksumSeesTrailingZerosAndEmptyInput) {
  std::vector<std::byte> data(13, std::byte{0});
  EXPECT_NE(word_checksum(std::span(data).first(12)), word_checksum(data));
  EXPECT_NE(word_checksum({}), word_checksum(std::span(data).first(1)));
}

// ---- metrics --------------------------------------------------------------------

TEST(MetricsTest, CountersStartAtZero) {
  MetricsRegistry m;
  EXPECT_EQ(m.counter_value("x"), 0u);
  ++m.counter("x");
  m.counter("x") += 4;
  EXPECT_EQ(m.counter_value("x"), 5u);
}

TEST(MetricsTest, HistogramsByName) {
  MetricsRegistry m;
  m.histogram("lat").record(100);
  ASSERT_NE(m.find_histogram("lat"), nullptr);
  EXPECT_EQ(m.find_histogram("lat")->count(), 1u);
  EXPECT_EQ(m.find_histogram("nope"), nullptr);
}

TEST(MetricsTest, ToStringListsCounters) {
  MetricsRegistry m;
  m.counter("a") = 1;
  m.counter("b") = 2;
  EXPECT_EQ(m.to_string(), "a=1\nb=2\n");
}

// ---- ZeroArena ------------------------------------------------------------------

// Resident set size of this process, from /proc/self/statm.
std::int64_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::int64_t size_pages = 0;
  std::int64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * sysconf(_SC_PAGESIZE);
}

TEST(ZeroArenaTest, ZeroSizeArenaIsEmpty) {
  ZeroArena arena(0);
  EXPECT_EQ(arena.size(), 0u);
  EXPECT_TRUE(std::span(arena).empty());
  ZeroArena moved(std::move(arena));
  EXPECT_EQ(moved.size(), 0u);
}

TEST(ZeroArenaTest, UntouchedBytesReadZero) {
  ZeroArena arena(3 * MiB + 5);
  ASSERT_EQ(arena.size(), 3 * MiB + 5);
  EXPECT_TRUE(std::all_of(arena.begin(), arena.end(),
                          [](std::byte b) { return b == std::byte{0}; }));
}

TEST(ZeroArenaTest, WrittenBytesReadBack) {
  ZeroArena arena(256 * KiB + 3);
  std::vector<std::byte> expected(arena.size());
  for (std::size_t i = 0; i < expected.size(); i += 997)
    expected[i] = static_cast<std::byte>(i % 251 + 1);
  expected.back() = std::byte{0xFF};
  for (std::size_t i = 0; i < expected.size(); ++i)
    if (expected[i] != std::byte{0}) arena.data()[i] = expected[i];
  EXPECT_TRUE(std::equal(arena.begin(), arena.end(), expected.begin(),
                         expected.end()));
}

// Slab spans registered with the fabric point into the arena, so a move
// must hand over the mapping itself, not copy it.
TEST(ZeroArenaTest, MoveKeepsDataAndEmptiesSource) {
  ZeroArena source(1 * MiB);
  std::byte* const base = source.data();
  source.data()[4096] = std::byte{7};

  ZeroArena moved(std::move(source));
  EXPECT_EQ(moved.data(), base);
  EXPECT_EQ(moved.size(), 1 * MiB);
  EXPECT_EQ(moved.data()[4096], std::byte{7});
  EXPECT_EQ(source.data(), nullptr);
  EXPECT_EQ(source.size(), 0u);

  ZeroArena assigned(64 * KiB);
  assigned = std::move(moved);
  EXPECT_EQ(assigned.data(), base);
  EXPECT_EQ(assigned.size(), 1 * MiB);
  EXPECT_EQ(moved.data(), nullptr);
  EXPECT_EQ(moved.size(), 0u);
}

// The point of the arena: configured capacity costs no resident memory
// until it is written, and a write commits only the page it lands on.
TEST(ZeroArenaTest, ResidentMemoryFollowsWrittenPages) {
  const std::int64_t page = sysconf(_SC_PAGESIZE);
  const std::int64_t before = resident_bytes();
  ZeroArena arena(1 * GiB);
  const std::int64_t mapped = resident_bytes();
  EXPECT_LT(mapped - before, static_cast<std::int64_t>(4 * MiB));

  arena.data()[512 * MiB + 123] = std::byte{1};
  const std::int64_t written = resident_bytes();
  EXPECT_GE(written - mapped, page);
  // One page, or the 2 MiB huge page around it on hosts that back
  // anonymous memory with transparent huge pages by default.
  EXPECT_LE(written - mapped, static_cast<std::int64_t>(2 * MiB) + 16 * page);
}

}  // namespace
}  // namespace dm
