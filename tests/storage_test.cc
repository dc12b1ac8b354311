// Tests for the simulated block device and its extent allocator.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "sim/simulator.h"
#include "storage/block_device.h"

namespace dm::storage {
namespace {

std::vector<std::byte> pattern(std::size_t n, unsigned seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::byte>((i * 131 + seed) & 0xff);
  return v;
}

TEST(BlockDeviceTest, WriteReadRoundTrip) {
  sim::Simulator sim;
  BlockDevice disk(sim, {.capacity_bytes = 1 * MiB});
  auto data = pattern(4096);
  ASSERT_TRUE(disk.write_sync(8192, data).ok());
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(disk.read_sync(8192, out).ok());
  EXPECT_EQ(out, data);
}

// Swap slots are read back only after being written, but the device
// still promises what a fresh disk gives: never-written extents read zero.
TEST(BlockDeviceTest, NeverWrittenExtentReadsZero) {
  sim::Simulator sim;
  BlockDevice disk(sim, {.capacity_bytes = 4 * MiB});
  ASSERT_TRUE(disk.write_sync(0, pattern(4096)).ok());
  std::vector<std::byte> out = pattern(8192, 9);
  ASSERT_TRUE(disk.read_sync(3 * MiB, out).ok());
  EXPECT_EQ(out, std::vector<std::byte>(8192));
}

TEST(BlockDeviceTest, OutOfRangeRejected) {
  sim::Simulator sim;
  BlockDevice disk(sim, {.capacity_bytes = 64 * KiB});
  std::vector<std::byte> buf(4096);
  EXPECT_FALSE(disk.write_sync(62 * KiB, buf).ok());
  EXPECT_FALSE(disk.read_sync(62 * KiB, buf).ok());
}

TEST(BlockDeviceTest, RandomAccessPaysSeek) {
  sim::Simulator sim;
  BlockDevice::Config config{.capacity_bytes = 64 * MiB};
  BlockDevice disk(sim, config);
  std::vector<std::byte> buf(4096);

  // First access starts at the head position (sequential); the far jump
  // pays a seek.
  ASSERT_TRUE(disk.read_sync(0, buf).ok());
  const SimTime after_first = sim.now();
  ASSERT_TRUE(disk.read_sync(32 * MiB, buf).ok());
  const SimTime random_cost = sim.now() - after_first;
  EXPECT_GE(random_cost, config.model.seek_ns);

  // Sequential follow-up: no seek.
  const SimTime before_seq = sim.now();
  ASSERT_TRUE(disk.read_sync(32 * MiB + 4096, buf).ok());
  const SimTime seq_cost = sim.now() - before_seq;
  EXPECT_LT(seq_cost, config.model.seek_ns / 10);
  EXPECT_GE(disk.metrics().counter_value("disk.seeks"), 1u);
  EXPECT_GE(disk.metrics().counter_value("disk.sequential"), 2u);
}

TEST(BlockDeviceTest, QueueSerializesRequests) {
  sim::Simulator sim;
  BlockDevice disk(sim, {.capacity_bytes = 16 * MiB});
  std::vector<std::byte> a(4096), b(4096);
  SimTime first_done = 0, second_done = 0;
  int pending = 2;
  ASSERT_TRUE(disk.read(0, a, [&](const Status&, SimTime t) {
    first_done = t;
    --pending;
  }).ok());
  ASSERT_TRUE(disk.read(8 * MiB, b, [&](const Status&, SimTime t) {
    second_done = t;
    --pending;
  }).ok());
  while (pending > 0) ASSERT_TRUE(sim.step());
  EXPECT_GT(second_done, first_done);  // served one at a time
}

TEST(BlockDeviceTest, AsyncWriteLandsAtCompletion) {
  sim::Simulator sim;
  BlockDevice disk(sim, {.capacity_bytes = 1 * MiB});
  auto data = pattern(512);
  bool completed = false;
  ASSERT_TRUE(disk.write(0, data, [&](const Status& s, SimTime) {
    EXPECT_TRUE(s.ok());
    completed = true;
  }).ok());
  ASSERT_TRUE(sim.run_until_flag(completed));
  std::vector<std::byte> out(512);
  ASSERT_TRUE(disk.read_sync(0, out).ok());
  EXPECT_EQ(out, data);
}

TEST(SwapExtentTest, AllocatesDistinctSlots) {
  // Classes are powers of two from 512 B.
  EXPECT_EQ(ExtentAllocator::size_class(1), 512u);
  EXPECT_EQ(ExtentAllocator::size_class(512), 512u);
  EXPECT_EQ(ExtentAllocator::size_class(513), 1024u);
  EXPECT_EQ(ExtentAllocator::size_class(4096), 4096u);
  EXPECT_EQ(ExtentAllocator::size_class(4097), 8192u);

  // Fresh extents are cut back to back at their class size. Near the end
  // of the device a class that no longer fits is refused while a smaller
  // one still takes the tail.
  ExtentAllocator alloc(24 * KiB);
  std::vector<std::uint64_t> offsets;
  for (std::uint32_t size : {100u, 3000u, 4096u, 700u, 6000u}) {
    auto extent = alloc.allocate(size);
    ASSERT_TRUE(extent.ok()) << size;
    offsets.push_back(*extent);
  }
  EXPECT_EQ(offsets,
            (std::vector<std::uint64_t>{0, 512, 4608, 8704, 9728}));
  auto full = alloc.allocate(8192);  // 17920 + 8192 > 24 KiB
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), StatusCode::kResourceExhausted);
  auto last = alloc.allocate(4096);  // the tail still fits a smaller class
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(*last, 17920u);
  EXPECT_FALSE(alloc.allocate(4096).ok());
}

TEST(SwapExtentTest, ReleaseRecyclesLifo) {
  ExtentAllocator alloc(64 * KiB);
  auto a = alloc.allocate(4096);
  auto b = alloc.allocate(3000);  // same 4 KiB class
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  alloc.release(*a, 4096);
  alloc.release(*b, 3000);
  // Another class never takes a freed 4 KiB extent: fresh space instead.
  auto small = alloc.allocate(1024);
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(*small, 8192u);
  // Within the class, the last extent freed is the first reused.
  auto c = alloc.allocate(4000);
  auto d = alloc.allocate(2049);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*c, *b);
  EXPECT_EQ(*d, *a);
}

TEST(SwapExtentTest, NoExtentInsideTheReservedTop) {
  ExtentAllocator alloc(64 * KiB);
  ASSERT_TRUE(alloc.allocate(4096).ok());
  ASSERT_TRUE(alloc.reserve_top(32 * KiB).ok());
  std::uint64_t end = 0;
  for (;;) {
    auto extent = alloc.allocate(4096);
    if (!extent.ok()) break;
    end = std::max(end, *extent + 4096);
  }
  EXPECT_EQ(end, 32 * KiB);  // the bottom half fills; the top stays free
  EXPECT_FALSE(alloc.allocate(512).ok());

  // Space that already holds an extent cannot be set aside.
  ExtentAllocator used(64 * KiB);
  ASSERT_TRUE(used.allocate(16 * KiB).ok());
  ASSERT_TRUE(used.allocate(16 * KiB).ok());
  EXPECT_FALSE(used.reserve_top(16 * KiB).ok());
  EXPECT_TRUE(used.reserve_top(32 * KiB).ok());
}

}  // namespace
}  // namespace dm::storage
