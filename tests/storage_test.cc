// Tests for the simulated block device and swap extent allocator.
#include <gtest/gtest.h>

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
  SwapExtentAllocator alloc(64 * KiB, 4096);
  EXPECT_EQ(alloc.total_slots(), 16u);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 16; ++i) {
    auto slot = alloc.allocate();
    ASSERT_TRUE(slot.ok());
    EXPECT_TRUE(seen.insert(*slot).second);
    EXPECT_EQ(*slot % 4096, 0u);
  }
  EXPECT_FALSE(alloc.allocate().ok());
  EXPECT_EQ(alloc.used_slots(), 16u);
}

TEST(SwapExtentTest, ReleaseRecyclesLifo) {
  SwapExtentAllocator alloc(64 * KiB, 4096);
  auto a = alloc.allocate();
  auto b = alloc.allocate();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  alloc.release(*a);
  auto c = alloc.allocate();
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, *a);  // LIFO reuse keeps the swap area hot
  EXPECT_EQ(alloc.used_slots(), 2u);
}

}  // namespace
}  // namespace dm::storage
