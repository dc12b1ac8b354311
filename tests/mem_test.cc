// Tests for the memory substrate: slab allocator, shared memory pool,
// registered buffer pool, and the disaggregated memory map.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "common/status.h"
#include "mem/buffer_pool.h"
#include "mem/memory_map.h"
#include "mem/shared_memory_pool.h"
#include "mem/slab_allocator.h"
#include "net/fabric.h"
#include "sim/simulator.h"

namespace dm::mem {
namespace {

std::vector<std::byte> pattern(std::size_t n, unsigned seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::byte>((i * 37 + seed) & 0xff);
  return v;
}

// ---- SlabAllocator --------------------------------------------------------------

TEST(SlabAllocatorTest, AllocateAndFree) {
  std::vector<std::byte> arena(256 * KiB);
  SlabAllocator alloc(arena);
  auto a = alloc.allocate(4096);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(alloc.used_bytes(), 4096u);
  EXPECT_EQ(alloc.live_blocks(), 1u);
  ASSERT_TRUE(alloc.free(*a).ok());
  EXPECT_EQ(alloc.used_bytes(), 0u);
}

TEST(SlabAllocatorTest, RoundsUpTo64Bytes) {
  std::vector<std::byte> arena(256 * KiB);
  SlabAllocator alloc(arena);
  auto a = alloc.allocate(700);  // -> 11 granules
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*alloc.block_size(*a), 704u);
  auto b = alloc.allocate(1);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*alloc.block_size(*b), 64u);
  EXPECT_EQ(*b, *a + 704);  // packed right behind the first block
  auto c = alloc.allocate(64 * KiB);  // exactly one slab
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*alloc.block_size(*c), 64 * KiB);
  EXPECT_EQ(alloc.used_bytes(), 704u + 64u + 64 * KiB);
}

TEST(SlabAllocatorTest, RejectsOversized) {
  std::vector<std::byte> arena(256 * KiB);
  SlabAllocator alloc(arena);
  EXPECT_EQ(alloc.allocate(128 * KiB).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SlabAllocatorTest, DistinctNonOverlappingBlocks) {
  std::vector<std::byte> arena(256 * KiB);
  SlabAllocator alloc(arena);
  std::set<std::uint64_t> offsets;
  for (int i = 0; i < 32; ++i) {
    auto a = alloc.allocate(4096);
    ASSERT_TRUE(a.ok());
    EXPECT_TRUE(offsets.insert(*a).second);
    EXPECT_EQ(*a % 4096, 0u);
  }
}

TEST(SlabAllocatorTest, ExhaustionThenReuse) {
  std::vector<std::byte> arena(64 * KiB);  // exactly one slab
  SlabAllocator alloc(arena);
  std::vector<std::uint64_t> blocks;
  while (true) {
    auto a = alloc.allocate(4096);
    if (!a.ok()) {
      EXPECT_EQ(a.status().code(), StatusCode::kResourceExhausted);
      break;
    }
    blocks.push_back(*a);
  }
  EXPECT_EQ(blocks.size(), 16u);
  ASSERT_TRUE(alloc.free(blocks.back()).ok());
  EXPECT_TRUE(alloc.allocate(4096).ok());
}

TEST(SlabAllocatorTest, DoubleFreeRejected) {
  std::vector<std::byte> arena(64 * KiB);
  SlabAllocator alloc(arena);
  auto a = alloc.allocate(512);
  ASSERT_TRUE(alloc.free(*a).ok());
  EXPECT_FALSE(alloc.free(*a).ok());
}

TEST(SlabAllocatorTest, BlocksOfDifferentSizesShareOneSlab) {
  std::vector<std::byte> arena(64 * KiB);  // one slab
  SlabAllocator alloc(arena);
  auto a = alloc.allocate(512);
  auto b = alloc.allocate(4096);
  auto rest = alloc.allocate(64 * KiB - 512 - 4096);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(alloc.slack_bytes(), 0u);  // the slab is exactly full
  EXPECT_EQ(alloc.allocate(1).status().code(),
            StatusCode::kResourceExhausted);
  // The two freed neighbours merge into one 4608 B extent.
  ASSERT_TRUE(alloc.free(*a).ok());
  ASSERT_TRUE(alloc.free(*b).ok());
  auto merged = alloc.allocate(4608);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*merged, *a);
}

TEST(SlabAllocatorTest, RandomizedChurnPreservesInvariants) {
  std::vector<std::byte> arena(1 * MiB);
  SlabAllocator alloc(arena);
  Rng rng(42);
  std::vector<std::uint64_t> live;
  for (int step = 0; step < 5000; ++step) {
    if (live.empty() || rng.bernoulli(0.6)) {
      const std::size_t size = 1u << rng.uniform(9, 12);  // 512..4096
      auto a = alloc.allocate(size);
      if (a.ok()) live.push_back(*a);
    } else {
      const std::size_t idx =
          static_cast<std::size_t>(rng.next_below(live.size()));
      ASSERT_TRUE(alloc.free(live[idx]).ok());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    ASSERT_EQ(alloc.live_blocks(), live.size());
    ASSERT_LE(alloc.used_bytes(), alloc.capacity_bytes());
  }
  for (auto offset : live) ASSERT_TRUE(alloc.free(offset).ok());
  EXPECT_EQ(alloc.used_bytes(), 0u);
  EXPECT_EQ(alloc.slack_bytes(), 0u);
}

// ---- SharedMemoryPool --------------------------------------------------------------

TEST(SharedMemoryPoolTest, DonationGatesCapacity) {
  SharedMemoryPool pool({.arena_bytes = 1 * MiB});
  auto data = pattern(4096);
  // No donations yet: put is rejected.
  EXPECT_EQ(pool.put(1, 100, data).code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(pool.set_donation(1, 64 * KiB).ok());
  EXPECT_TRUE(pool.put(1, 100, data).ok());
  EXPECT_EQ(pool.total_donated(), 64 * KiB);
  EXPECT_EQ(pool.donation_of(1), 64 * KiB);
}

TEST(SharedMemoryPoolTest, PutGetRemoveRoundTrip) {
  SharedMemoryPool pool({.arena_bytes = 1 * MiB});
  ASSERT_TRUE(pool.set_donation(1, 512 * KiB).ok());
  auto data = pattern(3000);
  ASSERT_TRUE(pool.put(1, 5, data).ok());
  EXPECT_TRUE(pool.contains(1, 5));
  EXPECT_EQ(*pool.stored_size(1, 5), 3000u);

  std::vector<std::byte> out(3000);
  ASSERT_TRUE(pool.get(1, 5, out).ok());
  EXPECT_EQ(out, data);

  std::vector<std::byte> range(100);
  ASSERT_TRUE(pool.get_range(1, 5, 1000, range).ok());
  EXPECT_TRUE(std::equal(range.begin(), range.end(), data.begin() + 1000));

  ASSERT_TRUE(pool.remove(1, 5).ok());
  EXPECT_FALSE(pool.contains(1, 5));
  EXPECT_EQ(pool.get(1, 5, out).code(), StatusCode::kNotFound);
}

TEST(SharedMemoryPoolTest, DuplicatePutRejected) {
  SharedMemoryPool pool({.arena_bytes = 1 * MiB});
  ASSERT_TRUE(pool.set_donation(1, 512 * KiB).ok());
  auto data = pattern(128);
  ASSERT_TRUE(pool.put(1, 5, data).ok());
  EXPECT_EQ(pool.put(1, 5, data).code(), StatusCode::kAlreadyExists);
}

TEST(SharedMemoryPoolTest, PerServerNamespaces) {
  SharedMemoryPool pool({.arena_bytes = 1 * MiB});
  ASSERT_TRUE(pool.set_donation(1, 256 * KiB).ok());
  ASSERT_TRUE(pool.set_donation(2, 256 * KiB).ok());
  auto a = pattern(100, 1), b = pattern(100, 2);
  ASSERT_TRUE(pool.put(1, 5, a).ok());
  ASSERT_TRUE(pool.put(2, 5, b).ok());
  std::vector<std::byte> out(100);
  ASSERT_TRUE(pool.get(2, 5, out).ok());
  EXPECT_EQ(out, b);
}

TEST(SharedMemoryPoolTest, LruEvictionOrder) {
  SharedMemoryPool pool({.arena_bytes = 1 * MiB});
  ASSERT_TRUE(pool.set_donation(1, 512 * KiB).ok());
  auto data = pattern(64);
  ASSERT_TRUE(pool.put(1, 10, data).ok());
  ASSERT_TRUE(pool.put(1, 11, data).ok());
  ASSERT_TRUE(pool.put(1, 12, data).ok());
  // Touch 10 so 11 becomes LRU.
  std::vector<std::byte> out(64);
  ASSERT_TRUE(pool.get(1, 10, out).ok());
  ServerId owner = 0;
  EntryId id = 0;
  auto evicted = pool.evict_lru(&owner, &id);
  ASSERT_TRUE(evicted.ok());
  EXPECT_EQ(owner, 1u);
  EXPECT_EQ(id, 11u);
  EXPECT_EQ(*evicted, data);
  EXPECT_FALSE(pool.contains(1, 11));
}

TEST(SharedMemoryPoolTest, LruEntryPreservesFull64BitIds) {
  // Hash-derived 64-bit ids (the KV store's) must come back whole from
  // lru_entry and evict_lru: the spill path feeds them back into the
  // owner's map.
  SharedMemoryPool pool({.arena_bytes = 1 * MiB});
  ASSERT_TRUE(pool.set_donation(1, 512 * KiB).ok());
  const EntryId wide = 0xdeadbeefcafe0123ULL;  // high 16 bits non-zero
  auto data = pattern(64);
  ASSERT_TRUE(pool.put(1, wide, data).ok());
  ASSERT_TRUE(pool.contains(1, wide));

  auto lru = pool.lru_entry();
  ASSERT_TRUE(lru.has_value());
  EXPECT_EQ(lru->first, 1u);
  EXPECT_EQ(lru->second, wide);

  ServerId owner = 0;
  EntryId id = 0;
  auto evicted = pool.evict_lru(&owner, &id);
  ASSERT_TRUE(evicted.ok());
  EXPECT_EQ(owner, 1u);
  EXPECT_EQ(id, wide);
  EXPECT_EQ(*evicted, data);
  EXPECT_FALSE(pool.contains(1, wide));
}

TEST(SharedMemoryPoolTest, EntriesAreKeyedByTheFullOwnerAndId) {
  // Ids equal in their low 48 bits, and owners equal in their low 16, are
  // distinct entries: each round-trips its own bytes, and contains/remove
  // act on one entry alone.
  SharedMemoryPool pool({.arena_bytes = 1 * MiB});
  const ServerId wide_owner = 7 | (1u << 16);
  ASSERT_TRUE(pool.set_donation(7, 256 * KiB).ok());
  ASSERT_TRUE(pool.set_donation(wide_owner, 256 * KiB).ok());
  const EntryId wide = 5 | (1ULL << 48);
  const auto a = pattern(100, 1), b = pattern(100, 2), c = pattern(100, 3);
  ASSERT_TRUE(pool.put(7, 5, a).ok());
  EXPECT_FALSE(pool.contains(7, wide));
  EXPECT_FALSE(pool.contains(wide_owner, 5));
  ASSERT_TRUE(pool.put(7, wide, b).ok());
  ASSERT_TRUE(pool.put(wide_owner, 5, c).ok());

  std::vector<std::byte> out(100);
  ASSERT_TRUE(pool.get(7, 5, out).ok());
  EXPECT_EQ(out, a);
  ASSERT_TRUE(pool.get(7, wide, out).ok());
  EXPECT_EQ(out, b);
  ASSERT_TRUE(pool.get(wide_owner, 5, out).ok());
  EXPECT_EQ(out, c);

  ASSERT_TRUE(pool.remove(7, wide).ok());
  EXPECT_FALSE(pool.contains(7, wide));
  EXPECT_TRUE(pool.contains(7, 5));
  EXPECT_TRUE(pool.contains(wide_owner, 5));
  ASSERT_TRUE(pool.remove(7, 5).ok());
  EXPECT_FALSE(pool.contains(7, 5));
  ASSERT_TRUE(pool.get(wide_owner, 5, out).ok());
  EXPECT_EQ(out, c);
  EXPECT_EQ(pool.entry_count(), 1u);
}

TEST(SharedMemoryPoolTest, ShrinkBelowStoredFails) {
  SharedMemoryPool pool({.arena_bytes = 1 * MiB});
  ASSERT_TRUE(pool.set_donation(1, 64 * KiB).ok());
  auto data = pattern(4096);
  ASSERT_TRUE(pool.put(1, 1, data).ok());
  EXPECT_EQ(pool.set_donation(1, 0).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(pool.remove(1, 1).ok());
  EXPECT_TRUE(pool.set_donation(1, 0).ok());
}

TEST(SharedMemoryPoolTest, GrowDonationAdmitsMore) {
  SharedMemoryPool pool({.arena_bytes = 1 * MiB});
  ASSERT_TRUE(pool.set_donation(1, 4096).ok());
  auto data = pattern(4096);
  ASSERT_TRUE(pool.put(1, 1, data).ok());
  EXPECT_EQ(pool.put(1, 2, data).code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(pool.set_donation(1, 16 * KiB).ok());
  EXPECT_TRUE(pool.put(1, 2, data).ok());
}

// ---- RegisteredBufferPool ------------------------------------------------------------

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() : fabric_(sim_) { fabric_.add_node(0); }
  sim::Simulator sim_;
  net::Fabric fabric_;
};

TEST_F(BufferPoolTest, AllocatesAndRegistersSlabs) {
  RegisteredBufferPool pool(fabric_, 0,
                            {.arena_bytes = 1 * MiB, .slab_bytes = 256 * KiB});
  EXPECT_EQ(fabric_.registered_region_count(0), 0u);
  auto block = pool.allocate(4096);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(fabric_.registered_region_count(0), 1u);
  EXPECT_EQ(pool.registered_bytes(), 256 * KiB);
  EXPECT_EQ(block->size, 4096u);
  EXPECT_NE(block->rkey, net::kInvalidRKey);
}

TEST_F(BufferPoolTest, BlockBytesWritable) {
  RegisteredBufferPool pool(fabric_, 0, {.arena_bytes = 1 * MiB});
  auto block = pool.allocate(512);
  ASSERT_TRUE(block.ok());
  auto span = pool.block_bytes(*block);
  EXPECT_EQ(span.size(), 512u);
  span[0] = std::byte{42};
  EXPECT_EQ(pool.block_bytes(*block)[0], std::byte{42});
}

TEST_F(BufferPoolTest, FreshBlockReadsZero) {
  RegisteredBufferPool pool(fabric_, 0, {.arena_bytes = 1 * MiB});
  auto block = pool.allocate(4096);
  ASSERT_TRUE(block.ok());
  auto bytes = pool.block_bytes(*block);
  EXPECT_EQ(std::vector<std::byte>(bytes.begin(), bytes.end()),
            std::vector<std::byte>(4096));
}

TEST_F(BufferPoolTest, FreeAndDoubleFree) {
  RegisteredBufferPool pool(fabric_, 0, {.arena_bytes = 1 * MiB});
  auto block = pool.allocate(4096);
  ASSERT_TRUE(pool.free(*block).ok());
  EXPECT_FALSE(pool.free(*block).ok());
}

TEST_F(BufferPoolTest, DeregisterRequiresEmptySlab) {
  RegisteredBufferPool pool(fabric_, 0, {.arena_bytes = 1 * MiB});
  auto block = pool.allocate(4096);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(pool.deregister_slab(block->slab).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(pool.free(*block).ok());
  ASSERT_TRUE(pool.deregister_slab(block->slab).ok());
  EXPECT_EQ(fabric_.registered_region_count(0), 0u);
  EXPECT_EQ(pool.active_slabs(), 0u);
}

TEST_F(BufferPoolTest, BlocksInSlabListsLiveOnly) {
  RegisteredBufferPool pool(fabric_, 0, {.arena_bytes = 1 * MiB});
  auto a = pool.allocate(4096);
  auto b = pool.allocate(4096);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->slab, b->slab);
  EXPECT_EQ(pool.blocks_in_slab(a->slab).size(), 2u);
  ASSERT_TRUE(pool.free(*a).ok());
  EXPECT_EQ(pool.blocks_in_slab(a->slab).size(), 1u);
}

TEST_F(BufferPoolTest, LeastLoadedSlabPrefersEmptier) {
  RegisteredBufferPool pool(
      fabric_, 0, {.arena_bytes = 1 * MiB, .slab_bytes = 64 * KiB});
  // Fill slab 1 fully (16 blocks), slab 2 with one block.
  std::vector<BlockRef> first;
  for (int i = 0; i < 16; ++i) {
    auto b = pool.allocate(4096);
    ASSERT_TRUE(b.ok());
    first.push_back(*b);
  }
  auto lone = pool.allocate(4096);
  ASSERT_TRUE(lone.ok());
  EXPECT_NE(lone->slab, first[0].slab);
  auto least = pool.least_loaded_slab();
  ASSERT_TRUE(least.has_value());
  EXPECT_EQ(*least, lone->slab);
}

TEST_F(BufferPoolTest, FencedSlabTakesNoNewBlocks) {
  RegisteredBufferPool pool(
      fabric_, 0, {.arena_bytes = 1 * MiB, .slab_bytes = 64 * KiB});
  auto first = pool.allocate(4096);
  ASSERT_TRUE(first.ok());
  pool.fence_slab(first->slab, true);
  auto fenced_out = pool.allocate(4096);
  ASSERT_TRUE(fenced_out.ok());
  EXPECT_NE(fenced_out->slab, first->slab);
  EXPECT_EQ(pool.active_slabs(), 2u);
  pool.fence_slab(first->slab, false);
  auto back = pool.allocate(4096);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->slab, first->slab);
  // Deregistering lifts the fence: the slab reopens as a fresh one.
  pool.fence_slab(first->slab, true);
  ASSERT_TRUE(pool.free(*first).ok());
  ASSERT_TRUE(pool.free(*back).ok());
  ASSERT_TRUE(pool.deregister_slab(first->slab).ok());
  ASSERT_TRUE(pool.free(*fenced_out).ok());
  auto whole = pool.allocate(64 * KiB);
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(whole->slab, fenced_out->slab);  // registered slabs first
  auto fresh = pool.allocate(64 * KiB);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->slab, first->slab);  // then the last one closed
}

TEST_F(BufferPoolTest, ExhaustionReported) {
  RegisteredBufferPool pool(
      fabric_, 0, {.arena_bytes = 128 * KiB, .slab_bytes = 64 * KiB});
  EXPECT_TRUE(pool.allocate(65536).ok());
  EXPECT_TRUE(pool.allocate(65536).ok());
  EXPECT_EQ(pool.allocate(65536).status().code(),
            StatusCode::kResourceExhausted);
}

// ---- MemoryMap --------------------------------------------------------------------

EntryLocation remote_loc(std::initializer_list<net::NodeId> nodes) {
  EntryLocation loc;
  loc.tier = Tier::kRemote;
  loc.logical_size = 4096;
  loc.stored_size = 2048;
  for (net::NodeId n : nodes) loc.replicas.push_back({n, 1, 0, 0, 2048});
  return loc;
}

TEST(MemoryMapTest, CommitLookupRemove) {
  MemoryMap map;
  EXPECT_FALSE(map.contains(7));
  map.commit(7, remote_loc({1, 2, 3}));
  ASSERT_TRUE(map.contains(7));
  auto loc = map.lookup(7);
  ASSERT_TRUE(loc.ok());
  EXPECT_EQ(loc->tier, Tier::kRemote);
  EXPECT_EQ(loc->replicas.size(), 3u);
  ASSERT_TRUE(map.remove(7).ok());
  EXPECT_EQ(map.remove(7).code(), StatusCode::kNotFound);
  EXPECT_EQ(map.size(), 0u);
}

TEST(MemoryMapTest, CommitReplacesAtomically) {
  MemoryMap map;
  map.commit(1, remote_loc({1, 2, 3}));
  EntryLocation shm;
  shm.tier = Tier::kSharedMemory;
  map.commit(1, shm);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.lookup(1)->tier, Tier::kSharedMemory);
}

TEST(MemoryMapTest, EntriesWithReplicaOnNode) {
  MemoryMap map(4);
  map.commit(1, remote_loc({1, 2, 3}));
  map.commit(2, remote_loc({2, 3, 4}));
  map.commit(3, remote_loc({4, 5, 6}));
  EntryLocation disk;
  disk.tier = Tier::kDisk;
  map.commit(4, disk);
  auto on2 = map.entries_with_replica_on(2);
  std::sort(on2.begin(), on2.end());
  EXPECT_EQ(on2, (std::vector<EntryId>{1, 2}));
  EXPECT_TRUE(map.entries_with_replica_on(9).empty());
}

TEST(MemoryMapTest, ShardsSpreadEntries) {
  MemoryMap map(16);
  for (EntryId id = 0; id < 1000; ++id) map.commit(id, EntryLocation{});
  EXPECT_EQ(map.size(), 1000u);
  for (EntryId id = 0; id < 1000; ++id) EXPECT_TRUE(map.contains(id));
}

TEST(MemoryMapTest, ForEachVisitsAll) {
  MemoryMap map(8);
  for (EntryId id = 0; id < 100; ++id) map.commit(id, EntryLocation{});
  std::size_t visited = 0;
  map.for_each([&](EntryId, const EntryLocation&) { ++visited; });
  EXPECT_EQ(visited, 100u);
}

// The paper's §IV.C arithmetic: tracking 2 TB of remote memory at 4 KiB
// entries needs gigabytes of map per server — the motivation for sharding
// and group-scoped sharing. Verify our per-entry metadata cost implies the
// same order of magnitude.
TEST(MemoryMapTest, ScalabilityArithmeticMatchesPaper) {
  MemoryMap map(16);
  const std::size_t sample = 10000;
  for (EntryId id = 0; id < sample; ++id) map.commit(id, remote_loc({1, 2, 3}));
  const double bytes_per_entry =
      static_cast<double>(map.approx_bytes()) / sample;
  // 2 TB / 4 KiB = 536.9M entries.
  const double entries_for_2tb = 2.0 * 1024 * 1024 * 1024 * 1024 / 4096;
  const double map_gb =
      bytes_per_entry * entries_for_2tb / (1024.0 * 1024 * 1024);
  // The paper says ~5 GB with 8-byte metadata; our richer record (checksum,
  // replicas, tier) costs more per entry, but must stay in the "several to
  // tens of GB" bracket that makes the scalability point.
  EXPECT_GT(map_gb, 2.0);
  EXPECT_LT(map_gb, 200.0);
}

}  // namespace
}  // namespace dm::mem
