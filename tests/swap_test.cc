// Tests for the swap layer: resident-set management, batching, PBS,
// compression integration, baseline behaviours, and page integrity.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/dm_system.h"
#include "core/ldmc.h"
#include "mem/memory_map.h"
#include "swap/swap_manager.h"
#include "swap/systems.h"
#include "swap/zswap_cache.h"
#include "workloads/page_content.h"

namespace dm::swap {
namespace {

struct Rig {
  explicit Rig(SystemSetup system_setup, std::size_t nodes = 4,
               double content_random = 0.3)
      : setup(std::move(system_setup)) {
    core::DmSystem::Config config;
    config.node_count = nodes;
    config.node.shm.arena_bytes = 16 * MiB;
    config.node.recv.arena_bytes = 16 * MiB;
    config.node.disk.capacity_bytes = 128 * MiB;
    config.service = this->setup.service;
    system = std::make_unique<core::DmSystem>(config);
    system->start();
    client = &system->create_server(0, 64 * MiB, this->setup.ldmc);
    const double r = content_random;
    manager = std::make_unique<SwapManager>(
        *client, this->setup.swap,
        [r](std::uint64_t page, std::span<std::byte> out) {
          workloads::fill_page(out, page, r, 11);
        });
  }

  SystemSetup setup;
  std::unique_ptr<core::DmSystem> system;
  core::Ldmc* client = nullptr;
  std::unique_ptr<SwapManager> manager;
};

std::uint64_t expected_checksum(std::uint64_t page, double r = 0.3) {
  std::vector<std::byte> bytes(kPageBytes);
  workloads::fill_page(bytes, page, r, 11);
  return fnv1a(bytes);
}

TEST(SwapManagerTest, ResidentHitsDoNotFault) {
  Rig rig(make_system(SystemKind::kFastSwap, 64));
  for (std::uint64_t p = 0; p < 32; ++p)
    ASSERT_TRUE(rig.manager->touch(p).ok());
  const std::uint64_t cold = rig.manager->faults();
  EXPECT_EQ(cold, 32u);
  for (std::uint64_t p = 0; p < 32; ++p)
    ASSERT_TRUE(rig.manager->touch(p).ok());
  EXPECT_EQ(rig.manager->faults(), cold);  // all hits
}

TEST(SwapManagerTest, ExceedingResidencySwapsOutLru) {
  Rig rig(make_system(SystemKind::kFastSwap, 16));
  for (std::uint64_t p = 0; p < 32; ++p)
    ASSERT_TRUE(rig.manager->touch(p).ok());
  EXPECT_LE(rig.manager->resident_count(), 16u);
  EXPECT_GT(rig.manager->swap_outs(), 0u);
  // Oldest pages got evicted.
  EXPECT_FALSE(rig.manager->is_resident(0));
  EXPECT_TRUE(rig.manager->is_resident(31));
}

TEST(SwapManagerTest, SwappedPageComesBackIntact) {
  Rig rig(make_system(SystemKind::kFastSwap, 16));
  for (std::uint64_t p = 0; p < 64; ++p)
    ASSERT_TRUE(rig.manager->touch(p).ok());
  // Page 0 was swapped out; touch it again and verify contents.
  ASSERT_FALSE(rig.manager->is_resident(0));
  ASSERT_TRUE(rig.manager->touch(0).ok());
  auto bytes = rig.manager->resident_bytes(0);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(fnv1a(*bytes), expected_checksum(0));
}

TEST(SwapManagerTest, PbsRestoresWholeBatch) {
  auto setup = make_system(SystemKind::kFastSwap, 16);
  setup.swap.batch_pages = 8;
  Rig rig(setup);
  for (std::uint64_t p = 0; p < 32; ++p)
    ASSERT_TRUE(rig.manager->touch(p).ok());
  // Pages 0..15 are out (in two batches of 8). One fault on page 0 must
  // bring its whole batch resident.
  const std::uint64_t ins_before = rig.manager->swap_ins();
  ASSERT_TRUE(rig.manager->touch(0).ok());
  EXPECT_EQ(rig.manager->swap_ins() - ins_before, 8u);
  EXPECT_EQ(rig.manager->metrics().counter_value("swap.pbs_batch_ins"), 1u);
}

TEST(SwapManagerTest, NoPbsRestoresSinglePage) {
  auto setup = make_system(SystemKind::kFastSwapNoPbs, 16);
  Rig rig(setup);
  for (std::uint64_t p = 0; p < 32; ++p)
    ASSERT_TRUE(rig.manager->touch(p).ok());
  const std::uint64_t ins_before = rig.manager->swap_ins();
  ASSERT_TRUE(rig.manager->touch(0).ok());
  EXPECT_EQ(rig.manager->swap_ins() - ins_before, 1u);
}

TEST(SwapManagerTest, BatchingReducesMessages) {
  auto batched = make_system(SystemKind::kFastSwap, 16);
  batched.ldmc.shm_fraction = 0.0;  // force RDMA so messages are visible
  batched.swap.compression = CompressionMode::kOff;
  Rig rig_batched(batched);
  for (std::uint64_t p = 0; p < 64; ++p)
    ASSERT_TRUE(rig_batched.manager->touch(p).ok());
  const auto batched_msgs =
      rig_batched.system->fabric().metrics().counter_value("fabric.writes");

  auto per_page = batched;
  per_page.swap.batch_pages = 1;
  Rig rig_single(per_page);
  for (std::uint64_t p = 0; p < 64; ++p)
    ASSERT_TRUE(rig_single.manager->touch(p).ok());
  const auto single_msgs =
      rig_single.system->fabric().metrics().counter_value("fabric.writes");

  EXPECT_LT(batched_msgs, single_msgs / 2);
}

TEST(SwapManagerTest, CompressionShrinksStoredBytes) {
  auto compressed = make_system(SystemKind::kFastSwap, 16);
  Rig rig_c(compressed, 4, /*content_random=*/0.1);
  for (std::uint64_t p = 0; p < 64; ++p)
    ASSERT_TRUE(rig_c.manager->touch(p).ok());
  const auto logical =
      rig_c.manager->metrics().counter_value("swap.logical_bytes");
  const auto stored =
      rig_c.manager->metrics().counter_value("swap.compressed_bytes");
  ASSERT_GT(logical, 0u);
  EXPECT_LT(stored, logical / 2);  // highly compressible content
}

TEST(SwapManagerTest, LinuxBaselineNeverTouchesFabricOrShm) {
  Rig rig(make_system(SystemKind::kLinux, 16), 2);
  for (std::uint64_t p = 0; p < 64; ++p)
    ASSERT_TRUE(rig.manager->touch(p).ok());
  ASSERT_TRUE(rig.manager->touch(0).ok());  // swap-in from disk
  EXPECT_EQ(rig.system->fabric().metrics().counter_value("fabric.writes"),
            0u);
  EXPECT_EQ(rig.client->puts_to_shm(), 0u);
  EXPECT_GT(rig.client->puts_to_disk(), 0u);
  auto bytes = rig.manager->resident_bytes(0);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(fnv1a(*bytes), expected_checksum(0));
}

TEST(SwapManagerTest, InfiniswapUsesRemoteNotShm) {
  Rig rig(make_system(SystemKind::kInfiniswap, 16));
  for (std::uint64_t p = 0; p < 64; ++p)
    ASSERT_TRUE(rig.manager->touch(p).ok());
  EXPECT_EQ(rig.client->puts_to_shm(), 0u);
  EXPECT_GT(rig.client->puts_to_remote(), 0u);
  EXPECT_GT(rig.manager->metrics().counter_value("swap.backup_writes"), 0u);
}

TEST(SwapManagerTest, FastSwapFasterThanLinuxUnderPressure) {
  auto run = [](SystemKind kind) {
    Rig rig(make_system(kind, 32));
    auto& sim = rig.system->simulator();
    const SimTime start = sim.now();
    // Two passes over a 64-page working set at 50% residency.
    for (int iter = 0; iter < 2; ++iter)
      for (std::uint64_t p = 0; p < 64; ++p)
        EXPECT_TRUE(rig.manager->touch(p).ok());
    return sim.now() - start;
  };
  const SimTime fastswap = run(SystemKind::kFastSwap);
  const SimTime linux_time = run(SystemKind::kLinux);
  EXPECT_LT(fastswap * 5, linux_time);  // order-of-magnitude class gap
}

TEST(SwapManagerTest, FlushAllEvictsEverything) {
  Rig rig(make_system(SystemKind::kFastSwap, 64));
  for (std::uint64_t p = 0; p < 32; ++p)
    ASSERT_TRUE(rig.manager->touch(p).ok());
  ASSERT_TRUE(rig.manager->flush_all().ok());
  EXPECT_EQ(rig.manager->resident_count(), 0u);
  // Everything still retrievable.
  for (std::uint64_t p = 0; p < 32; ++p)
    ASSERT_TRUE(rig.manager->touch(p).ok());
  auto bytes = rig.manager->resident_bytes(31);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(fnv1a(*bytes), expected_checksum(31));
}

// Property test: random access traces across all systems keep every page
// bit-identical to its generator output.
class SwapIntegrity : public ::testing::TestWithParam<SystemKind> {};

TEST_P(SwapIntegrity, RandomTracePreservesAllPages) {
  Rig rig(make_system(GetParam(), 24), 4);
  Rng rng(31337);
  const std::uint64_t kPages = 96;
  for (int step = 0; step < 600; ++step) {
    const std::uint64_t page = rng.next_below(kPages);
    ASSERT_TRUE(rig.manager->touch(page, rng.bernoulli(0.2)).ok())
        << "step " << step;
    auto bytes = rig.manager->resident_bytes(page);
    ASSERT_TRUE(bytes.ok());
    ASSERT_EQ(fnv1a(*bytes), expected_checksum(page)) << "page " << page;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSystems, SwapIntegrity,
                         ::testing::Values(SystemKind::kFastSwap,
                                           SystemKind::kFastSwapNoPbs,
                                           SystemKind::kInfiniswap,
                                           SystemKind::kNbdx,
                                           SystemKind::kLinux,
                                           SystemKind::kZswap),
                         [](const auto& param_info) {
                           std::string name{to_string(param_info.param)};
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

// ---- batch compaction ------------------------------------------------------

// 8 resident pages and 8-page batches without compression, so a batch entry
// stores exactly 8 x 4 KiB.
SystemSetup compaction_setup(double shm_fraction = 1.0) {
  auto setup = make_system(SystemKind::kFastSwap, 8);
  setup.swap.compression = CompressionMode::kOff;
  setup.ldmc.shm_fraction = shm_fraction;
  return setup;
}

// Leaves the batch entry of pages 0..7 with two live members, 6 and 7,
// both swapped out clean: the next fault on either reads the whole entry,
// 8 KiB live of 32 KiB stored, inside the one-third rule.
void make_sparse_batch(SwapManager& manager) {
  for (std::uint64_t p = 0; p < 16; ++p)
    ASSERT_TRUE(manager.touch(p).ok());  // 0..7 go out as one batch
  for (std::uint64_t p = 0; p < 6; ++p)
    ASSERT_TRUE(manager.touch(p, /*write=*/true).ok());  // 6 members die
  for (std::uint64_t p = 8; p < 16; ++p)
    ASSERT_TRUE(manager.touch(p).ok());  // 0..5 go out; 6 and 7 drop clean
  ASSERT_FALSE(manager.is_resident(6));
  ASSERT_TRUE(manager.is_backed(6));
}

std::map<mem::EntryId, std::size_t> stored_entries(core::Ldmc& client) {
  std::map<mem::EntryId, std::size_t> entries;
  client.map().for_each(
      [&entries](mem::EntryId id, const mem::EntryLocation& location) {
        entries[id] = location.stored_size;
      });
  return entries;
}

// Entries of `a` that `b` does not hold.
std::vector<mem::EntryId> entries_missing(
    const std::map<mem::EntryId, std::size_t>& a,
    const std::map<mem::EntryId, std::size_t>& b) {
  std::vector<mem::EntryId> missing;
  for (const auto& [id, size] : a)
    if (b.count(id) == 0) missing.push_back(id);
  return missing;
}

void expect_no_orphans(Rig& rig) {
  for (const auto& [id, size] : stored_entries(*rig.client))
    EXPECT_TRUE(rig.manager->names_entry(id)) << "orphaned entry " << id;
}

void expect_pages_intact(Rig& rig, std::uint64_t pages) {
  for (std::uint64_t p = 0; p < pages; ++p) {
    ASSERT_TRUE(rig.manager->touch(p).ok()) << "page " << p;
    auto bytes = rig.manager->resident_bytes(p);
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(fnv1a(*bytes), expected_checksum(p)) << "page " << p;
  }
}

std::uint64_t compact_counter(Rig& rig, const char* name) {
  return rig.manager->metrics().counter_value(std::string("swap.compact.") +
                                              name);
}

TEST(SwapCompactionTest, SparseBatchIsRewrittenOnFault) {
  Rig rig(compaction_setup());
  make_sparse_batch(*rig.manager);
  const auto before = stored_entries(*rig.client);
  ASSERT_TRUE(rig.manager->touch(6).ok());  // reads all of it: rewrite
  EXPECT_EQ(rig.manager->compactions_pending(), 1u);
  rig.system->run_for(1 * kMilli);
  ASSERT_TRUE(rig.manager->touch(7).ok());  // resident hit: safe point
  EXPECT_EQ(rig.manager->compactions_pending(), 0u);
  EXPECT_EQ(compact_counter(rig, "committed"), 1u);

  // The 32 KiB source left the map; the new entry stores the live bytes.
  const auto after = stored_entries(*rig.client);
  const auto gone = entries_missing(before, after);
  const auto added = entries_missing(after, before);
  ASSERT_EQ(gone.size(), 1u);
  ASSERT_EQ(added.size(), 1u);
  EXPECT_EQ(before.at(gone[0]), 8 * kPageBytes);
  EXPECT_EQ(after.at(added[0]), 2 * kPageBytes);
  expect_no_orphans(rig);

  // The new entry keeps exactly the batch's live members as a PBS group.
  ASSERT_TRUE(rig.manager->flush_all().ok());
  const std::uint64_t ins = rig.manager->swap_ins();
  ASSERT_TRUE(rig.manager->touch(6).ok());
  EXPECT_EQ(rig.manager->swap_ins() - ins, 2u);
  EXPECT_TRUE(rig.manager->is_resident(7));
  expect_pages_intact(rig, 16);
}

TEST(SwapCompactionTest, MemberRewrittenDuringThePutIsNotRepointed) {
  Rig rig(compaction_setup(/*shm_fraction=*/0.0));  // remote: a slower put
  make_sparse_batch(*rig.manager);
  ASSERT_TRUE(rig.manager->touch(6).ok());
  ASSERT_TRUE(rig.manager->touch(7, /*write=*/true).ok());
  ASSERT_EQ(rig.manager->compactions_pending(), 1u);  // still in flight
  rig.system->run_for(10 * kMilli);
  ASSERT_TRUE(rig.manager->touch(6).ok());
  EXPECT_EQ(compact_counter(rig, "committed"), 1u);
  EXPECT_TRUE(rig.manager->is_backed(6));
  // Page 7's copy in the new entry is dead: 7 keeps its new bytes, dirty
  // and unbacked, and goes out on its own.
  EXPECT_FALSE(rig.manager->is_backed(7));
  EXPECT_TRUE(rig.manager->is_dirty(7));
  expect_no_orphans(rig);

  ASSERT_TRUE(rig.manager->flush_all().ok());
  const std::uint64_t ins = rig.manager->swap_ins();
  ASSERT_TRUE(rig.manager->touch(6).ok());
  EXPECT_EQ(rig.manager->swap_ins() - ins, 1u);
  expect_pages_intact(rig, 16);
}

TEST(SwapCompactionTest, LastMemberDyingDuringThePutFreesBothEntries) {
  Rig rig(compaction_setup(/*shm_fraction=*/0.0));
  make_sparse_batch(*rig.manager);
  const auto before = stored_entries(*rig.client);
  ASSERT_TRUE(rig.manager->touch(6).ok());
  ASSERT_TRUE(rig.manager->touch(6, /*write=*/true).ok());
  ASSERT_TRUE(rig.manager->touch(7, /*write=*/true).ok());
  ASSERT_EQ(rig.manager->compactions_pending(), 1u);
  // The source lost its last member and is freed at once.
  const auto during = stored_entries(*rig.client);
  ASSERT_EQ(entries_missing(before, during).size(), 1u);
  ASSERT_TRUE(entries_missing(during, before).empty());
  rig.system->run_for(10 * kMilli);
  ASSERT_TRUE(rig.manager->touch(6).ok());
  EXPECT_EQ(rig.manager->compactions_pending(), 0u);
  // The new entry landed with no live member, so it is freed too.
  EXPECT_EQ(stored_entries(*rig.client), during);
  expect_no_orphans(rig);
  ASSERT_TRUE(rig.manager->flush_all().ok());
  expect_pages_intact(rig, 16);
}

TEST(SwapCompactionTest, FullSharedPoolAbandonsTheRewrite) {
  Rig rig(compaction_setup());
  make_sparse_batch(*rig.manager);
  auto& shm = rig.system->service(0).node().shm();
  const cluster::ServerId server = rig.client->server();
  const std::uint64_t donation = shm.donation_of(server);
  ASSERT_TRUE(shm.set_donation(server, shm.used_bytes()).ok());
  const auto before = stored_entries(*rig.client);
  ASSERT_TRUE(rig.manager->touch(6).ok());
  EXPECT_EQ(compact_counter(rig, "issued"), 1u);
  ASSERT_TRUE(rig.manager->touch(7).ok());
  EXPECT_EQ(compact_counter(rig, "abandoned"), 1u);
  EXPECT_EQ(compact_counter(rig, "committed"), 0u);
  // No fall down-tier: the source stays authoritative, nothing new stored.
  EXPECT_EQ(stored_entries(*rig.client), before);
  EXPECT_TRUE(rig.manager->is_backed(6));
  expect_no_orphans(rig);
  ASSERT_TRUE(shm.set_donation(server, donation).ok());
  ASSERT_TRUE(rig.manager->flush_all().ok());
  expect_pages_intact(rig, 16);
}

// A manager destroyed with a rewrite pending leaves the client's map as
// it found it: a landed, uncommitted entry is freed by the destructor, and
// one still in flight frees itself when it lands.
TEST(SwapCompactionTest, DestroyedManagerLeavesNoRewrittenEntry) {
  for (const bool landed : {true, false}) {
    Rig rig(compaction_setup(/*shm_fraction=*/landed ? 1.0 : 0.0));
    make_sparse_batch(*rig.manager);
    const auto before = stored_entries(*rig.client);
    ASSERT_TRUE(rig.manager->touch(6).ok());
    if (landed) {
      rig.system->run_for(1 * kMilli);
      ASSERT_EQ(stored_entries(*rig.client).size(), before.size() + 1);
    }
    ASSERT_EQ(rig.manager->compactions_pending(), 1u);
    rig.manager.reset();
    rig.system->run_for(10 * kMilli);
    EXPECT_EQ(stored_entries(*rig.client), before) << "landed " << landed;
  }
}

TEST(SwapCompactionTest, DiskEntriesAreNeverRewritten) {
  Rig rig(make_system(SystemKind::kLinux, 8), 2);
  make_sparse_batch(*rig.manager);
  const auto before = stored_entries(*rig.client);
  ASSERT_TRUE(rig.manager->touch(6).ok());  // reads all of a sparse entry
  EXPECT_EQ(rig.manager->compactions_pending(), 0u);
  EXPECT_EQ(stored_entries(*rig.client), before);
  Rng rng(404);
  for (int step = 0; step < 2000; ++step)
    ASSERT_TRUE(
        rig.manager->touch(rng.next_below(48), rng.bernoulli(0.5)).ok());
  EXPECT_EQ(compact_counter(rig, "issued"), 0u);
  expect_pages_intact(rig, 48);
}

// FS-9:1 routes put n to the shared pool iff n % 100 < 90. Compaction puts
// are pinned to their source's tier and must not advance that sequence.
TEST(SwapCompactionTest, RatioRoutingIgnoresCompactionPuts) {
  Rig rig(make_fastswap_ratio(0.9, 16));
  auto routed_to_shm = [](std::uint64_t puts) {
    return puts / 100 * 90 + std::min<std::uint64_t>(puts % 100, 90);
  };
  Rng rng(99);
  for (int step = 0; step < 4000; ++step) {
    ASSERT_TRUE(
        rig.manager->touch(rng.next_below(64), rng.bernoulli(0.5)).ok());
    const std::uint64_t puts = rig.manager->swap_outs();
    ASSERT_EQ(rig.client->puts_to_shm(), routed_to_shm(puts))
        << "step " << step;
    ASSERT_EQ(rig.client->puts_to_remote(), puts - routed_to_shm(puts))
        << "step " << step;
  }
  EXPECT_GT(rig.manager->swap_outs(), 200u);
  EXPECT_GT(compact_counter(rig, "committed"), 0u);
}

// ---- zswap -----------------------------------------------------------------

TEST(ZswapCacheTest, PutTakeRoundTrip) {
  ZswapCache cache(64 * KiB);
  std::vector<std::byte> page(kPageBytes);
  workloads::fill_page(page, 1, 0.1, 5);
  auto writebacks = cache.put(1, page);
  ASSERT_TRUE(writebacks.ok());
  EXPECT_TRUE(writebacks->empty());
  EXPECT_TRUE(cache.contains(1));
  EXPECT_GT(cache.used_bytes(), 0u);

  std::vector<std::byte> out(kPageBytes);
  EXPECT_TRUE(cache.take(1, out));
  EXPECT_EQ(out, page);
  EXPECT_FALSE(cache.contains(1));  // zswap frees on load
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(ZswapCacheTest, IncompressiblePageRejected) {
  ZswapCache cache(64 * KiB);
  Rng rng(3);
  std::vector<std::byte> page(kPageBytes);
  for (auto& b : page) b = static_cast<std::byte>(rng.next_u64() & 0xff);
  auto writebacks = cache.put(9, page);
  ASSERT_TRUE(writebacks.ok());
  ASSERT_EQ(writebacks->size(), 1u);  // bounced straight down-tier
  EXPECT_EQ((*writebacks)[0].page, 9u);
  EXPECT_EQ((*writebacks)[0].bytes, page);
  EXPECT_FALSE(cache.contains(9));
}

TEST(ZswapCacheTest, PoolPressureWritesBackOldest) {
  ZswapCache cache(8 * KiB);  // room for ~4 zbud half-frames
  std::vector<std::byte> page(kPageBytes);
  std::vector<std::uint64_t> written_back;
  for (std::uint64_t p = 0; p < 8; ++p) {
    workloads::fill_page(page, p, 0.05, 5);
    auto writebacks = cache.put(p, page);
    ASSERT_TRUE(writebacks.ok());
    for (const auto& wb : *writebacks) written_back.push_back(wb.page);
  }
  EXPECT_FALSE(written_back.empty());
  // Oldest-first order.
  for (std::size_t i = 1; i < written_back.size(); ++i)
    EXPECT_LT(written_back[i - 1], written_back[i]);
  // Written-back bytes are the original raw pages.
  EXPECT_LE(cache.used_bytes(), cache.capacity_bytes());
}

TEST(ZswapCacheTest, InvalidateDropsEntry) {
  ZswapCache cache(64 * KiB);
  std::vector<std::byte> page(kPageBytes);
  workloads::fill_page(page, 1, 0.1, 5);
  ASSERT_TRUE(cache.put(1, page).ok());
  cache.invalidate(1);
  EXPECT_FALSE(cache.contains(1));
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(ZswapSystemTest, HitsAvoidDiskFaults) {
  auto setup = make_system(SystemKind::kZswap, 40);
  Rig rig(setup, 2, /*content_random=*/0.1);
  // Working set of 64 pages over a resident budget of 32 (40 minus the
  // 8-page pool): plenty of pressure, compressible content.
  for (int iter = 0; iter < 3; ++iter)
    for (std::uint64_t p = 0; p < 64; ++p)
      ASSERT_TRUE(rig.manager->touch(p).ok());
  EXPECT_GT(rig.manager->metrics().counter_value("swap.zswap_hits"), 0u);
}

TEST(ZswapSystemTest, FasterThanLinuxOnCompressibleWorkload) {
  auto run = [](SystemKind kind) {
    Rig rig(make_system(kind, 40), 2, /*content_random=*/0.05);
    auto& sim = rig.system->simulator();
    const SimTime start = sim.now();
    for (int iter = 0; iter < 3; ++iter)
      for (std::uint64_t p = 0; p < 64; ++p)
        EXPECT_TRUE(rig.manager->touch(p).ok());
    return sim.now() - start;
  };
  EXPECT_LT(run(SystemKind::kZswap), run(SystemKind::kLinux));
}

TEST(SystemsTest, RatioPresetsNamedCorrectly) {
  EXPECT_EQ(make_fastswap_ratio(1.0, 10).name, "FS-SM");
  EXPECT_EQ(make_fastswap_ratio(0.9, 10).name, "FS-9:1");
  EXPECT_EQ(make_fastswap_ratio(0.7, 10).name, "FS-7:3");
  EXPECT_EQ(make_fastswap_ratio(0.5, 10).name, "FS-5:5");
  EXPECT_EQ(make_fastswap_ratio(0.0, 10).name, "FS-RDMA");
}

TEST(SystemsTest, PresetsEncodePaperSemantics) {
  auto fastswap = make_system(SystemKind::kFastSwap, 10);
  EXPECT_TRUE(fastswap.swap.proactive_batch_swap_in);
  EXPECT_GT(fastswap.swap.batch_pages, 1u);

  auto infiniswap = make_system(SystemKind::kInfiniswap, 10);
  EXPECT_EQ(infiniswap.ldmc.shm_fraction, 0.0);
  EXPECT_TRUE(infiniswap.swap.disk_backup);
  EXPECT_GT(infiniswap.swap.extra_op_overhead, 0);

  auto linux_swap = make_system(SystemKind::kLinux, 10);
  EXPECT_FALSE(linux_swap.ldmc.allow_remote);
}

}  // namespace
}  // namespace dm::swap
