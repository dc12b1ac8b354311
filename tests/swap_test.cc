// Tests for the swap layer: resident-set management, batching, PBS,
// compression integration, baseline behaviours, and page integrity.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/dm_system.h"
#include "core/ldmc.h"
#include "mem/memory_map.h"
#include "sim/span_sink.h"
#include "swap/swap_manager.h"
#include "swap/systems.h"
#include "swap/zswap_cache.h"
#include "workloads/app_catalog.h"
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

// Infiniswap's backup ring shares the disk with the batches that overflow
// to it. With one node every put falls to the disk, and on a 1 MiB disk the
// batches outgrow its bottom half: the ring's zero pages must land on none
// of them.
TEST(SwapManagerTest, InfiniswapBackupRingNeverOverwritesSwappedPages) {
  auto setup = make_system(SystemKind::kInfiniswap, 32);
  core::DmSystem::Config config;
  config.node_count = 1;
  config.node.shm.arena_bytes = 16 * MiB;
  config.node.recv.arena_bytes = 16 * MiB;
  config.node.disk.capacity_bytes = 1 * MiB;
  config.service = setup.service;
  core::DmSystem system(config);
  system.start();
  auto& client = system.create_server(0, 64 * MiB, setup.ldmc);
  SwapManager manager(client, setup.swap,
                      [](std::uint64_t page, std::span<std::byte> out) {
                        workloads::fill_page(out, page, 0.3, 11);
                      });
  constexpr std::uint64_t kPages = 192;
  for (std::uint64_t p = 0; p < kPages; ++p)
    ASSERT_TRUE(manager.touch(p, /*write=*/true).ok()) << p;
  std::vector<std::uint64_t> wrong;
  for (std::uint64_t p = 0; p < kPages; ++p) {
    ASSERT_TRUE(manager.touch(p).ok()) << p;
    auto bytes = manager.resident_bytes(p);
    ASSERT_TRUE(bytes.ok()) << p;
    if (fnv1a(*bytes) != expected_checksum(p)) wrong.push_back(p);
  }
  EXPECT_TRUE(wrong.empty()) << wrong.size() << " pages read back wrong";
  EXPECT_GT(client.puts_to_disk(), 0u);
  EXPECT_GT(manager.metrics().counter_value("swap.backup_writes"), 0u);
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
// 8 KiB live of 32 KiB stored, inside the one-third rule. The barrier puts
// every staged batch down-tier first: a fault served from the staging
// buffer never compacts.
void make_sparse_batch(SwapManager& manager) {
  for (std::uint64_t p = 0; p < 16; ++p)
    ASSERT_TRUE(manager.touch(p).ok());  // 0..7 go out as one batch
  for (std::uint64_t p = 0; p < 6; ++p)
    ASSERT_TRUE(manager.touch(p, /*write=*/true).ok());  // 6 members die
  for (std::uint64_t p = 8; p < 16; ++p)
    ASSERT_TRUE(manager.touch(p).ok());  // 0..5 go out; 6 and 7 drop clean
  ASSERT_FALSE(manager.is_resident(6));
  ASSERT_TRUE(manager.is_backed(6));
  ASSERT_TRUE(manager.wb_barrier().ok());
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
// A barrier after each touch lands every staged batch, so the swap-outs
// counted so far are exactly the routed puts.
TEST(SwapCompactionTest, RatioRoutingIgnoresCompactionPuts) {
  Rig rig(make_fastswap_ratio(0.9, 16));
  auto routed_to_shm = [](std::uint64_t puts) {
    return puts / 100 * 90 + std::min<std::uint64_t>(puts % 100, 90);
  };
  Rng rng(99);
  for (int step = 0; step < 4000; ++step) {
    ASSERT_TRUE(
        rig.manager->touch(rng.next_below(64), rng.bernoulli(0.5)).ok());
    ASSERT_TRUE(rig.manager->wb_barrier().ok());
    const std::uint64_t puts = rig.manager->swap_outs();
    ASSERT_EQ(rig.client->puts_to_shm(), routed_to_shm(puts))
        << "step " << step;
    ASSERT_EQ(rig.client->puts_to_remote(), puts - routed_to_shm(puts))
        << "step " << step;
  }
  EXPECT_GT(rig.manager->swap_outs(), 200u);
  EXPECT_GT(compact_counter(rig, "committed"), 0u);
}

// ---- the swap worker -------------------------------------------------------

// Records the span names each trace opens, in order.
class SpanNames : public sim::SpanSink {
 public:
  std::uint64_t begin_span(std::uint64_t trace, std::uint32_t,
                           std::string_view subsystem,
                           std::string_view name) override {
    names[trace].emplace_back(name);
    subsystems[trace].emplace_back(subsystem);
    return ++next_;
  }
  void end_span(std::uint64_t) override {}
  void event(std::uint64_t, std::uint32_t, std::string_view,
             std::string_view) override {}

  std::map<std::uint64_t, std::vector<std::string>> names;
  std::map<std::uint64_t, std::vector<std::string>> subsystems;

 private:
  std::uint64_t next_ = 0;
};

SimTime dram_ns(Rig& rig) {
  return rig.system->fabric().config().latency.dram.overhead_ns;
}

// With the worker idle, a fault whose make_room writes out a dirty batch
// costs the faulting thread exactly what a fault that only drops a clean
// page does: the batch's LZ and its put are the worker's.
TEST(SwapWorkerTest, DirtyWriteOutCostsTheFaultNothing) {
  Rig rig(make_system(SystemKind::kFastSwap, 8));
  SpanNames spans;
  rig.manager->set_span_sink(&spans);
  auto& sim = rig.system->simulator();
  auto& m = rig.manager->metrics();
  auto fault_ns = [&](std::uint64_t page) {
    rig.system->run_for(1 * kMilli);
    EXPECT_LE(rig.manager->worker_free_at(), sim.now());  // worker idle
    const SimTime start = sim.now();
    EXPECT_TRUE(rig.manager->touch(page).ok());
    return sim.now() - start;
  };

  for (std::uint64_t p = 0; p < 8; ++p)
    ASSERT_TRUE(rig.manager->touch(p, /*write=*/true).ok());
  const SimTime dirty = fault_ns(100);  // make_room writes out 0..7
  ASSERT_EQ(m.counter_value("swap.wb.staged"), 1u);

  ASSERT_TRUE(rig.manager->flush_all().ok());
  ASSERT_TRUE(rig.manager->touch(0).ok());  // PBS: 0..7 come back clean
  const std::uint64_t drops = m.counter_value("swap.clean_drops");
  const SimTime clean = fault_ns(101);  // make_room drops page 0
  ASSERT_EQ(m.counter_value("swap.clean_drops"), drops + 1);
  ASSERT_EQ(m.counter_value("swap.wb.staged"), 2u);  // nothing new staged

  EXPECT_EQ(dirty, clean);
  EXPECT_EQ(dirty, dram_ns(rig));
  std::size_t fault_traces = 0;
  for (const auto& [trace, names] : spans.names) {
    if (names.front() != "swap.fault") continue;
    ++fault_traces;
    for (const std::string& name : names)
      EXPECT_NE(name, "compress.page") << "trace " << trace;
  }
  EXPECT_GT(fault_traces, 0u);
}

// Conservation: the worker is busy for exactly the swap CPU it took over
// from the faulting thread — every page compressed, every LZ sibling
// decoded and every swapped-out page's block-stack tax, cancelled batches
// included. The random phase narrows the PBS fan-out, so its rewrites no
// longer empty a staged batch. The last phase starts from an empty
// resident set, stages the dirty batch 100..107 and rewrites all of it
// before its flush deadline.
TEST(SwapWorkerTest, BusyTimeIsTheSwapCpuItTookOver) {
  auto setup = make_system(SystemKind::kFastSwap, 16);
  setup.swap.extra_op_overhead = 2 * kMicro;  // every term non-zero
  Rig rig(setup);
  Rng rng(7);
  for (int step = 0; step < 1500; ++step)
    ASSERT_TRUE(
        rig.manager->touch(rng.next_below(64), rng.bernoulli(0.3)).ok());
  ASSERT_TRUE(rig.manager->flush_all().ok());
  for (std::uint64_t p = 100; p < 117; ++p)  // 116 stages 100..107
    ASSERT_TRUE(rig.manager->touch(p, /*write=*/true).ok());
  const std::uint64_t cancelled =
      rig.manager->metrics().counter_value("swap.wb.cancelled_batches");
  for (std::uint64_t p = 100; p < 108; ++p)
    ASSERT_TRUE(rig.manager->touch(p, /*write=*/true).ok());
  EXPECT_EQ(
      rig.manager->metrics().counter_value("swap.wb.cancelled_batches"),
      cancelled + 1);
  ASSERT_TRUE(rig.manager->flush_all().ok());

  const auto& m = rig.manager->metrics();
  const std::uint64_t compressed =
      m.counter_value("swap.logical_bytes") / kPageBytes;
  const std::uint64_t decoded = m.counter_value("swap.worker.decoded_pages");
  const std::uint64_t swapped_out = m.counter_value("swap.swapped_out_pages");
  EXPECT_GT(compressed, 0u);
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(m.counter_value("swap.wb.cancelled_batches"), 0u);
  const auto& swap = rig.setup.swap;
  EXPECT_EQ(m.counter_value("swap.worker.busy_ns"),
            compressed * swap.compress_ns +
                decoded * SwapManager::kDecompressNs +
                swapped_out * swap.extra_op_overhead);
}

// A PBS fault restores every member at once, but the worker decodes the
// siblings one after another. A touch on a sibling it has not finished
// waits exactly until it has, and that wait is not a fault.
TEST(SwapWorkerTest, TouchOnADecodingSiblingWaitsForIt) {
  Rig rig(make_system(SystemKind::kFastSwap, 16));
  auto& sim = rig.system->simulator();
  for (std::uint64_t p = 0; p < 8; ++p) ASSERT_TRUE(rig.manager->touch(p).ok());
  ASSERT_TRUE(rig.manager->flush_all().ok());  // one 8-page LZ batch
  rig.system->run_for(1 * kMilli);

  ASSERT_TRUE(rig.manager->touch(0).ok());  // siblings 1..7 to the worker
  ASSERT_EQ(rig.manager->metrics().counter_value("swap.worker.decoded_pages"),
            7u);
  // The worker decodes in member order, so page 7 is ready last; page 1
  // is ready while the faulting thread decodes page 0.
  const SimTime ready = rig.manager->worker_free_at();
  const std::uint64_t faults = rig.manager->faults();
  ASSERT_TRUE(rig.manager->touch(1).ok());
  const Histogram& waits =
      rig.manager->metrics().histogram("swap.worker.wait_ns");
  EXPECT_EQ(waits.count(), 0u);
  const SimTime before = sim.now();
  ASSERT_GT(ready, before);
  ASSERT_TRUE(rig.manager->touch(7).ok());
  EXPECT_EQ(sim.now(), ready + dram_ns(rig));
  EXPECT_EQ(waits.count(), 1u);
  EXPECT_EQ(waits.max(), static_cast<std::uint64_t>(ready - before));
  EXPECT_EQ(rig.manager->faults(), faults);
  auto bytes = rig.manager->resident_bytes(7);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(fnv1a(*bytes), expected_checksum(7));
}

// The staging bound is the worker's backpressure: with room for one batch
// and a worker that takes 8 ms per batch, staging a second batch waits for
// the first to land. With the default bound the same fault does not wait.
TEST(SwapWorkerTest, SlowWorkerStallsTheAppAtTheStagingBound) {
  auto second_batch_ns = [](std::size_t bound) {
    auto setup = make_system(SystemKind::kFastSwap, 8);
    setup.swap.writeback_batches = bound;
    setup.swap.compress_ns = 1 * kMilli;
    Rig rig(setup);
    auto& sim = rig.system->simulator();
    for (std::uint64_t p = 0; p < 16; ++p)  // 0..7 staged at page 8
      EXPECT_TRUE(rig.manager->touch(p, /*write=*/true).ok());
    const SimTime start = sim.now();
    EXPECT_TRUE(rig.manager->touch(16, /*write=*/true).ok());  // 8..15
    EXPECT_LE(rig.manager->wb_staged_batches(), bound);
    return sim.now() - start;
  };
  EXPECT_GE(second_batch_ns(1), 8 * kMilli);
  EXPECT_LT(second_batch_ns(4), 1 * kMicro);
}

// A batch whose every member is rewritten after its flush handed it to the
// worker, but before the worker is done with it, is never put. With a 1 ms
// block-stack tax a page, the flush deadline hands the batch of pages 0..7
// to the worker for 8 ms; rewriting 0..7 meanwhile empties it, and the
// worker's post drops it. The pages are stored raw, so no touch waits for
// a sibling's decode behind that batch.
TEST(SwapWorkerTest, BatchRewrittenWhileTheWorkerHasItIsNeverPut) {
  auto setup = make_system(SystemKind::kFastSwap, 8);
  setup.swap.compression = CompressionMode::kOff;
  setup.swap.extra_op_overhead = 1 * kMilli;
  Rig rig(setup);
  for (std::uint64_t p = 0; p < 9; ++p)  // 8 stages 0..7
    ASSERT_TRUE(rig.manager->touch(p, /*write=*/true).ok());
  rig.system->run_for(100 * kMicro);  // past the flush deadline
  ASSERT_EQ(rig.manager->wb_in_flight(), 1u);
  for (std::uint64_t p = 0; p < 8; ++p)
    ASSERT_TRUE(rig.manager->touch(p, /*write=*/true).ok());
  auto& m = rig.manager->metrics();
  EXPECT_EQ(m.counter_value("swap.wb.cancelled_batches"), 0u);
  rig.system->run_for(20 * kMilli);  // the worker finishes with it
  EXPECT_EQ(m.counter_value("swap.wb.cancelled_batches"), 1u);
  EXPECT_EQ(rig.manager->wb_in_flight(), 0u);
  EXPECT_EQ(m.counter_value("swap.wb.late_removes"), 0u);  // never put
  ASSERT_TRUE(rig.manager->flush_all().ok());
  expect_no_orphans(rig);
  expect_pages_intact(rig, 9);
}

// A write-back put that lands after its manager is gone frees its entry,
// as a compaction's landing does: nothing would ever name it. Without
// compression the worker has no work, so each put goes out at its flush
// deadline and is still in flight when the manager goes. Four-page
// batches make the 16 writes stage two of them.
TEST(SwapWriteBackTest, PutLandingAfterDestructionFreesItsEntry) {
  auto setup = make_system(SystemKind::kFastSwap, 8);
  setup.swap.batch_pages = 4;
  setup.ldmc.shm_fraction = 0.0;
  setup.swap.compression = CompressionMode::kOff;
  Rig rig(setup);
  for (std::uint64_t p = 0; p < 16; ++p)
    ASSERT_TRUE(rig.manager->touch(p, /*write=*/true).ok());
  rig.system->run_for(setup.swap.writeback_flush_delay);
  ASSERT_EQ(rig.manager->wb_in_flight(), 2u);
  const auto at_destruction = stored_entries(*rig.client);
  rig.manager.reset();
  rig.system->run_for(10 * kMilli);
  EXPECT_EQ(rig.client->puts_to_remote(), 2u);  // both puts landed
  EXPECT_EQ(stored_entries(*rig.client), at_destruction);
}

// ---- PBS readahead ---------------------------------------------------------

// Remote memory without compression: every batch entry is an RDMA read
// away, so a readahead has a fetch to hide.
SystemSetup readahead_setup(std::uint64_t resident = 32) {
  auto setup = make_system(SystemKind::kFastSwap, resident);
  setup.ldmc.shm_fraction = 0.0;
  setup.swap.compression = CompressionMode::kOff;
  return setup;
}

// Writes pages [0, pages) once in order, so they go out as batch entries of
// consecutive pages, and lands every entry.
void write_sequentially(SwapManager& manager, std::uint64_t pages) {
  for (std::uint64_t p = 0; p < pages; ++p)
    ASSERT_TRUE(manager.touch(p, /*write=*/true).ok());
  ASSERT_TRUE(manager.wb_barrier().ok());
}

std::uint64_t readahead_counter(Rig& rig, const char* name) {
  return rig.manager->metrics().counter_value(std::string("swap.readahead.") +
                                              name);
}

// A scan over remote memory: once four PBS faults in a row have landed on
// their predicted page, every later PBS fault restores from a readahead,
// never more than two are held, and every page reads back byte for byte.
TEST(SwapReadaheadTest, SequentialScanOverRemoteMemoryHitsItsReadaheads) {
  Rig rig(readahead_setup());
  write_sequentially(*rig.manager, 256);
  ASSERT_TRUE(rig.manager->flush_all().ok());
  rig.system->run_for(1 * kMilli);
  const std::uint64_t pbs_before =
      rig.manager->metrics().counter_value("swap.pbs_batch_ins");
  for (std::uint64_t p = 0; p < 256; ++p) {
    ASSERT_TRUE(rig.manager->touch(p).ok()) << "page " << p;
    ASSERT_LE(rig.manager->readaheads_held(), SwapManager::kReadaheadBatches);
    auto bytes = rig.manager->resident_bytes(p);
    ASSERT_TRUE(bytes.ok());
    ASSERT_EQ(fnv1a(*bytes), expected_checksum(p)) << "page " << p;
  }
  // 32 PBS faults, one per 8-page entry. The first sets the prediction,
  // the next four build the streak, and the fifth posts the first window.
  const std::uint64_t pbs =
      rig.manager->metrics().counter_value("swap.pbs_batch_ins") - pbs_before;
  ASSERT_EQ(pbs, 32u);
  const std::uint64_t hits = readahead_counter(rig, "hits");
  EXPECT_EQ(hits, pbs - 1 - SwapManager::kReadaheadStreak);
  // Each fetched entry is used, except the window left held at the end.
  EXPECT_EQ(readahead_counter(rig, "dropped"), 0u);
  EXPECT_EQ(readahead_counter(rig, "issued"),
            hits + rig.manager->readaheads_held());
}

// A fault whose readahead is still in flight waits for it, and a traced
// one does so under a "net" span; each readahead is its own trace, rooted
// in a "swap.readahead" span.
TEST(SwapReadaheadTest, WaitOnARemoteReadaheadIsNetworkTime) {
  Rig rig(readahead_setup());
  write_sequentially(*rig.manager, 128);
  ASSERT_TRUE(rig.manager->flush_all().ok());
  SpanNames spans;
  rig.manager->set_span_sink(&spans);
  for (std::uint64_t p = 0; p < 128; ++p)
    ASSERT_TRUE(rig.manager->touch(p).ok());

  const Histogram* waits =
      rig.manager->metrics().find_histogram("swap.readahead.wait_ns");
  ASSERT_NE(waits, nullptr);
  EXPECT_GT(waits->count(), 0u);
  std::size_t readahead_traces = 0;
  std::size_t waiting_faults = 0;
  for (const auto& [trace, names] : spans.names) {
    if (names.front() == "swap.readahead") ++readahead_traces;
    if (names.front() != "swap.fault") continue;
    const auto wait = std::find(names.begin(), names.end(), "readahead.wait");
    if (wait == names.end()) continue;
    ++waiting_faults;
    EXPECT_EQ(spans.subsystems.at(trace)[wait - names.begin()], "net");
  }
  EXPECT_EQ(readahead_traces, readahead_counter(rig, "issued"));
  EXPECT_EQ(waiting_faults, waits->count());
}

// Device tiers are never read ahead: a Linux scan makes the same PBS
// faults and issues nothing.
TEST(SwapReadaheadTest, DeviceTierScanIssuesNoReadahead) {
  Rig rig(make_system(SystemKind::kLinux, 32), 2);
  write_sequentially(*rig.manager, 128);
  ASSERT_TRUE(rig.manager->flush_all().ok());
  expect_pages_intact(rig, 128);
  EXPECT_GT(rig.manager->metrics().counter_value("swap.pbs_batch_ins"), 8u);
  EXPECT_EQ(readahead_counter(rig, "issued"), 0u);
}

// The kv_zipf_ec setup (perfbench): RS(4,2) remote memory on 8 nodes, half
// of 2048 Memcached pages resident, a zipf key stream with 10% writes. Its
// faults never form a stream, so nothing is read ahead.
TEST(SwapReadaheadTest, ZipfTraceOnTheKvSetupIssuesNone) {
  auto setup = make_system(SystemKind::kFastSwap, 1024);
  setup.ldmc.shm_fraction = 0.0;
  setup.ldmc.allow_disk = false;
  setup.service.rdmc.ec_k = 4;
  setup.service.rdmc.ec_r = 2;
  setup.service.rdmc.min_shards = 4;
  Rig rig(setup, 8);
  const workloads::AppSpec app = *workloads::find_app("Memcached");
  for (std::uint64_t p = 0; p < 2048; ++p)
    ASSERT_TRUE(rig.manager->touch(p).ok());
  Rng rng(1);
  ZipfGenerator keys(2048, app.zipf_theta);
  for (int op = 0; op < 20000; ++op) {
    const bool write = rng.bernoulli(0.1);
    ASSERT_TRUE(rig.manager->touch(keys.next(rng), write).ok());
  }
  EXPECT_GT(rig.manager->metrics().counter_value("swap.pbs_batch_ins"),
            1000u);
  EXPECT_EQ(readahead_counter(rig, "issued"), 0u);
}

// A read-ahead entry is compacted. Pages 40..47 come back as one entry and
// 42..47 are rewritten, leaving 40 and 41 its live members. Then 40 goes
// out while 41 stays: with nine resident pages, a scan over 0..39 that
// touches 41 before each entry keeps it, and the PBS faults on 8, 16, 24
// and 32 land on their predictions. The fault on 40 uses the entry's
// readahead, drops 41 to make room, reads the entry with a quarter of it
// live, which begins its rewrite, and reads it ahead again for 41. The
// commit frees the entry with that readahead held: the readahead is
// dropped, and the fault on 41 fetches the new entry on demand.
TEST(SwapReadaheadTest, ReadaheadOfACompactedEntryIsDropped) {
  Rig rig(readahead_setup(/*resident=*/9));
  write_sequentially(*rig.manager, 96);
  ASSERT_TRUE(rig.manager->touch(40).ok());
  for (std::uint64_t p = 42; p < 48; ++p)
    ASSERT_TRUE(rig.manager->touch(p, /*write=*/true).ok());
  // Two dirty cold pages: the second drops 40, and the scan's first fault
  // writes them out with 42..47 as one full batch, so it stops short of 41.
  ASSERT_TRUE(rig.manager->touch(200, /*write=*/true).ok());
  ASSERT_TRUE(rig.manager->touch(201, /*write=*/true).ok());
  ASSERT_FALSE(rig.manager->is_resident(40));
  for (std::uint64_t p = 0; p < 40; ++p) {
    if (p % 8 == 0) {
      ASSERT_TRUE(rig.manager->touch(41).ok());
    }
    ASSERT_TRUE(rig.manager->touch(p).ok());
  }
  const std::uint64_t hits = readahead_counter(rig, "hits");
  ASSERT_TRUE(rig.manager->touch(40).ok());
  EXPECT_EQ(readahead_counter(rig, "hits"), hits + 1);
  EXPECT_FALSE(rig.manager->is_resident(41));
  ASSERT_EQ(rig.manager->compactions_pending(), 1u);
  ASSERT_TRUE(rig.manager->readahead_covers(41));
  const std::uint64_t dropped = readahead_counter(rig, "dropped");
  rig.system->run_for(1 * kMilli);
  ASSERT_TRUE(rig.manager->touch(40).ok());  // resident hit: safe point
  EXPECT_EQ(compact_counter(rig, "committed"), 1u);
  EXPECT_EQ(readahead_counter(rig, "dropped"), dropped + 1);
  EXPECT_FALSE(rig.manager->readahead_covers(41));
  ASSERT_TRUE(rig.manager->is_backed(41));
  const std::uint64_t faults = rig.manager->faults();
  ASSERT_TRUE(rig.manager->touch(41).ok());
  EXPECT_EQ(rig.manager->faults(), faults + 1);
  EXPECT_EQ(readahead_counter(rig, "hits"), hits + 1);
  auto bytes = rig.manager->resident_bytes(41);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(fnv1a(*bytes), expected_checksum(41));
  ASSERT_TRUE(rig.manager->flush_all().ok());
  expect_no_orphans(rig);
  expect_pages_intact(rig, 96);
}

// A manager destroyed with readaheads in flight: each get still lands,
// into a buffer it shares, and touches nothing of the manager.
TEST(SwapReadaheadTest, DestroyedManagerWithAReadaheadInFlight) {
  Rig rig(readahead_setup());
  write_sequentially(*rig.manager, 128);
  ASSERT_TRUE(rig.manager->flush_all().ok());
  SpanNames spans;
  rig.manager->set_span_sink(&spans);
  std::uint64_t p = 0;
  while (readahead_counter(rig, "issued") == 0)
    ASSERT_TRUE(rig.manager->touch(p++).ok());
  ASSERT_EQ(rig.manager->readaheads_held(), SwapManager::kReadaheadBatches);
  const auto entries = stored_entries(*rig.client);
  rig.manager.reset();
  rig.system->run_for(10 * kMilli);
  EXPECT_EQ(stored_entries(*rig.client), entries);
}

// ---- PBS fan-out -----------------------------------------------------------

std::uint64_t pbs_counter(Rig& rig, const char* name) {
  return rig.manager->metrics().counter_value(std::string("swap.pbs.") + name);
}

// A sequential scan over four times the resident set touches every sibling
// a PBS fault restores, and each later fault lands on its prediction, so
// the fan-out never narrows.
TEST(SwapFanOutTest, SequentialScanNeverNarrows) {
  Rig rig(make_system(SystemKind::kFastSwap, 32));
  write_sequentially(*rig.manager, 128);
  for (int pass = 0; pass < 4; ++pass)
    for (std::uint64_t p = 0; p < 128; ++p)
      ASSERT_TRUE(rig.manager->touch(p).ok()) << "page " << p;
  EXPECT_GE(rig.manager->metrics().counter_value("swap.pbs_batch_ins"), 64u);
  EXPECT_GT(pbs_counter(rig, "siblings_used"), 0u);
  EXPECT_EQ(pbs_counter(rig, "narrowed_ins"), 0u);
  EXPECT_TRUE(rig.manager->pbs_fan_out_full());
  expect_pages_intact(rig, 128);
}

// A uniform random stream over four times the resident set touches few of
// the siblings it restores (9 of the first 66 here), so the fan-out
// narrows within a dozen PBS faults and later ones restore the faulted
// page alone.
TEST(SwapFanOutTest, UniformRandomStreamNarrows) {
  Rig rig(make_system(SystemKind::kFastSwap, 32));
  write_sequentially(*rig.manager, 128);
  Rng rng(5);
  for (int step = 0; step < 2000; ++step)
    ASSERT_TRUE(rig.manager->touch(rng.next_below(128)).ok());
  const std::uint64_t pbs =
      rig.manager->metrics().counter_value("swap.pbs_batch_ins");
  EXPECT_GT(pbs_counter(rig, "narrowed_ins"), pbs / 2);
  EXPECT_GT(pbs_counter(rig, "siblings_wasted"),
            SwapManager::kFanOutUseWeight * pbs_counter(rig, "siblings_used"));
  EXPECT_FALSE(rig.manager->pbs_fan_out_full());
  expect_pages_intact(rig, 128);
}

// D4 (EXPERIMENTS.md) on Fig 9's cold restart, scaled down: 1024 pages, a
// quarter resident, a zipf(0.99) warm-up, flush_all, then a measured zipf
// stream with 10% writes and 800 ns of compute per op. Most restored
// siblings go unused, so FastSwap's PBS faults narrow and restore one page
// each, as FastSwap w/o PBS does, but each reads only that page where
// FastSwap w/o PBS fetches the whole entry. Over seeds 1-6 FastSwap
// finished 12.2-12.8% sooner; reading whole entries, it finished
// 0.03-0.16% later, and restoring every member on every PBS fault 10-13%
// later.
TEST(SwapFanOutTest, ZipfRestartRunsAsFastAsNoPbs) {
  auto elapsed = [](SystemKind kind) {
    Rig rig(make_system(kind, 256));
    Rng rng(1);
    ZipfGenerator keys(1024, 0.99);
    auto run = [&](int ops) {
      for (int op = 0; op < ops; ++op) {
        rig.system->run_for(800);
        const bool write = rng.bernoulli(0.1);
        EXPECT_TRUE(rig.manager->touch(keys.next(rng), write).ok());
      }
    };
    for (std::uint64_t p = 0; p < 1024; ++p)
      EXPECT_TRUE(rig.manager->touch(p).ok());
    run(10000);
    EXPECT_TRUE(rig.manager->flush_all().ok());
    const SimTime start = rig.system->simulator().now();
    run(5000);
    return rig.system->simulator().now() - start;
  };
  const SimTime fastswap = elapsed(SystemKind::kFastSwap);
  const SimTime no_pbs = elapsed(SystemKind::kFastSwapNoPbs);
  EXPECT_LT(fastswap, no_pbs - no_pbs / 10);
}

// ---- one-page reads ----------------------------------------------------------

// kv_zipf_ec's RS(4,2) remote memory on 8 nodes, with raw pages and 8
// resident: a batch entry of pages 8n..8n+7 stripes into four 8 KiB data
// shards, and data shard i holds pages 8n+2i and 8n+2i+1.
SystemSetup ec_page_setup() {
  auto setup = make_system(SystemKind::kFastSwap, 8);
  setup.ldmc.shm_fraction = 0.0;
  setup.ldmc.allow_disk = false;
  setup.service.rdmc.ec_k = 4;
  setup.service.rdmc.ec_r = 2;
  setup.service.rdmc.min_shards = 4;
  setup.swap.compression = CompressionMode::kOff;
  return setup;
}

// Narrows the PBS fan-out over pages written by write_sequentially with 8
// resident: the fault on 0 restores 0..7, and the fault on 16, which 0's
// did not predict, restores 16..23 and drops 1..7 untouched, seven wastes
// against no use. Leaves 16..23 resident and predicts 24.
void narrow_fan_out(Rig& rig) {
  ASSERT_TRUE(rig.manager->touch(0).ok());
  ASSERT_TRUE(rig.manager->touch(16).ok());
  ASSERT_EQ(pbs_counter(rig, "siblings_wasted"), 7u);
  ASSERT_FALSE(rig.manager->pbs_fan_out_full());
}

// The stored copy of `entry`'s shard `shard` (for k = 1, its copy).
mem::RemoteReplica shard_replica(Rig& rig, mem::EntryId entry,
                                 std::uint32_t shard) {
  const auto location = rig.client->map().lookup(entry);
  if (location.ok())
    for (const auto& replica : location->replicas)
      if (replica.shard == shard) return replica;
  ADD_FAILURE() << "entry " << entry << " has no shard " << shard;
  return {};
}

// The index of the node that hosts `replica`.
std::size_t host_index(Rig& rig, const mem::RemoteReplica& replica) {
  for (std::size_t i = 0; i < rig.system->node_count(); ++i)
    if (rig.system->node(i).id() == replica.node) return i;
  ADD_FAILURE() << "no node " << replica.node;
  return 0;
}

// Flips the byte `at` bytes into `entry`'s shard `shard`.
void flip_shard_byte(Rig& rig, mem::EntryId entry, std::uint32_t shard,
                     std::size_t at) {
  const mem::RemoteReplica replica = shard_replica(rig, entry, shard);
  ASSERT_NE(replica.node, net::kInvalidNode);
  auto bytes =
      rig.system->node(host_index(rig, replica))
          .recv_pool()
          .block_bytes({replica.slab, replica.rkey, replica.offset,
                        replica.block_size});
  bytes[at] ^= std::byte{0x40};
}

std::uint64_t fabric_counter(Rig& rig, const char* name) {
  return rig.system->fabric().metrics().counter_value(name);
}

void expect_page_intact(Rig& rig, std::uint64_t page) {
  auto bytes = rig.manager->resident_bytes(page);
  ASSERT_TRUE(bytes.ok()) << "page " << page;
  EXPECT_EQ(fnv1a(*bytes), expected_checksum(page)) << "page " << page;
}

// A narrowed fault reads its page's 4 KiB from the one data shard that
// holds it, where a whole-entry read takes four 8 KiB shard reads.
TEST(SwapPageReadTest, NarrowedFaultReadsOnlyItsPagesShards) {
  Rig rig(ec_page_setup(), 8);
  write_sequentially(*rig.manager, 64);
  narrow_fan_out(rig);
  const std::uint64_t reads = fabric_counter(rig, "fabric.reads");
  const std::uint64_t bytes = fabric_counter(rig, "fabric.bytes_transferred");
  ASSERT_TRUE(rig.manager->touch(32).ok());
  EXPECT_EQ(pbs_counter(rig, "narrowed_ins"), 1u);
  EXPECT_EQ(pbs_counter(rig, "page_reads"), 1u);
  EXPECT_LE(fabric_counter(rig, "fabric.reads"), reads + 2);
  EXPECT_LE(fabric_counter(rig, "fabric.bytes_transferred"),
            bytes + 2 * (8 * kPageBytes / 4));
  EXPECT_FALSE(rig.manager->is_resident(33));
  expect_page_intact(rig, 32);
}

// A range read degrades only when a shard it covers is lost. With the
// host of shard 1 down, the fault on page 40 (shard 0) reads its shard
// directly; with the host of shard 0 down, the fault on page 32 decodes
// the stripe and still restores exact bytes.
TEST(SwapPageReadTest, RangeReadDegradesOnlyWhenItsShardIsLost) {
  Rig rig(ec_page_setup(), 8);
  write_sequentially(*rig.manager, 64);
  narrow_fan_out(rig);
  const auto& ec = rig.system->service(0).metrics();
  const mem::EntryId entry_40 = rig.manager->backing_entry(40);
  const mem::EntryId entry_32 = rig.manager->backing_entry(32);
  const std::size_t off_page =
      host_index(rig, shard_replica(rig, entry_40, 1));
  ASSERT_NE(off_page, 0u);  // the client's node stays up
  rig.system->crash_node(off_page);
  const std::uint64_t degraded = ec.counter_value("ec.degraded_reads");
  ASSERT_TRUE(rig.manager->touch(40).ok());
  EXPECT_EQ(ec.counter_value("ec.degraded_reads"), degraded);
  expect_page_intact(rig, 40);

  const std::size_t on_page =
      host_index(rig, shard_replica(rig, entry_32, 0));
  ASSERT_NE(on_page, 0u);
  rig.system->crash_node(on_page);
  ASSERT_TRUE(rig.manager->touch(32).ok());
  EXPECT_EQ(ec.counter_value("ec.degraded_reads"), degraded + 1);
  EXPECT_EQ(pbs_counter(rig, "page_reads"), 2u);
  expect_page_intact(rig, 32);
}

// A one-page read is checked against the page's checksum: a flipped byte
// in page 33's slice of shard 0 leaves the read of page 32 intact, and one
// in page 40's own slice fails its touch.
TEST(SwapPageReadTest, FlippedByteFailsOnlyTheReadOfItsPage) {
  Rig rig(ec_page_setup(), 8);
  write_sequentially(*rig.manager, 64);
  narrow_fan_out(rig);
  flip_shard_byte(rig, rig.manager->backing_entry(33), 0, kPageBytes + 100);
  ASSERT_TRUE(rig.manager->touch(32).ok());
  expect_page_intact(rig, 32);

  flip_shard_byte(rig, rig.manager->backing_entry(40), 0, 100);
  EXPECT_EQ(rig.manager->touch(40).code(), StatusCode::kDataLoss);
  EXPECT_FALSE(rig.manager->is_resident(40));
  EXPECT_EQ(pbs_counter(rig, "page_reads"), 2u);
}

// A narrowed fault on an entry due for compaction reads it whole, and the
// rewrite is issued at that fault. Rewriting 29 down to 24, none of them
// predicted, leaves 30 and 31 the live quarter of their entry.
TEST(SwapPageReadTest, NarrowedFaultOnAnEntryDueForCompactionReadsItWhole) {
  Rig rig(compaction_setup());
  write_sequentially(*rig.manager, 64);
  narrow_fan_out(rig);
  for (std::uint64_t p = 29; p >= 24; --p)
    ASSERT_TRUE(rig.manager->touch(p, /*write=*/true).ok());
  const std::uint64_t narrowed = pbs_counter(rig, "narrowed_ins");
  const std::uint64_t page_reads = pbs_counter(rig, "page_reads");
  ASSERT_EQ(compact_counter(rig, "issued"), 0u);
  ASSERT_TRUE(rig.manager->touch(31).ok());
  EXPECT_EQ(pbs_counter(rig, "narrowed_ins"), narrowed + 1);
  EXPECT_EQ(pbs_counter(rig, "page_reads"), page_reads);
  EXPECT_EQ(compact_counter(rig, "issued"), 1u);
  EXPECT_FALSE(rig.manager->is_resident(30));
  rig.system->run_for(1 * kMilli);
  ASSERT_TRUE(rig.manager->flush_all().ok());
  EXPECT_EQ(compact_counter(rig, "committed"), 1u);
  expect_no_orphans(rig);
  expect_pages_intact(rig, 64);
}

// A narrowed fault on an entry a readahead holds takes the readahead's
// buffer and posts no read. Five PBS faults in stride over remote memory,
// 40 pages resident, read ahead the entries of 40..47 and 48..55. Faults
// from the top of the page space down break the stream, which keeps its
// readaheads, and drop their unused siblings until the fan-out narrows.
TEST(SwapPageReadTest, NarrowedFaultOnAReadAheadEntryPostsNoRead) {
  Rig rig(readahead_setup(/*resident=*/40));
  write_sequentially(*rig.manager, 256);
  ASSERT_TRUE(rig.manager->flush_all().ok());
  for (std::uint64_t p = 0; p <= 32; p += 8)
    ASSERT_TRUE(rig.manager->touch(p).ok());
  ASSERT_EQ(rig.manager->readaheads_held(), SwapManager::kReadaheadBatches);
  for (std::uint64_t p = 248; rig.manager->pbs_fan_out_full(); p -= 8) {
    ASSERT_GT(p, 56u);
    ASSERT_TRUE(rig.manager->touch(p).ok());
  }
  ASSERT_TRUE(rig.manager->readahead_covers(47));
  rig.system->run_for(1 * kMilli);  // the readaheads land
  const std::uint64_t reads = fabric_counter(rig, "fabric.reads");
  const std::uint64_t narrowed = pbs_counter(rig, "narrowed_ins");
  const std::uint64_t hits = readahead_counter(rig, "hits");
  ASSERT_TRUE(rig.manager->touch(47).ok());
  EXPECT_EQ(pbs_counter(rig, "narrowed_ins"), narrowed + 1);
  EXPECT_EQ(pbs_counter(rig, "page_reads"), 0u);
  EXPECT_EQ(readahead_counter(rig, "hits"), hits + 1);
  EXPECT_EQ(fabric_counter(rig, "fabric.reads"), reads);
  EXPECT_FALSE(rig.manager->is_resident(46));
  expect_page_intact(rig, 47);
}

// FastSwap w/o PBS with one-page batches reads each page's entry as a
// range, and checks it as a whole-entry read is checked: a flipped byte of
// the page's one remote copy fails the touch.
TEST(SwapPageReadTest, NoPbsOnePageReadCatchesACorruptedCopy) {
  auto setup = make_system(SystemKind::kFastSwapNoPbs, 8);
  setup.swap.batch_pages = 1;
  setup.swap.compression = CompressionMode::kOff;
  setup.ldmc.shm_fraction = 0.0;
  Rig rig(setup);
  write_sequentially(*rig.manager, 16);
  flip_shard_byte(rig, rig.manager->backing_entry(0), 0, 100);
  EXPECT_EQ(rig.manager->touch(0).code(), StatusCode::kDataLoss);
  EXPECT_FALSE(rig.manager->is_resident(0));
  ASSERT_TRUE(rig.manager->touch(1).ok());
  expect_page_intact(rig, 1);
}

// Without PBS a fault reads its entry whole only while the batch holds
// another live member; an entry due for compaction does not change that.
// Rewriting 0..6 while their batch is staged leaves page 7 the one live
// member of its 32 KiB entry, an eighth of it, so the entry is due, and
// the fault on 7 reads only its slice: nothing is rewritten.
TEST(SwapPageReadTest, NoPbsFaultNeverReadsAnEntryWholeToCompactIt) {
  auto setup = make_system(SystemKind::kFastSwapNoPbs, 8);
  setup.swap.compression = CompressionMode::kOff;
  Rig rig(setup);
  for (std::uint64_t p = 0; p < 16; ++p)
    ASSERT_TRUE(rig.manager->touch(p).ok());  // 0..7 go out as one batch
  for (std::uint64_t p = 0; p < 7; ++p)
    ASSERT_TRUE(rig.manager->touch(p, /*write=*/true).ok());
  ASSERT_TRUE(rig.manager->wb_barrier().ok());
  ASSERT_EQ(compact_counter(rig, "issued"), 0u);
  const mem::EntryId entry = rig.manager->backing_entry(7);
  ASSERT_NE(entry, 0u);
  ASSERT_TRUE(rig.manager->touch(7).ok());
  EXPECT_EQ(compact_counter(rig, "issued"), 0u);
  rig.system->run_for(1 * kMilli);
  ASSERT_TRUE(rig.manager->touch(7).ok());  // resident hit: safe point
  EXPECT_EQ(rig.manager->backing_entry(7), entry);
  expect_page_intact(rig, 7);
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
