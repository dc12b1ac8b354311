// End-to-end tests for the disaggregated memory core: tier routing, atomic
// replication, failover, repair, eviction drains, and data integrity.
#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/status.h"
#include "common/units.h"
#include "core/dm_system.h"
#include "core/ldmc.h"
#include "core/node_service.h"
#include "mem/memory_map.h"
#include "workloads/page_content.h"

namespace dm::core {
namespace {

std::vector<std::byte> page_data(std::uint64_t id, double r = 0.5) {
  std::vector<std::byte> bytes(4096);
  workloads::fill_page(bytes, id, r, 7);
  return bytes;
}

core::DmSystem::Config small_cluster(std::size_t nodes = 4) {
  core::DmSystem::Config config;
  config.node_count = nodes;
  config.node.shm.arena_bytes = 4 * MiB;
  config.node.recv.arena_bytes = 8 * MiB;
  config.node.disk.capacity_bytes = 64 * MiB;
  config.service.rdmc.ec_r = 2;  // 3 copies
  return config;
}

TEST(DmSystemTest, BringUpAndTopology) {
  DmSystem system(small_cluster(6));
  system.start();
  EXPECT_EQ(system.node_count(), 6u);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_TRUE(system.node(i).up());
}

TEST(DmSystemTest, ShmFirstPutServedAtDramSpeed) {
  DmSystem system(small_cluster());
  system.start();
  auto& client = system.create_server(0, 64 * MiB);

  const auto data = page_data(1);
  const SimTime before = system.simulator().now();
  ASSERT_TRUE(client.put_sync(1, data).ok());
  const SimTime put_cost = system.simulator().now() - before;

  EXPECT_EQ(client.puts_to_shm(), 1u);
  EXPECT_EQ(client.map().lookup(1)->tier, mem::Tier::kSharedMemory);
  // Served locally: far below one RDMA round trip.
  EXPECT_LT(put_cost, 2 * kMicro);

  std::vector<std::byte> out(4096);
  ASSERT_TRUE(client.get_sync(1, out).ok());
  EXPECT_EQ(out, data);
}

TEST(DmSystemTest, RemotePutIsReplicatedOnDistinctNodes) {
  auto config = small_cluster();
  DmSystem system(config);
  system.start();
  LdmcOptions options;
  options.shm_fraction = 0.0;  // force remote
  auto& client = system.create_server(0, 64 * MiB, options);

  const auto data = page_data(2);
  ASSERT_TRUE(client.put_sync(2, data).ok());
  auto loc = client.map().lookup(2);
  ASSERT_TRUE(loc.ok());
  EXPECT_EQ(loc->tier, mem::Tier::kRemote);
  ASSERT_EQ(loc->replicas.size(), 3u);
  std::set<net::NodeId> nodes;
  for (const auto& r : loc->replicas) {
    nodes.insert(r.node);
    EXPECT_NE(r.node, system.node(0).id());  // never self
  }
  EXPECT_EQ(nodes.size(), 3u);

  std::vector<std::byte> out(4096);
  ASSERT_TRUE(client.get_sync(2, out).ok());
  EXPECT_EQ(out, data);
}

TEST(DmSystemTest, RemoteGetFailsOverWhenReplicaDies) {
  DmSystem system(small_cluster());
  system.start();
  LdmcOptions options;
  options.shm_fraction = 0.0;
  auto& client = system.create_server(0, 64 * MiB, options);

  const auto data = page_data(3);
  ASSERT_TRUE(client.put_sync(3, data).ok());
  auto loc = client.map().lookup(3);
  ASSERT_TRUE(loc.ok());

  // Kill the first replica host; the read must fail over.
  const net::NodeId dead = loc->replicas.front().node;
  system.fabric().set_node_up(dead, false);
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(client.get_sync(3, out).ok());
  EXPECT_EQ(out, data);
}

TEST(DmSystemTest, RepairRestoresReplicationFactor) {
  DmSystem system(small_cluster(5));
  system.start();
  LdmcOptions options;
  options.shm_fraction = 0.0;
  auto& client = system.create_server(0, 64 * MiB, options);

  const auto data = page_data(4);
  ASSERT_TRUE(client.put_sync(4, data).ok());
  const net::NodeId dead = client.map().lookup(4)->replicas.front().node;

  system.crash_node(dead);
  // Let failure detection + repair run.
  system.run_for(10 * kSecond);

  auto loc = client.map().lookup(4);
  ASSERT_TRUE(loc.ok());
  EXPECT_EQ(loc->replicas.size(), 3u);
  for (const auto& r : loc->replicas) EXPECT_NE(r.node, dead);
  EXPECT_GE(system.service(0).metrics().counter_value(
                "ldms.repaired_entries"), 1u);
  EXPECT_EQ(system.service(0).data_loss_entries(), 0u);

  std::vector<std::byte> out(4096);
  ASSERT_TRUE(client.get_sync(4, out).ok());
  EXPECT_EQ(out, data);
}

TEST(DmSystemTest, ShmOverflowSpillsLruToRemote) {
  auto config = small_cluster();
  config.node.shm.arena_bytes = 256 * KiB;  // tiny pool
  DmSystem system(config);
  system.start();
  LdmcOptions options;
  options.shm_fraction = 1.0;
  // Server donates 10% of 2.5 MiB = 256 KiB (matches the arena).
  auto& client = system.create_server(0, 2560 * KiB, options);

  // Write enough 4 KiB entries to overflow the pool several times.
  for (std::uint64_t id = 0; id < 256; ++id)
    ASSERT_TRUE(client.put_sync(id, page_data(id)).ok()) << id;

  EXPECT_GT(system.service(0).metrics().counter_value(
                "ldms.spilled_to_remote"), 0u);
  // Every entry must still be readable and intact, wherever it lives.
  std::vector<std::byte> out(4096);
  for (std::uint64_t id = 0; id < 256; ++id) {
    ASSERT_TRUE(client.get_sync(id, out).ok()) << id;
    ASSERT_EQ(fnv1a(out), fnv1a(page_data(id))) << id;
  }
}

TEST(DmSystemTest, FallsBackToDiskWhenClusterFull) {
  auto config = small_cluster(2);  // one peer only
  config.node.shm.arena_bytes = 64 * KiB;
  config.node.recv.arena_bytes = 256 * KiB;
  config.service.rdmc.ec_r = 0;  // one copy
  DmSystem system(config);
  system.start();
  auto& client = system.create_server(0, 640 * KiB);

  // Overflow shm (64 KiB donated) and the peer's 256 KiB recv pool.
  for (std::uint64_t id = 0; id < 256; ++id)
    ASSERT_TRUE(client.put_sync(id, page_data(id)).ok()) << id;
  EXPECT_GT(client.puts_to_disk(), 0u);

  std::vector<std::byte> out(4096);
  for (std::uint64_t id = 0; id < 256; ++id) {
    ASSERT_TRUE(client.get_sync(id, out).ok()) << id;
    ASSERT_EQ(fnv1a(out), fnv1a(page_data(id))) << id;
  }
}

TEST(DmSystemTest, RatioRoutingSplitsTraffic) {
  DmSystem system(small_cluster());
  system.start();
  LdmcOptions options;
  options.shm_fraction = 0.7;
  auto& client = system.create_server(0, 64 * MiB, options);
  for (std::uint64_t id = 0; id < 100; ++id)
    ASSERT_TRUE(client.put_sync(id, page_data(id)).ok());
  EXPECT_EQ(client.puts_to_shm(), 70u);
  EXPECT_EQ(client.puts_to_remote(), 30u);
}

TEST(DmSystemTest, RemoveFreesEveryTier) {
  DmSystem system(small_cluster());
  system.start();
  LdmcOptions remote_only;
  remote_only.shm_fraction = 0.0;
  auto& client = system.create_server(0, 64 * MiB, remote_only);

  ASSERT_TRUE(client.put_sync(1, page_data(1)).ok());
  const auto replicas = client.map().lookup(1)->replicas;
  ASSERT_TRUE(client.remove_sync(1).ok());
  EXPECT_FALSE(client.contains(1));
  // Hosted blocks must be gone on the replica nodes.
  for (const auto& replica : replicas) {
    for (std::size_t i = 0; i < system.node_count(); ++i) {
      if (system.node(i).id() != replica.node) continue;
      EXPECT_EQ(system.service(i).rdms().hosted_blocks(), 0u);
    }
  }
}

// Receive-pool blocks are exact-fit up to one slab (256 KiB by default), so
// an incompressible 96 KiB entry goes remote rather than to disk. An entry
// larger than a slab still goes to disk.
TEST(DmSystemTest, EntryUpToOneSlabGoesRemote) {
  DmSystem system(small_cluster());
  system.start();
  LdmcOptions remote_first;
  remote_first.shm_fraction = 0.0;
  auto& client = system.create_server(0, 64 * MiB, remote_first);
  auto incompressible = [](std::uint64_t id, std::size_t pages) {
    std::vector<std::byte> bytes(pages * 4096);
    for (std::size_t p = 0; p < pages; ++p)
      workloads::fill_page(std::span(bytes).subspan(p * 4096, 4096),
                           id * 1000 + p, 1.0, 7);
    return bytes;
  };

  const auto fits = incompressible(1, 24);  // 96 KiB
  ASSERT_TRUE(client.put_sync(1, fits).ok());
  auto loc = client.map().lookup(1);
  ASSERT_TRUE(loc.ok());
  EXPECT_EQ(loc->tier, mem::Tier::kRemote);
  ASSERT_EQ(loc->replicas.size(), 3u);
  for (const auto& replica : loc->replicas)
    EXPECT_EQ(replica.block_size, 96 * KiB);
  std::vector<std::byte> out(fits.size());
  ASSERT_TRUE(client.get_sync(1, out).ok());
  EXPECT_EQ(out, fits);

  const auto too_big = incompressible(2, 65);  // 260 KiB > one slab
  ASSERT_TRUE(client.put_sync(2, too_big).ok());
  EXPECT_EQ(client.map().lookup(2)->tier, mem::Tier::kDisk);
}

TEST(DmSystemTest, GetOnMissingEntryFails) {
  DmSystem system(small_cluster());
  system.start();
  auto& client = system.create_server(0, 64 * MiB);
  std::vector<std::byte> out(4096);
  EXPECT_EQ(client.get_sync(99, out).code(), StatusCode::kNotFound);
  EXPECT_EQ(client.remove_sync(99).code(), StatusCode::kNotFound);
}

TEST(DmSystemTest, OverwriteReplacesContents) {
  DmSystem system(small_cluster());
  system.start();
  auto& client = system.create_server(0, 64 * MiB);
  ASSERT_TRUE(client.put_sync(1, page_data(1)).ok());
  const auto newer = page_data(999);
  ASSERT_TRUE(client.put_sync(1, newer).ok());
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(client.get_sync(1, out).ok());
  EXPECT_EQ(out, newer);
}

TEST(DmSystemTest, ChecksumVerificationCatchesNothingOnHealthyPath) {
  DmSystem system(small_cluster());
  system.start();
  LdmcOptions options;
  options.shm_fraction = 0.5;
  auto& client = system.create_server(0, 64 * MiB, options);
  std::vector<std::byte> out(4096);
  for (std::uint64_t id = 0; id < 50; ++id) {
    ASSERT_TRUE(client.put_sync(id, page_data(id)).ok());
    ASSERT_TRUE(client.get_sync(id, out).ok());
  }
}

// For a k = 1 copy the put's checksum is the only integrity check, so a
// full get always verifies it.
TEST(DmSystemTest, FullGetCatchesACorruptedCopy) {
  DmSystem system(small_cluster());
  system.start();
  LdmcOptions remote_only;
  remote_only.shm_fraction = 0.0;
  auto& client = system.create_server(0, 64 * MiB, remote_only);
  ASSERT_TRUE(client.put_sync(1, page_data(1)).ok());
  const auto loc = client.map().lookup(1);
  ASSERT_TRUE(loc.ok());
  ASSERT_EQ(loc->tier, mem::Tier::kRemote);

  // Flip a byte of the copy a read tries first.
  const mem::RemoteReplica& first = loc->replicas.front();
  for (std::size_t i = 0; i < system.node_count(); ++i) {
    if (system.node(i).id() != first.node) continue;
    auto bytes = system.node(i).recv_pool().block_bytes(
        {first.slab, first.rkey, first.offset, first.block_size});
    bytes[100] ^= std::byte{0x40};
  }
  std::vector<std::byte> out(4096);
  EXPECT_EQ(client.get_sync(1, out).code(), StatusCode::kDataLoss);
}

TEST(DmSystemTest, GetRangeReadsSubEntry) {
  DmSystem system(small_cluster());
  system.start();
  LdmcOptions remote_only;
  remote_only.shm_fraction = 0.0;
  auto& client = system.create_server(0, 64 * MiB, remote_only);
  const auto data = page_data(1);
  ASSERT_TRUE(client.put_sync(1, data).ok());
  std::vector<std::byte> out(256);
  ASSERT_TRUE(client.get_range_sync(1, 1024, out).ok());
  EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin() + 1024));
  EXPECT_EQ(client.get_range_sync(1, 4000, out).code(),
            StatusCode::kInvalidArgument);
}

TEST(DmSystemTest, EvictionDrainMigratesHostedEntries) {
  auto config = small_cluster(4);
  config.service.rdmc.ec_r = 0;  // one copy
  DmSystem system(config);
  system.start();
  LdmcOptions remote_only;
  remote_only.shm_fraction = 0.0;
  auto& client = system.create_server(0, 64 * MiB, remote_only);

  // Place several entries remotely.
  for (std::uint64_t id = 0; id < 32; ++id)
    ASSERT_TRUE(client.put_sync(id, page_data(id)).ok());

  // Find a node hosting blocks and drain one of its slabs.
  for (std::size_t i = 1; i < system.node_count(); ++i) {
    auto& service = system.service(i);
    if (service.rdms().hosted_blocks() == 0) continue;
    auto slab = system.node(i).recv_pool().least_loaded_slab();
    ASSERT_TRUE(slab.has_value());
    bool drained = false;
    Status drain_status;
    service.rdms().drain_slab(*slab, [&](const Status& s) {
      drain_status = s;
      drained = true;
    });
    ASSERT_TRUE(system.simulator().run_until_flag(
        drained, system.simulator().now() + 60 * kSecond));
    EXPECT_TRUE(drain_status.ok()) << drain_status;
    break;
  }

  // All entries still intact after migration.
  std::vector<std::byte> out(4096);
  for (std::uint64_t id = 0; id < 32; ++id) {
    ASSERT_TRUE(client.get_sync(id, out).ok()) << id;
    ASSERT_EQ(fnv1a(out), fnv1a(page_data(id))) << id;
  }
  EXPECT_GE(system.total_counter("ldms.migrated_entries"), 1u);
}

TEST(DmSystemTest, BallooningAdviceEmittedForHotServer) {
  auto config = small_cluster();
  config.service.eviction.enabled = true;
  DmSystem system(config);
  system.start();
  auto& client = system.create_server(0, 64 * MiB);
  const double before =
      system.node(0).find_server(client.server())->donation_fraction();

  // Well past the monitor's 32-requests-a-period hot threshold.
  for (std::uint64_t id = 0; id < 96; ++id)
    ASSERT_TRUE(client.put_sync(id, page_data(id)).ok());
  system.service(0).eviction_tick();

  EXPECT_GE(system.service(0).metrics().counter_value(
                "eviction.balloon_advice"), 1u);
  // Ballooning is advice: the server's donation does not move.
  EXPECT_DOUBLE_EQ(
      system.node(0).find_server(client.server())->donation_fraction(),
      before);
}

TEST(DmSystemTest, NvmTierSitsBetweenRemoteAndDisk) {
  auto config = small_cluster(2);  // one starved peer
  config.node.shm.arena_bytes = 64 * KiB;
  config.node.recv.arena_bytes = 256 * KiB;
  config.node.nvm.capacity_bytes = 1 * MiB;  // enable the NVM tier
  config.service.rdmc.ec_r = 0;  // one copy
  DmSystem system(config);
  system.start();
  auto& client = system.create_server(0, 640 * KiB);

  // Overflow shm (64 KiB) and the peer's 256 KiB recv pool: the next stop
  // is NVM, and only past 1 MiB of NVM does anything reach the disk.
  for (std::uint64_t id = 0; id < 256; ++id)
    ASSERT_TRUE(client.put_sync(id, page_data(id)).ok()) << id;
  EXPECT_GT(client.puts_to_nvm(), 0u);

  std::vector<std::byte> out(4096);
  for (std::uint64_t id = 0; id < 256; ++id) {
    ASSERT_TRUE(client.get_sync(id, out).ok()) << id;
    ASSERT_EQ(fnv1a(out), fnv1a(page_data(id))) << id;
  }
  // Remove an NVM entry and verify its extent is reusable.
  mem::EntryId nvm_entry = 0;
  client.map().for_each([&](mem::EntryId id, const mem::EntryLocation& loc) {
    if (loc.tier == mem::Tier::kNvm) nvm_entry = id;
  });
  ASSERT_TRUE(client.remove_sync(nvm_entry).ok());
  EXPECT_FALSE(client.contains(nvm_entry));
}

TEST(DmSystemTest, NvmFasterThanDiskForOverflow) {
  auto run = [](bool with_nvm) {
    auto config = small_cluster(2);
    config.node.shm.arena_bytes = 64 * KiB;
    config.node.recv.arena_bytes = 256 * KiB;
    if (with_nvm) config.node.nvm.capacity_bytes = 8 * MiB;
    config.service.rdmc.ec_r = 0;  // one copy
    DmSystem system(config);
    system.start();
    auto& client = system.create_server(0, 640 * KiB);
    const SimTime start = system.simulator().now();
    std::vector<std::byte> out(4096);
    for (std::uint64_t id = 0; id < 128; ++id) {
      EXPECT_TRUE(client.put_sync(id, page_data(id)).ok());
    }
    for (std::uint64_t id = 0; id < 128; ++id)
      EXPECT_TRUE(client.get_sync(id, out).ok());
    return system.simulator().now() - start;
  };
  EXPECT_LT(run(true) * 2, run(false));
}

TEST(DmSystemTest, LeaderCandidateSetsServePlacement) {
  auto config = small_cluster(5);
  config.service.leader_candidates = true;
  DmSystem system(config);
  system.start();

  LdmcOptions remote_only;
  remote_only.shm_fraction = 0.0;
  auto& client = system.create_server(0, 64 * MiB, remote_only);
  for (mem::EntryId id = 0; id < 32; ++id)
    ASSERT_TRUE(client.put_sync(id, page_data(id)).ok()) << id;

  // The leader answered candidate queries, and some node refreshed its
  // cache from it.
  EXPECT_GT(system.total_counter("candidates.queries_served"), 0u);
  EXPECT_GT(system.total_counter("candidates.leader_refreshes"), 0u);

  std::vector<std::byte> out(4096);
  for (mem::EntryId id = 0; id < 32; ++id) {
    ASSERT_TRUE(client.get_sync(id, out).ok());
    ASSERT_EQ(fnv1a(out), fnv1a(page_data(id)));
  }
}

TEST(DmSystemTest, LeaderCandidatesSurviveLeaderCrash) {
  auto config = small_cluster(5);
  config.service.leader_candidates = true;
  DmSystem system(config);
  system.start();
  LdmcOptions remote_only;
  remote_only.shm_fraction = 0.0;
  auto& client = system.create_server(0, 64 * MiB, remote_only);
  ASSERT_TRUE(client.put_sync(1, page_data(1)).ok());

  // Kill the current leader; elections move it and refreshes recover.
  const net::NodeId leader = system.node(0).election()->leader();
  for (std::size_t i = 0; i < system.node_count(); ++i)
    if (system.node(i).id() == leader) system.crash_node(i);
  system.run_for(8 * kSecond);

  for (mem::EntryId id = 100; id < 116; ++id)
    ASSERT_TRUE(client.put_sync(id, page_data(id)).ok()) << id;
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(client.get_sync(100, out).ok());
}

TEST(DmSystemTest, AsyncPutsOverlapAndAllComplete) {
  DmSystem system(small_cluster());
  system.start();
  LdmcOptions remote_only;
  remote_only.shm_fraction = 0.0;
  auto& client = system.create_server(0, 64 * MiB, remote_only);

  // Post 32 puts without waiting between them: the RDMA data/control plane
  // pipelines them; every callback fires exactly once.
  std::vector<std::vector<std::byte>> payloads;
  for (std::uint64_t id = 0; id < 32; ++id) payloads.push_back(page_data(id));
  int completed = 0;
  for (std::uint64_t id = 0; id < 32; ++id) {
    client.put(id, payloads[id], [&](const Status& s) {
      EXPECT_TRUE(s.ok());
      ++completed;
    });
  }
  const SimTime deadline = system.simulator().now() + 10 * kSecond;
  while (completed < 32 && system.simulator().now() < deadline)
    ASSERT_TRUE(system.simulator().step());
  EXPECT_EQ(completed, 32);

  // Pipelining: total virtual time far below 32 sequential round trips.
  std::vector<std::byte> out(4096);
  for (std::uint64_t id = 0; id < 32; ++id) {
    ASSERT_TRUE(client.get_sync(id, out).ok());
    ASSERT_EQ(fnv1a(out), fnv1a(page_data(id)));
  }
}

TEST(DmSystemTest, AsyncGetsOverlapCorrectly) {
  DmSystem system(small_cluster());
  system.start();
  LdmcOptions remote_only;
  remote_only.shm_fraction = 0.0;
  auto& client = system.create_server(0, 64 * MiB, remote_only);
  for (std::uint64_t id = 0; id < 16; ++id)
    ASSERT_TRUE(client.put_sync(id, page_data(id)).ok());

  std::vector<std::vector<std::byte>> outs(16,
                                           std::vector<std::byte>(4096));
  int completed = 0;
  for (std::uint64_t id = 0; id < 16; ++id) {
    client.get(id, outs[id], [&](const Status& s) {
      EXPECT_TRUE(s.ok());
      ++completed;
    });
  }
  while (completed < 16) ASSERT_TRUE(system.simulator().step());
  for (std::uint64_t id = 0; id < 16; ++id)
    ASSERT_EQ(fnv1a(outs[id]), fnv1a(page_data(id))) << id;
}

TEST(DmSystemTest, RecoveredNodeRebootsEmpty) {
  DmSystem system(small_cluster(5));
  system.start();
  LdmcOptions remote_only;
  remote_only.shm_fraction = 0.0;
  auto& client = system.create_server(0, 64 * MiB, remote_only);
  for (mem::EntryId id = 0; id < 16; ++id)
    ASSERT_TRUE(client.put_sync(id, page_data(id)).ok());

  std::size_t victim = 1;
  for (std::size_t i = 1; i < system.node_count(); ++i)
    if (system.service(i).rdms().hosted_blocks() > 0) victim = i;
  ASSERT_GT(system.service(victim).rdms().hosted_blocks(), 0u);

  system.crash_node(victim);
  system.run_for(8 * kSecond);  // repair replaces the lost replicas
  system.recover_node(victim);
  EXPECT_EQ(system.service(victim).rdms().hosted_blocks(), 0u);
  EXPECT_EQ(system.node(victim).recv_pool().used_bytes(), 0u);
  system.run_for(3 * kSecond);

  // The rebooted node can host again.
  auto& client2 = system.create_server(victim == 2 ? 3 : 2, 64 * MiB,
                                       remote_only);
  for (mem::EntryId id = 100; id < 116; ++id)
    ASSERT_TRUE(client2.put_sync(id, page_data(id)).ok());
  std::vector<std::byte> out(4096);
  for (mem::EntryId id = 0; id < 16; ++id)
    ASSERT_TRUE(client.get_sync(id, out).ok()) << id;
}

TEST(DmSystemTest, UtilizationReportReflectsState) {
  DmSystem system(small_cluster(3));
  system.start();
  auto& client = system.create_server(0, 64 * MiB);
  ASSERT_TRUE(client.put_sync(1, page_data(1)).ok());
  const std::string report = system.utilization_report();
  // Three node rows plus the header, and node 0's pool shows usage.
  EXPECT_EQ(std::count(report.begin(), report.end(), '\n'), 4);
  EXPECT_NE(report.find("4.0KiB"), std::string::npos);
  system.crash_node(2);
  const std::string after = system.utilization_report();
  EXPECT_NE(after.find("  n "), std::string::npos);  // a down node row
}

TEST(DmSystemTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    DmSystem system(small_cluster());
    system.start();
    LdmcOptions options;
    options.shm_fraction = 0.5;
    auto& client = system.create_server(0, 64 * MiB, options);
    for (std::uint64_t id = 0; id < 64; ++id) {
      EXPECT_TRUE(client.put_sync(id, page_data(id)).ok());
    }
    std::vector<std::byte> out(4096);
    for (std::uint64_t id = 0; id < 64; ++id)
      EXPECT_TRUE(client.get_sync(id, out).ok());
    return system.simulator().now();
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---- relocations racing an overwrite -----------------------------------------
//
// Background work copies an entry while its owner keeps using it. An
// overwrite (remove, then put under the same id) that commits while the
// copy is in flight must win: the relocation frees what it wrote instead of
// committing the old bytes over the new ones.

// Remote blocks hosted across the cluster, and the replicas `client`'s map
// lists: equal once every relocation's frees have settled.
std::pair<std::size_t, std::size_t> hosted_and_listed(DmSystem& system,
                                                      Ldmc& client) {
  std::size_t hosted = 0;
  for (std::size_t i = 0; i < system.node_count(); ++i)
    hosted += system.service(i).rdms().hosted_blocks();
  std::size_t listed = 0;
  client.map().for_each([&](mem::EntryId, const mem::EntryLocation& loc) {
    listed += loc.replicas.size();
  });
  return {hosted, listed};
}

// `size` bytes of a pattern that `seed` shifts.
std::vector<std::byte> bytes_of(std::size_t size, std::uint64_t seed) {
  std::vector<std::byte> out(size);
  for (std::size_t i = 0; i < size; ++i)
    out[i] = static_cast<std::byte>((i * 131 + seed) & 0xff);
  return out;
}

// Cuts node 0 off from every peer (up = false) or heals it.
void set_node0_links(DmSystem& system, bool up) {
  const net::NodeId self = system.node(0).id();
  for (std::size_t peer = 1; peer < system.node_count(); ++peer) {
    system.fabric().set_link_up(self, system.node(peer).id(), up);
    system.fabric().set_link_up(system.node(peer).id(), self, up);
  }
}

std::size_t index_of(DmSystem& system, net::NodeId id) {
  for (std::size_t i = 0; i < system.node_count(); ++i)
    if (system.node(i).id() == id) return i;
  return system.node_count();
}

TEST(DmSystemTest, SpillRacingOverwriteKeepsTheNewBytes) {
  auto config = small_cluster();
  config.node.shm.arena_bytes = 256 * KiB;
  DmSystem system(config);
  system.start();
  auto& client = system.create_server(0, 2560 * KiB);  // all puts shm-first
  const auto& metrics = system.service(0).metrics();
  for (mem::EntryId id = 0;
       metrics.counter_value("ldms.spilled_to_remote") == 0; ++id)
    ASSERT_TRUE(client.put_sync(id, page_data(id)).ok()) << id;
  // The pool is full again, so the next shm-first put spills its LRU entry.
  const auto victim = system.node(0).shm().lru_entry();
  ASSERT_TRUE(victim.has_value());
  const mem::EntryId entry = victim->second;

  // The overwrite lands back in shared memory while the spill's stripe is
  // still on the wire.
  bool spilling_done = false;
  bool overwritten = false;
  client.put(1000, page_data(1000), [&](const Status& s) {
    EXPECT_TRUE(s.ok()) << s;
    spilling_done = true;
  });
  const auto newer = page_data(7777);
  client.put(entry, newer, [&](const Status& s) {
    EXPECT_TRUE(s.ok()) << s;
    overwritten = true;
  });
  ASSERT_TRUE(system.simulator().run_until_flag(spilling_done));
  ASSERT_TRUE(system.simulator().run_until_flag(overwritten));
  system.run_for(1 * kSecond);

  EXPECT_EQ(metrics.counter_value("ldms.spill_stale"), 1u);
  EXPECT_EQ(client.map().lookup(entry)->tier, mem::Tier::kSharedMemory);
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(client.get_sync(entry, out).ok());
  EXPECT_TRUE(out == newer);  // not the bytes the relocation copied
  const auto [hosted, listed] = hosted_and_listed(system, client);
  EXPECT_EQ(hosted, listed);
}

// Re-promotion reads a degraded NVM entry and stripes it to remote memory.
// The overwrite is too large for any peer's receive pool, so it goes
// straight back to NVM, into the extent the remove just released, and its
// write lands before the re-promotion's stripe does.
TEST(DmSystemTest, RepromotionRacingOverwriteKeepsTheNewBytes) {
  auto config = small_cluster();
  config.node.nvm.capacity_bytes = 1 * MiB;
  config.node.recv.arena_bytes = 48 * KiB;  // one 48 KiB slab per peer
  config.node.recv.slab_bytes = 48 * KiB;
  DmSystem system(config);
  system.start();
  LdmcOptions remote_only;
  remote_only.shm_fraction = 0.0;
  auto& client = system.create_server(0, 64 * MiB, remote_only);
  const cluster::ServerId server = client.server();

  // Cut node 0 off so the 40 KiB put degrades to NVM, then heal.
  set_node0_links(system, false);
  ASSERT_TRUE(client.put_sync(7, bytes_of(40 * KiB, 1)).ok());
  const auto old = client.map().lookup(7);
  ASSERT_TRUE(old.ok());
  ASSERT_EQ(old->tier, mem::Tier::kNvm);
  ASSERT_TRUE(old->degraded);
  set_node0_links(system, true);
  system.run_for(1 * kSecond);

  bool repaired = false;
  bool overwritten = false;
  bool overwrite_first = false;
  system.service(0).repair_entry(server, 7, [&](const Status& s) {
    EXPECT_TRUE(s.ok()) << s;
    overwrite_first = overwritten;
    repaired = true;
  });
  const auto newer = bytes_of(60 * KiB, 2);
  client.put(7, newer, [&](const Status& s) {
    EXPECT_TRUE(s.ok()) << s;
    overwritten = true;
  });
  ASSERT_TRUE(system.simulator().run_until_flag(repaired));
  ASSERT_TRUE(system.simulator().run_until_flag(overwritten));
  system.run_for(1 * kSecond);

  // The overwrite reused the extent and committed first: the race ran.
  ASSERT_TRUE(overwrite_first);
  EXPECT_EQ(system.service(0).metrics().counter_value("ldms.repair_stale"),
            1u);
  const auto now = client.map().lookup(7);
  ASSERT_TRUE(now.ok());
  EXPECT_EQ(now->tier, mem::Tier::kNvm);
  EXPECT_EQ(now->disk_offset, old->disk_offset);
  std::vector<std::byte> out(newer.size());
  ASSERT_TRUE(client.get_sync(7, out).ok());
  EXPECT_TRUE(out == newer);  // not the bytes the relocation copied
  const auto [hosted, listed] = hosted_and_listed(system, client);
  EXPECT_EQ(hosted, listed);
}

// Re-promotion reads the NVM copy in the background: no application asked
// for it, so neither the "ldms.get_ns.nvm" histogram nor the pressure
// heartbeats advertise may count it.
TEST(DmSystemTest, RepromotionIsNotApplicationDemand) {
  auto config = small_cluster();
  config.node.nvm.capacity_bytes = 1 * MiB;
  DmSystem system(config);
  system.start();
  LdmcOptions remote_only;
  remote_only.shm_fraction = 0.0;
  auto& client = system.create_server(0, 64 * MiB, remote_only);
  NodeService& service = system.service(0);

  // Cut node 0 off so the put degrades to NVM, then heal.
  set_node0_links(system, false);
  ASSERT_TRUE(client.put_sync(7, page_data(7)).ok());
  ASSERT_EQ(client.map().lookup(7)->tier, mem::Tier::kNvm);
  set_node0_links(system, true);

  // Start the re-promotion at the top of a pressure window, so that window
  // holds nothing else.
  const SimTime window = 1 * kSecond;
  system.run_for(window - system.simulator().now() % window);
  const SimTime window_end = system.simulator().now() + window;
  bool repaired = false;
  service.repair_entry(client.server(), 7, [&](const Status& s) {
    EXPECT_TRUE(s.ok()) << s;
    repaired = true;
  });
  ASSERT_TRUE(system.simulator().run_until_flag(repaired));
  ASSERT_LT(system.simulator().now(), window_end);
  ASSERT_EQ(service.metrics().counter_value("ldms.promoted_from_disk"), 1u);
  system.run_for(window_end - system.simulator().now());

  const auto* nvm_gets = service.metrics().find_histogram("ldms.get_ns.nvm");
  EXPECT_EQ(nvm_gets == nullptr ? 0u : nvm_gets->count(), 0u);
  EXPECT_EQ(service.pressure(), 0u);
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(client.get_sync(7, out).ok());
  EXPECT_TRUE(out == page_data(7));
}

// Shard repair of a 192 KiB RS(2, 1) stripe whose parity host crashed:
// while the repair decodes the two survivors, a 4 KiB overwrite commits a
// fresh stripe. The repair must not merge its rebuilt shard into it.
TEST(DmSystemTest, ShardRepairRacingOverwriteKeepsTheNewBytes) {
  auto config = small_cluster(6);
  config.service.rdmc.ec_k = 2;
  config.service.rdmc.ec_r = 1;
  config.service.rdmc.min_shards = 2;
  DmSystem system(config);
  system.start();
  LdmcOptions remote_only;
  remote_only.shm_fraction = 0.0;
  auto& client = system.create_server(0, 64 * MiB, remote_only);
  ASSERT_TRUE(client.put_sync(7, bytes_of(192 * KiB, 1)).ok());
  const auto old = client.map().lookup(7);
  ASSERT_TRUE(old.ok());
  ASSERT_EQ(old->replicas.size(), 3u);
  ASSERT_EQ(old->replicas.back().shard, 2u);  // the parity shard
  const std::size_t crashed = index_of(system, old->replicas.back().node);
  system.crash_node(crashed);

  bool repaired = false;
  bool overwritten = false;
  bool overwrite_first = false;
  system.service(0).repair_entry(client.server(), 7, [&](const Status& s) {
    EXPECT_TRUE(s.ok()) << s;
    overwrite_first = overwritten;
    repaired = true;
  });
  const auto newer = page_data(7777);
  client.put(7, newer, [&](const Status& s) {
    EXPECT_TRUE(s.ok()) << s;
    overwritten = true;
  });
  ASSERT_TRUE(system.simulator().run_until_flag(repaired));
  ASSERT_TRUE(system.simulator().run_until_flag(overwritten));
  // The overwrite committed before the repair's commit: the race ran.
  ASSERT_TRUE(overwrite_first);
  const auto& metrics = system.service(0).metrics();
  EXPECT_EQ(metrics.counter_value("ldms.repair_stale"), 1u);
  EXPECT_EQ(metrics.counter_value("ldms.repaired_entries"), 0u);
  system.run_for(1 * kSecond);

  std::vector<std::byte> out(newer.size());
  ASSERT_TRUE(client.get_sync(7, out).ok());
  EXPECT_TRUE(out == newer);  // not the bytes the relocation copied
  // Recovery drops the crashed host's blocks, so the census covers the
  // whole cluster.
  system.recover_node(crashed);
  const auto [hosted, listed] = hosted_and_listed(system, client);
  EXPECT_EQ(hosted, listed);
}

// A failure-free 3-copy run pinned byte for byte: puts that overflow a
// small shared pool (so its LRU entries spill to remote memory), range
// gets, removes, and one offload that live-migrates entries off the
// busiest host. The elapsed virtual time and an FNV-1a hash of the cluster
// metrics snapshot were captured from the tree that still kept a separate
// replication path beside the stripe path; any drift in the multi-copy
// event schedule fails here.
TEST(DmSystemTest, ThreeCopyRunMatchesGoldenByteForByte) {
  auto config = small_cluster(5);
  config.node.shm.arena_bytes = 256 * KiB;
  DmSystem system(config);
  system.start();
  LdmcOptions options;
  options.shm_fraction = 0.75;
  auto& client = system.create_server(0, 2560 * KiB, options);
  const SimTime started = system.simulator().now();

  constexpr std::uint64_t kEntries = 96;
  for (std::uint64_t id = 0; id < kEntries; ++id)
    ASSERT_TRUE(client.put_sync(id, page_data(id)).ok()) << id;
  std::vector<std::byte> range(1024);
  for (std::uint64_t id = 0; id < kEntries; id += 3) {
    ASSERT_TRUE(client.get_range_sync(id, 512 * (id % 4), range).ok()) << id;
    const auto expect = page_data(id);
    EXPECT_TRUE(std::equal(range.begin(), range.end(),
                           expect.begin() + 512 * (id % 4)))
        << id;
  }
  for (std::uint64_t id = 0; id < kEntries; id += 5)
    ASSERT_TRUE(client.remove_sync(id).ok()) << id;

  std::size_t hot = 1;
  for (std::size_t i = 2; i < system.node_count(); ++i)
    if (system.service(i).rdms().hosted_blocks() >
        system.service(hot).rdms().hosted_blocks())
      hot = i;
  bool offloaded = false;
  system.service(hot).offload_hot_node(
      8, [&](std::size_t) { offloaded = true; });
  ASSERT_TRUE(system.simulator().run_until_flag(offloaded));
  system.run_for(1 * kSecond);
  EXPECT_GE(system.service(0).metrics().counter_value(
                "ldms.migrated_entries"), 1u);
  EXPECT_GT(system.service(0).metrics().counter_value(
                "ldms.spilled_to_remote"), 0u);

  std::vector<std::byte> out(4096);
  for (std::uint64_t id = 0; id < kEntries; ++id) {
    if (id % 5 == 0) continue;
    ASSERT_TRUE(client.get_sync(id, out).ok()) << id;
    EXPECT_EQ(out, page_data(id)) << id;
  }

  const std::string snapshot = system.hub().snapshot_json();
  EXPECT_EQ(static_cast<std::uint64_t>(system.simulator().now() - started),
            1000784885ull);
  EXPECT_EQ(fnv1a(std::as_bytes(std::span(snapshot.data(), snapshot.size()))),
            7805342871309031876ull)
      << snapshot;
}

}  // namespace
}  // namespace dm::core
