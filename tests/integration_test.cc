// Whole-system integration tests: multiple tenants sharing one cluster,
// failures mid-workload, regrouping, and cross-layer determinism.
#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/rng.h"
#include "core/dm_system.h"
#include "core/node_service.h"
#include "mem/memory_map.h"
#include "rddcache/mini_spark.h"
#include "swap/swap_manager.h"
#include "swap/systems.h"
#include "workloads/app_catalog.h"
#include "workloads/driver.h"
#include "workloads/page_content.h"

namespace dm {
namespace {

core::DmSystem::Config big_cluster(std::size_t nodes = 8) {
  core::DmSystem::Config config;
  config.node_count = nodes;
  config.group_size = 4;
  config.node.shm.arena_bytes = 16 * MiB;
  config.node.recv.arena_bytes = 16 * MiB;
  config.node.disk.capacity_bytes = 128 * MiB;
  return config;
}

TEST(IntegrationTest, TwoTenantsShareTheCluster) {
  auto config = big_cluster(4);
  config.service.rdmc.ec_r = 0;  // one copy
  core::DmSystem system(config);
  system.start();

  auto fastswap = swap::make_system(swap::SystemKind::kFastSwap, 32);
  auto& client_a = system.create_server(0, 64 * MiB, fastswap.ldmc);
  auto& client_b = system.create_server(1, 64 * MiB, fastswap.ldmc);

  const workloads::AppSpec* lr = workloads::find_app("LogisticRegression");
  const workloads::AppSpec* kv = workloads::find_app("Memcached");
  swap::SwapManager mem_a(client_a, fastswap.swap,
                          workloads::content_for(*lr, 1));
  swap::SwapManager mem_b(client_b, fastswap.swap,
                          workloads::content_for(*kv, 2));

  Rng rng_a(1), rng_b(2);
  workloads::AppSpec lr_small = *lr;
  lr_small.iterations = 2;
  auto result_a = workloads::run_iterative(mem_a, lr_small, 64, rng_a);
  auto result_b = workloads::run_kv(mem_b, *kv, 64, 2000, rng_b);
  EXPECT_TRUE(result_a.status.ok());
  EXPECT_TRUE(result_b.status.ok());
  EXPECT_GT(result_a.faults, 0u);
}

TEST(IntegrationTest, NodeCrashDuringSwapWorkloadIsSurvivable) {
  auto config = big_cluster(5);
  config.service.rdmc.ec_r = 2;  // §IV.D triple replica: RS(1, 2)
  core::DmSystem system(config);
  system.start();

  auto setup = swap::make_system(swap::SystemKind::kFastSwap, 24);
  setup.ldmc.shm_fraction = 0.0;  // everything remote: worst case for crash
  setup.service.rdmc.ec_r = 2;  // 3 copies
  // Rebuild with replication: the rig must use the same service config.
  auto& client = system.create_server(0, 64 * MiB, setup.ldmc);
  swap::SwapManager manager(
      client, setup.swap, [](std::uint64_t page, std::span<std::byte> out) {
        workloads::fill_page(out, page, 0.3, 9);
      });

  for (std::uint64_t p = 0; p < 96; ++p)
    ASSERT_TRUE(manager.touch(p).ok());

  // Crash a replica host mid-run (not node 0, the client's host).
  std::size_t victim = 1;
  system.crash_node(victim);
  system.run_for(5 * kSecond);  // detection + repair

  // Every page must still be retrievable and intact.
  for (std::uint64_t p = 0; p < 96; ++p) {
    ASSERT_TRUE(manager.touch(p).ok()) << p;
    auto bytes = manager.resident_bytes(p);
    ASSERT_TRUE(bytes.ok());
    std::vector<std::byte> expect(swap::kPageBytes);
    workloads::fill_page(expect, p, 0.3, 9);
    ASSERT_EQ(fnv1a(*bytes), fnv1a(expect)) << p;
  }
  EXPECT_EQ(system.service(0).data_loss_entries(), 0u);
}

TEST(IntegrationTest, GroupsLimitCandidateSets) {
  auto config = big_cluster(8);
  config.group_size = 4;
  config.service.rdmc.ec_r = 2;  // 3 copies
  core::DmSystem system(config);
  system.start();

  core::LdmcOptions remote_only;
  remote_only.shm_fraction = 0.0;
  auto& client = system.create_server(0, 64 * MiB, remote_only);
  std::vector<std::byte> data(4096, std::byte{5});
  for (mem::EntryId id = 0; id < 16; ++id)
    ASSERT_TRUE(client.put_sync(id, data).ok());

  // All replicas must live inside node 0's group.
  const auto& members =
      system.groups().members(system.groups().group_of(0));
  std::set<net::NodeId> group_set(members.begin(), members.end());
  client.map().for_each([&](mem::EntryId, const mem::EntryLocation& loc) {
    for (const auto& replica : loc.replicas)
      EXPECT_TRUE(group_set.count(replica.node) > 0)
          << "replica on " << replica.node << " outside group";
  });
}

TEST(IntegrationTest, RegroupingMovesDonorIntoStarvedGroup) {
  auto config = big_cluster(8);
  config.group_size = 4;
  core::DmSystem system(config);
  system.start();
  auto& groups = system.groups();
  const cluster::GroupId starved = groups.group_of(0);
  const std::size_t before = groups.members(starved).size();
  auto moved = groups.regroup_into(starved, [&](net::NodeId n) {
    for (std::size_t i = 0; i < system.node_count(); ++i)
      if (system.node(i).id() == n)
        return system.node(i).donatable_free_bytes();
    return std::uint64_t{0};
  });
  ASSERT_TRUE(moved.has_value());
  EXPECT_EQ(groups.members(starved).size(), before + 1);
  EXPECT_EQ(groups.group_of(*moved), starved);
}

TEST(IntegrationTest, DynamicRegroupingRescuesStarvedGroup) {
  auto config = big_cluster(8);
  config.group_size = 4;
  config.service.rdmc.ec_r = 0;  // one copy
  config.node.recv.arena_bytes = 1 * MiB;
  core::DmSystem system(config);
  system.start();

  // Starve group 0: consume nearly all donatable memory on node 0's peers.
  const auto& members = system.groups().members(system.groups().group_of(0));
  for (net::NodeId member : members) {
    for (std::size_t i = 0; i < system.node_count(); ++i) {
      if (system.node(i).id() != member) continue;
      auto& pool = system.node(i).recv_pool();
      while (pool.capacity_bytes() - pool.used_bytes() >= 64 * KiB) {
        auto block = pool.allocate(65536);
        if (!block.ok()) break;
      }
    }
  }
  system.run_for(2 * kSecond);  // let heartbeats report the pressure

  const std::size_t before = members.size();
  auto moved = system.regroup_tick();
  ASSERT_TRUE(moved.has_value());
  EXPECT_EQ(system.groups().members(system.groups().group_of(0)).size(),
            before + 1);
  system.run_for(2 * kSecond);  // heartbeats to the new member

  // Node 0 can now place remotely again (on the donor).
  core::LdmcOptions remote_only;
  remote_only.shm_fraction = 0.0;
  remote_only.allow_disk = false;
  auto& client = system.create_server(0, 64 * MiB, remote_only);
  std::vector<std::byte> data(4096, std::byte{3});
  ASSERT_TRUE(client.put_sync(1, data).ok());
  auto loc = client.map().lookup(1);
  ASSERT_TRUE(loc.ok());
  EXPECT_EQ(loc->replicas.front().node, *moved);
}

TEST(IntegrationTest, AutomaticRegroupWatermark) {
  auto config = big_cluster(8);
  config.group_size = 4;
  config.node.recv.arena_bytes = 1 * MiB;
  config.regroup_low_watermark = 0.2;
  core::DmSystem system(config);
  system.start();

  // Starve group 0 below the 20% watermark.
  const auto members = system.groups().members(system.groups().group_of(0));
  for (net::NodeId member : members) {
    for (std::size_t i = 0; i < system.node_count(); ++i) {
      if (system.node(i).id() != member) continue;
      auto& pool = system.node(i).recv_pool();
      while (true) {
        auto block = pool.allocate(65536);
        if (!block.ok()) break;
      }
    }
  }
  system.run_for(5 * kSecond);  // periodic watermark check fires
  EXPECT_GE(system.regroups(), 1u);
}

TEST(IntegrationTest, SparkAndSwapCoexist) {
  auto config = big_cluster(4);
  config.service.rdmc.ec_r = 0;  // one copy
  core::DmSystem system(config);
  system.start();

  // Tenant 1: mini-Spark with DAHI.
  rdd::MiniSpark::Config spark_config;
  spark_config.executors = 2;
  spark_config.executor.cache_bytes = 64 * KiB;
  spark_config.executor.overflow = rdd::OverflowPolicy::kDahi;
  rdd::MiniSpark spark(system, spark_config);
  auto dataset = rdd::Rdd::source("data", 8, 4000,
                                  [](std::size_t p, std::size_t i) {
                                    return static_cast<rdd::Record>(p + i);
                                  });
  dataset->cache();

  // Tenant 2: swap workload on another node.
  auto setup = swap::make_system(swap::SystemKind::kFastSwap, 24);
  auto& swap_client = system.create_server(2, 64 * MiB, setup.ldmc);
  swap::SwapManager manager(
      swap_client, setup.swap,
      [](std::uint64_t page, std::span<std::byte> out) {
        workloads::fill_page(out, page, 0.4, 3);
      });

  auto sum1 = spark.sum(dataset);
  for (std::uint64_t p = 0; p < 64; ++p)
    ASSERT_TRUE(manager.touch(p).ok());
  auto sum2 = spark.sum(dataset);
  ASSERT_TRUE(sum1.ok());
  ASSERT_TRUE(sum2.ok());
  EXPECT_EQ(*sum1, *sum2);
}

TEST(IntegrationTest, WholeStackDeterminism) {
  auto run_once = [] {
    auto config = big_cluster(4);
    config.service.rdmc.ec_r = 1;  // 2 copies
    core::DmSystem system(config);
    system.start();
    auto setup = swap::make_system(swap::SystemKind::kFastSwap, 32);
    setup.ldmc.shm_fraction = 0.5;
    auto& client = system.create_server(0, 64 * MiB, setup.ldmc);
    swap::SwapManager manager(
        client, setup.swap, [](std::uint64_t page, std::span<std::byte> out) {
          workloads::fill_page(out, page, 0.35, 21);
        });
    const workloads::AppSpec* spec = workloads::find_app("PageRank");
    workloads::AppSpec small = *spec;
    small.iterations = 2;
    Rng rng(99);
    auto result = workloads::run_iterative(manager, small, 96, rng);
    EXPECT_TRUE(result.status.ok());
    return std::pair{result.elapsed, result.faults};
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace dm
