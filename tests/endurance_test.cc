// Endurance test: hours of virtual time, multiple tenants across the
// stack (swap + KV cache + mini-Spark), a rolling fault schedule, periodic
// eviction/ballooning monitors, and regular full integrity audits.
//
// This is the closest thing to the paper's production setting the suite
// runs: everything on at once, nothing allowed to corrupt, leak, or
// deadlock.
#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/rng.h"
#include "core/dm_system.h"
#include "kvstore/kv_store.h"
#include "rddcache/mini_spark.h"
#include "swap/swap_manager.h"
#include "swap/systems.h"
#include "workloads/driver.h"
#include "workloads/page_content.h"

namespace dm {
namespace {

TEST(EnduranceTest, MixedTenantsSurviveRollingFaults) {
  core::DmSystem::Config config;
  config.node_count = 6;
  config.group_size = 6;
  config.node.shm.arena_bytes = 16 * MiB;
  config.node.recv.arena_bytes = 16 * MiB;
  config.node.disk.capacity_bytes = 128 * MiB;
  config.service.rdmc.ec_r = 2;  // 3 copies
  config.service.eviction.enabled = true;
  config.service.leader_candidates = true;
  core::DmSystem system(config);
  system.start();

  // Tenant 1: FastSwap ML job on node 0.
  auto swap_setup = swap::make_system(swap::SystemKind::kFastSwap, 48);
  swap_setup.service.rdmc.ec_r = 2;  // 3 copies
  auto& swap_client = system.create_server(0, 16 * MiB, swap_setup.ldmc);
  swap::SwapManager memory(swap_client, swap_setup.swap,
                           [](std::uint64_t page, std::span<std::byte> out) {
                             workloads::fill_page(out, page, 0.3, 71);
                           });

  // Tenant 2: KV cache on node 1.
  kv::KvStore::Config kv_config;
  kv_config.hot_bytes = 64 * KiB;
  auto& kv_client = system.create_server(1, 16 * MiB);
  kv::KvStore store(kv_client, kv_config);

  // Tenant 3: mini-Spark with DAHI on nodes 2-3.
  rdd::MiniSpark::Config spark_config;
  spark_config.executors = 2;
  spark_config.executor.cache_bytes = 48 * KiB;
  spark_config.executor.overflow = rdd::OverflowPolicy::kDahi;
  rdd::MiniSpark spark(system, spark_config);
  auto dataset = rdd::Rdd::source("endurance", 12, 3000,
                                  [](std::size_t p, std::size_t i) {
                                    return static_cast<rdd::Record>(
                                        p * 524287 + i * 31);
                                  });
  dataset->cache();
  rdd::Record expected_sum = 0;
  for (std::size_t p = 0; p < 12; ++p)
    for (std::size_t i = 0; i < 3000; ++i)
      expected_sum += static_cast<rdd::Record>(p * 524287 + i * 31);

  Rng rng(0xE17D);
  constexpr int kRounds = 12;
  // Nodes 4 and 5 take turns failing (never a swap/kv/spark host).
  std::size_t flaky = 4;

  for (int round = 0; round < kRounds; ++round) {
    // Fault in odd rounds, recover in even ones.
    if (round % 2 == 1) {
      system.crash_node(flaky);
    } else if (round > 0) {
      system.recover_node(flaky);
      flaky = flaky == 4 ? 5 : 4;
    }

    // Swap tenant: a burst of mixed page touches.
    for (int i = 0; i < 300; ++i) {
      const std::uint64_t page = rng.next_below(96);
      ASSERT_TRUE(memory.touch(page, rng.bernoulli(0.25)).ok())
          << "round " << round << " touch " << i;
    }

    // KV tenant: skewed sets/gets.
    std::vector<std::byte> value(4096);
    for (int i = 0; i < 120; ++i) {
      const int k = static_cast<int>(rng.next_below(48));
      if (rng.bernoulli(0.4)) {
        workloads::fill_page(value, k, 0.4, 1000 + round);
        ASSERT_TRUE(store.set("key" + std::to_string(k), value).ok());
      } else {
        (void)store.get("key" + std::to_string(k));
      }
    }

    // Spark tenant: one job per round; the answer never changes.
    auto sum = spark.sum(dataset);
    ASSERT_TRUE(sum.ok()) << "round " << round;
    ASSERT_EQ(*sum, expected_sum) << "round " << round;

    // Background time: heartbeats, repairs, monitors, candidate refreshes.
    system.run_for(2 * kSecond);

    // Full swap-tenant integrity audit.
    std::vector<std::byte> expect(swap::kPageBytes);
    for (std::uint64_t page = 0; page < 96; ++page) {
      if (!memory.is_resident(page)) continue;
      auto bytes = memory.resident_bytes(page);
      ASSERT_TRUE(bytes.ok());
      workloads::fill_page(expect, page, 0.3, 71);
      ASSERT_EQ(fnv1a(*bytes), fnv1a(expect))
          << "round " << round << " page " << page;
    }
  }

  // Nothing was lost despite six crash/recover cycles.
  EXPECT_EQ(system.service(0).data_loss_entries(), 0u);
  EXPECT_EQ(system.service(1).data_loss_entries(), 0u);
  // Over an hour of simulated activity ran (heartbeats dominate).
  EXPECT_GT(system.simulator().now(), 20 * kSecond);
}

}  // namespace
}  // namespace dm
