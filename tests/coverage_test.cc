// Targeted tests for failure paths and maintenance machinery not covered
// by the module suites: drain stalls, the §IV.F policy-1 watermark drain
// end-to-end, and membership lifecycle.
#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/status.h"
#include "core/dm_system.h"
#include "core/node_service.h"
#include "net/fabric.h"
#include "sim/simulator.h"
#include "workloads/page_content.h"

namespace dm::core {
namespace {

std::vector<std::byte> page_data(std::uint64_t id) {
  std::vector<std::byte> bytes(4096);
  workloads::fill_page(bytes, id, 0.5, 7);
  return bytes;
}

core::DmSystem::Config cluster(std::size_t nodes = 4) {
  core::DmSystem::Config config;
  config.node_count = nodes;
  config.node.shm.arena_bytes = 4 * MiB;
  config.node.recv.arena_bytes = 8 * MiB;
  config.node.disk.capacity_bytes = 64 * MiB;
  config.service.rdmc.ec_r = 0;  // one copy
  return config;
}

TEST(CoverageTest, DrainFailsCleanlyWhenOwnerUnreachable) {
  DmSystem system(cluster());
  system.start();
  LdmcOptions remote_only;
  remote_only.shm_fraction = 0.0;
  auto& client = system.create_server(0, 64 * MiB, remote_only);
  for (mem::EntryId id = 0; id < 8; ++id)
    ASSERT_TRUE(client.put_sync(id, page_data(id)).ok());

  // Find a hosting node, then kill the *owner* (node 0) so the eviction
  // notice cannot be delivered: the drain must settle with an error, not
  // hang.
  for (std::size_t i = 1; i < system.node_count(); ++i) {
    auto& service = system.service(i);
    if (service.rdms().hosted_blocks() == 0) continue;
    auto slab = system.node(i).recv_pool().least_loaded_slab();
    ASSERT_TRUE(slab.has_value());
    system.fabric().set_node_up(0, false);
    bool settled = false;
    Status result;
    service.rdms().drain_slab(*slab, [&](const Status& s) {
      result = s;
      settled = true;
    });
    ASSERT_TRUE(system.simulator().run_until_flag(
        settled, system.simulator().now() + 10 * kSecond));
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(service.rdms().active_drains(), 0u);  // retryable
    break;
  }
}

TEST(CoverageTest, DoubleDrainRejected) {
  DmSystem system(cluster());
  system.start();
  LdmcOptions remote_only;
  remote_only.shm_fraction = 0.0;
  auto& client = system.create_server(0, 64 * MiB, remote_only);
  for (mem::EntryId id = 0; id < 8; ++id)
    ASSERT_TRUE(client.put_sync(id, page_data(id)).ok());
  for (std::size_t i = 1; i < system.node_count(); ++i) {
    auto& service = system.service(i);
    if (service.rdms().hosted_blocks() == 0) continue;
    auto slab = system.node(i).recv_pool().least_loaded_slab();
    bool first_done = false;
    service.rdms().drain_slab(*slab, [&](const Status&) { first_done = true; });
    bool second_done = false;
    Status second;
    service.rdms().drain_slab(*slab, [&](const Status& s) {
      second = s;
      second_done = true;
    });
    EXPECT_TRUE(second_done);  // rejected synchronously
    EXPECT_EQ(second.code(), StatusCode::kFailedPrecondition);
    ASSERT_TRUE(system.simulator().run_until_flag(
        first_done, system.simulator().now() + 30 * kSecond));
    break;
  }
}

// §IV.F policy 1 end-to-end: a node donating memory while its own servers
// overflow to remote starts draining receive-pool slabs.
TEST(CoverageTest, EvictionPolicyOneDrainsUnderPressure) {
  auto config = cluster(3);
  config.node.recv.arena_bytes = 512 * KiB;  // small donated pool
  config.service.eviction.enabled = true;
  DmSystem system(config);
  system.start();

  // Node 1's donated pool fills past the 85% watermark with node 0's
  // data...
  LdmcOptions remote_only;
  remote_only.shm_fraction = 0.0;
  auto& client0 = system.create_server(0, 64 * MiB, remote_only);
  for (mem::EntryId id = 0; id < 224; ++id)
    ASSERT_TRUE(client0.put_sync(id, page_data(id)).ok());

  // ...while node 1's own tenant also overflows to remote memory, more
  // than 32 puts in the monitor's window: policy 1 says node 1 should
  // reclaim donated slabs.
  auto& client1 = system.create_server(1, 64 * MiB, remote_only);
  for (mem::EntryId id = 1000; id < 1048; ++id)
    ASSERT_TRUE(client1.put_sync(id, page_data(id)).ok());
  system.service(1).eviction_tick();
  system.run_for(2 * kSecond);  // the drain's migrations settle

  EXPECT_GT(system.total_counter("eviction.slab_drains"), 0u);
  // Migrated entries stay intact.
  std::vector<std::byte> out(4096);
  for (mem::EntryId id = 0; id < 224; ++id) {
    ASSERT_TRUE(client0.get_sync(id, out).ok()) << id;
    ASSERT_EQ(fnv1a(out), fnv1a(page_data(id))) << id;
  }
}

TEST(CoverageTest, MembershipStopHaltsHeartbeats) {
  DmSystem system(cluster(2));
  system.start();
  auto& membership = system.node(0).membership();
  membership.stop();
  const auto before =
      system.fabric().metrics().counter_value("fabric.sends");
  // Only node 1's heartbeats (to node 0) remain.
  system.run_for(1 * kSecond);
  const auto after = system.fabric().metrics().counter_value("fabric.sends");
  // Node 0 stopped pinging: traffic roughly halves (1 pinger + replies).
  EXPECT_LT(after - before, 40u);
  membership.start();
  system.run_for(1 * kSecond);
  EXPECT_GT(system.fabric().metrics().counter_value("fabric.sends"), after);
}

TEST(CoverageTest, SpillOrphanEntriesAreDroppedDefensively) {
  DmSystem system(cluster());
  system.start();
  auto& client = system.create_server(0, 64 * MiB);
  ASSERT_TRUE(client.put_sync(1, page_data(1)).ok());
  // Corrupt the invariant deliberately: pool entry without a map entry.
  ASSERT_TRUE(client.map().remove(1).ok());
  // Force pool pressure so the orphan becomes the spill victim.
  auto& shm = system.node(0).shm();
  ASSERT_TRUE(shm.contains(client.server(), 1));
  bool done = false;
  bool progressed = false;
  // Private path exercised indirectly: fill the pool via more puts until
  // spills happen; the orphan must be discarded without crashing.
  for (mem::EntryId id = 2; id < 2000 && shm.contains(client.server(), 1);
       ++id)
    ASSERT_TRUE(client.put_sync(id, page_data(id)).ok());
  (void)done;
  (void)progressed;
  EXPECT_FALSE(shm.contains(client.server(), 1));
  EXPECT_GT(system.service(0).metrics().counter_value("ldms.spill_orphan"),
            0u);
}

}  // namespace
}  // namespace dm::core
