// Targeted fault-recovery regressions (§IV.D hardening): crash during a
// replicated put, partition during a failover read, repair racing an
// eviction, and backoff-capped retries ending in the degraded disk
// fallback. Each scenario is deterministic — faults are scheduled at fixed
// virtual times against a seeded cluster.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/checksum.h"
#include "common/histogram.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/units.h"
#include "core/dm_system.h"
#include "core/ldmc.h"
#include "core/node_service.h"
#include "mem/memory_map.h"
#include "core/repair_service.h"
#include "sim/chaos_schedule.h"
#include "swap/swap_manager.h"
#include "workloads/page_content.h"

namespace dm::core {
namespace {

std::vector<std::byte> page_data(std::uint64_t id, double r = 0.5) {
  std::vector<std::byte> bytes(4096);
  workloads::fill_page(bytes, id, r, 7);
  return bytes;
}

DmSystem::Config cluster_config(std::size_t nodes, std::size_t copies,
                                std::size_t min_shards = 0) {
  DmSystem::Config config;
  config.node_count = nodes;
  config.node.shm.arena_bytes = 4 * MiB;
  config.node.recv.arena_bytes = 8 * MiB;
  config.node.disk.capacity_bytes = 64 * MiB;
  config.service.rdmc.ec_k = 1;
  config.service.rdmc.ec_r = copies - 1;
  config.service.rdmc.min_shards = min_shards;
  return config;
}

LdmcOptions remote_only() {
  LdmcOptions options;
  options.shm_fraction = 0.0;
  options.allow_disk = false;
  return options;
}

// A node that recovers within one heartbeat period runs one heartbeat
// chain, not the stopped chain beside a new one: over 2 s node 1 of a
// 4-node cluster heartbeats its 3 peers 10 times each, 30 calls, as it
// does with no outage.
TEST(RecoveryTest, ShortOutageLeavesOneHeartbeatChain) {
  for (const SimTime outage : {50 * kMilli, 150 * kMilli}) {
    DmSystem system(DmSystem::Config{});
    system.start();
    auto& sim = system.simulator();
    sim.run_until(sim.now() + 30 * kMilli);
    system.crash_node(1);
    sim.run_until(sim.now() + outage);
    system.recover_node(1);
    const MetricsRegistry& rpc = system.node(1).rpc().metrics();
    const std::uint64_t before = rpc.counter_value("rpc.calls");
    sim.run_until(sim.now() + 2 * kSecond);
    EXPECT_EQ(rpc.counter_value("rpc.calls") - before, 30u)
        << "outage " << outage << " ns";
  }
}

// A node down for longer than the 700 ms failure timeout heard nothing
// while it was down, so its peers' silence clock starts when it recovers.
// It declares no live peer down at the recovery instant, and it still
// declares a peer that died meanwhile, and only that one, within one
// failure timeout plus one heartbeat period (900 ms). A start() on its
// running loop in between changes nothing, or the declaration would slip
// past that bound.
TEST(RecoveryTest, RecoveredNodeStartsItsPeersSilenceClockAtRecovery) {
  for (const bool peer_dies : {false, true}) {
    SCOPED_TRACE(peer_dies ? "node 1 down too" : "every peer up");
    DmSystem system(DmSystem::Config{});
    system.start();
    auto& sim = system.simulator();
    std::vector<std::pair<net::NodeId, SimTime>> declared;
    system.node(0).membership().on_peer_down([&](net::NodeId peer) {
      declared.emplace_back(peer, sim.now());
    });
    system.crash_node(0);
    if (peer_dies) system.crash_node(1);
    sim.run_until(sim.now() + 2 * kSecond);
    system.recover_node(0);
    const SimTime recovered = sim.now();
    sim.run_until(recovered + kMilli);
    EXPECT_TRUE(declared.empty()) << declared.size() << " declared down";

    sim.run_until(recovered + 100 * kMilli);
    system.node(0).membership().start();  // already running: a no-op
    sim.run_until(recovered + 2 * kSecond);
    if (!peer_dies) {
      EXPECT_TRUE(declared.empty());
      continue;
    }
    ASSERT_EQ(declared.size(), 1u);
    EXPECT_EQ(declared[0].first, system.node(1).id());
    EXPECT_GT(declared[0].second, recovered);
    EXPECT_LE(declared[0].second, recovered + 900 * kMilli);
  }
}

// A crashed node runs none of its loops: no repair scan, no candidate
// refresh and no RPC attempt (each would fail with no channel) until it
// recovers, and then they all run again. Node 0 is its group's leader, so
// it refreshes its candidate set locally.
TEST(RecoveryTest, CrashedNodeRunsNoLoopsUntilItRecovers) {
  DmSystem::Config config;
  config.repair.enabled = true;
  config.repair.scan_period = 100 * kMilli;
  config.service.leader_candidates = true;
  config.service.eviction.enabled = true;
  DmSystem system(config);
  system.start();
  auto& sim = system.simulator();
  const MetricsRegistry& service = system.service(0).metrics();
  const MetricsRegistry& rpc = system.node(0).rpc().metrics();
  auto counts = [&]() {
    return std::vector<std::uint64_t>{
        service.counter_value("repair.scans"),
        service.counter_value("candidates.local_refreshes"),
        rpc.counter_value("rpc.no_channel"), rpc.counter_value("rpc.calls")};
  };
  system.crash_node(0);
  const std::vector<std::uint64_t> at_crash = counts();
  sim.run_until(sim.now() + 3 * kSecond);
  EXPECT_EQ(counts(), at_crash);

  system.recover_node(0);
  sim.run_until(sim.now() + 3 * kSecond);
  const std::vector<std::uint64_t> after = counts();
  EXPECT_GT(after[0], at_crash[0]);
  EXPECT_GT(after[1], at_crash[1]);
  EXPECT_GT(after[3], at_crash[3]);
}

// Regrouping replaces the election of every member of the groups it
// rewires, a crashed member's included. Recovery starts the election the
// node holds then, so node 0, its group's coordinator, announces again:
// one election a second to its four peers.
TEST(RecoveryTest, ElectionReplacedDuringAnOutageRunsAfterRecovery) {
  DmSystem::Config config;
  config.node_count = 8;
  config.group_size = 4;  // groups {0, 2, 4, 6} and {1, 3, 5, 7}
  // Node 0's crash leaves its group 3/4 of its donatable memory.
  config.regroup_low_watermark = 0.8;
  DmSystem system(config);
  system.start();
  auto& sim = system.simulator();
  system.crash_node(0);
  const auto moved = system.regroup_tick();
  ASSERT_TRUE(moved.has_value());
  EXPECT_EQ(system.groups().group_of(*moved), system.groups().group_of(0));

  sim.run_until(sim.now() + 2 * kSecond);
  system.recover_node(0);
  sim.run_until(sim.now() + 1 * kSecond);
  auto announces = [&]() -> std::uint64_t {
    const Histogram* rtt = system.node(0).rpc().metrics().find_histogram(
        "rpc.rtt.announce_leader");
    return rtt == nullptr ? 0 : rtt->count();
  };
  const std::uint64_t before = announces();
  sim.run_until(sim.now() + 5 * kSecond);
  EXPECT_EQ(announces() - before, 20u);
}

// A node crashing in the middle of the §IV.D replicated-put transaction
// must leave no partial state: either the put commits (and the data is
// readable, failing over around the crashed replica) or it rolls back (and
// the entry is not mapped at all).
TEST(RecoveryTest, CrashDuringReplicatedPutRollsBackOrCommits) {
  DmSystem system(cluster_config(5, 3));
  system.start();
  auto& client = system.create_server(0, 64 * MiB, remote_only());

  const auto data = page_data(1);
  bool completed = false;
  Status result;
  client.put(1, data, [&](const Status& s) {
    result = s;
    completed = true;
  });
  // Mid-transaction: after placement + alloc RPCs have been issued, before
  // all replica writes have settled.
  system.simulator().schedule_at(system.simulator().now() + 30 * kMicro,
                                 [&]() { system.crash_node(2); });
  ASSERT_TRUE(system.simulator().run_until_flag(completed));

  if (result.ok()) {
    auto loc = client.map().lookup(1);
    ASSERT_TRUE(loc.ok());
    EXPECT_EQ(loc->tier, mem::Tier::kRemote);
    std::vector<std::byte> out(4096);
    ASSERT_TRUE(client.get_sync(1, out).ok());
    EXPECT_EQ(out, data);
  } else {
    // All-or-nothing: a failed transaction must not leave the entry mapped.
    EXPECT_FALSE(client.map().contains(1));
  }

  // The cluster stays usable: after recovery and re-detection, a fresh put
  // reaches the full factor.
  system.recover_node(2);
  system.run_for(10 * kSecond);
  ASSERT_TRUE(client.put_sync(2, page_data(2)).ok());
  EXPECT_EQ(client.map().lookup(2)->replicas.size(), 3u);
}

// A partition between the reader and the first replica host must cost one
// failover hop, not an error: the read is served from the second replica.
TEST(RecoveryTest, PartitionDuringFailoverRead) {
  DmSystem system(cluster_config(4, 2));
  system.start();
  auto& client = system.create_server(0, 64 * MiB, remote_only());

  const auto data = page_data(3);
  ASSERT_TRUE(client.put_sync(3, data).ok());
  auto loc = client.map().lookup(3);
  ASSERT_TRUE(loc.ok());
  ASSERT_EQ(loc->replicas.size(), 2u);

  const net::NodeId self = system.node(0).id();
  const net::NodeId first = loc->replicas.front().node;
  system.fabric().set_link_up(self, first, false);
  system.fabric().set_link_up(first, self, false);

  std::vector<std::byte> out(4096);
  ASSERT_TRUE(client.get_sync(3, out).ok());
  EXPECT_EQ(out, data);
  EXPECT_GE(system.node(0).recv_pool().metrics().counter_value(
                "rdmc.read_failovers"),
            1u);

  // Healed: reads work again (from either side).
  system.fabric().set_link_up(self, first, true);
  system.fabric().set_link_up(first, self, true);
  std::fill(out.begin(), out.end(), std::byte{0});
  ASSERT_TRUE(client.get_sync(3, out).ok());
  EXPECT_EQ(out, data);
}

// A crashed first copy costs exactly one failover hop even though no verb
// is posted to it: the data channel to its host cannot be opened, so the
// read moves straight to the second copy and counts that move.
TEST(RecoveryTest, CrashedFirstCopyCountsOneFailover) {
  DmSystem system(cluster_config(5, 3));
  system.start();
  auto& client = system.create_server(0, 64 * MiB, remote_only());

  const auto data = page_data(5);
  ASSERT_TRUE(client.put_sync(5, data).ok());
  auto loc = client.map().lookup(5);
  ASSERT_TRUE(loc.ok());
  ASSERT_EQ(loc->replicas.size(), 3u);

  system.crash_node(loc->replicas.front().node);
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(client.get_sync(5, out).ok());
  EXPECT_EQ(out, data);
  const MetricsRegistry& metrics = system.node(0).recv_pool().metrics();
  EXPECT_EQ(metrics.counter_value("rdmc.read_failovers"), 1u);
  EXPECT_EQ(metrics.counter_value("rdmc.read_all_replicas_failed"), 0u);

  // With every host down, the two moves past the first and second copies
  // count as failovers; the failed last copy counts only as a lost read.
  system.crash_node(loc->replicas[1].node);
  system.crash_node(loc->replicas[2].node);
  EXPECT_FALSE(client.get_sync(5, out).ok());
  EXPECT_EQ(metrics.counter_value("rdmc.read_failovers"), 3u);
  EXPECT_EQ(metrics.counter_value("rdmc.read_all_replicas_failed"), 1u);
}

// Repair must never resurrect an entry the application removed while the
// repair was in flight, and must free the blocks it provisionally wrote.
TEST(RecoveryTest, RepairRacingEvictionDoesNotResurrect) {
  DmSystem system(cluster_config(3, 2, /*min_shards=*/1));
  system.start();
  LdmcOptions options;
  options.shm_fraction = 0.0;  // remote first, disk fallback allowed
  auto& client = system.create_server(0, 64 * MiB, options);
  const cluster::ServerId server = client.server();

  // Cut node 0 off so the put degrades to disk.
  const net::NodeId self = system.node(0).id();
  for (std::size_t peer = 1; peer < 3; ++peer) {
    system.fabric().set_link_up(self, system.node(peer).id(), false);
    system.fabric().set_link_up(system.node(peer).id(), self, false);
  }
  ASSERT_TRUE(client.put_sync(7, page_data(7)).ok());
  auto loc = client.map().lookup(7);
  ASSERT_TRUE(loc.ok());
  ASSERT_EQ(loc->tier, mem::Tier::kDisk);
  ASSERT_TRUE(loc->degraded);
  for (std::size_t peer = 1; peer < 3; ++peer) {
    system.fabric().set_link_up(self, system.node(peer).id(), true);
    system.fabric().set_link_up(system.node(peer).id(), self, true);
  }
  system.run_for(1 * kSecond);

  // Start the re-promotion, then remove the entry before it completes.
  bool repaired = false;
  system.service(0).repair_entry(server, 7,
                                 [&](const Status&) { repaired = true; });
  ASSERT_TRUE(client.remove_sync(7).ok());
  ASSERT_TRUE(system.simulator().run_until_flag(repaired));
  system.run_for(1 * kSecond);

  EXPECT_FALSE(client.map().contains(7));
  EXPECT_EQ(system.service(0).metrics().counter_value("ldms.repair_stale"),
            1u);
  // The provisional replicas were freed — no leaked hosted blocks anywhere.
  std::size_t hosted = 0;
  for (std::size_t i = 0; i < system.node_count(); ++i)
    hosted += system.service(i).rdms().hosted_blocks();
  EXPECT_EQ(hosted, 0u);
}

// When every remote candidate is dead, bounded retries with capped backoff
// must end in the degraded disk fallback — not an error and not an
// unbounded retry storm.
TEST(RecoveryTest, BackoffCapReachedThenDiskFallback) {
  auto config = cluster_config(3, 2);
  config.rpc_retry.max_attempts = 4;
  config.rpc_retry.base_backoff = 1 * kMilli;
  config.rpc_retry.max_backoff = 2 * kMilli;  // cap reached by attempt 3
  DmSystem system(config);
  system.start();
  LdmcOptions options;
  options.shm_fraction = 0.0;
  auto& client = system.create_server(0, 64 * MiB, options);

  // Both peers die; membership has not noticed yet, so placement still
  // targets them and every alloc RPC must retry until the policy gives up.
  system.crash_node(1);
  system.crash_node(2);
  ASSERT_TRUE(client.put_sync(9, page_data(9)).ok());

  auto loc = client.map().lookup(9);
  ASSERT_TRUE(loc.ok());
  EXPECT_EQ(loc->tier, mem::Tier::kDisk);
  EXPECT_TRUE(loc->degraded);
  EXPECT_EQ(system.service(0).metrics().counter_value(
                "ldms.degraded_to_disk"),
            1u);

  auto& rpc_metrics = system.node(0).rpc().metrics();
  EXPECT_GE(rpc_metrics.counter_value("rpc.retries"), 2u);
  const Histogram* backoff = rpc_metrics.find_histogram("net.backoff_ns");
  ASSERT_NE(backoff, nullptr);
  EXPECT_GE(backoff->count(), 2u);
  // Capped: no recorded backoff exceeds the policy ceiling.
  EXPECT_LE(backoff->max(),
            static_cast<std::uint64_t>(config.rpc_retry.backoff_ceiling()));
}

// A degraded put (short replica set accepted under the min_shards floor)
// is topped back up to the full factor by the repair scan once capacity
// returns, and the degraded flag clears.
TEST(RecoveryTest, DegradedPutToppedUpByRepairScan) {
  DmSystem system(cluster_config(4, 2, /*min_shards=*/1));
  system.start();
  auto& client = system.create_server(0, 64 * MiB, remote_only());

  // Lose all but one candidate, and let membership notice.
  system.crash_node(2);
  system.crash_node(3);
  system.run_for(10 * kSecond);

  ASSERT_TRUE(client.put_sync(11, page_data(11)).ok());
  auto loc = client.map().lookup(11);
  ASSERT_TRUE(loc.ok());
  ASSERT_EQ(loc->tier, mem::Tier::kRemote);
  ASSERT_EQ(loc->replicas.size(), 1u);
  ASSERT_TRUE(loc->degraded);
  EXPECT_GE(system.service(0).metrics().counter_value(
                "ldms.put_remote_degraded"),
            1u);

  // Capacity returns; one repair scan restores the factor.
  system.recover_node(2);
  system.recover_node(3);
  system.run_for(10 * kSecond);
  bool scanned = false;
  system.repair(0).scan_tick([&]() { scanned = true; });
  ASSERT_TRUE(system.simulator().run_until_flag(scanned));

  loc = client.map().lookup(11);
  ASSERT_TRUE(loc.ok());
  EXPECT_EQ(loc->replicas.size(), 2u);
  EXPECT_FALSE(loc->degraded);
  EXPECT_GE(system.service(0).metrics().counter_value("repair.requeued"), 1u);
  EXPECT_GE(system.service(0).metrics().counter_value("repair.completed"),
            1u);
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(client.get_sync(11, out).ok());
  EXPECT_EQ(out, page_data(11));
}

// --- live region migration (cluster balancing) -------------------------------

// Index of the node whose id is `id` (ids and indices coincide today, but
// the tests shouldn't bake that in).
std::size_t node_index(DmSystem& system, net::NodeId id) {
  for (std::size_t i = 0; i < system.node_count(); ++i)
    if (system.node(i).id() == id) return i;
  ADD_FAILURE() << "unknown node id " << id;
  return 0;
}

// The replica host (excluding the client's own node) carrying the most of
// the client's entries — the natural migration source.
net::NodeId busiest_host(Ldmc& client, net::NodeId self) {
  std::map<net::NodeId, int> counts;
  client.map().for_each([&](mem::EntryId, const mem::EntryLocation& loc) {
    if (loc.tier != mem::Tier::kRemote) return;
    for (const auto& replica : loc.replicas)
      if (replica.node != self) ++counts[replica.node];
  });
  net::NodeId best = net::kInvalidNode;
  int most = 0;
  for (const auto& [node, count] : counts) {
    if (count > most) {
      best = node;
      most = count;
    }
  }
  return best;
}

// Live migration is copy-then-redirect: every get issued while entries are
// being migrated off a node — and every get afterwards — must return the
// exact pre-migration bytes, and the vacated node ends up hosting none of
// them.
TEST(RecoveryTest, MigrationServesPreMigrationBytesThroughout) {
  DmSystem system(cluster_config(4, 1));
  system.start();
  auto& client = system.create_server(0, 64 * MiB, remote_only());
  constexpr std::uint64_t kEntries = 24;
  for (std::uint64_t id = 0; id < kEntries; ++id)
    ASSERT_TRUE(client.put_sync(id, page_data(id)).ok());

  const net::NodeId self = system.node(0).id();
  const net::NodeId hot = busiest_host(client, self);
  ASSERT_NE(hot, net::kInvalidNode);
  const std::size_t hot_index = node_index(system, hot);
  const std::size_t on_hot =
      client.map().entries_with_replica_on(hot).size();
  ASSERT_GT(on_hot, 0u);

  // Kick the offload, then read every entry while the migrations are in
  // flight — get_sync drives the simulator, so these reads interleave with
  // the copy-then-redirect steps.
  std::size_t accepted = 0;
  bool offload_done = false;
  system.service(hot_index).offload_hot_node(kEntries, [&](std::size_t n) {
    accepted = n;
    offload_done = true;
  });
  std::vector<std::byte> out(4096);
  for (std::uint64_t id = 0; id < kEntries; ++id) {
    ASSERT_TRUE(client.get_sync(id, out).ok()) << "entry " << id;
    EXPECT_EQ(out, page_data(id)) << "entry " << id;
  }
  ASSERT_TRUE(system.simulator().run_until_flag(offload_done));
  EXPECT_EQ(accepted, on_hot);
  system.run_for(2 * kSecond);

  // Redirect complete: the hot node hosts none of the client's entries, the
  // owner counted the moves, and every entry still reads pre-migration
  // bytes from its new home.
  EXPECT_TRUE(client.map().entries_with_replica_on(hot).empty());
  auto& owner_metrics = system.service(0).metrics();
  EXPECT_EQ(owner_metrics.counter_value("ldms.migrated_entries"), on_hot);
  EXPECT_EQ(owner_metrics.counter_value("placement.rebalance_moves"), on_hot);
  const Histogram* migrate_ns =
      owner_metrics.find_histogram("cluster.migrate_ns");
  ASSERT_NE(migrate_ns, nullptr);
  EXPECT_EQ(migrate_ns->count(), on_hot);
  for (std::uint64_t id = 0; id < kEntries; ++id) {
    ASSERT_TRUE(client.get_sync(id, out).ok()) << "entry " << id;
    EXPECT_EQ(out, page_data(id)) << "entry " << id;
    auto loc = client.map().lookup(id);
    ASSERT_TRUE(loc.ok());
    for (const auto& replica : loc->replicas) EXPECT_NE(replica.node, hot);
  }
}

// A crash in the middle of a migration round must never lose the source
// copy: the old replica is freed only after the new location commits, so
// whichever side dies mid-flight, every entry stays readable with exact
// pre-migration bytes and no data-loss event fires.
TEST(RecoveryTest, CrashMidMigrationNeverLosesSourceCopy) {
  DmSystem system(cluster_config(5, 2));
  system.start();
  auto& client = system.create_server(0, 64 * MiB, remote_only());
  constexpr std::uint64_t kEntries = 16;
  for (std::uint64_t id = 0; id < kEntries; ++id)
    ASSERT_TRUE(client.put_sync(id, page_data(id)).ok());

  const net::NodeId self = system.node(0).id();
  const net::NodeId hot = busiest_host(client, self);
  ASSERT_NE(hot, net::kInvalidNode);
  const std::size_t hot_index = node_index(system, hot);
  ASSERT_FALSE(client.map().entries_with_replica_on(hot).empty());

  // Scripted chaos: the migration source crashes 25 us into the offload —
  // after the migrate-region RPC lands, while the copy-then-redirect steps
  // are in flight — and stays down for 200 ms.
  sim::ChaosSchedule::Hooks hooks;
  hooks.crash_node = [&](sim::ChaosSchedule::NodeRef n) {
    system.crash_node(n);
  };
  hooks.recover_node = [&](sim::ChaosSchedule::NodeRef n) {
    system.recover_node(n);
  };
  sim::ChaosSchedule chaos(system.failures(), hooks);
  chaos.crash(system.simulator().now() + 25 * kMicro, hot, 200 * kMilli);

  bool offload_done = false;
  system.service(hot_index).offload_hot_node(
      kEntries, [&](std::size_t) { offload_done = true; });
  ASSERT_TRUE(system.simulator().run_until_flag(offload_done));
  system.run_for(2 * kSecond);
  EXPECT_EQ(chaos.crashes_fired(), 1u);

  // Conservation: replication 2 plus commit-before-free means the single
  // crash can't orphan anything — no service saw data loss, and every
  // entry reads back its pre-migration bytes (the source node is up again
  // by now, so even unmigrated entries are reachable).
  std::uint64_t lost = 0;
  for (std::size_t i = 0; i < system.node_count(); ++i)
    lost += system.service(i).data_loss_entries();
  EXPECT_EQ(lost, 0u);
  std::vector<std::byte> out(4096);
  for (std::uint64_t id = 0; id < kEntries; ++id) {
    ASSERT_TRUE(client.get_sync(id, out).ok()) << "entry " << id;
    EXPECT_EQ(out, page_data(id)) << "entry " << id;
  }
}

// Two offloads that name the same entries before either migration commits
// (here both start at one instant) must move each entry exactly once. The
// later commit finds its departing copy already replaced, so it frees its
// own fresh block and counts a stale migration: it must not drop the first
// migration's fresh block from the map, free the departed block a second
// time, or count the move twice.
TEST(RecoveryTest, OverlappingOffloadsMoveEachEntryOnce) {
  for (std::size_t copies : {1u, 2u}) {
    SCOPED_TRACE("copies " + std::to_string(copies));
    DmSystem system(cluster_config(5, copies));
    system.start();
    auto& client = system.create_server(0, 64 * MiB, remote_only());
    constexpr std::uint64_t kEntries = 24;
    for (std::uint64_t id = 0; id < kEntries; ++id)
      ASSERT_TRUE(client.put_sync(id, page_data(id)).ok());

    const net::NodeId hot = busiest_host(client, system.node(0).id());
    ASSERT_NE(hot, net::kInvalidNode);
    const std::size_t hot_index = node_index(system, hot);
    const std::size_t on_hot =
        client.map().entries_with_replica_on(hot).size();
    ASSERT_GT(on_hot, 0u);

    std::size_t offloads_done = 0;
    for (int i = 0; i < 2; ++i)
      system.service(hot_index).offload_hot_node(
          kEntries, [&](std::size_t) { ++offloads_done; });
    system.run_for(2 * kSecond);
    EXPECT_EQ(offloads_done, 2u);

    // Every block still hosted is listed in the map, and vice versa.
    std::size_t hosted = 0;
    for (std::size_t i = 0; i < system.node_count(); ++i)
      hosted += system.service(i).rdms().hosted_blocks();
    std::size_t listed = 0;
    client.map().for_each([&](mem::EntryId, const mem::EntryLocation& loc) {
      listed += loc.replicas.size();
    });
    EXPECT_EQ(hosted, listed);
    EXPECT_EQ(listed, kEntries * copies);
    EXPECT_EQ(system.service(0).metrics().counter_value(
                  "ldms.migrated_entries"),
              on_hot);
    std::vector<std::byte> out(4096);
    for (std::uint64_t id = 0; id < kEntries; ++id) {
      ASSERT_TRUE(client.get_sync(id, out).ok()) << "entry " << id;
      EXPECT_EQ(out, page_data(id)) << "entry " << id;
    }
  }
}

// --- crash during a write-back flush ------------------------------------------

swap::SwapManager::Config wb_swap_config() {
  swap::SwapManager::Config config;
  config.resident_pages = 16;
  config.batch_pages = 8;
  config.compression = swap::CompressionMode::kFourGranularity;
  // Long deadline: batches sit staged until the barrier, so the crash is
  // guaranteed to land while acknowledged pages are only in DRAM staging.
  config.writeback_flush_delay = 50 * kMilli;
  return config;
}

void swap_content(std::uint64_t page, std::span<std::byte> out) {
  workloads::fill_page(out, page, 0.4, 23);
}

std::uint64_t swap_checksum(std::uint64_t page) {
  std::vector<std::byte> bytes(4096);
  swap_content(page, bytes);
  return fnv1a(bytes);
}

// Every remote candidate dies while swap-out batches are staged in the
// write-back buffer. The barrier's flushes must retry, give up, and land in
// the degraded disk fallback: the barrier succeeds, no acknowledged page is
// lost, and every page is durable (if degraded) down-tier.
TEST(RecoveryTest, CrashDuringWriteBackFlushFallsBackToDisk) {
  auto config = cluster_config(3, 2, /*min_shards=*/1);
  config.rpc_retry.max_attempts = 3;
  config.rpc_retry.base_backoff = 500 * kMicro;
  config.rpc_retry.max_backoff = 2 * kMilli;
  DmSystem system(config);
  system.start();
  LdmcOptions options;
  options.shm_fraction = 0.0;  // all batches remote => the crash hits them
  auto& client = system.create_server(0, 64 * MiB, options);
  swap::SwapManager manager(client, wb_swap_config(), swap_content);

  for (std::uint64_t p = 0; p < 48; ++p)
    ASSERT_TRUE(manager.touch(p, /*write=*/true).ok());
  ASSERT_GT(manager.wb_staged_batches(), 0u);

  // Both remote peers die; membership has not noticed, so the flush puts
  // still target them and must fail over to the local disk, degraded.
  system.crash_node(1);
  system.crash_node(2);
  ASSERT_TRUE(manager.wb_barrier().ok());
  EXPECT_EQ(manager.wb_staged_batches(), 0u);
  EXPECT_EQ(manager.wb_in_flight(), 0u);
  EXPECT_GE(manager.metrics().counter_value("swap.degraded_batches"), 1u);
  EXPECT_GE(system.service(0).metrics().counter_value(
                "ldms.degraded_to_disk"),
            1u);

  // No acknowledged page lost: every page is recoverable with exact bytes.
  for (std::uint64_t p = 0; p < 48; ++p) {
    ASSERT_TRUE(manager.touch(p).ok()) << "page " << p;
    auto bytes = manager.resident_bytes(p);
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(fnv1a(*bytes), swap_checksum(p)) << "page " << p;
  }
}

// Same crash, but with the disk fallback disabled: the flush puts fail
// outright. The write-back machinery must roll every staged page back to
// resident+dirty — the barrier reports the failure, but nothing is lost,
// and once capacity returns a plain flush drains everything.
TEST(RecoveryTest, CrashDuringWriteBackFlushRollsBackWithoutLoss) {
  auto config = cluster_config(3, 2, /*min_shards=*/1);
  config.rpc_retry.max_attempts = 3;
  config.rpc_retry.base_backoff = 500 * kMicro;
  config.rpc_retry.max_backoff = 2 * kMilli;
  DmSystem system(config);
  system.start();
  LdmcOptions options;
  options.shm_fraction = 0.0;
  options.allow_disk = false;  // no fallback tier at all
  auto& client = system.create_server(0, 64 * MiB, options);
  swap::SwapManager manager(client, wb_swap_config(), swap_content);

  for (std::uint64_t p = 0; p < 48; ++p)
    ASSERT_TRUE(manager.touch(p, /*write=*/true).ok());
  ASSERT_GT(manager.wb_staged_batches(), 0u);

  system.crash_node(1);
  system.crash_node(2);
  const Status barrier = manager.wb_barrier();
  EXPECT_FALSE(barrier.ok());
  EXPECT_GE(manager.metrics().counter_value("swap.wb.flush_failures"), 1u);
  EXPECT_EQ(manager.wb_staged_batches(), 0u);
  EXPECT_EQ(manager.wb_in_flight(), 0u);

  // Conservation: every page survives, either resident (rolled back,
  // dirty again) or still backed by an entry that flushed before the
  // crash. Resident copies carry exact bytes.
  for (std::uint64_t p = 0; p < 48; ++p) {
    ASSERT_TRUE(manager.is_resident(p) || manager.is_backed(p))
        << "page " << p << " lost";
    if (manager.is_resident(p)) {
      auto bytes = manager.resident_bytes(p);
      ASSERT_TRUE(bytes.ok());
      EXPECT_EQ(fnv1a(*bytes), swap_checksum(p)) << "page " << p;
    }
  }

  // Capacity returns; the rolled-back pages drain through a normal flush
  // and everything reads back intact.
  system.recover_node(1);
  system.recover_node(2);
  system.run_for(10 * kSecond);
  ASSERT_TRUE(manager.flush_all().ok());
  EXPECT_EQ(manager.resident_count(), 0u);
  for (std::uint64_t p = 0; p < 48; ++p) {
    ASSERT_TRUE(manager.touch(p).ok()) << "page " << p;
    auto bytes = manager.resident_bytes(p);
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(fnv1a(*bytes), swap_checksum(p)) << "page " << p;
  }
}

// --- crash during a batch compaction -----------------------------------------

// A sparse batch's rewrite is in flight to remote memory when one of the
// two hosts it must land on crashes. The all-or-nothing put fails, so the
// compaction is abandoned: the source entry stays authoritative, its
// surviving copy serves every read, and no page is lost.
TEST(RecoveryTest, CompactionLostToACrashedHostIsAbandoned) {
  auto config = cluster_config(3, 2);
  config.rpc_retry.max_attempts = 3;
  config.rpc_retry.base_backoff = 500 * kMicro;
  config.rpc_retry.max_backoff = 2 * kMilli;
  DmSystem system(config);
  system.start();
  LdmcOptions options;
  options.shm_fraction = 0.0;
  auto& client = system.create_server(0, 64 * MiB, options);
  swap::SwapManager::Config swap_config;
  swap_config.resident_pages = 8;
  swap_config.batch_pages = 8;
  swap_config.compression = swap::CompressionMode::kOff;
  swap::SwapManager manager(client, swap_config, swap_content);

  // Pages 0..7 go out as one batch; 0..5 are rewritten and go out again,
  // leaving 6 and 7 as the batch's only live members.
  for (std::uint64_t p = 0; p < 16; ++p) ASSERT_TRUE(manager.touch(p).ok());
  for (std::uint64_t p = 0; p < 6; ++p)
    ASSERT_TRUE(manager.touch(p, /*write=*/true).ok());
  for (std::uint64_t p = 8; p < 16; ++p) ASSERT_TRUE(manager.touch(p).ok());
  ASSERT_TRUE(manager.wb_barrier().ok());  // the batches land down-tier
  const std::size_t entries = client.map().size();

  ASSERT_TRUE(manager.touch(6).ok());  // reads the sparse batch: rewrite
  ASSERT_EQ(manager.compactions_pending(), 1u);
  ASSERT_EQ(client.map().size(), entries);  // the put has not landed
  system.crash_node(2);
  system.run_for(1 * kSecond);
  ASSERT_TRUE(manager.touch(7).ok());  // safe point
  EXPECT_EQ(manager.metrics().counter_value("swap.compact.abandoned"), 1u);
  EXPECT_EQ(manager.metrics().counter_value("swap.compact.committed"), 0u);
  EXPECT_EQ(client.map().size(), entries);
  client.map().for_each(
      [&manager](mem::EntryId id, const mem::EntryLocation&) {
        EXPECT_TRUE(manager.names_entry(id)) << "orphaned entry " << id;
      });

  ASSERT_TRUE(manager.flush_all().ok());
  for (std::uint64_t p = 0; p < 16; ++p) {
    ASSERT_TRUE(manager.touch(p).ok()) << "page " << p;
    auto bytes = manager.resident_bytes(p);
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(fnv1a(*bytes), swap_checksum(p)) << "page " << p;
  }
}

// --- crash under a PBS readahead ---------------------------------------------

// A sequential scan over two-copy remote memory has read ahead the next
// two batch entries when node 1, which holds a copy of every entry, crashes
// with both gets in flight. Each fault on those entries either restores
// from a readahead that failed over to the surviving copy, or drops one
// that failed and fetches on demand, which fails over too: no page is lost.
TEST(RecoveryTest, CrashUnderAReadaheadLosesNothing) {
  auto config = cluster_config(3, 2, /*min_shards=*/1);
  config.rpc_retry.max_attempts = 3;
  config.rpc_retry.base_backoff = 500 * kMicro;
  config.rpc_retry.max_backoff = 2 * kMilli;
  DmSystem system(config);
  system.start();
  auto& client = system.create_server(0, 64 * MiB, remote_only());
  swap::SwapManager::Config swap_config;
  swap_config.resident_pages = 32;
  swap_config.batch_pages = 8;
  swap_config.compression = swap::CompressionMode::kOff;
  swap::SwapManager manager(client, swap_config, swap_content);

  // Pages 0..127 go out once, in order, as 8-page entries.
  for (std::uint64_t p = 0; p < 128; ++p)
    ASSERT_TRUE(manager.touch(p, /*write=*/true).ok());
  ASSERT_TRUE(manager.flush_all().ok());
  auto issued = [&manager]() {
    return manager.metrics().counter_value("swap.readahead.issued");
  };
  std::uint64_t p = 0;
  while (issued() == 0) ASSERT_TRUE(manager.touch(p++).ok());
  ASSERT_EQ(manager.readaheads_held(), 2u);
  system.crash_node(1);

  for (; p < 128; ++p) {
    ASSERT_TRUE(manager.touch(p).ok()) << "page " << p;
    auto bytes = manager.resident_bytes(p);
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(fnv1a(*bytes), swap_checksum(p)) << "page " << p;
  }
  const auto& m = manager.metrics();
  EXPECT_EQ(m.counter_value("swap.readahead.hits") +
                m.counter_value("swap.readahead.dropped") +
                manager.readaheads_held(),
            issued());
  EXPECT_GT(system.node(0).recv_pool().metrics().counter_value(
                "rdmc.read_failovers"),
            0u);
  ASSERT_TRUE(manager.flush_all().ok());
  for (std::uint64_t q = 0; q < 128; ++q) {
    ASSERT_TRUE(manager.touch(q).ok()) << "page " << q;
    auto bytes = manager.resident_bytes(q);
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(fnv1a(*bytes), swap_checksum(q)) << "page " << q;
  }
}

// --- erasure-coded shard repair under fire -----------------------------------

DmSystem::Config ec_cluster_config(std::size_t nodes, std::size_t k,
                                   std::size_t r, std::size_t min_shards) {
  DmSystem::Config config;
  config.node_count = nodes;
  config.node.shm.arena_bytes = 4 * MiB;
  config.node.recv.arena_bytes = 8 * MiB;
  config.node.disk.capacity_bytes = 64 * MiB;
  config.service.rdmc.ec_k = k;
  config.service.rdmc.ec_r = r;
  config.service.rdmc.min_shards = min_shards;
  return config;
}

// A node crashing in the middle of an EC shard repair (after the surviving
// shards were read, while the re-encoded shard is being placed) must leave
// the stripe either topped up or still-degraded-but-readable — never
// corrupted, never below k live shards, and never leaking provisional
// blocks. A later scan completes the repair.
TEST(RecoveryTest, CrashDuringShardRepairNeverLosesData) {
  DmSystem system(ec_cluster_config(8, 2, 2, /*min_shards=*/2));
  system.start();
  auto& client = system.create_server(0, 64 * MiB, remote_only());
  const cluster::ServerId server = client.server();

  const auto data = page_data(21);
  ASSERT_TRUE(client.put_sync(21, data).ok());
  auto loc = client.map().lookup(21);
  ASSERT_TRUE(loc.ok());
  ASSERT_EQ(loc->replicas.size(), 4u);

  // Lose one shard host; let membership notice.
  const net::NodeId first_victim = loc->replicas[0].node;
  system.crash_node(node_index(system, first_victim));
  system.run_for(10 * kSecond);

  // Kick the repair, and crash a *second* shard host mid-repair — 30 us in,
  // after the survivor reads have been issued.
  loc = client.map().lookup(21);
  ASSERT_TRUE(loc.ok());
  net::NodeId second_victim = net::kInvalidNode;
  for (const auto& replica : loc->replicas)
    if (system.fabric().node_up(replica.node)) {
      second_victim = replica.node;
      break;
    }
  ASSERT_NE(second_victim, net::kInvalidNode);
  bool repaired = false;
  system.service(0).repair_entry(server, 21,
                                 [&](const Status&) { repaired = true; });
  system.simulator().schedule_at(
      system.simulator().now() + 30 * kMicro,
      [&]() { system.crash_node(node_index(system, second_victim)); });
  ASSERT_TRUE(system.simulator().run_until_flag(repaired));
  system.run_for(10 * kSecond);

  // Whatever the interleaving, the bytes survive: k=2 shards still live.
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(client.get_sync(21, out).ok());
  EXPECT_EQ(out, data);
  std::uint64_t lost = 0;
  for (std::size_t i = 0; i < system.node_count(); ++i)
    lost += system.service(i).data_loss_entries();
  EXPECT_EQ(lost, 0u);

  // Further scans finish the job: full stripe on live nodes, byte-exact.
  for (int round = 0; round < 4; ++round) {
    bool scanned = false;
    system.repair(0).scan_tick([&]() { scanned = true; });
    ASSERT_TRUE(system.simulator().run_until_flag(scanned));
    system.run_for(1 * kSecond);
  }
  loc = client.map().lookup(21);
  ASSERT_TRUE(loc.ok());
  EXPECT_EQ(loc->replicas.size(), 4u);
  EXPECT_FALSE(loc->degraded);
  std::set<std::uint32_t> shards;
  for (const auto& replica : loc->replicas) {
    EXPECT_TRUE(system.fabric().node_up(replica.node));
    shards.insert(replica.shard);
  }
  EXPECT_EQ(shards.size(), 4u);
  std::fill(out.begin(), out.end(), std::byte{0});
  ASSERT_TRUE(client.get_sync(21, out).ok());
  EXPECT_EQ(out, data);
}

// Shard repair must never resurrect an entry removed while the re-encode
// was in flight — the stale re-check frees the freshly placed shards.
TEST(RecoveryTest, ShardRepairRacingRemovalDoesNotResurrect) {
  DmSystem system(ec_cluster_config(8, 2, 2, /*min_shards=*/2));
  system.start();
  auto& client = system.create_server(0, 64 * MiB, remote_only());
  const cluster::ServerId server = client.server();

  ASSERT_TRUE(client.put_sync(22, page_data(22)).ok());
  auto loc = client.map().lookup(22);
  ASSERT_TRUE(loc.ok());
  const std::size_t crashed = node_index(system, loc->replicas[0].node);
  system.crash_node(crashed);

  // Start the shard repair immediately (the fabric already knows the node
  // is gone; waiting for membership would let the automatic node-down
  // repair top the stripe up first), and remove the entry mid-repair — after the
  // survivor reads and the re-encode, while the fresh shard is being
  // placed. The repair's commit must then detect the removal and free the
  // shard it just wrote instead of resurrecting the entry.
  bool repaired = false;
  system.service(0).repair_entry(server, 22,
                                 [&](const Status&) { repaired = true; });
  bool removed = false;
  system.simulator().schedule_at(system.simulator().now() + 12 * kMicro,
                                 [&]() {
                                   client.remove(22, [&](const Status& s) {
                                     EXPECT_TRUE(s.ok());
                                     removed = true;
                                   });
                                 });
  ASSERT_TRUE(system.simulator().run_until_flag(repaired));
  ASSERT_TRUE(system.simulator().run_until_flag(removed));
  system.run_for(1 * kSecond);

  EXPECT_FALSE(client.map().contains(22));
  EXPECT_GE(system.service(0).metrics().counter_value("ldms.repair_stale"),
            1u);
  // No leaked hosted blocks on any live node (recover the crashed node
  // first: its pool dropped with the crash, recovery just re-registers it
  // empty so the census covers the whole cluster).
  system.recover_node(crashed);
  std::size_t hosted = 0;
  for (std::size_t i = 0; i < system.node_count(); ++i)
    hosted += system.service(i).rdms().hosted_blocks();
  EXPECT_EQ(hosted, 0u);
}

// Removing an erasure-coded entry while one of its shard hosts is down must
// succeed. The map erase is the commit point, and the dead host's shard died
// with its DRAM; the host's recovery drops every block it hosted. A remove
// that reported the dead host's failed free after committing failed the swap
// write that triggered it.
TEST(RecoveryTest, RemoveWithShardHostDownCommitsAndFreesLiveShards) {
  DmSystem system(ec_cluster_config(8, 4, 2, /*min_shards=*/0));
  system.start();
  auto& client = system.create_server(0, 64 * MiB, remote_only());
  std::vector<std::size_t> hosted_before(system.node_count());
  for (std::size_t i = 0; i < system.node_count(); ++i)
    hosted_before[i] = system.service(i).rdms().hosted_blocks();

  ASSERT_TRUE(client.put_sync(23, page_data(23)).ok());
  auto loc = client.map().lookup(23);
  ASSERT_TRUE(loc.ok());
  ASSERT_EQ(loc->replicas.size(), 6u);
  const std::size_t crashed = node_index(system, loc->replicas[0].node);
  system.crash_node(crashed);

  ASSERT_TRUE(client.remove_sync(23).ok());
  EXPECT_FALSE(client.map().contains(23));
  for (std::size_t i = 0; i < system.node_count(); ++i) {
    if (i == crashed) continue;
    EXPECT_EQ(system.service(i).rdms().hosted_blocks(), hosted_before[i])
        << "node " << i;
  }
  EXPECT_EQ(system.node(0).recv_pool().metrics().counter_value(
                "rdmc.frees_on_dead_host"),
            1u);

  system.recover_node(crashed);
  EXPECT_EQ(system.service(crashed).rdms().hosted_blocks(), 0u);
}

// A slab under drain must take no new blocks. Its owners are notified once,
// when the drain starts, so a block placed there afterwards has an owner
// that never hears of the drain: the slab never empties, and the node's
// one drain slot (which eviction and harvest reclaim both wait on) stays
// taken.
TEST(RecoveryTest, DrainingSlabTakesNoNewBlocks) {
  DmSystem system(cluster_config(4, 1));
  system.start();
  auto& client = system.create_server(0, 64 * MiB, remote_only());
  for (std::uint64_t id = 0; id < 32; ++id)
    ASSERT_TRUE(client.put_sync(id, page_data(id)).ok()) << id;

  std::size_t host = 1;
  for (std::size_t i = 2; i < system.node_count(); ++i)
    if (system.service(i).rdms().hosted_blocks() >
        system.service(host).rdms().hosted_blocks())
      host = i;
  auto& pool = system.node(host).recv_pool();
  auto slab = pool.least_loaded_slab();
  ASSERT_TRUE(slab.has_value());
  const auto hosted = pool.blocks_in_slab(*slab);
  ASSERT_FALSE(hosted.empty());
  const net::RKey draining_rkey = hosted.front().rkey;

  bool drained = false;
  Status drain_status;
  auto& rdms = system.service(host).rdms();
  rdms.drain_slab(*slab, [&](const Status& s) {
    drain_status = s;
    drained = true;
  });
  std::vector<std::vector<std::byte>> payloads;
  for (std::uint64_t id = 32; id < 96; ++id) payloads.push_back(page_data(id));
  std::size_t puts_done = 0;
  bool all_put = false;
  for (std::uint64_t id = 32; id < 96; ++id)
    client.put(id, payloads[id - 32], [&, id](const Status& s) {
      EXPECT_TRUE(s.ok()) << id << ": " << s;
      all_put = ++puts_done == payloads.size();
    });
  const SimTime deadline = system.simulator().now() + 60 * kSecond;
  ASSERT_TRUE(system.simulator().run_until_flag(all_put, deadline));
  ASSERT_TRUE(system.simulator().run_until_flag(drained, deadline));
  EXPECT_TRUE(drain_status.ok()) << drain_status;
  EXPECT_EQ(rdms.active_drains(), 0u);

  for (std::uint64_t id = 32; id < 96; ++id) {
    auto loc = client.map().lookup(id);
    ASSERT_TRUE(loc.ok()) << id;
    for (const auto& replica : loc->replicas)
      EXPECT_NE(replica.rkey, draining_rkey) << id;
  }
  std::vector<std::byte> out(4096);
  for (std::uint64_t id = 0; id < 96; ++id) {
    ASSERT_TRUE(client.get_sync(id, out).ok()) << id;
    EXPECT_EQ(out, page_data(id)) << id;
  }
}

}  // namespace
}  // namespace dm::core
