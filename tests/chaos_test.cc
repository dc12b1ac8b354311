// Deterministic chaos soak (§IV.D hardening, end to end).
//
// A seeded ChaosSchedule drives a Poisson crash/repair storm plus a full
// client-side network partition over a 5-node cluster while a memcached-like
// workload (fresh-key puts + reads of the live key set) runs on node 0.
// The schedule's can_crash guard enforces the single-failure discipline a
// replication factor of 2 can survive, so the test can assert *zero* data
// loss — every live key readable with correct bytes once the cluster heals —
// while still exercising retry-with-backoff, the degraded disk fallback,
// and background re-replication.
//
// Determinism: the same seed must produce a byte-identical cluster metrics
// snapshot across two full runs (the chaos analogue of the simulator's
// bit-identical guarantee).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/dm_system.h"
#include "core/node_service.h"
#include "core/repair_service.h"
#include "mem/memory_map.h"
#include "obs/flight_recorder.h"
#include "obs/span.h"
#include "sim/chaos_schedule.h"
#include "swap/swap_manager.h"
#include "swap/systems.h"
#include "workloads/page_content.h"

namespace dm::core {
namespace {

std::vector<std::byte> page_data(std::uint64_t id) {
  std::vector<std::byte> bytes(4096);
  workloads::fill_page(bytes, id, 0.5, 7);
  return bytes;
}

struct SoakResult {
  std::string metrics_json;
  std::uint64_t crashes = 0;
  std::uint64_t skipped = 0;
  std::uint64_t retries = 0;
  std::uint64_t disk_fallbacks = 0;
  std::uint64_t repairs_completed = 0;
  std::uint64_t transient_read_failures = 0;
  std::size_t keys = 0;
  bool all_reads_served = false;
  bool data_intact = false;
  bool placement_restored = false;
};

SoakResult run_soak(std::uint64_t seed) {
  DmSystem::Config config;
  config.node_count = 5;
  config.seed = seed;
  config.node.shm.arena_bytes = 2 * MiB;
  config.node.recv.arena_bytes = 16 * MiB;
  config.node.disk.capacity_bytes = 64 * MiB;
  config.service.rdmc.ec_r = 1;  // 2 copies
  config.service.rdmc.min_shards = 1;  // degraded-mode writes allowed
  config.rpc_retry.max_attempts = 3;
  config.rpc_retry.base_backoff = 500 * kMicro;
  config.rpc_retry.max_backoff = 2 * kMilli;
  config.connect_backoff.max_attempts = 3;
  config.connect_backoff.base_backoff = 1 * kMilli;
  config.connect_backoff.max_backoff = 8 * kMilli;
  config.repair.enabled = true;
  // Fast scans: repair must finish topping up between storm events, or the
  // can_crash guard (which protects last-live-replica entries) would veto
  // most of the storm.
  config.repair.scan_period = 100 * kMilli;
  config.repair.max_repairs_per_scan = 64;
  DmSystem system(config);
  system.start();

  LdmcOptions options;
  options.shm_fraction = 0.2;  // mostly remote, some shm — all tiers in play
  auto& client = system.create_server(0, 64 * MiB, options);

  // Chaos: storm over nodes 1–4 (node 0 hosts the client and is never
  // crashed), plus one full partition of node 0 mid-soak to force the
  // degraded disk fallback.
  sim::ChaosSchedule::Hooks hooks;
  hooks.crash_node = [&](sim::ChaosSchedule::NodeRef n) {
    system.crash_node(n);
  };
  hooks.recover_node = [&](sim::ChaosSchedule::NodeRef n) {
    system.recover_node(n);
  };
  hooks.set_link_up = [&](sim::ChaosSchedule::NodeRef a,
                          sim::ChaosSchedule::NodeRef b, bool up) {
    system.fabric().set_link_up(a, b, up);
  };
  hooks.set_latency_scale = [&](double scale) {
    system.fabric().set_latency_scale(scale);
  };
  hooks.set_message_loss = [&](double p) {
    system.fabric().set_message_loss(p);
  };
  // Single-failure discipline for replication factor 2: never crash while
  // another node is down, and never kill the last live replica of any entry.
  hooks.can_crash = [&](sim::ChaosSchedule::NodeRef victim) {
    for (std::size_t i = 1; i < system.node_count(); ++i)
      if (!system.fabric().node_up(system.node(i).id())) return false;
    bool safe = true;
    client.map().for_each([&](mem::EntryId, const mem::EntryLocation& loc) {
      if (loc.tier != mem::Tier::kRemote) return;
      bool other_live = false;
      for (const auto& r : loc.replicas)
        if (r.node != victim && system.fabric().node_up(r.node))
          other_live = true;
      if (!other_live) safe = false;
    });
    return safe;
  };

  sim::ChaosSchedule chaos(system.failures(), hooks);
  Rng chaos_rng(seed ^ 0xc4a05);
  const SimTime storm_start = system.simulator().now() + 100 * kMilli;
  chaos.poisson_crash_storm(chaos_rng, storm_start,
                            storm_start + 3 * kSecond,
                            /*mean_interval=*/400 * kMilli,
                            /*outage=*/150 * kMilli, {1, 2, 3, 4});
  // Mid-soak: node 0 loses the whole fabric for 60 ms — remote puts must
  // degrade to disk, reads may fail transiently but never lose data.
  chaos.partition(storm_start + 1200 * kMilli, {0}, {1, 2, 3, 4},
                  60 * kMilli);
  // A latency spike and a loss window stress the retry/backoff machinery.
  chaos.latency_spike(storm_start + 1800 * kMilli, 4.0, 100 * kMilli);
  chaos.packet_loss(storm_start + 2200 * kMilli, 0.05, 100 * kMilli);

  // Memcached-like workload: fresh-key puts plus reads over the live key
  // set. No overwrites or removes mid-storm (an overwrite is remove+put,
  // and removes against unreachable replica hosts are not atomic).
  Rng workload_rng(seed ^ 0x7a3);
  std::map<mem::EntryId, std::uint64_t> shadow;  // key -> content id
  mem::EntryId next_key = 1;
  SoakResult result;
  const SimTime soak_end = storm_start + 3500 * kMilli;
  while (system.simulator().now() < soak_end) {
    for (int i = 0; i < 2; ++i) {
      const mem::EntryId key = next_key++;
      if (client.put_sync(key, page_data(key)).ok()) shadow[key] = key;
    }
    for (int i = 0; i < 3 && !shadow.empty(); ++i) {
      auto it = shadow.begin();
      std::advance(it, workload_rng.next_below(shadow.size()));
      std::vector<std::byte> out(4096);
      if (!client.get_sync(it->first, out).ok())
        ++result.transient_read_failures;  // must be served after heal
    }
    system.run_for(10 * kMilli);
  }

  // Heal: let membership re-detect recovered nodes, then give the repair
  // scans time to top everything back up and re-promote disk entries.
  system.run_for(15 * kSecond);
  for (int round = 0; round < 5; ++round) {
    for (std::size_t i = 0; i < system.node_count(); ++i) {
      bool scanned = false;
      system.repair(i).scan_tick([&]() { scanned = true; });
      (void)system.simulator().run_until_flag(scanned);
    }
    system.run_for(500 * kMilli);
  }

  // Every key ever acknowledged must now be served with correct bytes.
  result.all_reads_served = true;
  result.data_intact = true;
  for (const auto& [key, content] : shadow) {
    std::vector<std::byte> out(4096);
    if (!client.get_sync(key, out).ok()) {
      result.all_reads_served = false;
      continue;
    }
    if (out != page_data(content)) result.data_intact = false;
  }

  // Replication factor restored everywhere, nothing still degraded.
  result.placement_restored = true;
  client.map().for_each([&](mem::EntryId, const mem::EntryLocation& loc) {
    if (loc.degraded) result.placement_restored = false;
    if (loc.tier == mem::Tier::kRemote &&
        loc.replicas.size() <
            config.service.rdmc.ec_k + config.service.rdmc.ec_r)
      result.placement_restored = false;
  });

  result.keys = shadow.size();
  result.crashes = chaos.crashes_fired();
  result.skipped = chaos.skipped_crashes();
  for (std::size_t i = 0; i < system.node_count(); ++i)
    result.retries +=
        system.node(i).rpc().metrics().counter_value("rpc.retries");
  result.disk_fallbacks = system.total_counter("ldms.degraded_to_disk");
  result.repairs_completed = system.total_counter("repair.completed");
  result.metrics_json = system.hub().snapshot_json();
  return result;
}

TEST(ChaosSoakTest, SurvivesCrashStormWithZeroDataLoss) {
  const SoakResult r = run_soak(1905);
  std::printf("soak: crashes=%llu skipped=%llu keys=%zu retries=%llu "
              "disk_fallbacks=%llu repairs=%llu transient_read_failures=%llu\n",
              static_cast<unsigned long long>(r.crashes),
              static_cast<unsigned long long>(r.skipped), r.keys,
              static_cast<unsigned long long>(r.retries),
              static_cast<unsigned long long>(r.disk_fallbacks),
              static_cast<unsigned long long>(r.repairs_completed),
              static_cast<unsigned long long>(r.transient_read_failures));

  // The storm actually happened.
  EXPECT_GE(r.crashes, 3u);
  EXPECT_GT(r.keys, 100u);

  // Acceptance: at least one instance of each §IV.D hardening mechanism.
  EXPECT_GE(r.retries, 1u) << "no retry-with-backoff observed";
  EXPECT_GE(r.disk_fallbacks, 1u) << "no degraded disk fallback observed";
  EXPECT_GE(r.repairs_completed, 1u) << "no background re-replication";

  // Zero data loss: every acknowledged key served, bytes intact, and the
  // intended placement fully restored after the heal.
  EXPECT_TRUE(r.all_reads_served);
  EXPECT_TRUE(r.data_intact);
  EXPECT_TRUE(r.placement_restored);
}

TEST(ChaosSoakTest, SameSeedProducesIdenticalMetricSnapshots) {
  const SoakResult a = run_soak(77);
  const SoakResult b = run_soak(77);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.skipped, b.skipped);
  EXPECT_EQ(a.keys, b.keys);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.transient_read_failures, b.transient_read_failures);
  // The strong form: the merged cluster snapshot (every counter and
  // histogram on every node) is byte-identical.
  EXPECT_EQ(a.metrics_json, b.metrics_json);
}

// --- swap-layer chaos soak (adaptive engine + write-back under fire) --------
//
// The full adaptive swap path — pattern-aware PBS and the write-back
// staging buffer — paging over a 5-node cluster while a seeded crash
// storm takes out backend nodes and a partition cuts node 0 off entirely.
// Faults and flushes may fail transiently mid-storm; the acceptance bar is
// the same as the KV soak's: once the cluster heals, every page ever
// written is recoverable with exact bytes, and the same seed replays to
// identical swap counters.

struct SwapSoakResult {
  std::uint64_t crashes = 0;
  std::uint64_t transient_fault_failures = 0;
  std::uint64_t wb_staged = 0;
  std::uint64_t degraded_batches = 0;
  std::uint64_t faults = 0;
  std::uint64_t swap_ins = 0;
  std::uint64_t swap_outs = 0;
  std::uint64_t metrics_hash = 0;
  bool data_intact = false;
};

SwapSoakResult run_swap_soak(std::uint64_t seed) {
  DmSystem::Config config;
  config.node_count = 5;
  config.seed = seed;
  config.node.shm.arena_bytes = 2 * MiB;
  config.node.recv.arena_bytes = 16 * MiB;
  config.node.disk.capacity_bytes = 64 * MiB;
  config.service.rdmc.ec_r = 1;  // 2 copies
  config.service.rdmc.min_shards = 1;
  config.rpc_retry.max_attempts = 3;
  config.rpc_retry.base_backoff = 500 * kMicro;
  config.rpc_retry.max_backoff = 2 * kMilli;
  config.repair.enabled = true;
  config.repair.scan_period = 100 * kMilli;
  config.repair.max_repairs_per_scan = 64;
  DmSystem system(config);
  system.start();

  LdmcOptions options;
  options.shm_fraction = 0.2;  // most batches remote => exposed to crashes
  auto& client = system.create_server(0, 64 * MiB, options);

  auto setup = swap::make_system(swap::SystemKind::kFastSwap, 24);
  setup.swap.writeback_flush_delay = 5 * kMilli;
  swap::SwapManager manager(
      client, setup.swap, [](std::uint64_t page, std::span<std::byte> out) {
        workloads::fill_page(out, page, 0.4, 29);
      });

  sim::ChaosSchedule::Hooks hooks;
  hooks.crash_node = [&](sim::ChaosSchedule::NodeRef n) {
    system.crash_node(n);
  };
  hooks.recover_node = [&](sim::ChaosSchedule::NodeRef n) {
    system.recover_node(n);
  };
  hooks.set_link_up = [&](sim::ChaosSchedule::NodeRef a,
                          sim::ChaosSchedule::NodeRef b, bool up) {
    system.fabric().set_link_up(a, b, up);
  };
  hooks.set_latency_scale = [&](double scale) {
    system.fabric().set_latency_scale(scale);
  };
  hooks.set_message_loss = [&](double p) {
    system.fabric().set_message_loss(p);
  };
  hooks.can_crash = [&](sim::ChaosSchedule::NodeRef victim) {
    for (std::size_t i = 1; i < system.node_count(); ++i)
      if (!system.fabric().node_up(system.node(i).id())) return false;
    bool safe = true;
    client.map().for_each([&](mem::EntryId, const mem::EntryLocation& loc) {
      if (loc.tier != mem::Tier::kRemote) return;
      bool other_live = false;
      for (const auto& r : loc.replicas)
        if (r.node != victim && system.fabric().node_up(r.node))
          other_live = true;
      if (!other_live) safe = false;
    });
    return safe;
  };

  sim::ChaosSchedule chaos(system.failures(), hooks);
  Rng chaos_rng(seed ^ 0x5afe);
  const SimTime storm_start = system.simulator().now() + 100 * kMilli;
  chaos.poisson_crash_storm(chaos_rng, storm_start,
                            storm_start + 2 * kSecond,
                            /*mean_interval=*/400 * kMilli,
                            /*outage=*/150 * kMilli, {1, 2, 3, 4});
  // Node 0 loses the fabric mid-storm: write-back flushes in flight must
  // retry into the degraded disk fallback, not drop pages.
  chaos.partition(storm_start + 800 * kMilli, {0}, {1, 2, 3, 4},
                  60 * kMilli);

  SwapSoakResult result;
  Rng workload_rng(seed ^ 0x90e);
  const std::uint64_t page_space = 96;
  const SimTime soak_end = storm_start + 2500 * kMilli;
  std::uint64_t cursor = 0;
  while (system.simulator().now() < soak_end) {
    // Mixed phases, like real paging: sequential runs with random jumps.
    std::uint64_t page;
    if (workload_rng.bernoulli(0.6)) {
      page = cursor++ % page_space;
    } else {
      page = workload_rng.next_below(page_space);
    }
    if (!manager.touch(page, workload_rng.bernoulli(0.4)).ok())
      ++result.transient_fault_failures;  // storm-window fault; retried below
    system.run_for(1 * kMilli);
  }

  // Heal, then drain: barrier every staged batch and give repair time to
  // restore placement.
  system.run_for(15 * kSecond);
  (void)manager.wb_barrier();
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < system.node_count(); ++i) {
      bool scanned = false;
      system.repair(i).scan_tick([&]() { scanned = true; });
      (void)system.simulator().run_until_flag(scanned);
    }
    system.run_for(500 * kMilli);
  }

  // Zero page loss: every page in the space reads back with exact bytes.
  result.data_intact = true;
  for (std::uint64_t p = 0; p < page_space; ++p) {
    if (!manager.touch(p).ok()) {
      result.data_intact = false;
      continue;
    }
    auto bytes = manager.resident_bytes(p);
    std::vector<std::byte> expect(4096);
    workloads::fill_page(expect, p, 0.4, 29);
    if (!bytes.ok() || fnv1a(*bytes) != fnv1a(expect))
      result.data_intact = false;
  }

  result.crashes = chaos.crashes_fired();
  result.wb_staged = manager.metrics().counter_value("swap.wb.staged");
  result.degraded_batches =
      manager.metrics().counter_value("swap.degraded_batches");
  result.faults = manager.faults();
  result.swap_ins = manager.swap_ins();
  result.swap_outs = manager.swap_outs();
  const std::string dump = manager.metrics().to_string();
  result.metrics_hash =
      fnv1a(std::as_bytes(std::span(dump.data(), dump.size())));
  return result;
}

TEST(ChaosSwapSoakTest, WriteBackStormLosesNoAcknowledgedPage) {
  const SwapSoakResult r = run_swap_soak(811);
  std::printf("swap soak: crashes=%llu staged=%llu degraded=%llu "
              "faults=%llu transient=%llu\n",
              static_cast<unsigned long long>(r.crashes),
              static_cast<unsigned long long>(r.wb_staged),
              static_cast<unsigned long long>(r.degraded_batches),
              static_cast<unsigned long long>(r.faults),
              static_cast<unsigned long long>(r.transient_fault_failures));
  EXPECT_GE(r.crashes, 2u);                  // the storm happened
  EXPECT_GT(r.wb_staged, 0u);                // the staging buffer was used
  EXPECT_TRUE(r.data_intact);                // and nothing was lost
}

TEST(ChaosSwapSoakTest, SameSeedSwapSoakIsByteIdentical) {
  const SwapSoakResult a = run_swap_soak(88);
  const SwapSoakResult b = run_swap_soak(88);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(a.swap_ins, b.swap_ins);
  EXPECT_EQ(a.swap_outs, b.swap_outs);
  EXPECT_EQ(a.transient_fault_failures, b.transient_fault_failures);
  EXPECT_EQ(a.metrics_hash, b.metrics_hash);
}

// --- erasure-coded chaos soak (Hydra-style resilience under fire) -----------
//
// The same Poisson crash storm + partition + latency/loss windows as the
// replication soak, but every remote put is striped (k=2, r=2) across four
// distinct nodes instead of copied. The can_crash guard enforces the
// EC-survivable discipline — never take a node down if any stripe would drop
// below k live shard hosts — so the acceptance bar is absolute: zero data
// loss (every acknowledged key byte-exact after the heal, reconstructed
// through the degraded path where needed), every stripe re-encoded back to
// k+r shards, and the whole run byte-identical under the same seed.

struct EcSoakResult {
  std::string metrics_json;
  std::uint64_t crashes = 0;
  std::uint64_t skipped = 0;
  std::uint64_t degraded_reads = 0;
  std::uint64_t shards_repaired = 0;
  std::uint64_t transient_read_failures = 0;
  std::size_t keys = 0;
  bool all_reads_served = false;
  bool data_intact = false;
  bool stripes_restored = false;
};

EcSoakResult run_ec_soak(std::uint64_t seed) {
  constexpr std::size_t kEcK = 2;
  constexpr std::size_t kEcR = 2;
  DmSystem::Config config;
  config.node_count = 7;
  config.seed = seed;
  config.node.shm.arena_bytes = 2 * MiB;
  config.node.recv.arena_bytes = 16 * MiB;
  config.node.disk.capacity_bytes = 64 * MiB;
  config.service.rdmc.ec_k = kEcK;
  config.service.rdmc.ec_r = kEcR;
  config.service.rdmc.min_shards = kEcK;  // degraded short stripes allowed
  config.rpc_retry.max_attempts = 3;
  config.rpc_retry.base_backoff = 500 * kMicro;
  config.rpc_retry.max_backoff = 2 * kMilli;
  config.connect_backoff.max_attempts = 3;
  config.connect_backoff.base_backoff = 1 * kMilli;
  config.connect_backoff.max_backoff = 8 * kMilli;
  config.repair.enabled = true;
  config.repair.scan_period = 100 * kMilli;
  config.repair.max_repairs_per_scan = 64;
  DmSystem system(config);
  system.start();

  LdmcOptions options;
  options.shm_fraction = 0.2;
  auto& client = system.create_server(0, 64 * MiB, options);

  sim::ChaosSchedule::Hooks hooks;
  hooks.crash_node = [&](sim::ChaosSchedule::NodeRef n) {
    system.crash_node(n);
  };
  hooks.recover_node = [&](sim::ChaosSchedule::NodeRef n) {
    system.recover_node(n);
  };
  hooks.set_link_up = [&](sim::ChaosSchedule::NodeRef a,
                          sim::ChaosSchedule::NodeRef b, bool up) {
    system.fabric().set_link_up(a, b, up);
  };
  hooks.set_latency_scale = [&](double scale) {
    system.fabric().set_latency_scale(scale);
  };
  hooks.set_message_loss = [&](double p) {
    system.fabric().set_message_loss(p);
  };
  // EC-survivable discipline: a crash is vetoed if any stripe would be left
  // with fewer than k live shard hosts (counting the victim as down).
  hooks.can_crash = [&](sim::ChaosSchedule::NodeRef victim) {
    bool safe = true;
    client.map().for_each([&](mem::EntryId, const mem::EntryLocation& loc) {
      if (loc.tier != mem::Tier::kRemote) return;
      std::size_t live = 0;
      for (const auto& r : loc.replicas)
        if (r.node != victim && system.fabric().node_up(r.node)) ++live;
      if (live < loc.ec_k) safe = false;
    });
    return safe;
  };

  sim::ChaosSchedule chaos(system.failures(), hooks);
  Rng chaos_rng(seed ^ 0xec5704);
  const SimTime storm_start = system.simulator().now() + 100 * kMilli;
  chaos.poisson_crash_storm(chaos_rng, storm_start,
                            storm_start + 3 * kSecond,
                            /*mean_interval=*/400 * kMilli,
                            /*outage=*/150 * kMilli, {1, 2, 3, 4, 5, 6});
  chaos.partition(storm_start + 1200 * kMilli, {0}, {1, 2, 3, 4, 5, 6},
                  60 * kMilli);
  chaos.latency_spike(storm_start + 1800 * kMilli, 4.0, 100 * kMilli);
  chaos.packet_loss(storm_start + 2200 * kMilli, 0.05, 100 * kMilli);

  Rng workload_rng(seed ^ 0x7a3);
  std::map<mem::EntryId, std::uint64_t> shadow;
  mem::EntryId next_key = 1;
  EcSoakResult result;
  const SimTime soak_end = storm_start + 3500 * kMilli;
  while (system.simulator().now() < soak_end) {
    for (int i = 0; i < 2; ++i) {
      const mem::EntryId key = next_key++;
      if (client.put_sync(key, page_data(key)).ok()) shadow[key] = key;
    }
    for (int i = 0; i < 3 && !shadow.empty(); ++i) {
      auto it = shadow.begin();
      std::advance(it, workload_rng.next_below(shadow.size()));
      std::vector<std::byte> out(4096);
      if (!client.get_sync(it->first, out).ok())
        ++result.transient_read_failures;
    }
    system.run_for(10 * kMilli);
  }

  system.run_for(15 * kSecond);
  for (int round = 0; round < 5; ++round) {
    for (std::size_t i = 0; i < system.node_count(); ++i) {
      bool scanned = false;
      system.repair(i).scan_tick([&]() { scanned = true; });
      (void)system.simulator().run_until_flag(scanned);
    }
    system.run_for(500 * kMilli);
  }

  // Zero data loss: every acknowledged key readable, byte-exact — through
  // reconstruction if its direct shards are still being repaired.
  result.all_reads_served = true;
  result.data_intact = true;
  for (const auto& [key, content] : shadow) {
    std::vector<std::byte> out(4096);
    if (!client.get_sync(key, out).ok()) {
      result.all_reads_served = false;
      continue;
    }
    if (out != page_data(content)) result.data_intact = false;
  }

  // Every stripe back to k+r shards on distinct hosts, nothing degraded.
  result.stripes_restored = true;
  client.map().for_each([&](mem::EntryId, const mem::EntryLocation& loc) {
    if (loc.degraded) result.stripes_restored = false;
    if (loc.tier != mem::Tier::kRemote) return;
    if (loc.replicas.size() <
        static_cast<std::size_t>(loc.ec_k) + loc.ec_r)
      result.stripes_restored = false;
    std::set<std::uint32_t> shards;
    for (const auto& r : loc.replicas) shards.insert(r.shard);
    if (shards.size() != loc.replicas.size()) result.stripes_restored = false;
  });

  result.keys = shadow.size();
  result.crashes = chaos.crashes_fired();
  result.skipped = chaos.skipped_crashes();
  result.degraded_reads = system.total_counter("ec.degraded_reads");
  result.shards_repaired = system.total_counter("ec.shards_repaired");
  result.metrics_json = system.hub().snapshot_json();
  return result;
}

TEST(ChaosEcSoakTest, EcCrashStormLosesNoAcknowledgedKey) {
  const EcSoakResult r = run_ec_soak(2604);
  std::printf("ec soak: crashes=%llu skipped=%llu keys=%zu "
              "degraded_reads=%llu shards_repaired=%llu "
              "transient_read_failures=%llu\n",
              static_cast<unsigned long long>(r.crashes),
              static_cast<unsigned long long>(r.skipped), r.keys,
              static_cast<unsigned long long>(r.degraded_reads),
              static_cast<unsigned long long>(r.shards_repaired),
              static_cast<unsigned long long>(r.transient_read_failures));

  // The storm actually happened, and the EC machinery actually fired.
  EXPECT_GE(r.crashes, 3u);
  EXPECT_GT(r.keys, 100u);
  EXPECT_GE(r.degraded_reads, 1u) << "no reconstruction exercised";
  EXPECT_GE(r.shards_repaired, 1u) << "no shard re-encoded onto fresh nodes";

  // Absolute acceptance: zero loss, full stripes restored.
  EXPECT_TRUE(r.all_reads_served);
  EXPECT_TRUE(r.data_intact);
  EXPECT_TRUE(r.stripes_restored);
}

TEST(ChaosEcSoakTest, SameSeedEcSoakIsByteIdentical) {
  const EcSoakResult a = run_ec_soak(91);
  const EcSoakResult b = run_ec_soak(91);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.keys, b.keys);
  EXPECT_EQ(a.degraded_reads, b.degraded_reads);
  EXPECT_EQ(a.shards_repaired, b.shards_repaired);
  EXPECT_EQ(a.transient_read_failures, b.transient_read_failures);
  EXPECT_EQ(a.metrics_json, b.metrics_json);

  // CI hook (ci.sh --ec-only): dump the snapshot for the cross-process
  // same-seed diff.
  // dm-lint: allow(det-getenv) — CI artifact path only, never sim state.
  if (const char* path = std::getenv("DM_EC_SNAPSHOT")) {
    std::ofstream dump(path, std::ios::trunc);
    ASSERT_TRUE(dump.is_open()) << path;
    dump << a.metrics_json;
  }
}

// --- flight-recorder soak (crash-time forensics) ----------------------------
//
// The span tracer and flight recorder ride the KV soak: every closed span
// lands in a bounded per-node ring, and the first chaos crash dumps
// flight_<node>.json for every node with records. The acceptance bar is the
// observability issue's: a crash-time dump exists, the captured span chain
// crosses at least two nodes (the same trace appears in different nodes'
// rings), and the dumps are byte-identical across two same-seed runs.

struct FlightSoakResult {
  std::uint64_t crashes = 0;
  std::size_t files_at_crash = 0;
  std::string crash_reason;
  std::map<std::uint32_t, std::string> crash_dumps;  // node -> dump_json
};

// Extracts every `"trace": "<origin>:<seq>"` label from one flight dump.
std::vector<std::string> trace_labels(const std::string& dump) {
  std::vector<std::string> labels;
  const std::string key = "\"trace\": \"";
  for (std::size_t pos = dump.find(key); pos != std::string::npos;
       pos = dump.find(key, pos + 1)) {
    const std::size_t start = pos + key.size();
    const std::size_t end = dump.find('"', start);
    if (end == std::string::npos) break;
    labels.push_back(dump.substr(start, end - start));
  }
  return labels;
}

FlightSoakResult run_flight_soak(std::uint64_t seed, const std::string& dir) {
  std::filesystem::create_directories(dir);
  DmSystem::Config config;
  config.node_count = 5;
  config.seed = seed;
  config.node.shm.arena_bytes = 2 * MiB;
  config.node.recv.arena_bytes = 16 * MiB;
  config.node.disk.capacity_bytes = 64 * MiB;
  config.service.rdmc.ec_r = 1;  // 2 copies
  config.service.rdmc.min_shards = 1;
  config.rpc_retry.max_attempts = 3;
  config.rpc_retry.base_backoff = 500 * kMicro;
  config.rpc_retry.max_backoff = 2 * kMilli;
  DmSystem system(config);
  system.start();

  obs::SpanTracer tracer(system.simulator());
  obs::FlightRecorder flight(system.simulator());
  tracer.set_flight_recorder(&flight);
  system.set_span_sink(&tracer);

  LdmcOptions options;
  options.shm_fraction = 0.1;  // nearly everything crosses the wire
  auto& client = system.create_server(0, 64 * MiB, options);

  FlightSoakResult result;
  system.failures().set_fault_listener([&](std::string_view label) {
    if (label.rfind("chaos.crash.", 0) != 0) return;
    if (!result.crash_dumps.empty()) return;  // keep the first crash only
    result.crash_reason = std::string(label);
    result.files_at_crash = flight.dump_all(dir, label);
    for (std::uint32_t n = 0; n < system.node_count(); ++n)
      if (flight.record_count(n) > 0)
        result.crash_dumps[n] = flight.dump_json(n, label);
  });

  sim::ChaosSchedule::Hooks hooks;
  hooks.crash_node = [&](sim::ChaosSchedule::NodeRef n) {
    system.crash_node(n);
  };
  hooks.recover_node = [&](sim::ChaosSchedule::NodeRef n) {
    system.recover_node(n);
  };
  hooks.can_crash = [&](sim::ChaosSchedule::NodeRef) {
    for (std::size_t i = 1; i < system.node_count(); ++i)
      if (!system.fabric().node_up(system.node(i).id())) return false;
    return true;
  };

  sim::ChaosSchedule chaos(system.failures(), hooks);
  Rng chaos_rng(seed ^ 0xf117);
  const SimTime storm_start = system.simulator().now() + 100 * kMilli;
  chaos.poisson_crash_storm(chaos_rng, storm_start,
                            storm_start + 1500 * kMilli,
                            /*mean_interval=*/300 * kMilli,
                            /*outage=*/100 * kMilli, {1, 2, 3, 4});

  Rng workload_rng(seed ^ 0xf2);
  std::vector<mem::EntryId> keys;
  mem::EntryId next_key = 1;
  const SimTime soak_end = storm_start + 1800 * kMilli;
  while (system.simulator().now() < soak_end) {
    const mem::EntryId key = next_key++;
    if (client.put_sync(key, page_data(key)).ok()) keys.push_back(key);
    for (int i = 0; i < 2 && !keys.empty(); ++i) {
      std::vector<std::byte> out(4096);
      (void)client.get_sync(keys[workload_rng.next_below(keys.size())], out);
    }
    system.run_for(10 * kMilli);
  }

  result.crashes = chaos.crashes_fired();
  return result;
}

TEST(ChaosFlightTest, CrashDumpsFlightRecordsSpanningNodes) {
  const std::string dir =
      (std::filesystem::path(testing::TempDir()) / "chaos_flight").string();
  const FlightSoakResult r = run_flight_soak(4242, dir);
  std::printf("flight soak: crashes=%llu files=%zu reason=%s nodes=%zu\n",
              static_cast<unsigned long long>(r.crashes), r.files_at_crash,
              r.crash_reason.c_str(), r.crash_dumps.size());

  // A crash fired and dumped at least one flight file at crash time.
  ASSERT_GE(r.crashes, 1u);
  ASSERT_GE(r.files_at_crash, 1u);
  EXPECT_EQ(r.crash_reason.rfind("chaos.crash.", 0), 0u);

  // The files landed on disk with the dm_flight format and the crash reason.
  ASSERT_FALSE(r.crash_dumps.empty());
  const std::uint32_t first_node = r.crash_dumps.begin()->first;
  std::ifstream in(dir + "/flight_" + std::to_string(first_node) + ".json");
  ASSERT_TRUE(in.good());
  std::stringstream file_contents;
  file_contents << in.rdbuf();
  EXPECT_NE(file_contents.str().find("\"tool\": \"dm_flight\""),
            std::string::npos);
  EXPECT_NE(file_contents.str().find(r.crash_reason), std::string::npos);

  // The captured span chain crosses nodes: some trace label shows up in at
  // least two different nodes' rings (caller span + remote dispatch span).
  std::map<std::string, std::set<std::uint32_t>> nodes_by_trace;
  for (const auto& [node, dump] : r.crash_dumps)
    for (const auto& label : trace_labels(dump))
      nodes_by_trace[label].insert(node);
  bool crosses = false;
  for (const auto& [label, nodes] : nodes_by_trace)
    if (nodes.size() >= 2) crosses = true;
  EXPECT_TRUE(crosses) << "no trace spans more than one node's ring";
}

TEST(ChaosFlightTest, SameSeedCrashDumpsAreByteIdentical) {
  const std::string base =
      (std::filesystem::path(testing::TempDir()) / "chaos_flight_det")
          .string();
  const FlightSoakResult a = run_flight_soak(909, base + "_a");
  const FlightSoakResult b = run_flight_soak(909, base + "_b");
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.files_at_crash, b.files_at_crash);
  EXPECT_EQ(a.crash_reason, b.crash_reason);
  ASSERT_FALSE(a.crash_dumps.empty());
  EXPECT_EQ(a.crash_dumps, b.crash_dumps);
}

}  // namespace
}  // namespace dm::core
