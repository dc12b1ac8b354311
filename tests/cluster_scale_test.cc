// Cluster-scale soak (§I, §IV.E–F): 128 nodes, zipfian multi-tenant churn
// driven by the seeded ScenarioEngine, with the full adaptive stack on —
// load-aware placement, the harvester's live migration + slab reclaim, and
// §IV.C dynamic regrouping.
//
// Three properties are pinned:
//   * zero data loss — every KV get returns the exact bytes of the last
//     set (shadow-map verified), every retiring tenant reads its state
//     back intact, and no node service ever records a data-loss event;
//   * seed determinism — two runs of the identical scenario produce
//     byte-identical MetricsHub snapshots (the property ci.sh --scale-only
//     re-checks across processes via DM_SCALE_SNAPSHOT dumps);
//   * observability across migration — a traced get over a region that
//     live-migrated yields a span chain crossing at least two distinct
//     nodes, none of them the vacated one.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "cluster/placement.h"
#include "core/dm_system.h"
#include "core/ldmc.h"
#include "mem/memory_map.h"
#include "core/node_service.h"
#include "kvstore/kv_store.h"
#include "obs/span.h"
#include "sim/scenario.h"
#include "swap/swap_manager.h"
#include "swap/systems.h"
#include "workloads/app_catalog.h"
#include "workloads/driver.h"

namespace dm::core {
namespace {

// The bench_cluster_scale "adaptive" configuration, scaled down in duration:
// every lever that moves data around at runtime is on, so the soak covers
// placement, harvesting, migration, reclaim, eviction and regrouping at once.
DmSystem::Config adaptive_config(std::size_t nodes,
                                 const swap::SystemSetup& setup) {
  DmSystem::Config config;
  config.node_count = nodes;
  config.group_size = 16;
  config.node.shm.arena_bytes = 256 * KiB;
  config.node.recv.arena_bytes = 1 * MiB;
  config.node.disk.capacity_bytes = 24 * MiB;
  config.service = setup.service;
  config.seed = 42;
  config.harvest_enabled = true;
  config.harvest_period = 500 * kMilli;
  config.harvest.hot_ratio = 3.0;
  config.harvest.min_pressure = 64;
  config.harvest.migrate_entries_per_action = 8;
  config.harvest.max_actions_per_tick = 2;
  config.harvest.reclaim_free_watermark = 0.45;
  config.regroup_low_watermark = 0.5;
  config.regroup_check_period = 500 * kMilli;
  return config;
}

swap::SystemSetup adaptive_setup() {
  auto setup = swap::make_system(swap::SystemKind::kFastSwap, 48);
  setup.service.rdmc.placement = cluster::PlacementPolicyKind::kLoadAware;
  setup.swap.compression = swap::CompressionMode::kOff;
  setup.service.eviction.enabled = true;
  return setup;
}

// Deterministic KV value: a pure function of (tenant, index, version), so
// the shadow map only has to remember the version to know the exact bytes.
std::vector<std::byte> value_for(std::uint32_t tenant, std::uint32_t index,
                                 std::uint32_t version) {
  std::vector<std::byte> bytes(1024);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<std::byte>(
        (tenant * 31u + index * 7u + version * 131u + i) & 0xffu);
  return bytes;
}

std::string key_of(std::uint32_t tenant, std::uint32_t index) {
  return "t" + std::to_string(tenant) + "-k" + std::to_string(index);
}

struct SoakOutcome {
  std::string snapshot;        // hub().snapshot_json() at end of soak
  std::uint64_t tenants = 0;   // spawned over the scenario
  std::uint64_t kv_gets = 0;   // verified byte-for-byte
  std::uint64_t kv_mismatches = 0;
  std::uint64_t op_failures = 0;  // any set/get/touch/erase that errored
  std::uint64_t faults = 0;
  std::uint64_t data_loss = 0;
  std::uint64_t rebalance_moves = 0;
  std::uint64_t migrated = 0;
  std::uint64_t offload_requests = 0;
};

SoakOutcome run_soak() {
  constexpr std::size_t kNodes = 128;
  auto setup = adaptive_setup();
  DmSystem system(adaptive_config(kNodes, setup));
  system.start();
  // Idle donors: every node contributes donated capacity, so imbalance is
  // purely the scenario's zipfian home skew.
  for (std::size_t n = 0; n < system.node_count(); ++n)
    (void)system.create_server(n, 8 * MiB);

  sim::ScenarioEngine::Config scenario;
  scenario.seed = 7;
  scenario.node_count = kNodes;
  scenario.initial_tenants = 16;
  scenario.max_tenants = 32;
  scenario.mean_arrival_gap = 250 * kMilli;
  scenario.mean_lifetime = 4 * kSecond;
  scenario.min_working_set = 96;
  scenario.max_working_set = 384;
  scenario.node_skew = 0.8;
  scenario.mean_op_gap = 2 * kMilli;
  scenario.duration = 5 * kSecond;
  sim::ScenarioEngine engine(scenario);

  auto& sim = system.simulator();
  engine.start(sim.now());

  // Mixed tenant population: even tenants are KV caches (shadow-map
  // verified on every read), odd tenants run the swap path.
  struct Tenant {
    Ldmc* client = nullptr;
    std::unique_ptr<kv::KvStore> kv;
    std::map<std::uint32_t, std::uint32_t> shadow;  // index -> version
    std::unique_ptr<swap::SwapManager> swap;
  };
  std::map<sim::ScenarioEngine::TenantId, Tenant> tenants;
  workloads::AppSpec app = *workloads::find_app("LogisticRegression");
  SoakOutcome out;

  auto verify_kv = [&](std::uint32_t id, Tenant& tenant, std::uint32_t index) {
    auto got = tenant.kv->get(key_of(id, index));
    ++out.kv_gets;
    if (!got.ok()) {
      ++out.op_failures;
      if (out.op_failures <= 5)
        ADD_FAILURE() << "kv get " << key_of(id, index) << ": "
                      << got.status().message();
      return;
    }
    if (*got != value_for(id, index, tenant.shadow.at(index)))
      ++out.kv_mismatches;
  };

  for (;;) {
    const auto op = engine.next();
    if (op.kind == sim::ScenarioEngine::Op::Kind::kDone) break;
    if (op.at > sim.now()) sim.run_until(op.at);
    switch (op.kind) {
      case sim::ScenarioEngine::Op::Kind::kSpawn: {
        auto& tenant = tenants[op.tenant];
        tenant.client = &system.create_server(
            op.home % system.node_count(), 4 * MiB, setup.ldmc);
        if (op.tenant % 2 == 0) {
          kv::KvStore::Config kv_config;
          kv_config.hot_bytes = 16 * KiB;  // force overflow into DM
          tenant.kv =
              std::make_unique<kv::KvStore>(*tenant.client, kv_config);
        } else {
          tenant.swap = std::make_unique<swap::SwapManager>(
              *tenant.client, setup.swap,
              workloads::content_for(app, 1000 + op.tenant));
        }
        break;
      }
      case sim::ScenarioEngine::Op::Kind::kAccess: {
        auto it = tenants.find(op.tenant);
        if (it == tenants.end()) break;
        auto& tenant = it->second;
        if (tenant.kv != nullptr) {
          auto shadow = tenant.shadow.find(op.index);
          if (op.write || shadow == tenant.shadow.end()) {
            const std::uint32_t version =
                shadow == tenant.shadow.end() ? 1 : shadow->second + 1;
            const Status stored =
                tenant.kv->set(key_of(op.tenant, op.index),
                               value_for(op.tenant, op.index, version));
            if (stored.ok()) {
              tenant.shadow[op.index] = version;
            } else {
              ++out.op_failures;
              if (out.op_failures <= 5)
                ADD_FAILURE() << "kv set " << key_of(op.tenant, op.index)
                              << ": " << stored.message();
            }
          } else {
            verify_kv(op.tenant, tenant, op.index);
          }
        } else if (tenant.swap != nullptr) {
          if (!tenant.swap->touch(op.index, op.write).ok())
            ++out.op_failures;
        }
        break;
      }
      case sim::ScenarioEngine::Op::Kind::kRetire: {
        auto it = tenants.find(op.tenant);
        if (it == tenants.end()) break;
        auto& tenant = it->second;
        if (tenant.kv != nullptr) {
          // Exit audit: every key the shadow map remembers must read back
          // its exact last-written bytes, then erase cleanly.
          for (const auto& [index, version] : tenant.shadow) {
            verify_kv(op.tenant, tenant, index);
            if (!tenant.kv->erase(key_of(op.tenant, index)).ok())
              ++out.op_failures;
          }
        }
        if (tenant.swap != nullptr) out.faults += tenant.swap->faults();
        // Free remaining backing entries in deterministic order.
        std::vector<mem::EntryId> entries;
        tenant.client->map().for_each(
            [&entries](mem::EntryId id, const mem::EntryLocation&) {
              entries.push_back(id);
            });
        std::sort(entries.begin(), entries.end());
        for (mem::EntryId id : entries)
          (void)tenant.client->remove_sync(id);
        tenants.erase(it);
        break;
      }
      case sim::ScenarioEngine::Op::Kind::kDone:
        break;
    }
  }
  // Settle in-flight migrations/drains, then audit the survivors too.
  system.run_for(1 * kSecond);
  for (auto& [id, tenant] : tenants) {
    if (tenant.swap != nullptr) out.faults += tenant.swap->faults();
    if (tenant.kv == nullptr) continue;
    for (const auto& [index, version] : tenant.shadow)
      verify_kv(id, tenant, index);
  }

  out.snapshot = system.hub().snapshot_json();
  out.tenants = engine.tenants_spawned();
  for (std::size_t i = 0; i < system.node_count(); ++i)
    out.data_loss += system.service(i).data_loss_entries();
  out.rebalance_moves = system.total_counter("placement.rebalance_moves");
  out.migrated = system.total_counter("ldms.migrated_entries");
  out.offload_requests = system.total_counter("harvest.offload_requests");
  return out;
}

TEST(ClusterScaleSoakTest, ZipfianChurnAt128NodesIsLossFreeAndDeterministic) {
  const SoakOutcome first = run_soak();

  // The scenario actually exercised the machinery end to end.
  EXPECT_GE(first.tenants, 20u);
  EXPECT_GT(first.kv_gets, 0u);
  EXPECT_GT(first.faults, 0u);
  EXPECT_GT(first.offload_requests, 0u);  // harvester fired
  EXPECT_GT(first.rebalance_moves, 0u);   // and scheduled live migrations

  // Zero data loss: no mismatched KV read, no failed operation, no
  // data-loss event on any node service.
  EXPECT_EQ(first.kv_mismatches, 0u);
  EXPECT_EQ(first.op_failures, 0u);
  EXPECT_EQ(first.data_loss, 0u);

  // Seed determinism: the identical scenario replayed against a fresh
  // cluster produces a byte-identical metrics snapshot.
  const SoakOutcome second = run_soak();
  EXPECT_EQ(first.tenants, second.tenants);
  EXPECT_EQ(first.kv_gets, second.kv_gets);
  EXPECT_EQ(first.faults, second.faults);
  EXPECT_EQ(first.rebalance_moves, second.rebalance_moves);
  EXPECT_EQ(first.snapshot, second.snapshot);

  // CI hook (ci.sh --scale-only): dump the snapshot for the cross-process
  // same-seed diff.
  // dm-lint: allow(det-getenv) — CI artifact path only, never sim state.
  if (const char* path = std::getenv("DM_SCALE_SNAPSHOT")) {
    std::ofstream dump(path, std::ios::trunc);
    ASSERT_TRUE(dump.is_open()) << path;
    dump << first.snapshot;
  }
}

// Resident set size of this process, from /proc/self/statm.
std::int64_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::int64_t size_pages = 0;
  std::int64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * sysconf(_SC_PAGESIZE);
}

// Host memory follows the bytes a run stores, not the capacity it
// configures: bringing up the 128-node soak cluster (per node 256 KiB shm,
// 1 MiB receive pool, 24 MiB disk — about 3.2 GiB configured) must not make
// that capacity resident.
TEST(ClusterScaleSoakTest, BuildingTheClusterLeavesCapacityNonResident) {
  constexpr std::size_t kNodes = 128;
  const std::int64_t before = resident_bytes();
  DmSystem system(adaptive_config(kNodes, adaptive_setup()));
  system.start();
  for (std::size_t n = 0; n < system.node_count(); ++n)
    (void)system.create_server(n, 8 * MiB);
  EXPECT_LT(resident_bytes() - before, static_cast<std::int64_t>(256 * MiB));
}

// Observability across migration: each copy-then-redirect runs under its
// own trace, and that span chain must cross nodes — the owner's read of the
// source copy plus the alloc dispatch on the new host. A traced get issued
// after the cutover must still produce a span chain, and none of its spans
// may touch the vacated node.
TEST(ClusterScaleSoakTest, TracedGetCrossesMigratedRegion) {
  DmSystem::Config config;
  config.node_count = 4;
  config.node.shm.arena_bytes = 4 * MiB;
  config.node.recv.arena_bytes = 8 * MiB;
  config.node.disk.capacity_bytes = 64 * MiB;
  config.service.rdmc.ec_r = 0;  // one copy
  DmSystem system(config);
  obs::SpanTracer tracer(system.simulator());
  system.set_span_sink(&tracer);
  system.start();
  LdmcOptions options;
  options.shm_fraction = 0.0;
  options.allow_disk = false;
  auto& client = system.create_server(0, 64 * MiB, options);
  constexpr std::uint64_t kEntries = 8;
  std::vector<std::byte> page(4096);
  for (std::uint64_t id = 0; id < kEntries; ++id) {
    for (std::size_t i = 0; i < page.size(); ++i)
      page[i] = static_cast<std::byte>((id * 17 + i) & 0xff);
    ASSERT_TRUE(client.put_sync(id, page).ok());
  }

  // Vacate the busiest replica host.
  const net::NodeId self = system.node(0).id();
  std::map<net::NodeId, int> hosted;
  client.map().for_each([&](mem::EntryId, const mem::EntryLocation& loc) {
    for (const auto& replica : loc.replicas)
      if (replica.node != self) ++hosted[replica.node];
  });
  ASSERT_FALSE(hosted.empty());
  const net::NodeId hot =
      std::max_element(hosted.begin(), hosted.end(),
                       [](const auto& a, const auto& b) {
                         return a.second < b.second;
                       })
          ->first;
  std::size_t hot_index = 0;
  for (std::size_t i = 0; i < system.node_count(); ++i)
    if (system.node(i).id() == hot) hot_index = i;
  const auto moved = client.map().entries_with_replica_on(hot);
  ASSERT_FALSE(moved.empty());
  bool offload_done = false;
  system.service(hot_index).offload_hot_node(
      kEntries, [&](std::size_t) { offload_done = true; });
  ASSERT_TRUE(system.simulator().run_until_flag(offload_done));
  system.run_for(1 * kSecond);
  ASSERT_TRUE(client.map().entries_with_replica_on(hot).empty());

  // The setup puts ran untraced, so every retained trace belongs to a
  // migration. At least one chain must cross from the owner (which reads
  // the source copy) to a node that is neither the owner nor the vacated
  // source — the new host's alloc dispatch.
  const auto owner_node = static_cast<std::uint32_t>(self);
  bool cross_node_migration = false;
  for (std::uint64_t trace_id : tracer.completed_traces()) {
    const auto* spans = tracer.spans(trace_id);
    if (spans == nullptr) continue;
    bool has_owner = false;
    bool has_new_host = false;
    for (const auto& span : *spans) {
      if (span.node == owner_node) has_owner = true;
      if (span.node != owner_node &&
          span.node != static_cast<std::uint32_t>(hot))
        has_new_host = true;
    }
    if (has_owner && has_new_host) cross_node_migration = true;
  }
  EXPECT_TRUE(cross_node_migration)
      << "no migration span chain crossed from the owner to a new host";

  // Traced get over a migrated entry: the chain exists, carries the
  // correct bytes, and never touches the vacated node.
  const mem::EntryId target = moved.front();
  const net::TraceId trace = system.node(0).next_trace_id();
  std::vector<std::byte> got(4096);
  ASSERT_TRUE(client.get_sync(target, got, trace).ok());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], static_cast<std::byte>((target * 17 + i) & 0xff));
  const auto* get_spans = tracer.spans(static_cast<std::uint64_t>(trace));
  ASSERT_NE(get_spans, nullptr);
  ASSERT_FALSE(get_spans->empty());
  for (const auto& span : *get_spans)
    EXPECT_NE(span.node, static_cast<std::uint32_t>(hot));
}

}  // namespace
}  // namespace dm::core
