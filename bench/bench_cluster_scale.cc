// Cluster-scale multi-tenant scenario (§I, §IV.E–F) — node-count scaling.
//
// The paper's §I imbalance argument is a *scaling* claim: skewed tenant
// placement gets worse as clusters grow, because a static placement policy
// keeps piling tenants onto the same few machines while the rest idle. This
// bench drives a seeded ScenarioEngine — tenants arriving/departing with
// zipf-skewed homes and working sets, diurnal load — against 16/64/128-node
// clusters in two modes:
//
//   static    power-of-two-choices placement, no harvesting, no regrouping
//             (the seed system's §IV.E configuration);
//   adaptive  load-aware placement (pressure-discounted donor weights) +
//             the cluster harvester (live migration off hot nodes, slab
//             reclaim) + §IV.C dynamic regrouping.
//
// Reported per configuration: p99 page-fault latency across all tenants,
// the fraction of overflow absorbed by remote memory vs the swap disk
// (harvest efficiency), migration/reclaim activity, and the p99/16-node
// degradation ratio — the acceptance series of BENCH_cluster_scale.json.
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/histogram.h"
#include "common/units.h"
#include "cluster/placement.h"
#include "core/dm_system.h"
#include "core/ldmc.h"
#include "mem/memory_map.h"
#include "sim/scenario.h"
#include "swap/swap_manager.h"
#include "swap/systems.h"
#include "workloads/app_catalog.h"

namespace {

using namespace dm;

constexpr std::uint64_t kResidentPages = 48;

struct ScaleResult {
  std::size_t nodes = 0;
  std::uint64_t p99_fault_ns = 0;
  std::uint64_t p50_fault_ns = 0;
  std::uint64_t faults = 0;
  double remote_share = 0.0;  // overflow absorbed by remote memory
  std::uint64_t rebalance_moves = 0;
  std::uint64_t reclaimed_pages = 0;
  std::uint64_t migrate_p99_ns = 0;
  std::uint64_t tenants = 0;
  std::uint64_t regroups = 0;
  std::uint64_t offload_req = 0;
  std::uint64_t migrated = 0;
  std::uint64_t migrate_put_failed = 0;
};

struct ModeFlags {
  bool load_aware = false;
  bool harvest = false;
  bool regroup = false;
};

ScaleResult run_scale(std::size_t nodes, ModeFlags mode) {
  auto setup = swap::make_system(swap::SystemKind::kFastSwap, kResidentPages);
  setup.service.rdmc.placement =
      mode.load_aware ? cluster::PlacementPolicyKind::kLoadAware
                      : cluster::PlacementPolicyKind::kPowerOfTwoChoices;
  // Raw 4 KiB pages: compression would quadruple the donated capacity and
  // hide the saturation the scaling comparison is about.
  setup.swap.compression = swap::CompressionMode::kOff;
  // §IV.F node behaviour in both modes: a donor whose local servers are
  // overflowing while its donated pool is nearly exhausted drains a slab,
  // force-migrating hosted entries. This is what placing onto a busy node
  // costs — and what pressure-aware placement and proactive harvesting are
  // supposed to avoid.
  setup.service.eviction.enabled = true;

  core::DmSystem::Config config;
  config.node_count = nodes;
  config.group_size = 16;
  config.node.shm.arena_bytes = 256 * KiB;
  config.node.recv.arena_bytes = 1 * MiB;
  config.node.disk.capacity_bytes = 24 * MiB;
  config.service = setup.service;
  config.seed = 42;
  if (mode.harvest) {
    config.harvest_enabled = true;
    config.harvest_period = 500 * kMilli;
    // Conservative plan: only clear outliers (3x mean pressure) get
    // relieved, a few entries at a time — aggressive shuffling within a
    // capacity-bound group steals donor space tenants are about to need.
    config.harvest.hot_ratio = 3.0;
    config.harvest.min_pressure = 64;
    config.harvest.migrate_entries_per_action = 8;
    config.harvest.max_actions_per_tick = 2;
    config.harvest.reclaim_free_watermark = 0.45;
  }
  if (mode.regroup) {
    config.regroup_low_watermark = 0.5;
    config.regroup_check_period = 500 * kMilli;
  }
  core::DmSystem system(config);
  system.start();

  // One idle tenant per node: their untouched allocations fund the donated
  // pools (the paper's idle neighbours), so every node is a donor and the
  // imbalance is purely the scenario's home skew.
  for (std::size_t n = 0; n < system.node_count(); ++n)
    (void)system.create_server(n, 8 * MiB);

  // Weak scaling: the tenant population grows with the cluster, and the
  // zipf home skew concentrates it on low node ids either way.
  sim::ScenarioEngine::Config scenario;
  scenario.seed = 7;
  scenario.node_count = static_cast<std::uint32_t>(nodes);
  scenario.initial_tenants = static_cast<std::uint32_t>(nodes / 8);
  scenario.max_tenants = static_cast<std::uint32_t>(nodes / 4);
  scenario.mean_arrival_gap = 250 * kMilli;
  scenario.mean_lifetime = 8 * kSecond;
  scenario.min_working_set = 96;
  scenario.max_working_set = 384;
  scenario.node_skew = 0.8;
  scenario.mean_op_gap = 2 * kMilli;
  scenario.duration = 10 * kSecond;
  sim::ScenarioEngine engine(scenario);

  auto& sim = system.simulator();
  engine.start(sim.now());

  struct Tenant {
    core::Ldmc* client = nullptr;
    std::unique_ptr<swap::SwapManager> manager;
  };
  std::map<sim::ScenarioEngine::TenantId, Tenant> tenants;
  workloads::AppSpec app = *workloads::find_app("LogisticRegression");
  Histogram fault_ns;

  for (;;) {
    const auto op = engine.next();
    if (op.kind == sim::ScenarioEngine::Op::Kind::kDone) break;
    if (op.at > sim.now()) sim.run_until(op.at);
    switch (op.kind) {
      case sim::ScenarioEngine::Op::Kind::kSpawn: {
        auto& tenant = tenants[op.tenant];
        tenant.client = &system.create_server(
            op.home % system.node_count(), 4 * MiB, setup.ldmc);
        tenant.manager = std::make_unique<swap::SwapManager>(
            *tenant.client, setup.swap,
            workloads::content_for(app, 1000 + op.tenant));
        break;
      }
      case sim::ScenarioEngine::Op::Kind::kAccess: {
        auto it = tenants.find(op.tenant);
        if (it == tenants.end() || it->second.manager == nullptr) break;
        auto& manager = *it->second.manager;
        const std::uint64_t faults_before = manager.faults();
        const SimTime t0 = sim.now();
        if (!manager.touch(op.index, op.write).ok()) {
          std::fprintf(stderr, "tenant %u touch failed\n", op.tenant);
          std::exit(1);
        }
        if (manager.faults() > faults_before)
          fault_ns.record(static_cast<std::uint64_t>(sim.now() - t0));
        break;
      }
      case sim::ScenarioEngine::Op::Kind::kRetire: {
        auto it = tenants.find(op.tenant);
        if (it == tenants.end()) break;
        // Departing tenant: free every backing entry (sorted for a
        // deterministic RPC order), then drop the swap state.
        std::vector<mem::EntryId> entries;
        it->second.client->map().for_each(
            [&entries](mem::EntryId id, const mem::EntryLocation&) {
              entries.push_back(id);
            });
        std::sort(entries.begin(), entries.end());
        for (mem::EntryId id : entries)
          (void)it->second.client->remove_sync(id);
        tenants.erase(it);
        break;
      }
      case sim::ScenarioEngine::Op::Kind::kDone:
        break;
    }
  }

  ScaleResult result;
  result.nodes = nodes;
  result.p99_fault_ns = fault_ns.p99();
  result.p50_fault_ns = fault_ns.p50();
  result.faults = fault_ns.count();
  const std::uint64_t remote = system.total_counter("ldms.put_remote");
  const std::uint64_t to_disk =
      system.total_counter("ldms.remote_overflow_to_disk");
  result.remote_share =
      remote + to_disk > 0
          ? static_cast<double>(remote) / static_cast<double>(remote + to_disk)
          : 1.0;
  result.rebalance_moves = system.total_counter("placement.rebalance_moves");
  result.reclaimed_pages = system.total_counter("harvest.reclaimed_pages");
  std::uint64_t migrate_p99 = 0;
  for (std::size_t n = 0; n < system.node_count(); ++n) {
    const Histogram* h =
        system.service(n).metrics().find_histogram("cluster.migrate_ns");
    if (h != nullptr && h->p99() > migrate_p99) migrate_p99 = h->p99();
  }
  result.migrate_p99_ns = migrate_p99;
  result.tenants = engine.tenants_spawned();
  result.regroups = system.regroups();
  result.offload_req = system.total_counter("harvest.offload_requests");
  result.migrated = system.total_counter("ldms.migrated_entries");
  result.migrate_put_failed = system.total_counter("ldms.migrate_put_failed");
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dm;
  bench::print_header(
      "Cluster scaling: scenario-driven tenants, static vs adaptive (§I)",
      "load-aware placement + harvesting keep p99 bounded as nodes grow");

  // Debug mode: `bench_cluster_scale <nodes> [l][h][g]` runs one
  // configuration with the named levers (load-aware/harvest/regroup).
  if (argc == 3) {
    ModeFlags mode;
    for (const char* c = argv[2]; *c; ++c) {
      if (*c == 'l') mode.load_aware = true;
      if (*c == 'h') mode.harvest = true;
      if (*c == 'g') mode.regroup = true;
    }
    const auto r = run_scale(static_cast<std::size_t>(std::atoi(argv[1])), mode);
    std::printf(
        "p99 %llu ns, remote-share %.3f, moves %llu, reclaimed %llu, "
        "regroups %llu, offload-req %llu, migrated %llu, mig-put-fail %llu\n",
        static_cast<unsigned long long>(r.p99_fault_ns), r.remote_share,
        static_cast<unsigned long long>(r.rebalance_moves),
        static_cast<unsigned long long>(r.reclaimed_pages),
        static_cast<unsigned long long>(r.regroups),
        static_cast<unsigned long long>(r.offload_req),
        static_cast<unsigned long long>(r.migrated),
        static_cast<unsigned long long>(r.migrate_put_failed));
    return 0;
  }

  const std::vector<std::size_t> kNodeCounts = {16, 64, 128};
  std::map<std::string, std::vector<ScaleResult>> series;
  for (bool adaptive : {false, true}) {
    const std::string mode = adaptive ? "adaptive" : "static";
    std::printf("\n-- %s --\n", mode.c_str());
    for (std::size_t nodes : kNodeCounts) {
      const auto r = run_scale(
          nodes, adaptive ? ModeFlags{true, true, true} : ModeFlags{});
      series[mode].push_back(r);
      std::printf(
          "%4zu nodes: %5llu tenants-spawned, %7llu faults, "
          "p99 fault %-10s remote-share %5.1f%%  moves %llu  reclaimed %llu\n",
          nodes, static_cast<unsigned long long>(r.tenants),
          static_cast<unsigned long long>(r.faults),
          format_duration(static_cast<SimTime>(r.p99_fault_ns)).c_str(),
          100.0 * r.remote_share,
          static_cast<unsigned long long>(r.rebalance_moves),
          static_cast<unsigned long long>(r.reclaimed_pages));
    }
  }

  // Acceptance series: p99 degradation relative to each mode's own
  // 16-node baseline. The adaptive machinery must hold 128 nodes within
  // 2x of its 16-node p99; static placement is expected to blow past it.
  auto degradation = [](const std::vector<ScaleResult>& r) {
    return r.front().p99_fault_ns > 0
               ? static_cast<double>(r.back().p99_fault_ns) /
                     static_cast<double>(r.front().p99_fault_ns)
               : 0.0;
  };
  const double static_deg = degradation(series["static"]);
  const double adaptive_deg = degradation(series["adaptive"]);
  std::printf("\np99(128)/p99(16): static %.2fx, adaptive %.2fx %s\n",
              static_deg, adaptive_deg,
              adaptive_deg <= 2.0 ? "(within 2x bound)" : "(EXCEEDS 2x bound)");

  FILE* f = std::fopen("BENCH_cluster_scale.json", "w");
  if (f == nullptr) return 1;
  std::fprintf(f, "{\n\"bench\": \"cluster_scale\",\n\"series\": {\n");
  bool first_mode = true;
  for (const auto& [mode, results] : series) {
    std::fprintf(f, "%s\"%s\": [\n", first_mode ? "" : ",\n",
                 obs::json_escape(mode).c_str());
    first_mode = false;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      std::fprintf(
          f,
          "{\"nodes\": %zu, \"tenants\": %llu, \"faults\": %llu, "
          "\"p50_fault_ns\": %llu, \"p99_fault_ns\": %llu, "
          "\"remote_share\": %.4f, \"rebalance_moves\": %llu, "
          "\"reclaimed_pages\": %llu, \"migrate_p99_ns\": %llu}%s\n",
          r.nodes, static_cast<unsigned long long>(r.tenants),
          static_cast<unsigned long long>(r.faults),
          static_cast<unsigned long long>(r.p50_fault_ns),
          static_cast<unsigned long long>(r.p99_fault_ns), r.remote_share,
          static_cast<unsigned long long>(r.rebalance_moves),
          static_cast<unsigned long long>(r.reclaimed_pages),
          static_cast<unsigned long long>(r.migrate_p99_ns),
          i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "]");
  }
  std::fprintf(f,
               "\n},\n\"p99_degradation_static\": %.4f,\n"
               "\"p99_degradation_adaptive\": %.4f,\n"
               "\"adaptive_within_2x\": %s\n}\n",
               static_deg, adaptive_deg,
               adaptive_deg <= 2.0 ? "true" : "false");
  std::fclose(f);
  std::printf("wrote BENCH_cluster_scale.json\n");
  return 0;
}
