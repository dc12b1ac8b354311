// Cluster-scale harvest (§I + §III) — busy tenants borrowing idle memory.
//
// The paper's core promise: a server under memory pressure uses idle memory
// from neighbours instead of its disk. This bench builds the multi-tenant
// situation directly: four nodes, four busy VMs at the 50% configuration,
// and idle VMs elsewhere whose untouched allocations back the donated
// pools. Tenants run interleaved round-robin (the simulator serializes
// them, preserving relative costs). Compared: disaggregation on (FastSwap)
// vs off (each busy VM on its own disk).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/dm_system.h"
#include "swap/swap_manager.h"
#include "swap/systems.h"
#include "workloads/app_catalog.h"

int main() {
  using namespace dm;
  bench::print_header(
      "Cluster harvest: busy tenants borrowing idle memory (§I, §III)",
      "idle neighbours' memory absorbs the busy tenants' overflow");
  bench::BenchJson json("cluster_harvest");

  workloads::AppSpec app = *workloads::find_app("LogisticRegression");
  app.iterations = 2;
  constexpr std::uint64_t kPages = 384;
  constexpr std::uint64_t kResident = kPages / 2;
  constexpr int kBusyTenants = 4;

  for (bool disaggregated : {true, false}) {
    auto setup = swap::make_system(disaggregated ? swap::SystemKind::kFastSwap
                                                 : swap::SystemKind::kLinux,
                                   kResident);
    core::DmSystem::Config config;
    config.node_count = 4;
    config.node.shm.arena_bytes = 32 * MiB;
    config.node.recv.arena_bytes = 32 * MiB;
    config.node.disk.capacity_bytes = 256 * MiB;
    config.service = setup.service;
    core::DmSystem system(config);
    system.start();

    // Idle tenants: large allocations, no activity — their donations fill
    // the shared pools and their nodes' receive pools host remote traffic.
    for (std::size_t n = 0; n < system.node_count(); ++n)
      (void)system.create_server(n, 64 * MiB);

    // Busy tenants: one per node, each running the LR trace.
    struct Tenant {
      std::unique_ptr<swap::SwapManager> memory;
      Rng rng{0};
      std::uint64_t pos = 0;
      int iter = 0;
    };
    std::vector<Tenant> tenants(kBusyTenants);
    for (int t = 0; t < kBusyTenants; ++t) {
      auto& client = system.create_server(t % system.node_count(), 6 * MiB,
                                          setup.ldmc);
      tenants[t].memory = std::make_unique<swap::SwapManager>(
          client, setup.swap, workloads::content_for(app, 100 + t));
      tenants[t].rng.reseed(100 + t);
      // Fold each tenant's swap metrics into the hub: the JSON companion
      // then carries per-tenant fault-latency percentiles, not just the
      // aggregate means printed below.
      system.hub().add("tenant." + std::to_string(t),
                       &tenants[t].memory->metrics());
    }

    // Round-robin interleave: one access per tenant per turn.
    auto& sim = system.simulator();
    const SimTime start = sim.now();
    int active = kBusyTenants;
    while (active > 0) {
      active = 0;
      for (auto& tenant : tenants) {
        if (tenant.iter >= app.iterations) continue;
        ++active;
        sim.run_until(sim.now() + app.cpu_ns_per_access);
        if (!tenant.memory->touch(tenant.pos).ok()) return 1;
        if (++tenant.pos == kPages) {
          tenant.pos = 0;
          ++tenant.iter;
        }
      }
    }
    const SimTime elapsed = sim.now() - start;
    std::uint64_t faults = 0;
    for (auto& tenant : tenants) faults += tenant.memory->faults();
    std::printf("%-18s all %d tenants done in %-10s (%llu faults total)\n",
                disaggregated ? "disaggregated" : "disk-only", kBusyTenants,
                format_duration(elapsed).c_str(),
                static_cast<unsigned long long>(faults));
    // Tail latency is where disaggregation shows up: a mean over all
    // tenants hides one tenant stuck behind the swap disk. Backend faults
    // are the ones served from wherever the tenant's overflow went.
    for (int t = 0; t < kBusyTenants; ++t) {
      const Histogram* fault_ns = tenants[t].memory->metrics().find_histogram(
          "swap.fault_ns.backend");
      std::printf("  tenant %d: %llu faults, p99 backend fault %s\n", t,
                  static_cast<unsigned long long>(tenants[t].memory->faults()),
                  format_duration(static_cast<SimTime>(
                                      fault_ns != nullptr ? fault_ns->p99() : 0))
                      .c_str());
    }
    json.add_system(disaggregated ? "disaggregated" : "disk-only", system);
  }
  std::printf("\n(the disaggregated run serves every busy tenant's overflow "
              "from the idle tenants' donated memory; the disk-only run "
              "pays the swap device for the same faults)\n");
  if (!json.write()) return 1;
  std::printf("wrote %s\n", json.path().c_str());
  return 0;
}
