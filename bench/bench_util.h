// Shared plumbing for the figure/table reproduction harnesses.
//
// Each bench binary builds a fresh DmSystem per configuration (matching the
// paper's one-system-at-a-time runs), drives the workload in virtual time,
// and prints the same rows/series the paper's figure reports. Absolute
// numbers differ from the paper's testbed (see DESIGN.md §2); the reported
// *ratios* are the reproduction target and are printed alongside.
#pragma once

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"
#include "core/dm_system.h"
#include "core/ldmc.h"
#include "obs/metrics_hub.h"
#include "sim/simulator.h"
#include "swap/swap_manager.h"
#include "swap/systems.h"
#include "workloads/app_catalog.h"
#include "workloads/driver.h"

namespace dm::bench {

// One virtual server running one swap system on a small cluster.
struct SwapRig {
  std::unique_ptr<core::DmSystem> system;
  core::Ldmc* client = nullptr;
  std::unique_ptr<swap::SwapManager> manager;

  sim::Simulator& sim() { return system->simulator(); }
};

struct SwapRigOptions {
  std::size_t nodes = 4;
  std::uint64_t shm_arena = 32 * MiB;
  std::uint64_t recv_arena = 32 * MiB;
  std::uint64_t disk_bytes = 128 * MiB;
  // Virtual-server allocation: with the default 10% donation this bounds
  // the node-level shared pool the server may use, which is what makes
  // compression and distribution-ratio effects visible (a huge allocation
  // would let the shared pool absorb everything).
  std::uint64_t server_bytes = 256 * MiB;
  std::uint64_t seed = 42;
};

inline SwapRig make_swap_rig(const swap::SystemSetup& setup,
                             const workloads::AppSpec& app,
                             SwapRigOptions options = {}) {
  SwapRig rig;
  core::DmSystem::Config config;
  config.node_count = options.nodes;
  config.node.shm.arena_bytes = options.shm_arena;
  config.node.recv.arena_bytes = options.recv_arena;
  config.node.disk.capacity_bytes = options.disk_bytes;
  config.service = setup.service;
  config.seed = options.seed;
  rig.system = std::make_unique<core::DmSystem>(config);
  rig.system->start();
  rig.client = &rig.system->create_server(0, options.server_bytes, setup.ldmc);
  rig.manager = std::make_unique<swap::SwapManager>(
      *rig.client, setup.swap, workloads::content_for(app, options.seed));
  // Fold the swap layer into the cluster hub so snapshots carry
  // "node.0.swap.*" fault/swap-out latency histograms.
  rig.system->hub().add("node.0", &rig.manager->metrics());
  return rig;
}

// Collects one MetricsHub snapshot per system under test and writes them
// as "BENCH_<name>.json" in the working directory, giving every bench a
// machine-readable companion to its printed table — including the
// per-tier latency percentiles ("node.0.ldms.get_ns.<tier>" etc.).
// Keys are escaped and emitted in sorted order so two runs of the same
// bench diff cleanly.
class BenchJson {
 public:
  explicit BenchJson(std::string bench) : bench_(std::move(bench)) {}

  void add_system(const std::string& name, core::DmSystem& system) {
    entries_.emplace_back(name, system.hub().snapshot_json());
  }

  std::string path() const { return "BENCH_" + bench_ + ".json"; }

  bool write() const {
    FILE* f = std::fopen(path().c_str(), "w");
    if (f == nullptr) return false;
    auto sorted = entries_;
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::fprintf(f, "{\n\"bench\": \"%s\",\n\"systems\": {\n",
                 obs::json_escape(bench_).c_str());
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      std::fprintf(f, "\"%s\": %s%s",
                   obs::json_escape(sorted[i].first).c_str(),
                   sorted[i].second.c_str(),
                   i + 1 < sorted.size() ? ",\n" : "\n");
    }
    std::fprintf(f, "}\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  std::string bench_;
  std::vector<std::pair<std::string, std::string>> entries_;
};

inline void print_header(const char* title, const char* paper_note) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("paper: %s\n", paper_note);
  std::printf("================================================================\n");
}

inline double ratio(SimTime base, SimTime other) {
  return other > 0 ? static_cast<double>(base) / static_cast<double>(other)
                   : 0.0;
}

}  // namespace dm::bench
