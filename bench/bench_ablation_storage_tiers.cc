// Ablation (§VI) — the memory/storage hierarchy and where remote memory
// fits as devices improve.
//
// §VI: "Memory disaggregation is one step towards leveraging the latency
// gap between network I/O and storage I/O." This bench sweeps the local
// swap device through storage generations (7.2K HDD, SATA SSD, NVMe SSD,
// Optane-class, NVM-DIMM-class) and compares device-backed swap against
// FastSwap's remote-memory path on the paper's FDR fabric: the gap closes
// as storage approaches memory, which is exactly the §VI trade space.
//
// Part 2 ablates the cache-coherent CXL-class tier (§III feasibility,
// DESIGN.md §14) on a hot-working-set trace: DRAM -> RDMA baseline vs
// DRAM -> CXL -> RDMA, same seed, with FastSwap placing every batch in
// remote memory (FS-RDMA). Pages evicted from DRAM land in the
// line-addressable coherent pool, where sub-page faults cost a ~ns-scale
// load/store transaction instead of a page-granular RDMA swap. The bench
// writes BENCH_storage_tiers.json with the headline numbers plus a
// baseline-repeat byte-identity bit (the tier defaults off and must not
// perturb the failure-free schedule); ci.sh --cxl-only gates on both. The
// same pair with every batch in the app node's own shared memory (FS-SM)
// is printed and recorded beside it, ungated: a page fault on the local
// pool costs about what a line fill from the CXL home on another node
// does, so there the tier has no latency to win back.
#include <cstdio>
#include <memory>
#include <string>

#include "bench_util.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/dm_system.h"
#include "cxl/page_tier.h"
#include "swap/swap_manager.h"
#include "swap/systems.h"
#include "workloads/app_catalog.h"
#include "workloads/page_content.h"

namespace {

// Hot-working-set trace: a zipf-flavored 85/15 split over a hot set sized
// to overflow DRAM into the next tier down.
constexpr std::uint64_t kTierPages = 256;
constexpr std::uint64_t kTierResident = 64;
constexpr std::uint64_t kTierHot = 48;
constexpr std::size_t kTierPool = 96;
constexpr int kTierTouches = 12000;

struct TierRun {
  dm::SimTime elapsed = 0;
  std::string snapshot;
  std::uint64_t line_hits = 0;
  std::uint64_t promotions = 0;
  std::uint64_t demotions = 0;
  bool ok = false;
};

// `shm_fraction` places FastSwap's batches: 0 in remote memory (FS-RDMA),
// 1 in the app node's shared memory (FS-SM).
TierRun run_hot_set(bool with_cxl, double shm_fraction) {
  using namespace dm;
  auto setup = swap::make_fastswap_ratio(shm_fraction, kTierResident);
  core::DmSystem::Config config;
  config.node_count = 4;
  config.node.shm.arena_bytes = 32 * MiB;
  config.node.recv.arena_bytes = 32 * MiB;
  config.node.disk.capacity_bytes = 256 * MiB;
  config.service = setup.service;
  if (with_cxl) {
    config.cxl_region_bytes = 16 * MiB;
    config.cxl_home = 1;
  }
  core::DmSystem system(config);
  system.start();
  auto& client = system.create_server(0, 256 * MiB, setup.ldmc);

  std::unique_ptr<cxl::CxlPageTier> tier;
  auto swap_config = setup.swap;
  if (with_cxl) {
    cxl::CxlPageTier::Config tier_config;
    tier_config.pool_pages = kTierPool;
    tier_config.page_bytes = swap::kPageBytes;
    tier = std::make_unique<cxl::CxlPageTier>(system.create_cxl_agent(0),
                                              tier_config);
    swap_config.cxl_tier = tier.get();
    swap_config.cxl_promote_threshold = 8;
  }
  swap::SwapManager memory(client, swap_config,
                           [](std::uint64_t page, std::span<std::byte> out) {
                             workloads::fill_page(out, page, 0.3, 11);
                           });

  Rng rng(23);
  TierRun run;
  const SimTime start = system.simulator().now();
  for (int i = 0; i < kTierTouches; ++i) {
    const std::uint64_t page =
        rng.bernoulli(0.85) ? rng.next_below(kTierHot)
                            : kTierHot + rng.next_below(kTierPages - kTierHot);
    if (!memory.touch(page, rng.next_below(4) == 0).ok()) return run;
  }
  run.elapsed = system.simulator().now() - start;
  run.snapshot = system.hub().snapshot_json();
  if (tier != nullptr) {
    run.line_hits = tier->metrics().counter_value("cxl.tier.line_hits");
    run.promotions = memory.metrics().counter_value("swap.cxl.promotions");
    run.demotions = memory.metrics().counter_value("swap.cxl.demotions");
  }
  run.ok = true;
  return run;
}

}  // namespace

int main() {
  using namespace dm;
  bench::print_header(
      "Ablation: storage generations vs remote memory (§VI)",
      "the disk-network latency gap narrows with each storage generation");

  workloads::AppSpec app = *workloads::find_app("LogisticRegression");
  app.iterations = 3;
  constexpr std::uint64_t kPages = 512;
  constexpr std::uint64_t kResident = kPages / 2;

  struct Device {
    const char* name;
    SimTime seek_ns;
    double mib_per_s;
  };
  const Device devices[] = {
      {"HDD-7.2K (paper)", 6 * kMilli, 150.0},
      {"SATA-SSD", 80 * kMicro, 500.0},
      {"NVMe-SSD", 20 * kMicro, 3000.0},
      {"Optane-class", 8 * kMicro, 2500.0},
      {"NVM-DIMM-class", 1 * kMicro, 8000.0},
  };

  // Remote-memory reference: FastSwap all-remote on the paper's fabric.
  SimTime remote_elapsed = 0;
  {
    auto setup = swap::make_fastswap_ratio(0.0, kResident);
    auto rig = bench::make_swap_rig(setup, app);
    Rng rng(23);
    auto result = workloads::run_iterative(*rig.manager, app, kPages, rng);
    if (!result.status.ok()) return 1;
    remote_elapsed = result.elapsed;
  }

  std::printf("remote memory (FS-RDMA, FDR fabric): %s\n\n",
              format_duration(remote_elapsed).c_str());
  std::printf("%-18s %16s %18s\n", "Swap device", "device swap",
              "vs remote memory");
  for (const Device& device : devices) {
    auto setup = swap::make_system(swap::SystemKind::kLinux, kResident);
    bench::SwapRigOptions options;
    auto config = [&] {
      core::DmSystem::Config c;
      c.node_count = 4;
      c.node.shm.arena_bytes = 32 * MiB;
      c.node.recv.arena_bytes = 32 * MiB;
      c.node.disk.capacity_bytes = 256 * MiB;
      c.node.disk.model.seek_ns = device.seek_ns;
      c.node.disk.model.mib_per_s = device.mib_per_s;
      c.service = setup.service;
      return c;
    }();
    core::DmSystem system(config);
    system.start();
    auto& client = system.create_server(0, 256 * MiB, setup.ldmc);
    swap::SwapManager memory(client, setup.swap,
                             workloads::content_for(app, 23));
    Rng rng(23);
    auto result = workloads::run_iterative(memory, app, kPages, rng);
    if (!result.status.ok()) {
      std::printf("run failed: %s\n", result.status.to_string().c_str());
      return 1;
    }
    const double gap = bench::ratio(result.elapsed, remote_elapsed);
    std::printf("%-18s %16s %17.1fx\n", device.name,
                format_duration(result.elapsed).c_str(), gap);
  }
  std::printf("\n(>1x: remote memory is the faster overflow tier; as the "
              "ratio approaches 1x the killer-app question of §VI — which "
              "combination of memory, network and storage wins — reopens)\n");

  // --- Part 2: the cache-coherent CXL-class tier (§III) ---------------------
  std::printf("\nCXL tier ablation (hot working set, 85%% of touches on "
              "%llu of %llu pages):\n",
              static_cast<unsigned long long>(kTierHot),
              static_cast<unsigned long long>(kTierPages));
  const TierRun baseline = run_hot_set(/*with_cxl=*/false, 0.0);
  const TierRun repeat = run_hot_set(/*with_cxl=*/false, 0.0);
  const TierRun cxl = run_hot_set(/*with_cxl=*/true, 0.0);
  const TierRun shm_baseline = run_hot_set(/*with_cxl=*/false, 1.0);
  const TierRun shm_cxl = run_hot_set(/*with_cxl=*/true, 1.0);
  if (!baseline.ok || !repeat.ok || !cxl.ok || !shm_baseline.ok ||
      !shm_cxl.ok) {
    std::printf("CXL ablation run failed\n");
    return 1;
  }
  const bool repeat_identical = baseline.snapshot == repeat.snapshot;
  const double speedup = bench::ratio(baseline.elapsed, cxl.elapsed);
  std::printf("  DRAM -> RDMA            %s\n",
              format_duration(baseline.elapsed).c_str());
  std::printf("  DRAM -> CXL -> RDMA     %s   (%.2fx, %llu line hits, "
              "%llu promotions, %llu demotions)\n",
              format_duration(cxl.elapsed).c_str(), speedup,
              static_cast<unsigned long long>(cxl.line_hits),
              static_cast<unsigned long long>(cxl.promotions),
              static_cast<unsigned long long>(cxl.demotions));
  std::printf("  baseline repeat byte-identical: %s (tier defaults off; the "
              "failure-free schedule must not move)\n",
              repeat_identical ? "yes" : "NO");
  const double shm_speedup =
      bench::ratio(shm_baseline.elapsed, shm_cxl.elapsed);
  std::printf("  with every batch in the node's own shared memory (FS-SM), "
              "ungated:\n");
  std::printf("  DRAM -> SHM             %s\n",
              format_duration(shm_baseline.elapsed).c_str());
  std::printf("  DRAM -> CXL -> SHM      %s   (%.2fx)\n",
              format_duration(shm_cxl.elapsed).c_str(), shm_speedup);

  FILE* f = std::fopen("BENCH_storage_tiers.json", "w");
  if (f == nullptr) return 1;
  std::fprintf(f, "{\n\"bench\": \"storage_tiers\",\n\"cxl\": {\n");
  std::fprintf(f, "\"baseline_elapsed_ns\": %llu,\n",
               static_cast<unsigned long long>(baseline.elapsed));
  std::fprintf(f, "\"cxl_elapsed_ns\": %llu,\n",
               static_cast<unsigned long long>(cxl.elapsed));
  std::fprintf(f, "\"speedup\": %.4f,\n", speedup);
  std::fprintf(f, "\"baseline_repeat_identical\": %s,\n",
               repeat_identical ? "true" : "false");
  std::fprintf(f, "\"line_hits\": %llu,\n",
               static_cast<unsigned long long>(cxl.line_hits));
  std::fprintf(f, "\"promotions\": %llu,\n",
               static_cast<unsigned long long>(cxl.promotions));
  std::fprintf(f, "\"demotions\": %llu,\n",
               static_cast<unsigned long long>(cxl.demotions));
  std::fprintf(f, "\"shm_baseline_elapsed_ns\": %llu,\n",
               static_cast<unsigned long long>(shm_baseline.elapsed));
  std::fprintf(f, "\"shm_cxl_elapsed_ns\": %llu,\n",
               static_cast<unsigned long long>(shm_cxl.elapsed));
  std::fprintf(f, "\"shm_speedup\": %.4f\n", shm_speedup);
  std::fprintf(f, "}\n}\n");
  std::fclose(f);
  std::printf("\nwrote BENCH_storage_tiers.json\n");
  return 0;
}
