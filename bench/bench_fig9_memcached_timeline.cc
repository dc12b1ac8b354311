// Figure 9 — Memcached (ETC, 50% configuration) throughput timeline after
// the working set has been pushed out to disaggregated memory (cold restart
// recovery).
//
// Paper shape over its 300 s window: FastSwap+PBS snaps back to peak
// throughput almost immediately; FastSwap w/o PBS needs >150 s; Infiniswap
// recovers to only ~60% of peak. The reproduction's working set is ~4000x
// smaller than the testbed's (3 MiB vs ~13 GB), so the whole recovery plays
// out ~4000x faster; the timeline below is scaled to a 240 ms window with
// 12 ms buckets, preserving the relative recovery dynamics (which system
// ramps first and to what fraction of peak).
#include <cstdio>
#include <map>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/units.h"
#include "swap/systems.h"
#include "workloads/app_catalog.h"

int main() {
  using namespace dm;
  bench::print_header(
      "Figure 9: Memcached ETC recovery timeline (50% config, 300s)",
      "PBS recovers almost instantly; no-PBS slowly; Infiniswap partial");

  constexpr std::uint64_t kPages = 768;
  constexpr std::uint64_t kResident = kPages / 2;
  constexpr SimTime kDuration = 240 * kMilli;  // ~= paper's 300 s, scaled
  constexpr SimTime kWindow = 12 * kMilli;     // ~= paper's 15 s buckets
  const std::size_t windows = kDuration / kWindow;

  const workloads::AppSpec* app = workloads::find_app("Memcached");

  std::map<std::string, std::vector<double>> series;
  std::vector<std::string> order;
  bench::BenchJson snapshots("fig9_memcached_timeline");
  for (auto kind : {swap::SystemKind::kFastSwap,
                    swap::SystemKind::kFastSwapNoPbs,
                    swap::SystemKind::kInfiniswap}) {
    auto setup = swap::make_system(kind, kResident);
    bench::SwapRigOptions options;
    options.server_bytes = 2 * MiB;  // most backing lives in remote memory
    auto rig = bench::make_swap_rig(setup, *app, options);
    // Build the working set, then flush everything out: the cold restart.
    Rng rng(23);
    for (std::uint64_t p = 0; p < kPages; ++p) (void)rig.manager->touch(p);
    if (auto flushed = rig.manager->flush_all(); !flushed.ok()) {
      std::printf("flush failed: %s\n", flushed.to_string().c_str());
      return 1;
    }
    std::vector<double> kops(windows, 0.0);
    auto result = workloads::run_kv_timed(
        *rig.manager, *app, kPages, kDuration, kWindow,
        [&](std::size_t index, std::uint64_t ops) {
          if (index < kops.size())
            kops[index] = static_cast<double>(ops) * 1e6 /
                          static_cast<double>(kWindow);
        },
        rng);
    if (!result.status.ok()) {
      std::printf("run failed (%s): %s\n", setup.name.c_str(),
                  result.status.to_string().c_str());
      return 1;
    }
    series[setup.name] = kops;
    order.push_back(setup.name);
    snapshots.add_system(setup.name, *rig.system);
  }
  if (snapshots.write())
    std::printf("\nmetrics snapshot: %s (per-tier latency percentiles in "
                "node.0.ldms.get_ns.* / node.0.swap.fault_ns.*)\n",
                snapshots.path().c_str());

  std::printf("%8s", "t(ms)");
  for (const auto& name : order) std::printf(" %18s", name.c_str());
  std::printf("   (kops/s per window)\n");
  for (std::size_t w = 0; w < windows; ++w) {
    std::printf("%8llu", static_cast<unsigned long long>((w + 1) * 12));
    for (const auto& name : order) std::printf(" %18.1f", series[name][w]);
    std::printf("\n");
  }

  // Recovery summary: windows needed to reach 90% of final-plateau rate.
  std::printf("\nrecovery to 90%% of own plateau:\n");
  for (const auto& name : order) {
    const auto& kops = series[name];
    const double plateau = kops.back();
    std::size_t reached = windows;
    for (std::size_t w = 0; w < windows; ++w) {
      if (kops[w] >= 0.9 * plateau) {
        reached = w;
        break;
      }
    }
    std::printf("  %-16s t=%llums (plateau %.1f kops/s)\n", name.c_str(),
                static_cast<unsigned long long>((reached + 1) * 12), plateau);
  }
  return 0;
}
