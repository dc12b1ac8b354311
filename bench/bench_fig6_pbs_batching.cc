// Figure 6 — completion time of FastSwap with proactive batch swap-in (PBS)
// vs FastSwap without PBS vs Infiniswap vs Linux disk swap, across four
// disaggregated-memory workload sizes.
//
// Paper shape: FastSwap+PBS < FastSwap w/o PBS < Infiniswap << Linux at
// every size, with the gap growing as more of the working set spills.
#include <cstdio>

#include "bench_util.h"
#include "common/rng.h"
#include "common/units.h"
#include "swap/systems.h"
#include "workloads/app_catalog.h"

int main() {
  using namespace dm;
  bench::print_header(
      "Figure 6: batch swap-in (PBS) effect across DM workload sizes",
      "FastSwap+PBS < FastSwap w/o PBS < Infiniswap << Linux");

  workloads::AppSpec app = *workloads::find_app("LogisticRegression");
  app.iterations = 3;
  constexpr std::uint64_t kResident = 128;

  const std::uint64_t working_sets[] = {192, 256, 384, 512};
  const swap::SystemKind systems[] = {
      swap::SystemKind::kFastSwap, swap::SystemKind::kFastSwapNoPbs,
      swap::SystemKind::kInfiniswap, swap::SystemKind::kLinux};
  constexpr int kSystems = 4;

  bench::BenchJson json("fig6_pbs_batching");
  std::printf("%-12s %14s %14s %14s %14s %9s\n", "WSet(pages)",
              "FastSwap+PBS", "FS-noPBS", "Infiniswap", "Linux", "PBS-gain");
  for (std::uint64_t pages : working_sets) {
    SimTime elapsed[kSystems] = {};
    for (int s = 0; s < kSystems; ++s) {
      auto setup = swap::make_system(systems[s], kResident);
      bench::SwapRigOptions options;
      options.server_bytes = 2 * MiB;  // most spill goes to remote memory
      auto rig = bench::make_swap_rig(setup, app, options);
      Rng rng(13);
      auto result = workloads::run_iterative(*rig.manager, app, pages, rng);
      if (!result.status.ok()) {
        std::printf("run failed (%s): %s\n", setup.name.c_str(),
                    result.status.to_string().c_str());
        return 1;
      }
      if (auto st = rig.manager->flush_all(); !st.ok()) {
        std::printf("flush failed (%s): %s\n", setup.name.c_str(),
                    st.to_string().c_str());
        return 1;
      }
      elapsed[s] = result.elapsed;
      json.add_system(setup.name + "/ws=" + std::to_string(pages),
                      *rig.system);
    }
    std::printf("%-12llu %14s %14s %14s %14s %8.2fx\n",
                static_cast<unsigned long long>(pages),
                format_duration(elapsed[0]).c_str(),
                format_duration(elapsed[1]).c_str(),
                format_duration(elapsed[2]).c_str(),
                format_duration(elapsed[3]).c_str(),
                bench::ratio(elapsed[1], elapsed[0]));
  }
  std::printf("\n(PBS-gain = FastSwap w/o PBS over FastSwap+PBS)\n");
  if (!json.write()) {
    std::printf("failed to write %s\n", json.path().c_str());
    return 1;
  }
  std::printf("metrics written to %s\n", json.path().c_str());
  return 0;
}
