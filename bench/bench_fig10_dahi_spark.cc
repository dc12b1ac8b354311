// Figure 10 — vanilla Spark vs DAHI-powered Spark on LR, SVM, KMeans and
// ConnectedComponents over small / medium / large datasets.
//
// Small datasets cache fully in executor heaps (both systems equal);
// medium and large datasets overflow, where vanilla Spark recomputes
// dropped partitions from lineage while DAHI serves them from node-level /
// remote disaggregated memory. Paper speedups (medium, large): LR 1.7x,
// 4.3x; SVM 3.3x, 5.8x; KMeans 2.5x, 3.1x; CC 1.3x, 1.9x — DAHI wins grow
// with dataset size.
#include <cstdio>

#include "bench_util.h"
#include "common/units.h"
#include "core/dm_system.h"
#include "rddcache/mini_spark.h"

namespace {

using dm::rdd::Record;
using dm::rdd::RddPtr;

struct Job {
  const char* name;
  int iterations;            // lineage reuse count
  int lineage_depth;         // transformation chain length (compute cost)
};

RddPtr build_dataset(const Job& job, std::size_t partitions,
                     std::size_t records) {
  auto rdd = dm::rdd::Rdd::source(
      "input", partitions, records, [](std::size_t p, std::size_t i) {
        return static_cast<Record>(p * 48271 + i);
      });
  for (int d = 0; d < job.lineage_depth; ++d)
    rdd = rdd->map("stage", [d](Record r) { return r * 31 + d; });
  rdd->cache();
  return rdd;
}

}  // namespace

int main() {
  using namespace dm;
  bench::print_header(
      "Figure 10: vanilla Spark vs DAHI (partial RDD caching)",
      "speedup grows with dataset size: LR 1.7/4.3x, SVM 3.3/5.8x, "
      "KMeans 2.5/3.1x, CC 1.3/1.9x (medium/large)");

  const Job jobs[] = {
      {"LR", 8, 3},
      {"SVM", 10, 4},
      {"KMeans", 9, 2},
      {"CC", 5, 1},
  };
  // Dataset categories: partitions x records (8 B each). The 64 KiB
  // executor heap holds the small dataset fully, most of the medium one
  // (partial overflow), and a minority of the large one — so the DAHI
  // speedup grows with dataset size, as in the paper.
  struct Category {
    const char* name;
    std::size_t partitions;
    std::size_t records;
  };
  const Category categories[] = {
      {"small", 8, 1500},    // 2 x 12 KiB per executor: fits
      {"medium", 16, 2500},  // 4 x 20 KiB = 80 KiB: ~25% overflow
      {"large", 28, 5000},   // 7 x 40 KiB = 280 KiB: ~77% overflow
  };

  std::printf("%-8s %-8s %16s %16s %10s\n", "Job", "Dataset", "vanilla",
              "DAHI", "speedup");
  for (const Job& job : jobs) {
    for (const Category& cat : categories) {
      SimTime elapsed[2] = {0, 0};
      for (int mode = 0; mode < 2; ++mode) {
        core::DmSystem::Config config;
        config.node_count = 4;
        config.node.shm.arena_bytes = 32 * MiB;
        config.node.recv.arena_bytes = 32 * MiB;
        config.node.disk.capacity_bytes = 256 * MiB;
        config.service.rdmc.ec_r = 0;  // one copy
        core::DmSystem system(config);
        system.start();

        rdd::MiniSpark::Config spark_config;
        spark_config.executors = 4;
        spark_config.executor.cache_bytes = 64 * KiB;  // per-executor heap
        spark_config.executor.overflow = mode == 0
                                             ? rdd::OverflowPolicy::kRecompute
                                             : rdd::OverflowPolicy::kDahi;
        rdd::MiniSpark spark(system, spark_config);

        auto rdd = build_dataset(job, cat.partitions, cat.records);
        auto& sim = system.simulator();
        const SimTime start = sim.now();
        for (int iter = 0; iter < job.iterations; ++iter) {
          auto sum = spark.sum(rdd);
          if (!sum.ok()) {
            std::printf("job failed: %s\n", sum.status().to_string().c_str());
            return 1;
          }
        }
        elapsed[mode] = sim.now() - start;
      }
      std::printf("%-8s %-8s %16s %16s %9.2fx\n", job.name, cat.name,
                  format_duration(elapsed[0]).c_str(),
                  format_duration(elapsed[1]).c_str(),
                  bench::ratio(elapsed[0], elapsed[1]));
    }
  }
  return 0;
}
