// Ablation (§IV.H) — DAHI transfer message size m.
//
// "It is worth to experiment window based message batching with both
// different window size d and different message size m." The batching
// bench sweeps d for the swap path; this one sweeps the DAHI chunk size
// (window d x 8 KiB Accelio messages collapsed into one m-byte transfer)
// for RDD partition caching and reports job time and fabric message counts.
#include <cstdio>

#include "bench_util.h"
#include "common/units.h"
#include "core/dm_system.h"
#include "rddcache/mini_spark.h"

int main() {
  using namespace dm;
  bench::print_header(
      "Ablation: DAHI message size m (§IV.H)",
      "bigger chunks cut message counts; returns diminish past ~64 KiB");

  std::printf("%10s %16s %12s %14s\n", "m", "job-time", "rdma-msgs",
              "offheap-gets");
  for (std::uint64_t chunk : {8 * KiB, 16 * KiB, 32 * KiB, 64 * KiB,
                              128 * KiB}) {
    core::DmSystem::Config config;
    config.node_count = 4;
    config.node.shm.arena_bytes = 1 * MiB;  // small: chunks go remote
    config.node.recv.arena_bytes = 64 * MiB;
    config.node.recv.slab_bytes = 256 * KiB;
    config.service.rdmc.ec_r = 0;  // one copy
    core::DmSystem system(config);
    system.start();

    rdd::MiniSpark::Config spark_config;
    spark_config.executors = 4;
    spark_config.ldmc.shm_fraction = 0.0;  // chunks travel over the fabric
    spark_config.executor.cache_bytes = 32 * KiB;
    spark_config.executor.overflow = rdd::OverflowPolicy::kDahi;
    spark_config.executor.dahi_chunk_bytes = chunk;
    rdd::MiniSpark spark(system, spark_config);

    auto dataset = rdd::Rdd::source(
        "data", 16, 8000, [](std::size_t p, std::size_t i) {
          return static_cast<rdd::Record>(p * 131 + i);
        });
    dataset->cache();

    auto& sim = system.simulator();
    const SimTime start = sim.now();
    for (int iter = 0; iter < 4; ++iter) {
      auto sum = spark.sum(dataset);
      if (!sum.ok()) {
        std::printf("job failed at m=%llu: %s\n",
                    static_cast<unsigned long long>(chunk),
                    sum.status().to_string().c_str());
        return 1;
      }
    }
    std::printf("%9s %16s %12llu %14llu\n", format_bytes(chunk).c_str(),
                format_duration(sim.now() - start).c_str(),
                static_cast<unsigned long long>(
                    system.fabric().metrics().counter_value(
                        "fabric.messages")),
                static_cast<unsigned long long>(
                    spark.total_offheap_fetches()));
  }
  return 0;
}
