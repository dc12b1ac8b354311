// Example: mini-Spark job with DAHI off-heap RDD caching (paper §V.B).
//
//   $ ./rdd_cache_demo
//
// Builds a dataset larger than the executors' heap cache, runs an iterative
// job, and compares vanilla Spark (overflow partitions recomputed from
// lineage) with DAHI (overflow partitions cached in disaggregated memory).
#include <cstdio>

#include "core/dm_system.h"
#include "rddcache/mini_spark.h"

int main() {
  using namespace dm;
  using rdd::Record;

  for (auto policy : {rdd::OverflowPolicy::kRecompute,
                      rdd::OverflowPolicy::kDahi}) {
    core::DmSystem::Config config;
    config.node_count = 4;
    config.node.shm.arena_bytes = 16 * MiB;
    config.node.recv.arena_bytes = 16 * MiB;
    config.service.rdmc.ec_r = 0;  // one copy
    core::DmSystem system(config);
    system.start();

    rdd::MiniSpark::Config spark_config;
    spark_config.executors = 4;
    spark_config.executor.cache_bytes = 64 * KiB;
    spark_config.executor.overflow = policy;
    rdd::MiniSpark spark(system, spark_config);

    // A 20-partition dataset with a transformation chain, reused over 6
    // iterations — the Spark pattern DAHI accelerates.
    auto features = rdd::Rdd::source(
        "features", 20, 4000,
        [](std::size_t p, std::size_t i) {
          return static_cast<Record>(p * 7919 + i);
        });
    auto normalized =
        features->map("normalize", [](Record r) { return r % 1000; })
            ->filter("nonzero", [](Record r) { return r != 0; });
    normalized->cache();

    auto& sim = system.simulator();
    const SimTime start = sim.now();
    Record checksum = 0;
    for (int iter = 0; iter < 6; ++iter) {
      auto sum = spark.sum(normalized);
      if (!sum.ok()) {
        std::printf("job failed: %s\n", sum.status().to_string().c_str());
        return 1;
      }
      checksum = *sum;
    }
    const char* name =
        policy == rdd::OverflowPolicy::kRecompute ? "vanilla Spark" : "DAHI";
    std::printf(
        "%-14s 6 iterations in %-10s (sum=%lld, heap hits %llu, recomputes "
        "%llu, off-heap fetches %llu)\n",
        name, format_duration(sim.now() - start).c_str(),
        static_cast<long long>(checksum),
        static_cast<unsigned long long>(spark.total_hits()),
        static_cast<unsigned long long>(spark.total_recomputes()),
        static_cast<unsigned long long>(spark.total_offheap_fetches()));
  }
  return 0;
}
