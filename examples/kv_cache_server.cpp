// Example: memcached-class cache whose overflow lives in disaggregated
// memory (paper §II.B: "Facebook caches the results of frequent database
// queries using Memcached" — and §III names key-value caching as a killer
// app for partial memory disaggregation).
//
//   $ ./kv_cache_server
//
// A zipfian request stream hits a cache sized for ~25% of the key space.
// Without disaggregation, cold values are dropped and every miss pays the
// database (disk) cost; with it, they are parked in the node's shared pool
// and remote memory.
#include <cstdio>

#include "core/dm_system.h"
#include "kvstore/kv_store.h"
#include "workloads/page_content.h"

int main() {
  using namespace dm;
  constexpr int kKeys = 256;
  constexpr int kRequests = 20000;

  for (bool disaggregated : {false, true}) {
    core::DmSystem::Config cluster;
    cluster.node_count = 4;
    cluster.node.shm.arena_bytes = 16 * MiB;
    cluster.node.recv.arena_bytes = 16 * MiB;
    cluster.service.rdmc.ec_r = 0;  // one copy
    core::DmSystem system(cluster);
    system.start();
    auto& client = system.create_server(0, 64 * MiB);

    kv::KvStore::Config config;
    config.hot_bytes = 256 * KiB;  // ~64 of 256 values fit hot
    config.use_disaggregated_memory = disaggregated;
    kv::KvStore store(client, config);

    // Load the dataset once (as if warmed from the database).
    std::vector<std::byte> value(4096);
    for (int k = 0; k < kKeys; ++k) {
      workloads::fill_page(value, k, 0.4, 77);
      (void)store.set("obj:" + std::to_string(k), value);
    }

    // Serve a skewed request stream; misses pay a database query, modeled
    // as a random disk read on the node.
    auto& sim = system.simulator();
    auto& disk = system.node(0).disk();
    Rng rng(9);
    ZipfGenerator keys(kKeys, 0.99);
    std::uint64_t db_queries = 0;
    const SimTime start = sim.now();
    std::vector<std::byte> buf(4096);
    for (int r = 0; r < kRequests; ++r) {
      const auto k = static_cast<int>(keys.next(rng));
      auto got = store.get("obj:" + std::to_string(k));
      if (!got.ok()) {
        ++db_queries;  // cache miss: hit the database, then re-cache
        (void)disk.read_sync((rng.next_below(1024)) * 4096, buf);
        workloads::fill_page(value, k, 0.4, 77);
        (void)store.set("obj:" + std::to_string(k), value);
      }
    }
    const double seconds =
        static_cast<double>(sim.now() - start) / kSecond;
    std::printf(
        "%-22s %8.1f kops/s   hot-hits %-6llu dm-hits %-6llu db-queries %llu\n",
        disaggregated ? "with disaggregation" : "cache-only",
        kRequests / seconds / 1000.0,
        static_cast<unsigned long long>(
            store.metrics().counter_value("kv.hot_hits")),
        static_cast<unsigned long long>(
            store.metrics().counter_value("kv.dm_hits")),
        static_cast<unsigned long long>(db_queries));
  }
  return 0;
}
