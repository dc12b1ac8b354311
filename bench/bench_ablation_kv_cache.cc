// Ablation (§II.B/§III) — key-value caching over disaggregated memory.
//
// Sweeps the hot-tier budget for a fixed dataset and zipfian request mix,
// comparing a conventional bounded cache (overflow dropped; misses pay the
// database, modeled as a disk read) with the disaggregated-memory cache
// (overflow parked in the shared pool / remote memory). The paper's claim:
// partial disaggregation turns capacity misses from disk-priced into
// memory-priced.
#include <cstdio>

#include "bench_util.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/dm_system.h"
#include "kvstore/kv_store.h"
#include "workloads/page_content.h"

int main() {
  using namespace dm;
  bench::print_header(
      "Ablation: KV cache with/without disaggregated memory (§II.B)",
      "DM converts capacity misses from database cost to memory cost");

  constexpr int kKeys = 256;
  constexpr int kRequests = 20000;

  std::printf("%10s %16s %16s %10s %12s\n", "hot-tier", "cache-only",
              "with-DM", "speedup", "DB-queries");
  for (std::uint64_t hot : {64 * KiB, 128 * KiB, 256 * KiB, 512 * KiB}) {
    SimTime elapsed[2] = {0, 0};
    std::uint64_t db_queries_without = 0;
    for (int mode = 0; mode < 2; ++mode) {
      core::DmSystem::Config cluster;
      cluster.node_count = 4;
      cluster.node.shm.arena_bytes = 16 * MiB;
      cluster.node.recv.arena_bytes = 16 * MiB;
      cluster.service.rdmc.ec_r = 0;  // one copy
      core::DmSystem system(cluster);
      system.start();
      auto& client = system.create_server(0, 64 * MiB);

      kv::KvStore::Config config;
      config.hot_bytes = hot;
      config.use_disaggregated_memory = mode == 1;
      kv::KvStore store(client, config);

      std::vector<std::byte> value(4096);
      for (int k = 0; k < kKeys; ++k) {
        workloads::fill_page(value, k, 0.4, 77);
        (void)store.set("obj:" + std::to_string(k), value);
      }

      auto& sim = system.simulator();
      auto& disk = system.node(0).disk();
      Rng rng(9);
      ZipfGenerator keys(kKeys, 0.99);
      std::uint64_t db_queries = 0;
      std::vector<std::byte> buf(4096);
      const SimTime start = sim.now();
      for (int r = 0; r < kRequests; ++r) {
        const auto k = static_cast<int>(keys.next(rng));
        auto got = store.get("obj:" + std::to_string(k));
        if (!got.ok()) {
          ++db_queries;
          (void)disk.read_sync(rng.next_below(1024) * 4096, buf);
          workloads::fill_page(value, k, 0.4, 77);
          (void)store.set("obj:" + std::to_string(k), value);
        }
      }
      elapsed[mode] = sim.now() - start;
      if (mode == 0) db_queries_without = db_queries;
    }
    std::printf("%10s %16s %16s %9.1fx %12llu\n",
                format_bytes(hot).c_str(),
                format_duration(elapsed[0]).c_str(),
                format_duration(elapsed[1]).c_str(),
                bench::ratio(elapsed[0], elapsed[1]),
                static_cast<unsigned long long>(db_queries_without));
  }
  std::printf("\n(DB-queries = misses the cache-only configuration sent to "
              "the database; the DM configuration answers them from "
              "disaggregated memory instead)\n");
  return 0;
}
