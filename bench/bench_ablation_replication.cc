// Ablation (§IV.D) — cost and benefit of the replication factor.
//
// Sweeps k = 1..3 and reports (a) remote put latency and fabric bytes (the
// cost), and (b) entries lost after a surprise node crash with no repair
// window (the benefit). Triple replication makes a single crash lossless,
// as §IV.D argues via the HDFS analogy.
#include <cstdio>

#include "bench_util.h"
#include "common/units.h"
#include "core/dm_system.h"
#include "core/node_service.h"
#include "mem/memory_map.h"
#include "workloads/page_content.h"

int main() {
  using namespace dm;
  bench::print_header(
      "Ablation: replication factor k (§IV.D)",
      "k=3 survives any single crash; cost ~k in bytes and latency");

  constexpr std::uint64_t kEntries = 256;

  std::printf("%3s %16s %14s %16s %12s\n", "k", "put-latency", "fabric-MB",
              "lost-after-crash", "unreadable");
  for (std::size_t k = 1; k <= 3; ++k) {
    core::DmSystem::Config config;
    config.node_count = 5;
    config.node.recv.arena_bytes = 32 * MiB;
    config.service.rdmc.ec_r = k - 1;  // k copies: RS(1, k - 1)
    core::DmSystem system(config);
    system.start();
    core::LdmcOptions options;
    options.shm_fraction = 0.0;
    options.allow_disk = false;
    auto& client = system.create_server(0, 256 * MiB, options);

    std::vector<std::byte> data(4096);
    const SimTime start = system.simulator().now();
    for (mem::EntryId id = 0; id < kEntries; ++id) {
      workloads::fill_page(data, id, 0.5, 3);
      if (!client.put_sync(id, data).ok()) {
        std::printf("put failed at k=%zu\n", k);
        return 1;
      }
    }
    const SimTime put_ns =
        (system.simulator().now() - start) / static_cast<SimTime>(kEntries);
    const double fabric_mb =
        static_cast<double>(system.fabric().metrics().counter_value(
            "fabric.bytes_transferred")) /
        (1024.0 * 1024.0);

    // Surprise crash of the most-loaded replica host, with no repair time:
    // count entries that lost every replica, then entries actually
    // unreadable.
    std::size_t victim = 1;
    std::size_t best_blocks = 0;
    for (std::size_t i = 1; i < system.node_count(); ++i) {
      if (system.service(i).rdms().hosted_blocks() > best_blocks) {
        best_blocks = system.service(i).rdms().hosted_blocks();
        victim = i;
      }
    }
    system.fabric().set_node_up(system.node(victim).id(), false);

    std::size_t fully_lost = 0, unreadable = 0;
    std::vector<std::byte> out(4096);
    client.map().for_each([&](mem::EntryId, const mem::EntryLocation& loc) {
      bool any_alive = false;
      for (const auto& r : loc.replicas)
        if (system.fabric().node_up(r.node)) any_alive = true;
      if (!any_alive) ++fully_lost;
    });
    for (mem::EntryId id = 0; id < kEntries; ++id)
      if (!client.get_sync(id, out).ok()) ++unreadable;

    std::printf("%3zu %16s %14.1f %15zu/%llu %12zu\n", k,
                format_duration(put_ns).c_str(), fabric_mb, fully_lost,
                static_cast<unsigned long long>(kEntries), unreadable);
  }
  return 0;
}
