// Resilience economics (Hydra) — replication vs erasure-coded remote memory.
//
// Hydra's claim: Reed–Solomon striping gives crash resilience at a
// (k+r)/k memory overhead instead of replication's full copies, at a
// modest latency cost on the fault path. This bench runs the same
// put/crash/read/repair scenario under three stripe shapes — 2 copies,
// which is RS(1, 1), and two k > 1 codes — and reports:
//   * memory overhead   — hosted remote bytes / logical bytes (the cost);
//   * fault-free put/get latency (virtual time);
//   * degraded-read latency right after a surprise crash (reconstruction);
//   * recovery time — crash until every stripe/copy is back to full
//     redundancy via repair scans;
//   * entries lost (must be zero everywhere).
// Acceptance (gated in ci.sh --ec-only): EC overhead stays at (k+r)/k —
// strictly below replication's 2x — with zero loss, and EC recovery
// finishes within 3x of replication's.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/units.h"
#include "core/dm_system.h"
#include "core/node_service.h"
#include "mem/memory_map.h"
#include "workloads/page_content.h"

namespace {

struct Mode {
  std::string name;
  std::size_t ec_k = 1;  // k = 1: every parity shard is a whole copy
  std::size_t ec_r = 0;
};

struct Outcome {
  double overhead = 0.0;
  dm::SimTime put_ns = 0;
  dm::SimTime get_ns = 0;
  dm::SimTime degraded_get_ns = 0;
  dm::SimTime recovery_ns = 0;
  std::size_t lost = 0;
  std::uint64_t degraded_reads = 0;
  std::uint64_t shards_repaired = 0;
};

}  // namespace

int main() {
  using namespace dm;
  bench::print_header(
      "EC resilience: replication vs Reed-Solomon striping (Hydra)",
      "EC holds (k+r)/k memory overhead vs replication's 2x, zero loss");

  constexpr std::uint64_t kEntries = 128;
  const std::vector<Mode> modes = {
      {"rep2", 1, 1}, {"ec_2_1", 2, 1}, {"ec_4_2", 4, 2}};

  // Full per-mode metric snapshots ride along in a companion file (the
  // headline comparison JSON below keeps the stable, gated schema).
  bench::BenchJson json("ec_resilience_metrics");
  std::vector<std::pair<Mode, Outcome>> outcomes;

  std::printf("%8s %9s %12s %12s %14s %12s %6s\n", "mode", "overhead",
              "put", "get", "degraded-get", "recovery", "lost");
  for (const Mode& mode : modes) {
    core::DmSystem::Config config;
    config.node_count = 8;
    config.node.shm.arena_bytes = 2 * MiB;
    config.node.recv.arena_bytes = 32 * MiB;
    config.node.disk.capacity_bytes = 128 * MiB;
    config.service.rdmc.ec_k = mode.ec_k;
    config.service.rdmc.ec_r = mode.ec_r;
    config.service.rdmc.min_shards = mode.ec_k;
    config.repair.enabled = true;
    config.repair.scan_period = 100 * kMilli;
    config.repair.max_repairs_per_scan = 256;
    core::DmSystem system(config);
    system.start();
    core::LdmcOptions options;
    options.shm_fraction = 0.0;
    options.allow_disk = false;
    auto& client = system.create_server(0, 256 * MiB, options);

    Outcome out;
    std::vector<std::byte> data(4096);
    std::vector<std::byte> buffer(4096);

    // Fault-free puts and gets.
    SimTime start = system.simulator().now();
    for (mem::EntryId id = 0; id < kEntries; ++id) {
      workloads::fill_page(data, id, 0.5, 3);
      if (!client.put_sync(id, data).ok()) {
        std::printf("put failed in mode %s\n", mode.name.c_str());
        return 1;
      }
    }
    out.put_ns =
        (system.simulator().now() - start) / static_cast<SimTime>(kEntries);
    start = system.simulator().now();
    for (mem::EntryId id = 0; id < kEntries; ++id)
      if (!client.get_sync(id, buffer).ok()) ++out.lost;
    out.get_ns =
        (system.simulator().now() - start) / static_cast<SimTime>(kEntries);

    // The cost: hosted remote bytes vs logical bytes.
    std::uint64_t hosted = 0;
    client.map().for_each([&](mem::EntryId, const mem::EntryLocation& loc) {
      for (const auto& replica : loc.replicas) hosted += replica.block_size;
    });
    out.overhead = static_cast<double>(hosted) /
                   static_cast<double>(kEntries * data.size());

    // Surprise crash of the most-loaded host; read everything through the
    // degraded path before any repair window.
    std::size_t victim = 1;
    std::size_t best_blocks = 0;
    for (std::size_t i = 1; i < system.node_count(); ++i) {
      if (system.service(i).rdms().hosted_blocks() > best_blocks) {
        best_blocks = system.service(i).rdms().hosted_blocks();
        victim = i;
      }
    }
    system.crash_node(victim);
    const SimTime crash_at = system.simulator().now();
    start = system.simulator().now();
    for (mem::EntryId id = 0; id < kEntries; ++id)
      if (!client.get_sync(id, buffer).ok()) ++out.lost;
    out.degraded_get_ns =
        (system.simulator().now() - start) / static_cast<SimTime>(kEntries);

    // Recovery: let detection + repair scans restore full redundancy.
    const std::size_t target = mode.ec_k + mode.ec_r;
    bool restored = false;
    for (int round = 0; round < 400 && !restored; ++round) {
      system.run_for(100 * kMilli);
      restored = true;
      client.map().for_each(
          [&](mem::EntryId, const mem::EntryLocation& loc) {
            std::size_t live = 0;
            for (const auto& replica : loc.replicas)
              if (system.fabric().node_up(replica.node)) ++live;
            if (loc.tier != mem::Tier::kRemote || live < target ||
                loc.degraded)
              restored = false;
          });
    }
    out.recovery_ns =
        restored ? system.simulator().now() - crash_at : SimTime{-1};

    // Everything still byte-exact after recovery.
    for (mem::EntryId id = 0; id < kEntries; ++id) {
      workloads::fill_page(data, id, 0.5, 3);
      if (!client.get_sync(id, buffer).ok() || buffer != data) ++out.lost;
    }

    out.degraded_reads = system.total_counter("ec.degraded_reads");
    out.shards_repaired = system.total_counter("ec.shards_repaired");

    std::printf("%8s %8.2fx %12s %12s %14s %12s %6zu\n", mode.name.c_str(),
                out.overhead, format_duration(out.put_ns).c_str(),
                format_duration(out.get_ns).c_str(),
                format_duration(out.degraded_get_ns).c_str(),
                format_duration(out.recovery_ns).c_str(), out.lost);
    json.add_system(mode.name, system);
    outcomes.emplace_back(mode, out);
  }

  // Acceptance summary (machine-checked by ci.sh --ec-only).
  const Outcome& rep = outcomes[0].second;
  double worst_ec_overhead = 0.0;
  SimTime worst_ec_recovery = 0;
  std::size_t total_lost = rep.lost;
  for (std::size_t i = 1; i < outcomes.size(); ++i) {
    const Mode& mode = outcomes[i].first;
    const Outcome& ec = outcomes[i].second;
    const double bound =
        static_cast<double>(mode.ec_k + mode.ec_r) /
        static_cast<double>(mode.ec_k);
    std::printf("\n%s: overhead %.3fx (bound %.3fx), recovery %.2fx of "
                "replication, degraded_reads=%llu shards_repaired=%llu\n",
                mode.name.c_str(), ec.overhead, bound,
                bench::ratio(ec.recovery_ns, rep.recovery_ns) > 0
                    ? static_cast<double>(ec.recovery_ns) /
                          static_cast<double>(rep.recovery_ns)
                    : 0.0,
                static_cast<unsigned long long>(ec.degraded_reads),
                static_cast<unsigned long long>(ec.shards_repaired));
    worst_ec_overhead = std::max(worst_ec_overhead, ec.overhead);
    worst_ec_recovery = std::max(worst_ec_recovery, ec.recovery_ns);
    total_lost += ec.lost;
  }

  FILE* f = std::fopen("BENCH_ec_resilience.json", "w");
  if (f == nullptr) return 1;
  std::fprintf(f, "{\n\"bench\": \"ec_resilience\",\n\"modes\": [\n");
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Mode& mode = outcomes[i].first;
    const Outcome& out = outcomes[i].second;
    std::fprintf(
        f,
        "{\"mode\": \"%s\", \"overhead\": %.4f, \"put_ns\": %lld, "
        "\"get_ns\": %lld, \"degraded_get_ns\": %lld, \"recovery_ns\": "
        "%lld, \"lost\": %zu, \"degraded_reads\": %llu, "
        "\"shards_repaired\": %llu}%s\n",
        obs::json_escape(mode.name).c_str(), out.overhead,
        static_cast<long long>(out.put_ns), static_cast<long long>(out.get_ns),
        static_cast<long long>(out.degraded_get_ns),
        static_cast<long long>(out.recovery_ns), out.lost,
        static_cast<unsigned long long>(out.degraded_reads),
        static_cast<unsigned long long>(out.shards_repaired),
        i + 1 < outcomes.size() ? "," : "");
  }
  const bool overhead_ok = worst_ec_overhead < rep.overhead;
  const bool recovery_ok = rep.recovery_ns > 0 && worst_ec_recovery > 0 &&
                           worst_ec_recovery <= 3 * rep.recovery_ns;
  std::fprintf(f,
               "],\n\"replication_overhead\": %.4f,\n"
               "\"ec_overhead_below_replication\": %s,\n"
               "\"ec_recovery_within_3x\": %s,\n\"total_lost\": %zu\n}\n",
               rep.overhead, overhead_ok ? "true" : "false",
               recovery_ok ? "true" : "false", total_lost);
  std::fclose(f);
  if (!json.write()) return 1;
  std::printf("\nwrote BENCH_ec_resilience.json and %s\n",
              json.path().c_str());
  return total_lost == 0 ? 0 : 1;
}
