// Example: fault tolerance of the disaggregated memory system (paper §IV.D).
//
//   $ ./failover_demo
//
// Stores triple-replicated entries across a 5-node group, crashes the most
// loaded remote host mid-run, and shows (a) reads failing over immediately
// — with the causal trace of one failover printed from the event tracer —
// (b) the repair machinery restoring the replication factor, and (c) the
// recovered node rejoining.
#include <cstdio>
#include <vector>

#include "core/dm_system.h"
#include "sim/trace.h"
#include "workloads/page_content.h"

int main() {
  using namespace dm;

  core::DmSystem::Config config;
  config.node_count = 5;
  config.node.recv.arena_bytes = 16 * MiB;
  config.service.rdmc.ec_r = 2;  // §IV.D triple-replica writes: RS(1, 2)
  core::DmSystem system(config);
  sim::Tracer tracer(1 << 16);
  system.set_tracer(&tracer);
  system.start();

  core::LdmcOptions remote_only;
  remote_only.shm_fraction = 0.0;
  auto& client = system.create_server(0, 64 * MiB, remote_only);

  // Store 64 entries, all remote, 3 replicas each.
  std::vector<std::byte> page(4096);
  for (mem::EntryId id = 0; id < 64; ++id) {
    workloads::fill_page(page, id, 0.4, 99);
    if (auto s = client.put_sync(id, page); !s.ok()) {
      std::printf("put %llu failed: %s\n",
                  static_cast<unsigned long long>(id), s.to_string().c_str());
      return 1;
    }
  }
  std::printf("stored 64 entries x 3 replicas across the group\n");

  // Crash the most loaded host.
  std::size_t victim = 1;
  std::size_t most = 0;
  for (std::size_t i = 1; i < system.node_count(); ++i) {
    const auto blocks = system.service(i).rdms().hosted_blocks();
    std::printf("  node %zu hosts %zu blocks\n", i, blocks);
    if (blocks > most) {
      most = blocks;
      victim = i;
    }
  }
  std::printf("crashing node %zu (hosting %zu blocks)...\n", victim, most);
  system.crash_node(victim);

  // One traced read first: pick an entry with a replica on the crashed
  // node and follow its causal chain through the tracer — the failed READ
  // against the dead host and the failover READ that serves the data from
  // a surviving replica, across at least two nodes.
  std::vector<std::byte> out(4096);
  mem::EntryId victim_entry = 0;
  client.map().for_each([&](mem::EntryId id, const mem::EntryLocation& loc) {
    for (const auto& replica : loc.replicas)
      if (replica.node == system.node(victim).id() &&
          replica.node == loc.replicas.front().node)
        victim_entry = id;  // dead host is the *first* read target
  });
  const net::TraceId trace = system.node(0).next_trace_id();
  bool traced_done = false;
  Status traced_status;
  client.get(victim_entry, out, [&](const Status& s) {
    traced_status = s;
    traced_done = true;
  }, trace);
  system.simulator().run_until_flag(traced_done);
  std::printf("\ntraced failover read of entry %llu (%s, %s):\n%s\n",
              static_cast<unsigned long long>(victim_entry),
              net::format_trace_id(trace).c_str(),
              traced_status.ok() ? "ok" : "failed",
              sim::Tracer::format(
                  tracer.matching(net::format_trace_id(trace))).c_str());

  // Reads keep working immediately (failover to surviving replicas).
  int intact = 0;
  for (mem::EntryId id = 0; id < 64; ++id) {
    workloads::fill_page(page, id, 0.4, 99);
    if (client.get_sync(id, out).ok() && out == page) ++intact;
  }
  std::printf("immediately after crash: %d/64 entries readable\n", intact);

  // Give failure detection + repair time to run, then verify the factor.
  system.run_for(10 * kSecond);
  std::size_t fully_replicated = 0;
  client.map().for_each([&](mem::EntryId, const mem::EntryLocation& loc) {
    std::size_t alive = 0;
    for (const auto& replica : loc.replicas)
      if (system.fabric().node_up(replica.node)) ++alive;
    if (alive >= 3) ++fully_replicated;
  });
  std::printf("after repair: %zu/64 entries back at 3 live replicas "
              "(repaired %llu, data lost %llu)\n",
              fully_replicated,
              static_cast<unsigned long long>(
                  system.total_counter("ldms.repaired_entries")),
              static_cast<unsigned long long>(
                  system.service(0).data_loss_entries()));

  // Bring the node back; it rejoins the group empty and can host again.
  system.recover_node(victim);
  system.run_for(3 * kSecond);
  std::printf("node %zu recovered; membership sees it alive: %s\n", victim,
              system.node(0).membership().alive(
                  system.node(victim).id())
                  ? "yes"
                  : "no");
  return 0;
}
