// Example: fault tolerance of the disaggregated memory system (paper §IV.D).
//
//   $ ./failover_demo
//
// Stores triple-replicated entries across a 5-node group, crashes the most
// loaded remote host mid-run, and shows (a) reads failing over immediately
// — with one traced failover read printed from node 0's flight-recorder
// ring — (b) the repair machinery restoring the replication factor, and a
// traced put placing its copies on live hosts only, and (c) the recovered
// node rejoining. Exits 1 when the run does not show (a) or (b).
#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/dm_system.h"
#include "obs/flight_recorder.h"
#include "obs/span.h"
#include "workloads/page_content.h"

int main() {
  using namespace dm;

  core::DmSystem::Config config;
  config.node_count = 5;
  config.node.recv.arena_bytes = 16 * MiB;
  config.service.rdmc.ec_r = 2;  // §IV.D triple-replica writes: RS(1, 2)
  core::DmSystem system(config);
  obs::SpanTracer tracer(system.simulator());
  obs::FlightRecorder recorder(system.simulator());
  tracer.set_flight_recorder(&recorder);
  system.set_span_sink(&tracer);
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
  const net::NodeId dead = system.node(victim).id();

  // One traced read first: pick an entry whose first copy is on the crashed
  // node. No verb reaches the dead host, so the skipped copy shows as a
  // point event on node 0's ring, followed by the fabric.read span against
  // the surviving copy that serves the data.
  std::vector<std::byte> out(4096);
  mem::EntryId victim_entry = 0;
  client.map().for_each([&](mem::EntryId id, const mem::EntryLocation& loc) {
    if (!loc.replicas.empty() && loc.replicas.front().node == dead)
      victim_entry = id;
  });
  recorder.clear();
  const net::TraceId trace = system.node(0).next_trace_id();
  const Status traced = client.get_sync(victim_entry, out, trace);
  const std::string label = obs::span_trace_label(trace);
  std::printf("\ntraced failover read of entry %llu (trace %s, %s), "
              "node 0's ring:\n",
              static_cast<unsigned long long>(victim_entry), label.c_str(),
              traced.ok() ? "ok" : "failed");
  bool failover_named = false;
  std::istringstream ring(recorder.dump_json(0, "failover_demo"));
  for (std::string line; std::getline(ring, line);) {
    if (line.find("\"trace\": \"" + label + "\"") == std::string::npos)
      continue;
    std::printf("%s\n", line.c_str());
    if (line.find("rdmc.read_failover") != std::string::npos &&
        line.find("skip node" + std::to_string(dead) + ",") !=
            std::string::npos)
      failover_named = true;
  }
  std::printf("node 0 rdmc.read_failovers = %llu\n\n",
              static_cast<unsigned long long>(
                  system.node(0).recv_pool().metrics().counter_value(
                      "rdmc.read_failovers")));

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

  // A traced put while the node is still down: its alloc_block dispatch
  // spans show which hosts placement chose, all of them live.
  workloads::fill_page(page, 64, 0.4, 99);
  const net::TraceId put_trace = system.node(0).next_trace_id();
  const Status put = client.put_sync(64, page, put_trace);
  std::printf("\ntraced put of entry 64 (trace %s, %s):\n",
              obs::span_trace_label(put_trace).c_str(),
              put.ok() ? "ok" : "failed");
  std::set<std::uint32_t> nodes;
  std::set<std::uint32_t> hosts;
  if (const auto* spans = tracer.spans(put_trace)) {
    for (const auto& span : *spans) {
      std::printf("  node %u %s/%s [%lld, %lld] ns\n", span.node,
                  span.subsystem.c_str(), span.name.c_str(),
                  static_cast<long long>(span.begin),
                  static_cast<long long>(span.end));
      nodes.insert(span.node);
      if (span.subsystem == "remote" && span.name == "rpc.alloc_block")
        hosts.insert(span.node);
    }
  }
  const bool live_hosts = hosts.size() >= 2 && nodes.count(dead) == 0;

  // Bring the node back; it rejoins the group empty and can host again.
  system.recover_node(victim);
  system.run_for(3 * kSecond);
  std::printf("\nnode %zu recovered; membership sees it alive: %s\n", victim,
              system.node(0).membership().alive(
                  system.node(victim).id())
                  ? "yes"
                  : "no");

  if (!failover_named)
    std::printf("FAILED: no failover event names crashed node %u\n", dead);
  if (!live_hosts)
    std::printf("FAILED: the traced put's copies are not on >= 2 live "
                "nodes\n");
  if (intact < 64) std::printf("FAILED: only %d/64 entries read back\n", intact);
  return failover_named && live_hosts && intact == 64 ? 0 : 1;
}
