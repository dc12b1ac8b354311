// DmSystem — the public façade of the disaggregated memory system.
//
// Builds and wires the full stack of paper Fig. 1 for an n-node cluster:
// simulator, RDMA fabric, connection manager, per-node pools and services,
// hierarchical groups with leader election, and membership heartbeats.
// Applications (and the swap / RDD-cache layers) then create virtual
// servers and obtain their LDMC handles.
//
// Typical use (see examples/quickstart.cc):
//
//   dm::core::DmSystem::Config cfg;
//   cfg.node_count = 4;
//   dm::core::DmSystem system(cfg);
//   system.start();                       // heartbeats, elections, warm-up
//   auto& client = system.create_server(/*node=*/0, 256 * dm::MiB);
//   client.put_sync(42, page_bytes);
//   client.get_sync(42, out_bytes);
//
// Failure injection for tests/benches: crash_node() drops a node from the
// fabric (its DRAM contents are lost, as on a real power failure);
// recover_node() brings the machine back empty.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "cluster/group.h"
#include "cluster/harvester.h"
#include "cluster/node.h"
#include "common/units.h"
#include "cxl/coherence.h"
#include "core/ldmc.h"
#include "core/node_service.h"
#include "core/repair_service.h"
#include "net/connection_manager.h"
#include "net/fabric.h"
#include "net/retry_policy.h"
#include "obs/metrics_hub.h"
#include "sim/failure_injector.h"
#include "sim/periodic_task.h"
#include "sim/simulator.h"
#include "sim/span_sink.h"

namespace dm::core {

class DmSystem {
 public:
  struct Config {
    std::size_t node_count = 4;
    std::size_t group_size = 8;
    cluster::Node::Config node{};
    NodeService::Config service{};
    net::Fabric::Config fabric{};
    double default_donation_fraction = 0.10;  // paper §IV.F: 10% initially
    std::uint64_t seed = 42;
    // §IV.C dynamic regrouping: when a group's aggregate donatable memory
    // falls below this fraction of its capacity, pull a donor node in from
    // the richest group (0 disables).
    double regroup_low_watermark = 0.0;
    SimTime regroup_check_period = 1 * kSecond;
    // Cluster memory harvesting (§I, §IV.F extended): a periodic planner
    // that live-migrates hosted regions off pressure-hot nodes and drains
    // donated slabs when those nodes' pools are nearly exhausted.
    bool harvest_enabled = false;
    SimTime harvest_period = 1 * kSecond;
    cluster::Harvester::Config harvest{};
    // Fault-tolerance knobs (all off by default so the failure-free event
    // schedule is unchanged):
    // Retry policy applied to every node's RPC endpoint (control plane).
    net::RetryPolicy rpc_retry{};
    // Backoff gate for data-channel (re)establishment attempts.
    net::RetryPolicy connect_backoff{};
    // Background re-replication scanner, one per node.
    RepairService::Config repair{};
    // Cache-coherent CXL-class tier (off by default; paper §III): when
    // cxl_region_bytes > 0 the system hosts a line-granular coherent
    // region on node `cxl_home` and nodes may attach load/store agents
    // via create_cxl_agent(). The failure-free event schedule with the
    // tier disabled is byte-identical to a build without it.
    std::uint64_t cxl_region_bytes = 0;
    std::size_t cxl_home = 0;
    cxl::CxlAgent::Config cxl_agent{};
  };

  explicit DmSystem(Config config);
  ~DmSystem();

  DmSystem(const DmSystem&) = delete;
  DmSystem& operator=(const DmSystem&) = delete;

  sim::Simulator& simulator() noexcept { return sim_; }
  net::Fabric& fabric() noexcept { return *fabric_; }
  sim::FailureInjector& failures() noexcept { return failures_; }

  // Cluster-wide metrics aggregation: the fabric and every node's RPC
  // endpoint, service, pools and devices are pre-registered under
  // "net.*" / "node.<id>.*". Callers add their own layers (swap managers,
  // caches) under the same naming convention.
  obs::MetricsHub& hub() noexcept { return hub_; }

  // Attaches a causal span sink (normally an obs::SpanTracer) to the
  // fabric, every node's RPC endpoint, and every node service, so a traced
  // operation's journey — caller RPC, fabric verbs, remote dispatch, device
  // I/O — lands in one span tree per trace id (null detaches). Swap
  // managers attach themselves via SwapManager::set_span_sink.
  void set_span_sink(sim::SpanSink* spans);

  std::size_t node_count() const noexcept { return nodes_.size(); }
  cluster::Node& node(std::size_t index) { return *nodes_.at(index); }
  NodeService& service(std::size_t index) { return *services_.at(index); }
  RepairService& repair(std::size_t index) { return *repairs_.at(index); }
  cluster::GroupDirectory& groups() noexcept { return *groups_; }

  // Starts every node's loops (see crash_node), then the regroup and
  // harvest loops when configured, then runs the warm-up window.
  void start();

  // Creates a virtual server on `node_index` and returns its LDMC.
  Ldmc& create_server(std::size_t node_index, std::uint64_t allocated_bytes,
                      LdmcOptions options = {},
                      cluster::ServerKind kind = cluster::ServerKind::kVm);

  // --- failure injection ------------------------------------------------------
  // A crashed node runs none of its five loops: heartbeats, election,
  // eviction monitor, candidate refresh and repair scans. Recovery starts
  // them all, the election the node holds at that moment included.
  void crash_node(std::size_t index);
  void recover_node(std::size_t index);

  // Runs the simulator for `duration` of virtual time (background work:
  // heartbeats, repairs, monitors).
  void run_for(SimTime duration) { sim_.run_until(sim_.now() + duration); }

  // One evaluation of the §IV.C regrouping rule (also runs periodically
  // when Config::regroup_low_watermark > 0). Returns the node moved, if
  // any.
  std::optional<net::NodeId> regroup_tick();
  std::uint64_t regroups() const noexcept { return regroups_; }

  // One harvest round (also runs periodically when Config::harvest_enabled):
  // snapshots every node's load, asks the cluster::Harvester for a plan, and
  // executes it — offloading hosted regions from hot nodes and reclaiming
  // their donated slabs. Returns the number of actions executed.
  std::size_t harvest_tick();
  cluster::Harvester* harvester() noexcept { return harvester_.get(); }

  // CXL tier accessors (null / asserts when Config::cxl_region_bytes == 0).
  cxl::CxlDirectory* cxl_directory() noexcept { return cxl_directory_.get(); }
  // Creates (or returns the existing) coherent load/store agent for
  // `node_index`, registered with the hub under "node.<id>".
  cxl::CxlAgent& create_cxl_agent(std::size_t node_index);

  // Aggregate counters across all node services (testing/benching aid).
  std::uint64_t total_counter(std::string_view name) const;

  // Human-readable per-node utilization snapshot: shared-pool usage vs
  // donations, receive-pool (donated DRAM) usage, hosted blocks, disk use —
  // the cluster-operator view of the paper's §I imbalance metrics.
  std::string utilization_report();

 private:
  Config config_;
  sim::Simulator sim_;
  sim::FailureInjector failures_;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<net::ConnectionManager> connections_;
  std::unique_ptr<cluster::GroupDirectory> groups_;
  std::vector<std::unique_ptr<cluster::Node>> nodes_;
  std::vector<std::unique_ptr<NodeService>> services_;
  std::vector<std::unique_ptr<RepairService>> repairs_;
  std::unique_ptr<cluster::Harvester> harvester_;
  std::unique_ptr<cxl::CxlDirectory> cxl_directory_;
  std::vector<std::unique_ptr<cxl::CxlAgent>> cxl_agents_;
  obs::MetricsHub hub_;
  sim::PeriodicTask regroup_loop_;
  sim::PeriodicTask harvest_loop_;
  void rewire_group(cluster::GroupId group);
  // Starts all five of a node's loops, or stops them when !run: the one
  // place that decides what runs on a node.
  void run_node_loops(std::size_t index, bool run);

  cluster::ServerId next_server_ = 1;
  std::uint64_t regroups_ = 0;
  bool started_ = false;
};

}  // namespace dm::core
