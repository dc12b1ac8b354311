#include "core/dm_system.h"

#include <cassert>

#include "cluster/group.h"
#include "cxl/coherence.h"
#include "cluster/harvester.h"
#include "core/ldmc.h"
#include "core/node_service.h"
#include "core/repair_service.h"
#include "net/connection_manager.h"
#include "net/fabric.h"
#include "sim/span_sink.h"

namespace dm::core {
namespace {

// Virtual time to run after start() so heartbeats populate the candidate
// free-memory views before the first placement decision.
constexpr SimTime kWarmup = 1 * kSecond;

}  // namespace

DmSystem::DmSystem(Config config)
    : config_(std::move(config)), failures_(sim_),
      fabric_(std::make_unique<net::Fabric>(sim_, config_.fabric)),
      connections_(std::make_unique<net::ConnectionManager>(*fabric_)),
      regroup_loop_(sim_, config_.regroup_check_period,
                    sim::PeriodicTask::First::kAfterPeriod,
                    [this]() { (void)regroup_tick(); }),
      harvest_loop_(sim_, config_.harvest_period,
                    sim::PeriodicTask::First::kAfterPeriod,
                    [this]() { (void)harvest_tick(); }) {
  std::vector<net::NodeId> ids;
  ids.reserve(config_.node_count);
  for (std::size_t i = 0; i < config_.node_count; ++i)
    ids.push_back(static_cast<net::NodeId>(i));

  groups_ = std::make_unique<cluster::GroupDirectory>(ids,
                                                      config_.group_size);

  connections_->set_retry_policy(config_.connect_backoff);

  for (net::NodeId id : ids) {
    auto node_config = config_.node;
    node_config.rng_seed = config_.seed;
    nodes_.push_back(std::make_unique<cluster::Node>(
        sim_, *fabric_, *connections_, id, node_config));
    nodes_.back()->rpc().set_retry_policy(config_.rpc_retry);
  }
  for (auto& node : nodes_) {
    const cluster::GroupId group = groups_->group_of(node->id());
    node->join_group(group, groups_->members(group));
  }
  for (auto& node : nodes_)
    services_.push_back(
        std::make_unique<NodeService>(*node, config_.service));
  for (auto& service : services_)
    repairs_.push_back(
        std::make_unique<RepairService>(*service, config_.repair));

  // Observability: fold every subsystem registry into the hub under
  // hierarchical names. Metric names already carry their subsystem
  // ("rpc.rtt.*", "ldms.get_ns.*"), so prefixes are just the location.
  hub_.add("net", &fabric_->metrics());
  hub_.add("net", &connections_->metrics());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const std::string prefix = "node." + std::to_string(nodes_[i]->id());
    hub_.add(prefix, &nodes_[i]->rpc().metrics());
    hub_.add(prefix, &nodes_[i]->shm().metrics());
    hub_.add(prefix, &nodes_[i]->recv_pool().metrics());
    hub_.add(prefix, &nodes_[i]->disk().metrics());
    if (nodes_[i]->nvm() != nullptr)
      hub_.add(prefix, &nodes_[i]->nvm()->metrics());
    hub_.add(prefix, &services_[i]->metrics());
  }

  if (config_.cxl_region_bytes > 0) {
    cxl::CxlDirectory::Config dir_config;
    dir_config.home = static_cast<net::NodeId>(config_.cxl_home);
    dir_config.line_count = config_.cxl_region_bytes / cxl::kLineBytes;
    cxl_directory_ =
        std::make_unique<cxl::CxlDirectory>(*fabric_, dir_config);
    hub_.add("cxl", &cxl_directory_->metrics());
  }
}

cxl::CxlAgent& DmSystem::create_cxl_agent(std::size_t node_index) {
  assert(cxl_directory_ != nullptr && "Config::cxl_region_bytes is 0");
  const auto node_id = static_cast<net::NodeId>(nodes_.at(node_index)->id());
  for (auto& agent : cxl_agents_)
    if (agent->node() == node_id) return *agent;
  auto agent_config = config_.cxl_agent;
  agent_config.node = node_id;
  cxl_agents_.push_back(
      std::make_unique<cxl::CxlAgent>(*cxl_directory_, agent_config));
  hub_.add("node." + std::to_string(node_id), &cxl_agents_.back()->metrics());
  return *cxl_agents_.back();
}

void DmSystem::set_span_sink(sim::SpanSink* spans) {
  fabric_->set_span_sink(spans);
  if (cxl_directory_ != nullptr) cxl_directory_->set_span_sink(spans);
  for (auto& node : nodes_) node->rpc().set_span_sink(spans);
  for (auto& service : services_) service->set_span_sink(spans);
}

DmSystem::~DmSystem() = default;

void DmSystem::start() {
  if (started_) return;
  started_ = true;
  for (std::size_t i = 0; i < nodes_.size(); ++i) run_node_loops(i, true);
  if (config_.regroup_low_watermark > 0.0) regroup_loop_.start();
  if (config_.harvest_enabled) {
    harvester_ = std::make_unique<cluster::Harvester>(config_.harvest);
    harvest_loop_.start();
  }
  run_for(kWarmup);
}

std::size_t DmSystem::harvest_tick() {
  if (harvester_ == nullptr)
    harvester_ = std::make_unique<cluster::Harvester>(config_.harvest);
  // Global load snapshot in node-id order. The simulation's coordinator
  // view stands in for what a real deployment would assemble from
  // heartbeat gossip; all inputs come from the same virtual-time state, so
  // the plan is deterministic.
  std::vector<cluster::NodeLoad> loads;
  loads.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    cluster::NodeLoad load;
    load.node = nodes_[i]->id();
    load.up = nodes_[i]->up();
    load.donated_capacity = nodes_[i]->recv_pool().capacity_bytes();
    load.donated_free = nodes_[i]->donatable_free_bytes();
    load.hosted_bytes = services_[i]->rdms().hosted_bytes();
    load.pressure = services_[i]->pressure();
    loads.push_back(load);
  }
  const auto actions = harvester_->plan(loads);
  std::size_t executed = 0;
  for (const auto& action : actions) {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i]->id() != action.node || !nodes_[i]->up()) continue;
      switch (action.kind) {
        case cluster::HarvestAction::Kind::kMigrateOff:
          services_[i]->offload_hot_node(action.max_entries);
          ++executed;
          break;
        case cluster::HarvestAction::Kind::kReclaimSlab:
          if (services_[i]->reclaim_donated_slab()) ++executed;
          break;
      }
      break;
    }
  }
  return executed;
}

std::optional<net::NodeId> DmSystem::regroup_tick() {
  auto free_of = [this](net::NodeId id) -> std::uint64_t {
    for (auto& node : nodes_)
      if (node->id() == id && node->up()) return node->donatable_free_bytes();
    return 0;
  };
  // Find the most starved group below the watermark. A manual tick (no
  // configured watermark) uses a conservative default of 25% free.
  std::optional<cluster::GroupId> starved;
  double worst = config_.regroup_low_watermark > 0.0
                     ? config_.regroup_low_watermark
                     : 0.25;
  for (cluster::GroupId g = 0; g < groups_->group_count(); ++g) {
    std::uint64_t free_bytes = 0;
    std::uint64_t capacity = 0;
    for (net::NodeId member : groups_->members(g)) {
      free_bytes += free_of(member);
      for (auto& node : nodes_)
        if (node->id() == member)
          capacity += node->recv_pool().capacity_bytes();
    }
    if (capacity == 0) continue;
    const double fraction =
        static_cast<double>(free_bytes) / static_cast<double>(capacity);
    if (fraction < worst) {
      worst = fraction;
      starved = g;
    }
  }
  if (!starved) return std::nullopt;

  const auto moved = groups_->regroup_into(*starved, free_of);
  if (!moved) return std::nullopt;
  ++regroups_;
  // Rewire membership/elections for both affected groups. The moved node's
  // old group is found from the directory post-move via scanning.
  rewire_group(*starved);
  for (cluster::GroupId g = 0; g < groups_->group_count(); ++g)
    if (g != *starved) rewire_group(g);
  return moved;
}

void DmSystem::rewire_group(cluster::GroupId group) {
  const auto& members = groups_->members(group);
  for (net::NodeId id : members) {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i]->id() != id) continue;
      nodes_[i]->join_group(group, members);
      // A crashed node's new election starts when recover_node() brings
      // the node back.
      if (nodes_[i]->up()) run_node_loops(i, true);
    }
  }
}

void DmSystem::run_node_loops(std::size_t index, bool run) {
  const auto apply = [run](auto& owner) { run ? owner.start() : owner.stop(); };
  apply(nodes_[index]->membership());
  apply(*nodes_[index]->election());
  apply(*services_[index]);
  apply(*repairs_[index]);
}

Ldmc& DmSystem::create_server(std::size_t node_index,
                              std::uint64_t allocated_bytes,
                              LdmcOptions options, cluster::ServerKind kind) {
  cluster::Node& host = node(node_index);
  const cluster::ServerId id = next_server_++;
  host.add_server(id, kind, allocated_bytes,
                  config_.default_donation_fraction);
  return service(node_index).create_client(id, options);
}

void DmSystem::crash_node(std::size_t index) {
  fabric_->set_node_up(node(index).id(), false);
  run_node_loops(index, false);
}

void DmSystem::recover_node(std::size_t index) {
  // A reboot loses DRAM contents: hosted blocks are gone (their owners
  // re-replicated elsewhere while the node was down).
  service(index).rdms().drop_all_blocks();
  // If the outage was shorter than failure detection, owners may still
  // list replicas on this node — those copies died with the DRAM, so drop
  // them before the node rejoins and let the repair service top up.
  for (auto& service : services_)
    service->invalidate_replicas_on(node(index).id());
  fabric_->set_node_up(node(index).id(), true);
  run_node_loops(index, true);
}

std::string DmSystem::utilization_report() {
  std::string out = "node  up  shm-used/donated      recv-used/capacity    "
                    "hosted  servers\n";
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    auto& node = *nodes_[i];
    char line[160];
    std::snprintf(
        line, sizeof(line), "%-4u  %-2s  %10s/%-10s %10s/%-10s %6zu  %zu\n",
        node.id(), node.up() ? "y" : "n",
        format_bytes(node.shm().used_bytes()).c_str(),
        format_bytes(node.shm().total_donated()).c_str(),
        format_bytes(node.recv_pool().used_bytes()).c_str(),
        format_bytes(node.recv_pool().capacity_bytes()).c_str(),
        services_[i]->rdms().hosted_blocks(), node.server_ids().size());
    out += line;
  }
  return out;
}

std::uint64_t DmSystem::total_counter(std::string_view name) const {
  std::uint64_t total = 0;
  for (const auto& service : services_)
    total += service->metrics().counter_value(name);
  return total;
}

}  // namespace dm::core
