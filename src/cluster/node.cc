#include "cluster/node.h"

#include "cluster/group.h"
#include "cluster/protocol.h"
#include "cluster/virtual_server.h"
#include "common/status.h"
#include "net/connection_manager.h"
#include "net/fabric.h"
#include "sim/simulator.h"
#include "storage/block_device.h"

namespace dm::cluster {

Node::Node(sim::Simulator& simulator, net::Fabric& fabric,
           net::ConnectionManager& connections, net::NodeId id, Config config)
    : sim_(simulator), fabric_(fabric), connections_(connections), id_(id),
      config_(std::move(config)), rpc_(simulator, id),
      membership_(simulator, rpc_), shm_(config_.shm),
      recv_pool_(fabric, id, config_.recv),
      disk_(simulator, config_.disk),
      nvm_(config_.nvm.capacity_bytes > 0
               ? std::make_unique<storage::BlockDevice>(simulator, config_.nvm)
               : nullptr),
      rng_(mix64(config_.rng_seed ^ (0xD15A66ULL + id))) {
  fabric_.add_node(id_);
  connections_.register_endpoint(&rpc_);
  label_rpc_methods(rpc_);
  rpc_.set_channel_repairer([this](net::NodeId peer) {
    return connections_.ensure_control_channel(id_, peer);
  });
  membership_.set_free_bytes_provider(
      [this]() { return donatable_free_bytes(); });
}

VirtualServer& Node::add_server(ServerId id, ServerKind kind,
                                std::uint64_t allocated_bytes,
                                double donation_fraction) {
  auto [it, inserted] = servers_.try_emplace(
      id, VirtualServer(id, id_, kind, allocated_bytes, donation_fraction));
  if (inserted) {
    server_order_.push_back(id);
    (void)shm_.set_donation(id, it->second.donated_bytes());
  }
  return it->second;
}

VirtualServer* Node::find_server(ServerId id) {
  auto it = servers_.find(id);
  return it == servers_.end() ? nullptr : &it->second;
}

void Node::join_group(GroupId group, std::vector<net::NodeId> members) {
  group_ = group;
  std::vector<net::NodeId> peers;
  for (net::NodeId m : members)
    if (m != id_) peers.push_back(m);
  membership_.set_peers(peers);
  election_ = std::make_unique<LeaderElection>(sim_, rpc_, membership_, id_,
                                               std::move(members));
  election_->set_self_free_provider([this]() { return donatable_free_bytes(); });
  // One stable listener forwarding to whichever election is current —
  // regrouping replaces the election object, and membership listeners
  // cannot be unregistered.
  if (!election_listener_registered_) {
    election_listener_registered_ = true;
    membership_.on_peer_down([this](net::NodeId peer) {
      if (election_ != nullptr) election_->handle_peer_down(peer);
    });
  }
}

}  // namespace dm::cluster
