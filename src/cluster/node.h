// Physical node composite (paper Fig. 1, per-node view).
//
// A Node bundles everything the paper places on each machine participating
// in the disaggregated memory system: the node-coordinated shared memory
// pool, the cluster-wide RDMA receive buffer pool, the local swap
// disk, the control-plane RPC endpoint, group membership, and the leader-
// election coordinator for its group. Virtual servers (VMs, containers,
// JVM executors) are hosted on a node and donate part of their allocation
// to the shared pool.
//
// The core-layer services (LDMS/RDMS/RDMC — src/core/) attach to a Node and
// register their RPC handlers on its endpoint.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "cluster/group.h"
#include "cluster/membership.h"
#include "cluster/virtual_server.h"
#include "common/rng.h"
#include "common/status.h"
#include "mem/buffer_pool.h"
#include "mem/shared_memory_pool.h"
#include "net/connection_manager.h"
#include "net/fabric.h"
#include "net/rpc.h"
#include "sim/simulator.h"
#include "storage/block_device.h"

namespace dm::cluster {

class Node {
 public:
  struct Config {
    mem::SharedMemoryPool::Config shm{};
    mem::RegisteredBufferPool::Config recv{};
    storage::BlockDevice::Config disk{};
    // Optional local NVM tier (§VI): capacity 0 = absent. Defaults model a
    // PCM/3D-XPoint-class device: no seek, microsecond access.
    storage::BlockDevice::Config nvm{
        .capacity_bytes = 0,
        .model = {.seek_ns = 1 * kMicro, .mib_per_s = 8000.0},
        .sequential_window = ~0ull};
    std::uint64_t rng_seed = 0;  // mixed with the node id
  };

  Node(sim::Simulator& simulator, net::Fabric& fabric,
       net::ConnectionManager& connections, net::NodeId id, Config config);

  net::NodeId id() const noexcept { return id_; }
  sim::Simulator& simulator() noexcept { return sim_; }
  net::Fabric& fabric() noexcept { return fabric_; }
  net::ConnectionManager& connections() noexcept { return connections_; }
  net::RpcEndpoint& rpc() noexcept { return rpc_; }
  Membership& membership() noexcept { return membership_; }
  mem::SharedMemoryPool& shm() noexcept { return shm_; }
  mem::RegisteredBufferPool& recv_pool() noexcept { return recv_pool_; }
  storage::BlockDevice& disk() noexcept { return disk_; }
  // Null when the node has no NVM tier configured.
  storage::BlockDevice* nvm() noexcept { return nvm_.get(); }
  Rng& rng() noexcept { return rng_; }

  // --- virtual servers ------------------------------------------------------
  VirtualServer& add_server(ServerId id, ServerKind kind,
                            std::uint64_t allocated_bytes,
                            double donation_fraction);
  VirtualServer* find_server(ServerId id);
  const std::vector<ServerId>& server_ids() const noexcept {
    return server_order_;
  }

  // --- group wiring (done by ClusterBuilder after all nodes exist) ----------
  void join_group(GroupId group, std::vector<net::NodeId> members);
  GroupId group() const noexcept { return group_; }
  LeaderElection* election() noexcept { return election_.get(); }

  // Memory this node can still host for remote peers (placement metric).
  std::uint64_t donatable_free_bytes() const noexcept {
    return recv_pool_.capacity_bytes() - recv_pool_.used_bytes();
  }

  bool up() const { return fabric_.node_up(id_); }

  // Allocates a fresh causal trace id rooted at this node. Deterministic: a
  // per-node monotonic sequence, no wall clock involved. Delegates to the
  // RPC endpoint's counter — the other allocator on this node — so the two
  // can never hand out the same id (span trees are keyed by trace id).
  net::TraceId next_trace_id() noexcept { return rpc_.new_trace(); }

 private:
  sim::Simulator& sim_;
  net::Fabric& fabric_;
  net::ConnectionManager& connections_;
  net::NodeId id_;
  Config config_;
  net::RpcEndpoint rpc_;
  Membership membership_;
  mem::SharedMemoryPool shm_;
  mem::RegisteredBufferPool recv_pool_;
  storage::BlockDevice disk_;
  std::unique_ptr<storage::BlockDevice> nvm_;
  Rng rng_;
  std::unordered_map<ServerId, VirtualServer> servers_;
  std::vector<ServerId> server_order_;
  GroupId group_ = 0;
  std::unique_ptr<LeaderElection> election_;
  bool election_listener_registered_ = false;
};

}  // namespace dm::cluster
