// Remote Disaggregated Memory Server (paper Fig. 1–2, §IV.B).
//
// The RDMS is the per-node service that *hosts* other nodes' data: it
// answers control-plane block allocation/free requests against the node's
// registered receive buffer pool, after which the remote peer moves data
// with one-sided RDMA verbs (zero involvement from this node's CPU on the
// data path — the paper's kernel-bypass argument). It also implements the
// preemptive slab eviction of §IV.F: when the node wants its DRAM back, the
// RDMS notifies every hosted entry's owner, waits for owners to migrate and
// free their blocks, then deregisters the empty slab.
#pragma once

#include <functional>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/node.h"
#include "cluster/protocol.h"
#include "common/status.h"
#include "net/wire.h"

namespace dm::core {

class Rdms {
 public:
  struct HostedBlock {
    mem::BlockRef ref;
    net::NodeId owner_node = net::kInvalidNode;
    cluster::ServerId owner_server = 0;
    mem::EntryId entry = 0;
  };

  explicit Rdms(cluster::Node& node);

  cluster::Node& node() noexcept { return node_; }

  std::size_t hosted_blocks() const noexcept { return blocks_.size(); }
  std::uint64_t hosted_bytes() const noexcept {
    return node_.recv_pool().used_bytes();
  }

  // Owners with blocks hosted here, ascending node id, with block counts.
  // Deterministic (blocks_ is ordered); the harvester's offload path walks
  // this to ask each owner to migrate regions away from this node.
  std::vector<std::pair<net::NodeId, std::size_t>> hosted_owners() const {
    std::map<net::NodeId, std::size_t> counts;
    for (const auto& [key, block] : blocks_) ++counts[block.owner_node];
    return {counts.begin(), counts.end()};
  }

  // Begins draining `slab`: owners of all hosted blocks are told to migrate
  // (kRpcEvictNotice); once every block is freed the slab is deregistered
  // and `done` fires. The slab takes no new blocks while the drain runs.
  // `done` receives an error if a notice cannot be delivered (the drain
  // then stalls and can be retried).
  void drain_slab(mem::SlabId slab, std::function<void(const Status&)> done);

  // Number of drains currently in progress.
  std::size_t active_drains() const noexcept { return drains_.size(); }

  // Clears all hosted state (blocks freed, empty slabs deregistered) — a
  // crashed node reboots with empty DRAM; owners re-replicated elsewhere
  // while it was down.
  void drop_all_blocks();

 private:
  using BlockKey = std::pair<net::RKey, std::uint64_t>;  // (rkey, offset)

  StatusOr<std::vector<std::byte>> handle_alloc(net::NodeId from,
                                                net::WireReader& req);
  StatusOr<std::vector<std::byte>> handle_free(net::NodeId from,
                                               net::WireReader& req);
  void check_drain(mem::SlabId slab);

  cluster::Node& node_;
  std::map<BlockKey, HostedBlock> blocks_;
  std::unordered_map<mem::SlabId, std::function<void(const Status&)>> drains_;
};

}  // namespace dm::core
