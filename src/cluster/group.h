// Hierarchical grouping and leader election (paper §IV.C).
//
// The cluster is partitioned into groups of similar size; nodes share
// disaggregated memory only within their group, which bounds the candidate
// set and the membership traffic as the cluster grows. Each group elects a
// leader — "the one that meets certain constraints ... such as the one with
// the maximum available memory" — re-elected on handshake timeout, and a
// leader can request dynamic regrouping when its group runs short of
// disaggregated memory.
//
// Two pieces:
//  * GroupDirectory — the cluster-wide assignment of nodes to groups (the
//    paper cites ZooKeeper [30] for this class of coordination state; the
//    directory is that service collapsed into a deterministic object). It
//    implements the regrouping move: shift a donor node from the group with
//    the most aggregate free memory into the starved group.
//  * LeaderElection — the per-node, per-group protocol: on leader timeout,
//    query live members' free memory (from the membership cache that
//    heartbeats maintain) and announce the max-free node; ties break toward
//    the lowest node id so all members converge without extra rounds.
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cluster/membership.h"
#include "cluster/protocol.h"
#include "common/status.h"
#include "common/units.h"
#include "net/rpc.h"
#include "sim/periodic_task.h"
#include "sim/simulator.h"

namespace dm::cluster {

using GroupId = std::uint32_t;

class GroupDirectory {
 public:
  // Partitions `nodes` into ceil(n / group_size) groups of near-equal size.
  GroupDirectory(std::vector<net::NodeId> nodes, std::size_t group_size);

  GroupId group_of(net::NodeId node) const;
  const std::vector<net::NodeId>& members(GroupId group) const;
  std::size_t group_count() const noexcept { return groups_.size(); }

  // Moves `node` into `target` (regroup primitive). No-op if already there.
  void move_node(net::NodeId node, GroupId target);

  // Regrouping request from a starved group's leader: pull one node out of
  // the group with the highest aggregate free memory (per `free_of`).
  // Returns the moved node, or nullopt when no donor group can spare one.
  std::optional<net::NodeId> regroup_into(
      GroupId starved,
      const std::function<std::uint64_t(net::NodeId)>& free_of);

 private:
  std::vector<std::vector<net::NodeId>> groups_;
  std::unordered_map<net::NodeId, GroupId> index_;
};

class LeaderElection {
 public:
  LeaderElection(sim::Simulator& simulator, net::RpcEndpoint& rpc,
                 Membership& membership, net::NodeId self,
                 std::vector<net::NodeId> group_members);

  // Free bytes this node advertises about itself in elections (same source
  // the heartbeat replies use, so views converge).
  void set_self_free_provider(std::function<std::uint64_t()> provider) {
    self_free_ = std::move(provider);
  }

  // Runs the initial election and arms periodic re-election (no-op while
  // it runs).
  void start() { elections_.start(); }
  // Ends periodic re-election (the node crashed).
  void stop() noexcept { elections_.stop(); }

  // Invoked (via the Node's stable membership listener) when a peer dies;
  // triggers re-election if it was the leader.
  void handle_peer_down(net::NodeId peer);

  // True when this node is the election coordinator (lowest-id live
  // member). Only the coordinator announces, so concurrent divergent
  // announcements cannot race.
  bool is_coordinator() const;

  net::NodeId leader() const noexcept { return leader_; }

 private:
  void elect();

  net::RpcEndpoint& rpc_;
  Membership& membership_;
  net::NodeId self_;
  std::function<std::uint64_t()> self_free_;
  std::vector<net::NodeId> members_;  // includes self
  net::NodeId leader_ = net::kInvalidNode;
  // Regrouping replaces the election object while its periodic tick may be
  // queued; the task drops that tick.
  sim::PeriodicTask elections_;
};

}  // namespace dm::cluster
