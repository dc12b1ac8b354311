#include "cluster/group.h"

#include <algorithm>
#include <cassert>

#include "cluster/membership.h"
#include "common/status.h"
#include "net/rpc.h"
#include "net/wire.h"
#include "sim/simulator.h"

namespace dm::cluster {
namespace {

// Periodic re-election cadence ("a leader election protocol periodically
// elects the one that meets certain constraints").
constexpr SimTime kElectionPeriod = 1 * kSecond;

}  // namespace

GroupDirectory::GroupDirectory(std::vector<net::NodeId> nodes,
                               std::size_t group_size) {
  assert(group_size > 0);
  const std::size_t group_count =
      (nodes.size() + group_size - 1) / group_size;
  groups_.resize(std::max<std::size_t>(group_count, 1));
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const GroupId g = static_cast<GroupId>(i % groups_.size());
    groups_[g].push_back(nodes[i]);
    index_[nodes[i]] = g;
  }
}

GroupId GroupDirectory::group_of(net::NodeId node) const {
  auto it = index_.find(node);
  assert(it != index_.end());
  return it->second;
}

const std::vector<net::NodeId>& GroupDirectory::members(GroupId group) const {
  assert(group < groups_.size());
  return groups_[group];
}

void GroupDirectory::move_node(net::NodeId node, GroupId target) {
  const GroupId from = group_of(node);
  if (from == target) return;
  auto& src = groups_[from];
  src.erase(std::find(src.begin(), src.end(), node));
  groups_[target].push_back(node);
  index_[node] = target;
}

std::optional<net::NodeId> GroupDirectory::regroup_into(
    GroupId starved,
    const std::function<std::uint64_t(net::NodeId)>& free_of) {
  GroupId richest = starved;
  std::uint64_t richest_free = 0;
  for (GroupId g = 0; g < groups_.size(); ++g) {
    if (g == starved || groups_[g].size() <= 1) continue;
    std::uint64_t total = 0;
    for (net::NodeId n : groups_[g]) total += free_of(n);
    if (total > richest_free) {
      richest_free = total;
      richest = g;
    }
  }
  if (richest == starved) return std::nullopt;
  // Donate the richest group's freest node.
  auto& donors = groups_[richest];
  net::NodeId donor = donors.front();
  for (net::NodeId n : donors)
    if (free_of(n) > free_of(donor)) donor = n;
  move_node(donor, starved);
  return donor;
}

LeaderElection::LeaderElection(sim::Simulator& simulator,
                               net::RpcEndpoint& rpc, Membership& membership,
                               net::NodeId self,
                               std::vector<net::NodeId> group_members)
    : rpc_(rpc), membership_(membership), self_(self),
      members_(std::move(group_members)),
      elections_(simulator, kElectionPeriod,
                 sim::PeriodicTask::First::kAtStart, [this]() { elect(); }) {
  // Adopt announcements from the group's coordinator (see
  // is_coordinator()); a single announcer means no conflicting
  // announcements can race.
  rpc_.handle(kRpcAnnounceLeader,
              [this](net::NodeId, net::WireReader& r)
                  -> StatusOr<std::vector<std::byte>> {
                const auto announced = static_cast<net::NodeId>(r.u32());
                if (!r.ok()) return r.status();
                leader_ = announced;
                return std::vector<std::byte>{};
              });
}

void LeaderElection::handle_peer_down(net::NodeId peer) {
  // Re-elect only when the leader died; a recovered or unrelated peer does
  // not disturb the current leader (stability — the paper re-elects on
  // failure or constraint violation, not on every membership change).
  if (peer == leader_) elect();
}

bool LeaderElection::is_coordinator() const {
  for (net::NodeId m : members_) {
    if (m == self_) return true;
    if (m < self_ && membership_.alive(m)) return false;
  }
  return true;
}

void LeaderElection::elect() {
  // Only the coordinator — the lowest-id live member — runs the election
  // rule and announces, so divergent views cannot produce racing
  // announcements. Coordinator failure hands the role to the next-lowest
  // node via the same membership data, at the next tick.
  if (!is_coordinator()) return;
  // Election rule (§IV.C): maximum advertised free memory among live
  // members, ties to the lowest node id.
  net::NodeId best = self_;
  std::uint64_t best_free = 0;
  bool have = false;
  for (net::NodeId m : members_) {
    const bool is_self = m == self_;
    if (!is_self && !membership_.alive(m)) continue;
    const std::uint64_t free_bytes = is_self && self_free_
                                         ? self_free_()
                                         : membership_.last_known_free(m);
    if (!have || free_bytes > best_free ||
        (free_bytes == best_free && m < best)) {
      best = m;
      best_free = free_bytes;
      have = true;
    }
  }
  leader_ = best;
  net::WireWriter w;
  w.put_u32(best);
  for (net::NodeId m : members_) {
    if (m == self_ || !membership_.alive(m)) continue;
    rpc_.call(m, kRpcAnnounceLeader, w.bytes(), 50 * kMilli,
              [](StatusOr<std::vector<std::byte>>) {});
  }
}

}  // namespace dm::cluster
