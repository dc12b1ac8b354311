// Group-scoped membership with heartbeats (paper §IV.C–D).
//
// Each node heartbeats the members of its group over the control channel.
// A peer that misses heartbeats for longer than the failure timeout is
// declared down ("handshake time-out" in the paper) and listeners — the
// leader-election coordinator, the eviction/repair machinery — are
// notified. Heartbeat replies carry the peer's free donatable memory and
// its own disaggregated-memory pressure, so the same exchange feeds the
// placement candidate set (load-aware donor scoring), the harvester's
// imbalance view, and the max-free-memory election rule without extra
// message rounds.
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "cluster/protocol.h"
#include "common/units.h"
#include "net/rpc.h"
#include "sim/periodic_task.h"
#include "sim/simulator.h"

namespace dm::cluster {

class Membership {
 public:
  Membership(sim::Simulator& simulator, net::RpcEndpoint& rpc);

  // Free-bytes the node advertises in heartbeat replies (bound once).
  void set_free_bytes_provider(std::function<std::uint64_t()> provider);
  // Pressure (windowed local DM-request count) advertised alongside the
  // free bytes; unset = 0 (an idle, fully donatable host).
  void set_pressure_provider(std::function<std::uint64_t()> provider);

  void set_peers(std::vector<net::NodeId> peers);
  const std::vector<net::NodeId>& peers() const noexcept { return peers_; }

  // Begins the periodic heartbeat loop, whose first round runs at once
  // (no-op while it runs). A stopped loop heard nothing, so every peer's
  // silence clock starts at the (re)start.
  void start();
  void stop() noexcept { heartbeats_.stop(); }

  bool alive(net::NodeId peer) const;
  std::uint64_t last_known_free(net::NodeId peer) const;
  std::uint64_t last_known_pressure(net::NodeId peer) const;
  SimTime last_seen(net::NodeId peer) const;

  // Fired once per transition alive -> down.
  void on_peer_down(std::function<void(net::NodeId)> listener) {
    down_listeners_.push_back(std::move(listener));
  }
  // Fired once per transition down -> alive (recovery).
  void on_peer_up(std::function<void(net::NodeId)> listener) {
    up_listeners_.push_back(std::move(listener));
  }

 private:
  struct PeerState {
    SimTime last_seen = 0;
    std::uint64_t free_bytes = 0;
    std::uint64_t pressure = 0;
    bool alive = true;
  };

  // One round: heartbeat every peer, then declare the silent ones down.
  void heartbeat();
  void note_alive(net::NodeId peer, std::uint64_t free_bytes,
                  std::uint64_t pressure);
  void check_timeouts();

  sim::Simulator& sim_;
  net::RpcEndpoint& rpc_;
  std::function<std::uint64_t()> free_provider_;
  std::function<std::uint64_t()> pressure_provider_;
  std::vector<net::NodeId> peers_;
  std::unordered_map<net::NodeId, PeerState> state_;
  std::vector<std::function<void(net::NodeId)>> down_listeners_;
  std::vector<std::function<void(net::NodeId)>> up_listeners_;
  sim::PeriodicTask heartbeats_;
};

}  // namespace dm::cluster
