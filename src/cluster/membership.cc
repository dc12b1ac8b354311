#include "cluster/membership.h"

#include "common/status.h"
#include "common/units.h"
#include "net/rpc.h"
#include "net/wire.h"
#include "sim/simulator.h"

namespace dm::cluster {
namespace {

constexpr SimTime kHeartbeatPeriod = 200 * kMilli;
// A peer silent for longer than this (> 3 missed heartbeats) is down.
constexpr SimTime kFailureTimeout = 700 * kMilli;
constexpr SimTime kHeartbeatTimeout = 50 * kMilli;

}  // namespace

Membership::Membership(sim::Simulator& simulator, net::RpcEndpoint& rpc)
    : sim_(simulator), rpc_(rpc),
      heartbeats_(simulator, kHeartbeatPeriod,
                  sim::PeriodicTask::First::kAtStart,
                  [this]() { heartbeat(); }) {
  rpc_.handle(kRpcHeartbeat, [this](net::NodeId, net::WireReader&)
                                 -> StatusOr<std::vector<std::byte>> {
    net::WireWriter w;
    w.put_u64(free_provider_ ? free_provider_() : 0);
    w.put_u64(pressure_provider_ ? pressure_provider_() : 0);
    return std::move(w).take();
  });
}

void Membership::set_free_bytes_provider(
    std::function<std::uint64_t()> provider) {
  free_provider_ = std::move(provider);
}

void Membership::set_pressure_provider(
    std::function<std::uint64_t()> provider) {
  pressure_provider_ = std::move(provider);
}

void Membership::set_peers(std::vector<net::NodeId> peers) {
  peers_ = std::move(peers);
  const SimTime now = sim_.now();
  for (net::NodeId peer : peers_) {
    auto [it, inserted] = state_.try_emplace(peer);
    if (inserted) it->second.last_seen = now;
  }
}

void Membership::start() {
  if (heartbeats_.running()) return;
  // Replies that went unheard while the loop was stopped must not count
  // against the peers: a node back from a long outage would otherwise
  // declare every live peer down at once.
  const SimTime now = sim_.now();
  for (net::NodeId peer : peers_) state_[peer].last_seen = now;
  heartbeats_.start();
}

void Membership::heartbeat() {
  for (net::NodeId peer : peers_) {
    rpc_.call(peer, kRpcHeartbeat, {}, kHeartbeatTimeout,
              [this, peer](StatusOr<std::vector<std::byte>> resp) {
                if (!resp.ok()) return;  // silence; timeout sweep handles it
                net::WireReader r(*resp);
                const std::uint64_t free_bytes = r.u64();
                const std::uint64_t pressure = r.u64();
                if (r.ok()) note_alive(peer, free_bytes, pressure);
              });
  }
  check_timeouts();
}

void Membership::note_alive(net::NodeId peer, std::uint64_t free_bytes,
                            std::uint64_t pressure) {
  auto& st = state_[peer];
  st.last_seen = sim_.now();
  st.free_bytes = free_bytes;
  st.pressure = pressure;
  if (!st.alive) {
    st.alive = true;
    for (const auto& fn : up_listeners_) fn(peer);
  }
}

void Membership::check_timeouts() {
  const SimTime now = sim_.now();
  for (net::NodeId peer : peers_) {
    auto& st = state_[peer];
    if (st.alive && now - st.last_seen > kFailureTimeout) {
      st.alive = false;
      for (const auto& fn : down_listeners_) fn(peer);
    }
  }
}

bool Membership::alive(net::NodeId peer) const {
  auto it = state_.find(peer);
  return it != state_.end() && it->second.alive;
}

std::uint64_t Membership::last_known_free(net::NodeId peer) const {
  auto it = state_.find(peer);
  return it == state_.end() ? 0 : it->second.free_bytes;
}

std::uint64_t Membership::last_known_pressure(net::NodeId peer) const {
  auto it = state_.find(peer);
  return it == state_.end() ? 0 : it->second.pressure;
}

SimTime Membership::last_seen(net::NodeId peer) const {
  auto it = state_.find(peer);
  return it == state_.end() ? 0 : it->second.last_seen;
}

}  // namespace dm::cluster
