#include "net/connection_manager.h"

#include "common/status.h"
#include "common/units.h"
#include "net/rpc.h"

namespace dm::net {

void ConnectionManager::register_endpoint(RpcEndpoint* endpoint) {
  endpoints_[endpoint->self()] = endpoint;
}

Status ConnectionManager::establish(NodeId a, NodeId b, ChannelPair& out) {
  auto ep_a = endpoints_.find(a);
  auto ep_b = endpoints_.find(b);
  if (ep_a == endpoints_.end() || ep_b == endpoints_.end())
    return FailedPreconditionError("peer endpoint not registered");

  auto data = fabric_.connect(a, b);
  if (!data.ok()) return data.status();
  auto control = fabric_.connect(a, b);
  if (!control.ok()) {
    fabric_.destroy_connection(*data);
    return control.status();
  }
  out.data_a = *data;
  out.control_a = *control;
  ep_a->second->attach_channel(out.control_a);
  ep_b->second->attach_channel(fabric_.peer_of(out.control_a));
  return Status::Ok();
}

StatusOr<QueuePair*> ConnectionManager::ensure_data_channel(NodeId a,
                                                            NodeId b) {
  const PairKey key{a, b};
  auto it = channels_.find(key);
  if (it != channels_.end()) {
    if (!it->second.data_a->in_error() && !it->second.control_a->in_error())
      return it->second.data_a;
    // Repair: tear down the broken pair, fall through to re-establish.
    if (auto* ep = endpoints_[a]) ep->detach_channel(b);
    if (auto* ep = endpoints_[b]) ep->detach_channel(a);
    fabric_.destroy_connection(it->second.data_a);
    fabric_.destroy_connection(it->second.control_a);
    channels_.erase(it);
  }
  // Backoff gate: while a pair is in its post-failure backoff window, fail
  // fast instead of hammering a peer that was just unreachable. Dead-peer
  // probing then costs one failed establish per window, not one per call.
  if (retry_.enabled()) {
    auto gate = backoff_.find(key);
    if (gate != backoff_.end() &&
        fabric_.simulator().now() < gate->second.not_before) {
      ++metrics_.counter("cm.backoff_suppressed");
      return UnavailableError("channel establish suppressed by backoff");
    }
  }
  ChannelPair pair;
  if (Status s = establish(a, b, pair); !s.ok()) {
    ++metrics_.counter("cm.establish_failed");
    if (retry_.enabled()) {
      auto& gate = backoff_[key];
      ++gate.failures;
      const SimTime wait = retry_.backoff(
          gate.failures, (static_cast<std::uint64_t>(a) << 32) | b);
      gate.not_before = fabric_.simulator().now() + wait;
      metrics_.histogram("net.backoff_ns")
          .record(static_cast<std::uint64_t>(wait));
    }
    return s;
  }
  backoff_.erase(key);
  ++metrics_.counter("cm.established");
  channels_.emplace(key, pair);
  return pair.data_a;
}

Status ConnectionManager::ensure_control_channel(NodeId a, NodeId b) {
  return ensure_data_channel(a, b).status();
}

}  // namespace dm::net
