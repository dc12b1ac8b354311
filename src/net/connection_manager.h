// Connection establishment and repair for the disaggregated memory system.
//
// Per the paper (§IV.G), every node pair that exchanges disaggregated-memory
// traffic maintains two channels: an RDMA data channel (one-sided READ/WRITE
// for the data plane) and a system control channel (two-sided RPC for
// placement, eviction, membership). The ConnectionManager is the fabric-wide
// directory that wires both sides — it plays the role of the RDMA CM
// exchange, collapsed into a deterministic in-simulator handshake.
//
// Channels are created lazily and repaired lazily: a QP that entered the
// error state (node/link failure) is torn down and re-established on the
// next ensure_*() call, provided the path is healthy again.
#pragma once

#include <map>
#include <unordered_map>
#include <utility>

#include "common/metrics.h"
#include "common/status.h"
#include "common/units.h"
#include "net/fabric.h"
#include "net/retry_policy.h"
#include "net/rpc.h"

namespace dm::net {

class ConnectionManager {
 public:
  explicit ConnectionManager(Fabric& fabric) : fabric_(fabric) {}

  ConnectionManager(const ConnectionManager&) = delete;
  ConnectionManager& operator=(const ConnectionManager&) = delete;

  // Every participating node registers its RPC endpoint once at bring-up.
  void register_endpoint(RpcEndpoint* endpoint);

  // Returns node a's side of the data channel to b, establishing or
  // repairing the pair (and the control channel) as needed.
  StatusOr<QueuePair*> ensure_data_channel(NodeId a, NodeId b);

  // Returns whether a usable control channel a->b exists or can be made.
  Status ensure_control_channel(NodeId a, NodeId b);

  // Paces re-establishment toward unreachable peers: after an establish
  // failure, further ensure_*() calls for that pair fail fast with
  // kUnavailable until the capped-exponential backoff window expires
  // (metrics: "cm.establish_failed", "cm.backoff_suppressed",
  // "net.backoff_ns"). A disabled policy (the default) keeps the historical
  // retry-on-every-call behavior.
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }
  const RetryPolicy& retry_policy() const noexcept { return retry_; }

  MetricsRegistry& metrics() noexcept { return metrics_; }

  std::size_t established_pairs() const noexcept { return channels_.size(); }

 private:
  struct ChannelPair {
    QueuePair* data_a = nullptr;   // a-side endpoints
    QueuePair* control_a = nullptr;
  };

  using PairKey = std::pair<NodeId, NodeId>;  // ordered (a, b): a's view

  struct BackoffState {
    std::size_t failures = 0;
    SimTime not_before = 0;
  };

  Status establish(NodeId a, NodeId b, ChannelPair& out);

  Fabric& fabric_;
  RetryPolicy retry_;
  MetricsRegistry metrics_;
  std::unordered_map<NodeId, RpcEndpoint*> endpoints_;
  std::map<PairKey, ChannelPair> channels_;
  std::map<PairKey, BackoffState> backoff_;
};

}  // namespace dm::net
