// Request/response RPC over two-sided RDMA SEND/RECV.
//
// The paper's architecture (§IV.G) splits each connection into an RDMA data
// channel (one-sided verbs, handled directly via QueuePair) and a system
// control channel (placement, eviction, membership). RpcEndpoint implements
// the control channel: per-method handlers on the server side, correlated
// asynchronous calls with timeouts on the client side.
//
// Observability: every frame carries a causal TraceId (allocated at the
// first hop when the caller passes kNoTrace) which the endpoint hands to
// its span sink on both sides of the hop, and round-trip latency is
// recorded per method into the endpoint's MetricsRegistry as
// "rpc.rtt.<label>" histograms (labels registered via label_method, falling
// back to "m<id>").
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/units.h"
#include "net/fabric.h"
#include "net/retry_policy.h"
#include "net/wire.h"
#include "sim/simulator.h"
#include "sim/span_sink.h"

namespace dm::net {

using RpcMethod = std::uint16_t;

// Server-side handler: consume the request, produce the response payload.
// Returning a non-OK status sends an error reply carrying the status code.
using RpcHandler = std::function<StatusOr<std::vector<std::byte>>(
    NodeId from, WireReader& request)>;

// Client-side continuation.
using RpcResponseCallback =
    std::function<void(StatusOr<std::vector<std::byte>> response)>;

// One RPC endpoint per node. All QPs attached via attach_channel() share the
// same dispatch table, so a node answers the same protocol to every peer.
class RpcEndpoint {
 public:
  RpcEndpoint(sim::Simulator& simulator, NodeId self)
      : sim_(simulator), self_(self) {}
  RpcEndpoint(const RpcEndpoint&) = delete;
  RpcEndpoint& operator=(const RpcEndpoint&) = delete;

  NodeId self() const noexcept { return self_; }
  MetricsRegistry& metrics() noexcept { return metrics_; }

  // Attaches a causal span sink (not owned; null detaches). Each traced
  // call opens a caller-side "net"/"rpc.<label>" span spanning send to
  // settle, and each dispatch a callee-side "remote"/"rpc.<label>" span
  // around the handler.
  void set_span_sink(sim::SpanSink* spans) noexcept { spans_ = spans; }

  // Allocates a fresh trace id from this endpoint's sequence — the same
  // counter call() draws from, so external roots (swap faults, tool
  // workloads) never collide with RPC-allocated ids.
  TraceId new_trace() { return make_trace_id(self_, ++next_trace_); }

  // Registers a human-readable label for a method id, used in span names
  // and the "rpc.rtt.<label>" histogram names.
  void label_method(RpcMethod method, std::string label) {
    labels_[method] = std::move(label);
    rtt_.erase(method);  // a later settle records under the new label
  }

  // Registers the handler for a method id (overwrites any previous one).
  void handle(RpcMethod method, RpcHandler handler) {
    handlers_[method] = std::move(handler);
  }

  // Installs the retry policy applied to every call() from this endpoint:
  // a call that fails with a retryable code (see RetryPolicy::retryable) is
  // re-issued after capped exponential backoff, up to max_attempts total,
  // all attempts sharing one trace id and one timeout each. The default
  // policy (max_attempts = 1) preserves single-shot semantics. Each retry
  // bumps the "rpc.retries" counter and records its delay in the
  // "net.backoff_ns" histogram.
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }
  const RetryPolicy& retry_policy() const noexcept { return retry_; }

  // Invoked when a call finds no usable channel to a peer; typically bound
  // to ConnectionManager::ensure_control_channel so channels are created on
  // first use and repaired after failures. The repairer re-attaches the
  // channel via attach_channel() on success.
  void set_channel_repairer(std::function<Status(NodeId peer)> repairer) {
    repairer_ = std::move(repairer);
  }

  // Binds this endpoint to its half of a control-channel QP. The endpoint
  // does not own the QP; the connection manager does.
  void attach_channel(QueuePair* qp);
  void detach_channel(NodeId peer);
  bool has_channel(NodeId peer) const { return channels_.count(peer) > 0; }

  // Issues a call to `peer`. The callback always fires exactly once: with
  // the response payload, with the server's error status, or with a timeout/
  // unavailable error. `trace` propagates the caller's causal chain; pass
  // kNoTrace to start a fresh one at this hop.
  void call(NodeId peer, RpcMethod method, std::vector<std::byte> payload,
            SimTime timeout, RpcResponseCallback done,
            TraceId trace = kNoTrace);

  // The trace id of the request currently being dispatched (valid inside a
  // handler; kNoTrace otherwise). Handlers issuing downstream calls pass it
  // along to keep the chain causal.
  TraceId current_trace_id() const noexcept { return current_trace_; }

  std::size_t inflight() const noexcept { return pending_.size(); }

 private:
  struct Pending {
    RpcResponseCallback done;
    SimTime started = 0;
    RpcMethod method = 0;
  };

  void call_once(NodeId peer, RpcMethod method,
                 std::vector<std::byte> payload, SimTime timeout,
                 RpcResponseCallback done, TraceId trace);
  void on_message(NodeId from, std::span<const std::byte> message);
  void settle(std::uint64_t call_id, StatusOr<std::vector<std::byte>> result);
  std::string method_label(RpcMethod method) const;

  sim::Simulator& sim_;
  NodeId self_;
  MetricsRegistry metrics_;
  sim::SpanSink* spans_ = nullptr;
  RetryPolicy retry_;
  std::unordered_map<RpcMethod, RpcHandler> handlers_;
  std::unordered_map<RpcMethod, std::string> labels_;
  // rpc.rtt.<label> by method, looked up on first use.
  std::unordered_map<RpcMethod, Histogram*> rtt_;
  std::function<Status(NodeId)> repairer_;
  std::unordered_map<NodeId, QueuePair*> channels_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::uint64_t next_call_ = 1;
  std::uint32_t next_trace_ = 0;
  TraceId current_trace_ = kNoTrace;
};

}  // namespace dm::net
