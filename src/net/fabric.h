// Simulated RDMA fabric: nodes, registered memory, RC queue pairs.
//
// Real data, virtual time: WRITE/READ/SEND move actual bytes between real
// buffers; the fabric charges virtual time for NIC serialization (per-node
// egress/ingress availability), per-message verb overhead, payload
// bandwidth, and link propagation — so message-count economics (batching vs
// per-page messaging, the core of the paper's §IV.H) emerge naturally.
//
// Failure model: nodes and directed links can be marked down. An operation
// touching a down element completes with kUnavailable after the configured
// detection delay, and the QP transitions to the error state (as RC QPs do);
// it must be reconnected through the ConnectionManager before reuse.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/units.h"
#include "net/rdma.h"
#include "sim/latency_model.h"
#include "sim/simulator.h"
#include "sim/span_sink.h"

namespace dm::net {

class Fabric;

// One endpoint of a reliable connection. Both directions share the pair of
// endpoints created by Fabric::connect(). Posting verbs on an error-state QP
// fails immediately with kFailedPrecondition.
class QueuePair {
 public:
  QpId id() const noexcept { return id_; }
  NodeId local() const noexcept { return local_; }
  NodeId remote() const noexcept { return remote_; }
  bool in_error() const noexcept { return error_; }

  // One-sided WRITE of `data` into (rkey, offset) on the remote node.
  // Bytes land at modeled arrival time; the callback fires at ack time.
  // `trace` puts the verb's span on the causal chain that issued it
  // (kNoTrace = untraced).
  Status post_write(RKey rkey, std::uint64_t offset,
                    std::span<const std::byte> data, CompletionCallback done,
                    TraceId trace = kNoTrace);

  // One-sided READ of dest.size() bytes from (rkey, offset) on the remote
  // node into `dest`. Bytes land and the callback fires at completion time.
  Status post_read(RKey rkey, std::uint64_t offset, std::span<std::byte> dest,
                   CompletionCallback done, TraceId trace = kNoTrace);

  // Two-sided SEND. The remote node's receive handler for this QP gets the
  // message at arrival time; the local callback fires at ack time.
  Status post_send(std::span<const std::byte> message, CompletionCallback done);

  void set_receive_handler(ReceiveHandler handler) {
    receive_handler_ = std::move(handler);
  }

 private:
  friend class Fabric;
  QueuePair(Fabric& fabric, QpId id, NodeId local, NodeId remote)
      : fabric_(fabric), id_(id), local_(local), remote_(remote) {}

  Fabric& fabric_;
  QpId id_;
  NodeId local_;
  NodeId remote_;
  QpId peer_ = 0;
  bool error_ = false;
  ReceiveHandler receive_handler_;
  // Enforces RC in-order completion per QP.
  SimTime last_delivery_ = 0;
};

class Fabric {
 public:
  struct Config {
    sim::LatencyModel latency{};
  };

  explicit Fabric(sim::Simulator& simulator);
  Fabric(sim::Simulator& simulator, Config config);
  ~Fabric();

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  sim::Simulator& simulator() noexcept { return sim_; }
  const Config& config() const noexcept { return config_; }
  MetricsRegistry& metrics() noexcept { return metrics_; }

  // Causal span sink (not owned; null detaches): one-sided verbs carrying a
  // real trace id get "net"/"fabric.write|read" spans from post to
  // completion.
  void set_span_sink(sim::SpanSink* spans) noexcept { spans_ = spans; }
  sim::SpanSink* span_sink() const noexcept { return spans_; }

  // --- chaos knobs ---------------------------------------------------------
  // Scales every transfer's NIC/wire time (latency-spike scenarios; 1.0 =
  // nominal). Applies from the next posted operation.
  void set_latency_scale(double scale) noexcept;
  // Probability that a two-sided SEND message is silently dropped at
  // delivery (the sender's ack still completes, as with loss beyond the
  // local NIC): the receiver never sees it and the RPC above times out.
  // One-sided verbs are unaffected (RC retransmission hides loss there).
  void set_message_loss(double probability) noexcept;

  // --- topology -----------------------------------------------------------
  void add_node(NodeId node);
  bool has_node(NodeId node) const;
  void set_node_up(NodeId node, bool up);
  bool node_up(NodeId node) const;
  // Directed link control (a->b). Both directions default to up.
  void set_link_up(NodeId a, NodeId b, bool up);
  bool link_up(NodeId a, NodeId b) const;

  // --- memory registration --------------------------------------------------
  // Registers `bytes` (owned by the caller, which must keep them alive until
  // deregistration) on `node`; returns the rkey remote peers use.
  StatusOr<RKey> register_memory(NodeId node, std::span<std::byte> bytes);
  Status deregister_memory(NodeId node, RKey rkey);
  // Number of regions currently registered on a node (for tests/eviction).
  std::size_t registered_region_count(NodeId node) const;
  std::uint64_t registered_bytes(NodeId node) const;

  // --- connections ----------------------------------------------------------
  // Creates an RC connection; returns the endpoint owned by `a`. The peer
  // endpoint is retrievable via peer_of(). Fails if either node is unknown.
  StatusOr<QueuePair*> connect(NodeId a, NodeId b);
  QueuePair* peer_of(QueuePair* qp);
  QueuePair* qp_by_id(QpId id);
  void destroy_connection(QueuePair* qp);

  // Marks every QP touching `node` as error (called on crash).
  void fail_node_connections(NodeId node);

  // --- CXL-class load/store port --------------------------------------------
  // Cache-line-granularity memory transactions against registered memory on
  // `dst`, charged at config().latency.cxl (ns-scale, no page fault, no
  // queue pair). Real bytes move, failures surface in the completion after
  // the failure-detection delay, exactly like the verbs above. The cxl:: layer builds
  // its coherence protocol out of these two transactions.
  //
  // cxl_read pulls dest.size() bytes from (rkey, offset) on dst into dest.
  // cxl_write pushes `data` into (rkey, offset) on dst; a zero-length write
  // is a pure control transaction (coherence snoops and releases ride on
  // it) and charges only the per-transaction overhead.
  Status cxl_read(NodeId src, NodeId dst, RKey rkey, std::uint64_t offset,
                  std::span<std::byte> dest, CompletionCallback done,
                  TraceId trace = kNoTrace);
  Status cxl_write(NodeId src, NodeId dst, RKey rkey, std::uint64_t offset,
                   std::span<const std::byte> data, CompletionCallback done,
                   TraceId trace = kNoTrace);

 private:
  friend class QueuePair;

  struct NodeState {
    bool up = true;
    SimTime egress_free = 0;   // NIC serialization, outbound
    SimTime ingress_free = 0;  // NIC serialization, inbound
    std::unordered_map<RKey, MemoryRegion> regions;
    std::uint64_t registered_bytes = 0;
  };

  // Returns arrival time at dst for a payload of `bytes`, charging NIC and
  // link occupancy, or an error if the path is down.
  StatusOr<SimTime> model_transfer(NodeId src, NodeId dst, std::uint64_t bytes,
                                   const sim::CostModel& cost);

  bool path_up(NodeId src, NodeId dst) const;
  // Loss draw for one delivered message (false when loss is disabled).
  bool should_drop_message();
  // Fails an op after the detection delay, poisoning `qp` when there is
  // one (the CXL port has no connection to poison).
  void complete_with_error(QueuePair* qp, Status status,
                           CompletionCallback done);
  NodeState* state_of(NodeId node);
  const NodeState* state_of(NodeId node) const;
  MemoryRegion* find_region(NodeId node, RKey rkey);

  sim::Simulator& sim_;
  Config config_;
  MetricsRegistry metrics_;
  // Per-message and per-verb metrics, looked up on first use.
  std::uint64_t* bytes_transferred_ = nullptr;
  std::uint64_t* messages_ = nullptr;
  Histogram* msg_bytes_ = nullptr;
  Histogram* read_ns_ = nullptr;
  Histogram* write_ns_ = nullptr;
  Histogram* send_ns_ = nullptr;
  sim::SpanSink* spans_ = nullptr;
  double latency_scale_ = 1.0;
  double loss_probability_ = 0.0;
  Rng loss_rng_;
  std::map<NodeId, NodeState> nodes_;
  std::set<std::pair<NodeId, NodeId>> down_links_;
  std::unordered_map<QpId, std::unique_ptr<QueuePair>> qps_;
  QpId next_qp_ = 1;
  RKey next_rkey_ = 1;
};

}  // namespace dm::net
