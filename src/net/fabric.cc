#include "net/fabric.h"

#include <algorithm>
#include <cstring>

#include "common/status.h"
#include "common/units.h"
#include "sim/simulator.h"

namespace dm::net {
namespace {

// Delay before an operation against a down node/link errors out (models RC
// retry exhaustion / keep-alive timeout).
constexpr SimTime kFailureDetectNs = 50 * kMicro;
// Seed for the message-loss draw stream (chaos scenarios). Loss draws only
// happen while a loss probability is set, so runs without chaos never
// consume the stream.
constexpr std::uint64_t kLossSeed = 0x10553;

}  // namespace

Fabric::Fabric(sim::Simulator& simulator) : Fabric(simulator, Config{}) {}

Fabric::Fabric(sim::Simulator& simulator, Config config)
    : sim_(simulator), config_(config), loss_rng_(kLossSeed) {}

void Fabric::set_latency_scale(double scale) noexcept {
  latency_scale_ = scale < 0.0 ? 0.0 : scale;
  ++metrics_.counter("fabric.latency_scale_changes");
}

void Fabric::set_message_loss(double probability) noexcept {
  loss_probability_ =
      probability < 0.0 ? 0.0 : (probability > 1.0 ? 1.0 : probability);
}

bool Fabric::should_drop_message() {
  if (loss_probability_ <= 0.0) return false;
  return loss_rng_.bernoulli(loss_probability_);
}

Fabric::~Fabric() = default;

void Fabric::add_node(NodeId node) { nodes_.try_emplace(node); }

bool Fabric::has_node(NodeId node) const { return nodes_.count(node) > 0; }

void Fabric::set_node_up(NodeId node, bool up) {
  if (auto* st = state_of(node)) {
    st->up = up;
    if (!up) fail_node_connections(node);
  }
}

bool Fabric::node_up(NodeId node) const {
  const auto* st = state_of(node);
  return st != nullptr && st->up;
}

void Fabric::set_link_up(NodeId a, NodeId b, bool up) {
  if (up) {
    down_links_.erase({a, b});
  } else {
    down_links_.insert({a, b});
  }
}

bool Fabric::link_up(NodeId a, NodeId b) const {
  return down_links_.count({a, b}) == 0;
}

bool Fabric::path_up(NodeId src, NodeId dst) const {
  return node_up(src) && node_up(dst) && link_up(src, dst);
}

StatusOr<RKey> Fabric::register_memory(NodeId node, std::span<std::byte> bytes) {
  auto* st = state_of(node);
  if (st == nullptr) return InvalidArgumentError("unknown node");
  const RKey rkey = next_rkey_++;
  st->regions.emplace(rkey, MemoryRegion{node, rkey, bytes});
  st->registered_bytes += bytes.size();
  ++metrics_.counter("fabric.mr_registered");
  return rkey;
}

Status Fabric::deregister_memory(NodeId node, RKey rkey) {
  auto* st = state_of(node);
  if (st == nullptr) return InvalidArgumentError("unknown node");
  auto it = st->regions.find(rkey);
  if (it == st->regions.end()) return NotFoundError("rkey not registered");
  st->registered_bytes -= it->second.bytes.size();
  st->regions.erase(it);
  ++metrics_.counter("fabric.mr_deregistered");
  return Status::Ok();
}

std::size_t Fabric::registered_region_count(NodeId node) const {
  const auto* st = state_of(node);
  return st ? st->regions.size() : 0;
}

std::uint64_t Fabric::registered_bytes(NodeId node) const {
  const auto* st = state_of(node);
  return st ? st->registered_bytes : 0;
}

StatusOr<QueuePair*> Fabric::connect(NodeId a, NodeId b) {
  if (!has_node(a) || !has_node(b)) return InvalidArgumentError("unknown node");
  if (!path_up(a, b) || !path_up(b, a))
    return UnavailableError("node or link down");
  auto qa = std::unique_ptr<QueuePair>(new QueuePair(*this, next_qp_++, a, b));
  auto qb = std::unique_ptr<QueuePair>(new QueuePair(*this, next_qp_++, b, a));
  qa->peer_ = qb->id();
  qb->peer_ = qa->id();
  QueuePair* result = qa.get();
  qps_.emplace(qa->id(), std::move(qa));
  qps_.emplace(qb->id(), std::move(qb));
  ++metrics_.counter("fabric.connections");
  return result;
}

QueuePair* Fabric::peer_of(QueuePair* qp) {
  auto it = qps_.find(qp->peer_);
  return it == qps_.end() ? nullptr : it->second.get();
}

QueuePair* Fabric::qp_by_id(QpId id) {
  auto it = qps_.find(id);
  return it == qps_.end() ? nullptr : it->second.get();
}

void Fabric::destroy_connection(QueuePair* qp) {
  const QpId peer = qp->peer_;
  qps_.erase(qp->id());
  qps_.erase(peer);
}

void Fabric::fail_node_connections(NodeId node) {
  for (auto& [id, qp] : qps_) {
    if (qp->local() == node || qp->remote() == node) qp->error_ = true;
  }
}

Fabric::NodeState* Fabric::state_of(NodeId node) {
  auto it = nodes_.find(node);
  return it == nodes_.end() ? nullptr : &it->second;
}

const Fabric::NodeState* Fabric::state_of(NodeId node) const {
  auto it = nodes_.find(node);
  return it == nodes_.end() ? nullptr : &it->second;
}

MemoryRegion* Fabric::find_region(NodeId node, RKey rkey) {
  auto* st = state_of(node);
  if (st == nullptr) return nullptr;
  auto it = st->regions.find(rkey);
  return it == st->regions.end() ? nullptr : &it->second;
}

StatusOr<SimTime> Fabric::model_transfer(NodeId src, NodeId dst,
                                         std::uint64_t bytes,
                                         const sim::CostModel& cost) {
  if (!path_up(src, dst)) return UnavailableError("path down");
  auto& s = *state_of(src);
  auto& d = *state_of(dst);
  const SimTime now = sim_.now();
  // Serialize on the source NIC: the wire occupies bandwidth-time. The
  // latency scale models chaos-injected congestion/degradation windows.
  const double ns_per_byte = 1e9 / (cost.gib_per_s * static_cast<double>(GiB));
  const auto wire_ns = static_cast<SimTime>(
      ns_per_byte * static_cast<double>(bytes) * latency_scale_);
  const auto overhead_ns =
      static_cast<SimTime>(static_cast<double>(cost.overhead_ns) *
                           latency_scale_);
  const SimTime start = std::max(now, s.egress_free);
  // Per-message verb processing occupies the NIC alongside the wire time:
  // this is what makes one big batched message cheaper than many small ones
  // (the paper's §IV.H batching argument) and bounds the message rate.
  s.egress_free = start + overhead_ns + wire_ns;
  const SimTime arrive_earliest =
      s.egress_free + config_.latency.link_propagation_ns;
  const SimTime arrival = std::max(arrive_earliest, d.ingress_free);
  d.ingress_free = arrival;
  if (bytes_transferred_ == nullptr) {
    bytes_transferred_ = &metrics_.counter("fabric.bytes_transferred");
    messages_ = &metrics_.counter("fabric.messages");
    // Message-size distribution: the §IV.H batching economics in one
    // histogram (many small messages vs few large ones).
    msg_bytes_ = &metrics_.histogram("fabric.msg_bytes");
  }
  *bytes_transferred_ += bytes;
  ++*messages_;
  msg_bytes_->record(bytes);
  return arrival;
}

void Fabric::complete_with_error(QueuePair* qp, Status status,
                                 CompletionCallback done) {
  if (qp != nullptr) qp->error_ = true;
  ++metrics_.counter("fabric.op_errors");
  const SimTime when = sim_.now() + kFailureDetectNs;
  sim_.schedule_at(when, [status = std::move(status), done = std::move(done),
                          when]() {
    if (done) done(Completion{status, when, 0});
  });
}

// ---- CXL-class load/store port ---------------------------------------------

Status Fabric::cxl_read(NodeId src, NodeId dst, RKey rkey,
                        std::uint64_t offset, std::span<std::byte> dest,
                        CompletionCallback done, TraceId trace) {
  if (!has_node(src) || !has_node(dst))
    return InvalidArgumentError("unknown node");
  done = sim::span_completion(spans_, trace, src, "net", "fabric.cxl_read",
                              std::move(done));
  const SimTime posted_at = sim_.now();
  ++metrics_.counter("fabric.cxl_reads");
  if (!path_up(src, dst)) {
    complete_with_error(nullptr, UnavailableError("path down"),
                        std::move(done));
    return Status::Ok();  // posted; failure arrives via completion
  }
  // Request flit to the memory node, then the data transaction back. The
  // request rides on propagation only: CXL transactions have one overhead
  // budget, charged on the data-carrying hop.
  const SimTime request_arrival =
      sim_.now() + config_.latency.link_propagation_ns;
  sim_.schedule_at(request_arrival, [this, src, dst, rkey, offset, dest,
                                     posted_at,
                                     done = std::move(done)]() mutable {
    MemoryRegion* region = find_region(dst, rkey);
    if (!path_up(dst, src) || region == nullptr ||
        offset + dest.size() > region->bytes.size()) {
      Status err = region == nullptr ? NotFoundError("remote MR invalid")
                                     : UnavailableError("remote down");
      complete_with_error(nullptr, std::move(err), std::move(done));
      return;
    }
    // Snapshot the remote line now; it travels back on the data hop.
    std::vector<std::byte> payload(
        region->bytes.begin() + static_cast<std::ptrdiff_t>(offset),
        region->bytes.begin() + static_cast<std::ptrdiff_t>(offset) +
            static_cast<std::ptrdiff_t>(dest.size()));
    auto back = model_transfer(dst, src, payload.size(), config_.latency.cxl);
    if (!back.ok()) {
      complete_with_error(nullptr, back.status(), std::move(done));
      return;
    }
    sim_.schedule_at(*back, [this, dest, payload = std::move(payload),
                             done = std::move(done), posted_at,
                             deliver = *back]() {
      std::memcpy(dest.data(), payload.data(), payload.size());
      metrics_.histogram("fabric.cxl_read_ns")
          .record(static_cast<std::uint64_t>(deliver - posted_at));
      if (done)
        done(Completion{Status::Ok(), deliver,
                        static_cast<std::uint64_t>(payload.size())});
    });
  });
  return Status::Ok();
}

Status Fabric::cxl_write(NodeId src, NodeId dst, RKey rkey,
                         std::uint64_t offset, std::span<const std::byte> data,
                         CompletionCallback done, TraceId trace) {
  if (!has_node(src) || !has_node(dst))
    return InvalidArgumentError("unknown node");
  done = sim::span_completion(spans_, trace, src, "net", "fabric.cxl_write",
                              std::move(done));
  const SimTime posted_at = sim_.now();
  ++metrics_.counter("fabric.cxl_writes");
  auto arrival = model_transfer(src, dst, data.size(), config_.latency.cxl);
  if (!arrival.ok()) {
    complete_with_error(nullptr, arrival.status(), std::move(done));
    return Status::Ok();
  }
  // Copy out now (doorbell + DMA snapshot, as with post_write).
  std::vector<std::byte> payload(data.begin(), data.end());
  sim_.schedule_at(*arrival, [this, dst, rkey, offset,
                              payload = std::move(payload), posted_at,
                              done = std::move(done), deliver = *arrival]() {
    MemoryRegion* region = find_region(dst, rkey);
    if (!node_up(dst) || region == nullptr ||
        offset + payload.size() > region->bytes.size()) {
      Status err = region == nullptr
                       ? NotFoundError("remote MR invalid")
                       : UnavailableError("remote node down at delivery");
      complete_with_error(nullptr, std::move(err), std::move(done));
      return;
    }
    if (!payload.empty())
      std::memcpy(region->bytes.data() + offset, payload.data(),
                  payload.size());
    const SimTime acked = deliver + config_.latency.link_propagation_ns;
    metrics_.histogram("fabric.cxl_write_ns")
        .record(static_cast<std::uint64_t>(acked - posted_at));
    sim_.schedule_at(acked, [done = std::move(done), acked,
                             nbytes = payload.size()]() {
      if (done)
        done(Completion{Status::Ok(), acked,
                        static_cast<std::uint64_t>(nbytes)});
    });
  });
  return Status::Ok();
}

// ---- QueuePair verbs -------------------------------------------------------

Status QueuePair::post_write(RKey rkey, std::uint64_t offset,
                             std::span<const std::byte> data,
                             CompletionCallback done, TraceId trace) {
  if (error_) return FailedPreconditionError("QP in error state");
  done = sim::span_completion(fabric_.spans_, trace, local_, "net",
                              "fabric.write", std::move(done));
  const SimTime posted_at = fabric_.sim_.now();
  auto arrival = fabric_.model_transfer(local_, remote_, data.size(),
                                        fabric_.config().latency.rdma);
  if (!arrival.ok()) {
    fabric_.complete_with_error(this, arrival.status(), std::move(done));
    return Status::Ok();  // posted; failure arrives via completion
  }
  // RC ordering: completions on one QP never reorder.
  const SimTime deliver = std::max(*arrival, last_delivery_);
  last_delivery_ = deliver;
  const std::uint64_t nbytes = data.size();
  // Copy out now: the caller may reuse its buffer after post (the model
  // charges the NIC at post time, so this matches a doorbell + DMA snapshot).
  std::vector<std::byte> payload(data.begin(), data.end());
  auto& fabric = fabric_;
  const NodeId remote = remote_;
  const QpId self_id = id_;
  fabric.sim_.schedule_at(deliver, [&fabric, remote, rkey, offset,
                                    payload = std::move(payload), self_id,
                                    nbytes, done = std::move(done), deliver,
                                    posted_at]() {
    MemoryRegion* region = fabric.find_region(remote, rkey);
    if (!fabric.node_up(remote) || region == nullptr ||
        offset + payload.size() > region->bytes.size()) {
      Status err = region == nullptr
                       ? NotFoundError("remote MR invalid")
                       : UnavailableError("remote node down at delivery");
      if (QueuePair* self = fabric.qp_by_id(self_id)) self->error_ = true;
      if (done) done(Completion{err, deliver, 0});
      return;
    }
    std::memcpy(region->bytes.data() + offset, payload.data(), payload.size());
    const SimTime acked =
        deliver + fabric.config().latency.link_propagation_ns;
    if (fabric.write_ns_ == nullptr)
      fabric.write_ns_ = &fabric.metrics().histogram("fabric.write_ns");
    fabric.write_ns_->record(static_cast<std::uint64_t>(acked - posted_at));
    fabric.sim_.schedule_at(acked, [done = std::move(done), acked, nbytes]() {
      if (done) done(Completion{Status::Ok(), acked, nbytes});
    });
  });
  ++fabric_.metrics().counter("fabric.writes");
  return Status::Ok();
}

Status QueuePair::post_read(RKey rkey, std::uint64_t offset,
                            std::span<std::byte> dest, CompletionCallback done,
                            TraceId trace) {
  if (error_) return FailedPreconditionError("QP in error state");
  done = sim::span_completion(fabric_.spans_, trace, local_, "net",
                              "fabric.read", std::move(done));
  const SimTime posted_at = fabric_.sim_.now();
  // Request hop (tiny control message), then data hop back.
  auto request_arrival =
      fabric_.model_transfer(local_, remote_, 64, fabric_.config().latency.rdma);
  if (!request_arrival.ok()) {
    fabric_.complete_with_error(this, request_arrival.status(), std::move(done));
    return Status::Ok();
  }
  auto& fabric = fabric_;
  const NodeId remote = remote_;
  const NodeId local = local_;
  const QpId self_id = id_;
  fabric.sim_.schedule_at(*request_arrival, [&fabric, remote, local, rkey,
                                             offset, dest, self_id, posted_at,
                                             done = std::move(done)]() mutable {
    QueuePair* self = fabric.qp_by_id(self_id);
    MemoryRegion* region = fabric.find_region(remote, rkey);
    if (!fabric.node_up(remote) || region == nullptr || self == nullptr ||
        offset + dest.size() > region->bytes.size()) {
      Status err = region == nullptr ? NotFoundError("remote MR invalid")
                                     : UnavailableError("remote down");
      fabric.complete_with_error(self, std::move(err), std::move(done));
      return;
    }
    // Snapshot remote bytes now; they travel back on the data hop.
    std::vector<std::byte> payload(region->bytes.begin() + offset,
                                   region->bytes.begin() + offset + dest.size());
    auto back = fabric.model_transfer(remote, local, payload.size(),
                                      fabric.config().latency.rdma);
    if (!back.ok()) {
      fabric.complete_with_error(self, back.status(), std::move(done));
      return;
    }
    const SimTime deliver = std::max(*back, self->last_delivery_);
    self->last_delivery_ = deliver;
    if (fabric.read_ns_ == nullptr)
      fabric.read_ns_ = &fabric.metrics().histogram("fabric.read_ns");
    fabric.read_ns_->record(static_cast<std::uint64_t>(deliver - posted_at));
    fabric.sim_.schedule_at(deliver, [dest, payload = std::move(payload),
                                      done = std::move(done), deliver]() {
      std::memcpy(dest.data(), payload.data(), payload.size());
      if (done)
        done(Completion{Status::Ok(), deliver,
                        static_cast<std::uint64_t>(payload.size())});
    });
  });
  ++fabric_.metrics().counter("fabric.reads");
  return Status::Ok();
}

Status QueuePair::post_send(std::span<const std::byte> message,
                            CompletionCallback done) {
  if (error_) return FailedPreconditionError("QP in error state");
  const SimTime posted_at = fabric_.sim_.now();
  auto arrival = fabric_.model_transfer(local_, remote_, message.size(),
                                        fabric_.config().latency.rdma_send);
  if (!arrival.ok()) {
    fabric_.complete_with_error(this, arrival.status(), std::move(done));
    return Status::Ok();
  }
  const SimTime deliver = std::max(*arrival, last_delivery_);
  last_delivery_ = deliver;
  std::vector<std::byte> payload(message.begin(), message.end());
  auto& fabric = fabric_;
  const QpId self_id = id_;
  const NodeId from = local_;
  const NodeId remote = remote_;
  const std::uint64_t nbytes = message.size();
  fabric.sim_.schedule_at(deliver, [&fabric, self_id, from, remote,
                                    payload = std::move(payload),
                                    done = std::move(done), deliver,
                                    nbytes, posted_at]() {
    QueuePair* self = fabric.qp_by_id(self_id);
    QueuePair* peer = self != nullptr ? fabric.peer_of(self) : nullptr;
    if (!fabric.node_up(remote) || peer == nullptr ||
        !peer->receive_handler_) {
      if (self != nullptr) self->error_ = true;
      if (done)
        done(Completion{UnavailableError("receiver gone"), deliver, 0});
      return;
    }
    if (fabric.should_drop_message()) {
      // Chaos packet loss: the message vanishes past the local NIC. The
      // sender's ack still completes (it cannot tell), so the layer above
      // only notices via its own timeout.
      ++fabric.metrics().counter("fabric.msgs_dropped");
      const SimTime acked =
          deliver + fabric.config().latency.link_propagation_ns;
      fabric.sim_.schedule_at(acked, [done = std::move(done), acked,
                                      nbytes]() {
        if (done) done(Completion{Status::Ok(), acked, nbytes});
      });
      return;
    }
    peer->receive_handler_(from, std::span<const std::byte>(payload));
    const SimTime acked = deliver + fabric.config().latency.link_propagation_ns;
    if (fabric.send_ns_ == nullptr)
      fabric.send_ns_ = &fabric.metrics().histogram("fabric.send_ns");
    fabric.send_ns_->record(static_cast<std::uint64_t>(acked - posted_at));
    fabric.sim_.schedule_at(acked, [done = std::move(done), acked, nbytes]() {
      if (done) done(Completion{Status::Ok(), acked, nbytes});
    });
  });
  ++fabric_.metrics().counter("fabric.sends");
  return Status::Ok();
}

}  // namespace dm::net
