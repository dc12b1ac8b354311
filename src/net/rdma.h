// Core vocabulary types for the simulated RDMA verbs layer.
//
// The model follows the paper's §IV.G description of what the disaggregated
// memory system requires from RDMA: reliable-connection (RC) queue pairs
// delivering messages in order at most once; one-sided READ/WRITE against
// registered memory regions (data plane); two-sided SEND/RECV (control
// plane); asynchronous completions; zero intermediate copies (a WRITE lands
// bytes directly in the destination region).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>

#include "common/status.h"
#include "common/units.h"

namespace dm::net {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = ~0u;

// Causal trace id carried through the control-plane wire format and handed
// to the span sink, so one logical operation (a page fault, a replicated
// put) can be followed across nodes. Encoded as (origin node + 1) << 32 |
// per-node monotonic sequence; 0 means "untraced".
using TraceId = std::uint64_t;
inline constexpr TraceId kNoTrace = 0;

inline TraceId make_trace_id(NodeId origin, std::uint32_t seq) noexcept {
  return (static_cast<std::uint64_t>(origin) + 1) << 32 | seq;
}
inline NodeId trace_origin(TraceId id) noexcept {
  return static_cast<NodeId>((id >> 32) - 1);
}
inline std::uint32_t trace_seq(TraceId id) noexcept {
  return static_cast<std::uint32_t>(id);
}

// Remote key naming a registered memory region on some node.
using RKey = std::uint64_t;
inline constexpr RKey kInvalidRKey = 0;

// Identifies a queue pair endpoint (unique fabric-wide).
using QpId = std::uint64_t;

// Completion of an asynchronous verb. `status` is non-OK when the remote
// node or link failed while the operation was in flight (RC QP error state).
struct Completion {
  Status status;
  SimTime completed_at = 0;
  std::uint64_t bytes = 0;
};

using CompletionCallback = std::function<void(const Completion&)>;

// Handler invoked on the receiving side of a two-sided SEND.
using ReceiveHandler =
    std::function<void(NodeId from, std::span<const std::byte> message)>;

// A registered memory region: raw bytes pinned by their owner for the
// lifetime of the registration. The fabric performs real memcpy into/out of
// these spans at the modeled delivery times.
struct MemoryRegion {
  NodeId owner = kInvalidNode;
  RKey rkey = kInvalidRKey;
  std::span<std::byte> bytes;
};

}  // namespace dm::net
