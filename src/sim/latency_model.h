// Latency/bandwidth cost models for the memory/storage/network tiers.
//
// Calibration (see DESIGN.md §5) follows the paper's §VI hierarchy and its
// testbed: 56 Gbps FDR InfiniBand, SATA 7.2K disks, DDR3-era DRAM. Every
// figure-reproduction bench takes a LatencyModel so sweeps can move the
// tiers relative to each other (e.g. "what if remote memory approached DRAM
// speed" — the paper's full-disaggregation feasibility question).
#pragma once

#include <cstdint>

#include "common/units.h"

namespace dm::sim {

// Fixed per-operation overhead plus a linear per-byte cost.
struct CostModel {
  SimTime overhead_ns = 0;
  double gib_per_s = 1.0;

  SimTime cost(std::uint64_t bytes) const noexcept {
    const double ns_per_byte = 1e9 / (gib_per_s * static_cast<double>(GiB));
    return overhead_ns +
           static_cast<SimTime>(ns_per_byte * static_cast<double>(bytes));
  }
};

// Rotational disk: random access pays seek+rotation; sequential access only
// pays transfer. The BlockDevice tracks the head position to decide which.
struct DiskModel {
  SimTime seek_ns = 6 * kMilli;       // avg seek + rotational delay, 7.2K SATA
  double mib_per_s = 150.0;           // sustained transfer rate

  SimTime transfer(std::uint64_t bytes) const noexcept {
    const double ns_per_byte = 1e9 / (mib_per_s * static_cast<double>(MiB));
    return static_cast<SimTime>(ns_per_byte * static_cast<double>(bytes));
  }
};

struct LatencyModel {
  // Local DRAM access by the application (cache-miss granularity is folded
  // into workload compute time; this is for explicit page copies).
  CostModel dram{100, 20.0};
  // Node-coordinated shared memory: same silicon as DRAM plus the client/
  // server handoff between the virtual server and the node manager.
  CostModel shared_memory{250, 18.0};
  // One-sided RDMA verb on FDR 4x: ~1.5 us post-to-completion for small
  // messages, ~6 GB/s payload bandwidth.
  CostModel rdma{1500, 6.0};
  // Two-sided send/recv costs slightly more (receiver CPU involvement).
  CostModel rdma_send{2000, 6.0};
  // CXL-class coherent load/store transaction (the paper's §III feasibility
  // question: remote memory approached through the cache hierarchy, no page
  // fault). Per-transaction overhead in the hundreds of ns and near-memory
  // bandwidth — a line fill lands ~4x under an RDMA READ, which is what
  // makes it a distinct tier between DRAM and RDMA paging.
  CostModel cxl{150, 30.0};
  DiskModel disk{};
  // Fixed propagation component per fabric hop (same rack).
  SimTime link_propagation_ns = 300;
};

}  // namespace dm::sim
