// Virtual server abstraction (paper §I, §III).
//
// The paper treats VMs, containers and JVM executors uniformly: each is a
// memory principal with an allocation fixed at initialization time (sized
// for estimated peak usage) that donates a configurable fraction of that
// allocation to the node-coordinated shared memory pool. The donation is
// fixed when the server is added; a server that hits disaggregated memory
// too often gets ballooning advice from the eviction monitor (§IV.F).
#pragma once

#include <cstdint>
#include <string>

#include "cluster/types.h"
#include "net/rdma.h"

namespace dm::cluster {

enum class ServerKind : std::uint8_t { kVm, kContainer, kJvmExecutor };

class VirtualServer {
 public:
  VirtualServer(ServerId id, net::NodeId host, ServerKind kind,
                std::uint64_t allocated_bytes, double donation_fraction)
      : id_(id), host_(host), kind_(kind), allocated_(allocated_bytes),
        donation_fraction_(donation_fraction) {}

  ServerId id() const noexcept { return id_; }
  net::NodeId host() const noexcept { return host_; }
  ServerKind kind() const noexcept { return kind_; }
  std::uint64_t allocated_bytes() const noexcept { return allocated_; }

  double donation_fraction() const noexcept { return donation_fraction_; }
  std::uint64_t donated_bytes() const noexcept {
    return static_cast<std::uint64_t>(donation_fraction_ *
                                      static_cast<double>(allocated_));
  }
  // DRAM usable by the server's own working set after the donation.
  std::uint64_t resident_budget() const noexcept {
    return allocated_ - donated_bytes();
  }

 private:
  ServerId id_;
  net::NodeId host_;
  ServerKind kind_;
  std::uint64_t allocated_;
  double donation_fraction_;
};

}  // namespace dm::cluster
