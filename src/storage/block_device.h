// Simulated rotational block device.
//
// Real data, virtual time: the device owns a real byte store; reads and
// writes move actual bytes and charge virtual time for seek + rotation
// (random access) or pure transfer (sequential access, detected by head
// position tracking), serialized through a single device queue. This is the
// substrate for the Linux swap baseline and for Infiniswap's asynchronous
// disk backup path — the paper's core performance argument is the gap
// between this device and the RDMA/shared-memory tiers.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/units.h"
#include "common/zero_arena.h"
#include "sim/latency_model.h"
#include "sim/simulator.h"

namespace dm::storage {

using IoCallback = std::function<void(const Status&, SimTime completed_at)>;

class BlockDevice {
 public:
  struct Config {
    std::uint64_t capacity_bytes = 256 * MiB;
    sim::DiskModel model{};
    // Accesses within this distance of the previous I/O's end are treated
    // as sequential (no seek charge) — models track-buffer readahead.
    std::uint64_t sequential_window = 256 * KiB;
  };

  BlockDevice(sim::Simulator& simulator, Config config);

  std::uint64_t capacity() const noexcept { return store_.size(); }
  MetricsRegistry& metrics() noexcept { return metrics_; }

  // Asynchronous I/O; bytes land / are captured at completion time. The
  // caller's span must stay valid until the callback runs.
  Status read(std::uint64_t offset, std::span<std::byte> dest, IoCallback done);
  Status write(std::uint64_t offset, std::span<const std::byte> src,
               IoCallback done);

  // Synchronous helpers: drive the simulator until the I/O completes.
  // Only valid when the caller owns the run loop (workload drivers do).
  Status read_sync(std::uint64_t offset, std::span<std::byte> dest);
  Status write_sync(std::uint64_t offset, std::span<const std::byte> src);

  SimTime busy_until() const noexcept { return next_free_; }

 private:
  SimTime charge(std::uint64_t offset, std::uint64_t bytes);

  sim::Simulator& sim_;
  Config config_;
  MetricsRegistry metrics_;
  ZeroArena store_;
  SimTime next_free_ = 0;
  std::uint64_t head_pos_ = 0;  // byte offset just past the last I/O
};

// Page-slot allocator over a BlockDevice: fixed-size slots handed out to
// swap frontends. Free slots are recycled LIFO so sequential swap-out bursts
// tend to land on adjacent slots (as Linux's swap slot cache does).
class SwapExtentAllocator {
 public:
  SwapExtentAllocator(std::uint64_t capacity_bytes, std::uint64_t slot_bytes);

  StatusOr<std::uint64_t> allocate();  // returns byte offset of the slot
  void release(std::uint64_t offset);

  std::uint64_t slot_bytes() const noexcept { return slot_bytes_; }
  std::uint64_t total_slots() const noexcept { return total_slots_; }
  std::uint64_t used_slots() const noexcept {
    return next_fresh_slot_ - free_.size();
  }

 private:
  std::uint64_t slot_bytes_;
  std::uint64_t total_slots_;
  std::uint64_t next_fresh_slot_ = 0;
  std::vector<std::uint64_t> free_;
};

}  // namespace dm::storage
