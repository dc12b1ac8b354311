// Simulated rotational block device.
//
// Real data, virtual time: the device owns a real byte store; reads and
// writes move actual bytes and charge virtual time for seek + rotation
// (random access) or pure transfer (sequential access, detected by head
// position tracking), serialized through a single device queue. A node
// has a disk and, optionally, an NVM device; the node service's device tier
// is the only code that places bytes on either (device-tier entries, such
// as the Linux swap baseline's, and Infiniswap's backup ring), carving them
// with the ExtentAllocator below. The paper's core performance argument is
// the gap between this device and the RDMA/shared-memory tiers.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
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

 private:
  SimTime charge(std::uint64_t offset, std::uint64_t bytes);

  sim::Simulator& sim_;
  Config config_;
  MetricsRegistry metrics_;
  ZeroArena store_;
  SimTime next_free_ = 0;
  std::uint64_t head_pos_ = 0;  // byte offset just past the last I/O
};

// Extent allocator over one block device: power-of-two size classes from
// 512 B, a LIFO free list per class (a freed extent is the next one its
// class hands out, as Linux's swap slot cache recycles slots) and a bump
// cursor over fresh space. The top of the device can be set aside; fresh
// extents then stop below it.
class ExtentAllocator {
 public:
  explicit ExtentAllocator(std::uint64_t capacity_bytes)
      : limit_(capacity_bytes) {}

  // The class `size` rounds up to: the smallest power of two >= 512 B.
  static std::uint32_t size_class(std::uint32_t size) noexcept;

  StatusOr<std::uint64_t> allocate(std::uint32_t size);  // byte offset
  void release(std::uint64_t offset, std::uint32_t size);

  // Sets aside [from, capacity): no extent is handed out there from now
  // on. Fails if one already was.
  Status reserve_top(std::uint64_t from);

 private:
  std::uint64_t limit_;  // fresh extents end at or below this
  std::uint64_t cursor_ = 0;
  std::map<std::uint32_t, std::vector<std::uint64_t>> free_by_class_;
};

}  // namespace dm::storage
