// Metric arithmetic shared by the perfbench driver and its unit test.
//
// Three rules live here so they are tested rather than re-derived at each
// call site:
//  * a failed op counts as exceeding every latency limit, so a percentile
//    whose rank falls among the failures is unbounded;
//  * a ratio keeps its base, and a zero base reads 0 (the printed base
//    shows why);
//  * disaggregated-memory footprint charges what each entry actually holds:
//    stored bytes in the shared pool or on disk, and one hosting block per
//    live remote replica or stripe shard (parity included).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "mem/memory_map.h"
#include "net/rdma.h"

namespace perfbench {

// Latency samples of one op script: virtual ns of every op that succeeded,
// plus the number that failed.
class LatencySamples {
 public:
  void record(std::int64_t ns) { ok_.push_back(ns); sorted_ = false; }
  void record_failure() { ++failed_; }

  std::uint64_t ok() const noexcept { return ok_.size(); }
  std::uint64_t failed() const noexcept { return failed_; }
  std::uint64_t total() const noexcept { return ok_.size() + failed_; }

  // Nearest-rank percentile (q in (0, 1]) over all ops, failures included
  // as +infinity. Returns +infinity when the rank falls among the failures
  // and NaN when there are no ops at all.
  double percentile(double q) { return nearest_rank(total(), q); }

  // The same over the successful ops alone.
  double percentile_ok(double q) { return nearest_rank(ok(), q); }

 private:
  std::vector<std::int64_t> ok_;
  std::uint64_t failed_ = 0;
  bool sorted_ = true;

  // Ranks 1..ok() are the successful latencies in ascending order, ranks
  // above them failures.
  double nearest_rank(std::uint64_t n, double q) {
    if (n == 0) return std::numeric_limits<double>::quiet_NaN();
    const auto rank = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n))), 1,
        n);
    if (rank > ok_.size()) return std::numeric_limits<double>::infinity();
    if (!sorted_) {
      std::sort(ok_.begin(), ok_.end());
      sorted_ = true;
    }
    return static_cast<double>(ok_[rank - 1]);
  }
};

struct Ratio {
  double num = 0;
  double base = 0;
  double value() const noexcept { return base > 0 ? num / base : 0.0; }
};

// Bytes `location` holds in disaggregated memory. Remote replicas on nodes
// that are down hold nothing any more and are not charged.
inline std::uint64_t held_bytes(
    const dm::mem::EntryLocation& location,
    const std::function<bool(dm::net::NodeId)>& node_up) {
  if (location.tier != dm::mem::Tier::kRemote) return location.stored_size;
  std::uint64_t held = 0;
  for (const auto& replica : location.replicas)
    if (node_up(replica.node)) held += replica.block_size;
  return held;
}

// Footprint of one map: held bytes over every committed entry.
inline std::uint64_t held_bytes(
    const dm::mem::MemoryMap& map,
    const std::function<bool(dm::net::NodeId)>& node_up) {
  std::uint64_t held = 0;
  map.for_each([&](dm::mem::EntryId, const dm::mem::EntryLocation& location) {
    held += held_bytes(location, node_up);
  });
  return held;
}

}  // namespace perfbench
