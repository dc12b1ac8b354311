// Mini-Spark driver: executors over a DmSystem cluster, actions over RDDs.
//
// The driver plays the Spark master: it distributes an RDD's partitions
// round-robin over the executors and runs actions partition-by-partition.
// (Executors on distinct nodes would overlap in wall-clock time on a real
// cluster; the simulation serializes them, which scales every configuration
// by the same factor and therefore preserves the vanilla-vs-DAHI speedups
// that Fig 10 reports.)
//
// The two configurations of §V.B:
//   vanilla Spark — OverflowPolicy::kRecompute (MEMORY_ONLY), or kDahi
//                   with a disk-only `ldmc` (shm_fraction = 0,
//                   allow_remote = false: MEMORY_AND_DISK, spilling to
//                   the executor node's disk),
//   DAHI          — OverflowPolicy::kDahi: overflow partitions are cached
//                   off-heap in disaggregated memory instead of dropped.
#pragma once

#include <memory>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "core/dm_system.h"
#include "core/node_service.h"
#include "rddcache/executor.h"

namespace dm::rdd {

class MiniSpark {
 public:
  struct Config {
    std::size_t executors = 4;
    Executor::Config executor{};
    core::LdmcOptions ldmc{};
  };

  // Places executors round-robin across the system's nodes.
  MiniSpark(core::DmSystem& system, Config config);

  std::size_t executor_count() const noexcept { return executors_.size(); }
  Executor& executor(std::size_t index) { return *executors_.at(index); }

  // Actions (each visits every partition once and charges scan time).
  StatusOr<Record> sum(const RddPtr& rdd);
  StatusOr<std::uint64_t> count(const RddPtr& rdd);

  // Wide transformation: groups records by key(record), reduces values per
  // key with `reduce`, and hash-partitions the result into `out_partitions`
  // partitions. This is a Spark stage boundary: every parent partition is
  // materialized (through the executor caches — where DAHI earns its keep),
  // shuffled over the fabric-equivalent cost model, and the reduced output
  // comes back as a materialized RDD. Keys become records via
  // key + reduced-value packing chosen by the caller's reduce function
  // domain; we keep (key, value) pairs as two records folded by `combine`.
  StatusOr<RddPtr> reduce_by_key(
      const RddPtr& rdd, const std::function<std::uint64_t(Record)>& key,
      const std::function<Record(Record, Record)>& reduce,
      std::size_t out_partitions);

  // Wide transformation: inner hash join. Records of `left` and `right`
  // are keyed by the respective key functions; for every key present on
  // both sides, combine(l, r) is emitted for each matching pair. Same
  // stage-boundary cost model as reduce_by_key.
  StatusOr<RddPtr> join(
      const RddPtr& left, const RddPtr& right,
      const std::function<std::uint64_t(Record)>& left_key,
      const std::function<std::uint64_t(Record)>& right_key,
      const std::function<Record(Record, Record)>& combine,
      std::size_t out_partitions);

  // Aggregated executor statistics.
  std::uint64_t total_hits() const;
  std::uint64_t total_recomputes() const;
  std::uint64_t total_offheap_fetches() const;

 private:
  Executor& executor_for(std::size_t partition) {
    return *executors_[partition % executors_.size()];
  }

  core::DmSystem& system_;
  Config config_;
  std::vector<std::unique_ptr<Executor>> executors_;
};

}  // namespace dm::rdd
