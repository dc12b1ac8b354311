#include "rddcache/mini_spark.h"

#include <algorithm>
#include <unordered_map>

#include "common/status.h"
#include "common/units.h"
#include "core/dm_system.h"

namespace dm::rdd {
namespace {

// Executor virtual-server memory allocation registered with its node.
constexpr std::uint64_t kExecutorMemory = 64 * MiB;
// Action scan cost per record.
constexpr SimTime kCpuNsPerRecordScan = 12;
// Shuffle cost per record moved between stages (serialization + network),
// charged at the stage boundary.
constexpr SimTime kShuffleNsPerRecord = 25;

}  // namespace

MiniSpark::MiniSpark(core::DmSystem& system, Config config)
    : system_(system), config_(std::move(config)) {
  for (std::size_t i = 0; i < config_.executors; ++i) {
    const std::size_t node = i % system_.node_count();
    auto& client =
        system_.create_server(node, kExecutorMemory, config_.ldmc,
                              cluster::ServerKind::kJvmExecutor);
    executors_.push_back(
        std::make_unique<Executor>(client, config_.executor));
  }
}

StatusOr<Record> MiniSpark::sum(const RddPtr& rdd) {
  Record total = 0;
  auto& sim = system_.simulator();
  for (std::size_t p = 0; p < rdd->partitions(); ++p) {
    Executor& exec = executor_for(p);
    auto records = exec.get_partition(rdd, p);
    if (!records.ok()) return records.status();
    for (Record r : *records) total += r;
    sim.run_until(sim.now() + static_cast<SimTime>(records->size()) *
                                  kCpuNsPerRecordScan);
  }
  return total;
}

StatusOr<std::uint64_t> MiniSpark::count(const RddPtr& rdd) {
  std::uint64_t total = 0;
  auto& sim = system_.simulator();
  for (std::size_t p = 0; p < rdd->partitions(); ++p) {
    Executor& exec = executor_for(p);
    auto records = exec.get_partition(rdd, p);
    if (!records.ok()) return records.status();
    total += records->size();
    sim.run_until(sim.now() + static_cast<SimTime>(records->size()) *
                                  kCpuNsPerRecordScan);
  }
  return total;
}

StatusOr<RddPtr> MiniSpark::reduce_by_key(
    const RddPtr& rdd, const std::function<std::uint64_t(Record)>& key,
    const std::function<Record(Record, Record)>& reduce,
    std::size_t out_partitions) {
  auto& sim = system_.simulator();
  // Map side: materialize every parent partition (cache-aware) and bucket
  // records by target partition, combining per key as Spark's map-side
  // combiner does.
  std::vector<std::unordered_map<std::uint64_t, Record>> buckets(
      out_partitions);
  std::uint64_t shuffled_records = 0;
  for (std::size_t p = 0; p < rdd->partitions(); ++p) {
    Executor& exec = executor_for(p);
    auto records = exec.get_partition(rdd, p);
    if (!records.ok()) return records.status();
    for (Record r : *records) {
      const std::uint64_t k = key(r);
      auto& bucket = buckets[k % out_partitions];
      auto [it, inserted] = bucket.try_emplace(k, r);
      if (!inserted) it->second = reduce(it->second, r);
      ++shuffled_records;
    }
  }
  // Stage boundary: charge the shuffle transfer.
  sim.run_until(sim.now() + static_cast<SimTime>(shuffled_records) *
                                kShuffleNsPerRecord);
  // Reduce side: deterministic order within each output partition.
  std::vector<std::vector<Record>> output(out_partitions);
  for (std::size_t p = 0; p < out_partitions; ++p) {
    std::vector<std::pair<std::uint64_t, Record>> sorted(buckets[p].begin(),
                                                         buckets[p].end());
    std::sort(sorted.begin(), sorted.end());
    output[p].reserve(sorted.size());
    for (const auto& [k, v] : sorted) output[p].push_back(v);
  }
  return Rdd::materialized(rdd->name() + ".reduced", std::move(output));
}

StatusOr<RddPtr> MiniSpark::join(
    const RddPtr& left, const RddPtr& right,
    const std::function<std::uint64_t(Record)>& left_key,
    const std::function<std::uint64_t(Record)>& right_key,
    const std::function<Record(Record, Record)>& combine,
    std::size_t out_partitions) {
  auto& sim = system_.simulator();
  // Map side of both inputs: bucket records by key into the target
  // partition space (cache-aware partition materialization).
  using Bucket = std::unordered_map<std::uint64_t, std::vector<Record>>;
  std::vector<Bucket> left_buckets(out_partitions);
  std::vector<Bucket> right_buckets(out_partitions);
  std::uint64_t shuffled_records = 0;

  auto scatter = [&](const RddPtr& rdd,
                     const std::function<std::uint64_t(Record)>& key,
                     std::vector<Bucket>& buckets) -> Status {
    for (std::size_t p = 0; p < rdd->partitions(); ++p) {
      Executor& exec = executor_for(p);
      auto records = exec.get_partition(rdd, p);
      if (!records.ok()) return records.status();
      for (Record r : *records) {
        const std::uint64_t k = key(r);
        buckets[k % out_partitions][k].push_back(r);
        ++shuffled_records;
      }
    }
    return Status::Ok();
  };
  DM_RETURN_IF_ERROR(scatter(left, left_key, left_buckets));
  DM_RETURN_IF_ERROR(scatter(right, right_key, right_buckets));
  sim.run_until(sim.now() + static_cast<SimTime>(shuffled_records) *
                                kShuffleNsPerRecord);

  // Reduce side: per output partition, deterministic key order, cross
  // product per key.
  std::vector<std::vector<Record>> output(out_partitions);
  for (std::size_t p = 0; p < out_partitions; ++p) {
    std::vector<std::uint64_t> keys;
    keys.reserve(left_buckets[p].size());
    for (const auto& [k, records] : left_buckets[p]) {
      if (right_buckets[p].count(k) > 0) keys.push_back(k);
    }
    std::sort(keys.begin(), keys.end());
    for (std::uint64_t k : keys) {
      for (Record l : left_buckets[p][k])
        for (Record r : right_buckets[p][k])
          output[p].push_back(combine(l, r));
    }
  }
  return Rdd::materialized(left->name() + "*" + right->name(),
                           std::move(output));
}

std::uint64_t MiniSpark::total_hits() const {
  std::uint64_t total = 0;
  for (const auto& exec : executors_) total += exec->cache_hits();
  return total;
}

std::uint64_t MiniSpark::total_recomputes() const {
  std::uint64_t total = 0;
  for (const auto& exec : executors_) total += exec->recomputes();
  return total;
}

std::uint64_t MiniSpark::total_offheap_fetches() const {
  std::uint64_t total = 0;
  for (const auto& exec : executors_) total += exec->offheap_fetches();
  return total;
}

}  // namespace dm::rdd
