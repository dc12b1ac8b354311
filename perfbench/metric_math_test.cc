// Unit tests of the benchmark's metric arithmetic (metric_math.h).
//
//   cmake --build .bench_build --target perfbench_metric_test
//   .bench_build/perfbench_metric_test
#include "metric_math.h"

#include <gtest/gtest.h>

#include <cmath>

namespace {

using dm::mem::EntryLocation;
using dm::mem::RemoteReplica;
using dm::mem::Tier;
using perfbench::LatencySamples;
using perfbench::Ratio;

TEST(Percentile, NearestRankOverSuccessfulOps) {
  LatencySamples s;
  for (int i = 100; i >= 1; --i) s.record(i);
  EXPECT_EQ(s.percentile(0.50), 50);
  EXPECT_EQ(s.percentile(0.99), 99);
  EXPECT_EQ(s.percentile(0.999), 100);
  EXPECT_EQ(s.percentile(1.0), 100);
}

TEST(Percentile, FailedOpsCountAsUnbounded) {
  LatencySamples s;
  for (int i = 1; i <= 998; ++i) s.record(i);
  s.record_failure();
  s.record_failure();
  EXPECT_EQ(s.total(), 1000u);
  // Rank 990 of 1000 is still a successful op...
  EXPECT_EQ(s.percentile(0.99), 990);
  // ...rank 999 falls among the two failures.
  EXPECT_TRUE(std::isinf(s.percentile(0.999)));
  EXPECT_GT(s.percentile(0.999), 0);
  // Over the successful ops alone the tail stays finite.
  EXPECT_EQ(s.percentile_ok(0.999), 998);
}

TEST(Percentile, FailuresRaiseLowerPercentilesToo) {
  // Failures shift every rank: with half the ops failed, p50 is the
  // largest successful latency and p51 is unbounded.
  LatencySamples s;
  for (int i = 1; i <= 50; ++i) s.record(i);
  for (int i = 0; i < 50; ++i) s.record_failure();
  EXPECT_EQ(s.percentile(0.50), 50);
  EXPECT_TRUE(std::isinf(s.percentile(0.51)));
}

TEST(Percentile, AllFailedIsUnboundedAndEmptyIsUndefined) {
  LatencySamples failed;
  failed.record_failure();
  EXPECT_TRUE(std::isinf(failed.percentile(0.5)));
  EXPECT_TRUE(std::isnan(failed.percentile_ok(0.5)));
  LatencySamples empty;
  EXPECT_TRUE(std::isnan(empty.percentile(0.5)));
}

TEST(Ratio, ZeroBaseReadsZeroAndKeepsItsBase) {
  Ratio none{0, 0};
  EXPECT_EQ(none.value(), 0.0);
  Ratio failures{3, 0};  // a numerator without a base still reads 0
  EXPECT_EQ(failures.value(), 0.0);
  EXPECT_EQ(failures.num, 3);
  Ratio half{1, 2};
  EXPECT_DOUBLE_EQ(half.value(), 0.5);
}

bool all_up(dm::net::NodeId) { return true; }

RemoteReplica replica(dm::net::NodeId node, std::uint32_t block,
                      std::uint32_t shard = 0) {
  RemoteReplica r;
  r.node = node;
  r.block_size = block;
  r.shard = shard;
  return r;
}

TEST(Footprint, SharedPoolEntryHoldsItsStoredBytes) {
  EntryLocation loc;
  loc.tier = Tier::kSharedMemory;
  loc.logical_size = 32768;
  loc.stored_size = 7000;
  EXPECT_EQ(perfbench::held_bytes(loc, all_up), 7000u);
}

TEST(Footprint, DiskEntryHoldsItsStoredBytes) {
  EntryLocation loc;
  loc.tier = Tier::kDisk;
  loc.logical_size = 32768;
  loc.stored_size = 32768;
  loc.disk_offset = 1 << 20;
  EXPECT_EQ(perfbench::held_bytes(loc, all_up), 32768u);
}

TEST(Footprint, ReplicatedEntryChargesEveryCopysBlock) {
  EntryLocation loc;
  loc.tier = Tier::kRemote;
  loc.logical_size = 4096;
  loc.stored_size = 3000;
  loc.replicas = {replica(1, 4096), replica(2, 4096)};
  // Two whole copies, each in a 4 KiB size-class block.
  EXPECT_EQ(perfbench::held_bytes(loc, all_up), 8192u);
}

TEST(Footprint, StripedEntryChargesDataAndParityShards) {
  EntryLocation loc;
  loc.tier = Tier::kRemote;
  loc.logical_size = 32768;
  loc.stored_size = 16384;
  loc.ec_k = 4;
  loc.ec_r = 2;
  for (std::uint32_t shard = 0; shard < 6; ++shard)
    loc.replicas.push_back(replica(shard + 1, 4096, shard));
  // RS(4,2): 4 data + 2 parity shards of 4 KiB = 1.5x the stored bytes.
  EXPECT_EQ(perfbench::held_bytes(loc, all_up), 6u * 4096);
}

TEST(Footprint, ShardsOnDownNodesAreNotCharged) {
  EntryLocation loc;
  loc.tier = Tier::kRemote;
  loc.ec_k = 4;
  loc.ec_r = 2;
  for (std::uint32_t shard = 0; shard < 6; ++shard)
    loc.replicas.push_back(replica(shard + 1, 1024, shard));
  const auto node_3_down = [](dm::net::NodeId node) { return node != 3; };
  EXPECT_EQ(perfbench::held_bytes(loc, node_3_down), 5u * 1024);
}

TEST(Footprint, MapSumsEveryEntryShape) {
  dm::mem::MemoryMap map;
  EntryLocation shm;
  shm.tier = Tier::kSharedMemory;
  shm.stored_size = 100;
  EntryLocation disk;
  disk.tier = Tier::kDisk;
  disk.stored_size = 200;
  EntryLocation striped;
  striped.tier = Tier::kRemote;
  striped.ec_k = 2;
  striped.ec_r = 1;
  striped.replicas = {replica(1, 512, 0), replica(2, 512, 1),
                      replica(3, 512, 2)};
  map.commit(1, shm);
  map.commit(2, disk);
  map.commit(3, striped);
  EXPECT_EQ(perfbench::held_bytes(map, all_up), 100u + 200u + 3u * 512);
}

}  // namespace
