// Tests for the mini-Spark RDD layer and DAHI off-heap caching.
#include <gtest/gtest.h>

#include "common/units.h"
#include "core/dm_system.h"
#include "core/ldmc.h"
#include "core/node_service.h"
#include "rddcache/mini_spark.h"

namespace dm::rdd {
namespace {

core::DmSystem::Config cluster_config() {
  core::DmSystem::Config config;
  config.node_count = 4;
  config.node.shm.arena_bytes = 16 * MiB;
  config.node.recv.arena_bytes = 16 * MiB;
  config.node.disk.capacity_bytes = 128 * MiB;
  config.service.rdmc.ec_r = 0;  // one copy
  return config;
}

RddPtr make_dataset(std::size_t partitions, std::size_t records) {
  return Rdd::source("dataset", partitions, records,
                     [](std::size_t p, std::size_t i) {
                       return static_cast<Record>(p * 1000003 + i);
                     });
}

Record expected_sum(std::size_t partitions, std::size_t records,
                    auto transform) {
  Record total = 0;
  for (std::size_t p = 0; p < partitions; ++p)
    for (std::size_t i = 0; i < records; ++i)
      total += transform(static_cast<Record>(p * 1000003 + i));
  return total;
}

TEST(RddTest, LineageComputesCorrectValues) {
  auto rdd = make_dataset(4, 100)
                 ->map("double", [](Record r) { return r * 2; })
                 ->filter("even-ish", [](Record r) { return r % 3 != 0; });
  std::uint64_t ops = 0;
  auto records = rdd->compute(2, &ops);
  EXPECT_GT(ops, 0u);
  for (Record r : records) {
    EXPECT_EQ(r % 2, 0);
    EXPECT_NE(r % 3, 0);
  }
}

TEST(RddTest, IdsAreUniqueAndKindsTracked) {
  auto a = make_dataset(1, 1);
  auto b = a->map("m", [](Record r) { return r; });
  auto c = b->filter("f", [](Record) { return true; });
  EXPECT_NE(a->id(), b->id());
  EXPECT_NE(b->id(), c->id());
  EXPECT_EQ(a->kind(), Rdd::Kind::kSource);
  EXPECT_EQ(b->kind(), Rdd::Kind::kMap);
  EXPECT_EQ(c->kind(), Rdd::Kind::kFilter);
  EXPECT_EQ(c->parent(), b);
}

TEST(MiniSparkTest, SumActionCorrect) {
  core::DmSystem system(cluster_config());
  system.start();
  MiniSpark spark(system, {});
  auto rdd = make_dataset(8, 500);
  auto total = spark.sum(rdd);
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(*total, expected_sum(8, 500, [](Record r) { return r; }));
}

TEST(MiniSparkTest, CachedRddHitsOnSecondAction) {
  core::DmSystem system(cluster_config());
  system.start();
  MiniSpark::Config config;
  config.executor.cache_bytes = 64 * MiB;  // everything fits
  MiniSpark spark(system, config);
  auto rdd = make_dataset(8, 500);
  rdd->cache();
  ASSERT_TRUE(spark.sum(rdd).ok());
  EXPECT_EQ(spark.total_hits(), 0u);
  ASSERT_TRUE(spark.sum(rdd).ok());
  EXPECT_EQ(spark.total_hits(), 8u);
  EXPECT_EQ(spark.total_recomputes(), 0u);
}

TEST(MiniSparkTest, VanillaRecomputesOnOverflow) {
  core::DmSystem system(cluster_config());
  system.start();
  MiniSpark::Config config;
  config.executors = 2;
  // Partition = 4000 records * 8B = 32 KB; budget holds only 2 partitions.
  config.executor.cache_bytes = 64 * KiB;
  config.executor.overflow = OverflowPolicy::kRecompute;
  MiniSpark spark(system, config);
  auto rdd = make_dataset(16, 4000);
  rdd->cache();
  ASSERT_TRUE(spark.sum(rdd).ok());
  ASSERT_TRUE(spark.sum(rdd).ok());
  EXPECT_GT(spark.total_recomputes(), 0u);
  EXPECT_EQ(spark.total_offheap_fetches(), 0u);
}

TEST(MiniSparkTest, DahiServesOverflowOffHeap) {
  core::DmSystem system(cluster_config());
  system.start();
  MiniSpark::Config config;
  config.executors = 2;
  config.executor.cache_bytes = 64 * KiB;
  config.executor.overflow = OverflowPolicy::kDahi;
  MiniSpark spark(system, config);
  auto rdd = make_dataset(16, 4000);
  rdd->cache();
  auto first = spark.sum(rdd);
  ASSERT_TRUE(first.ok());
  auto second = spark.sum(rdd);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);  // off-heap copies are intact
  EXPECT_GT(spark.total_offheap_fetches(), 0u);
  EXPECT_EQ(spark.total_recomputes(), 0u);
}

// Vanilla Spark's MEMORY_AND_DISK: DAHI's off-heap path over a disk-only
// LDMC, so every overflow partition lands on the node's disk.
core::LdmcOptions disk_only() {
  core::LdmcOptions options;
  options.shm_fraction = 0.0;
  options.allow_remote = false;
  return options;
}

// The executors' disk puts, checking that none went anywhere else.
std::uint64_t puts_to_disk(MiniSpark& spark) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < spark.executor_count(); ++i) {
    const core::Ldmc& client = spark.executor(i).client();
    EXPECT_EQ(client.puts_to_shm(), 0u);
    EXPECT_EQ(client.puts_to_remote(), 0u);
    total += client.puts_to_disk();
  }
  return total;
}

TEST(MiniSparkTest, SpillDiskServesOverflowCorrectly) {
  core::DmSystem system(cluster_config());
  system.start();
  MiniSpark::Config config;
  config.executors = 2;
  config.executor.cache_bytes = 64 * KiB;
  config.executor.overflow = OverflowPolicy::kDahi;
  config.ldmc = disk_only();
  MiniSpark spark(system, config);
  auto rdd = make_dataset(16, 4000);
  rdd->cache();
  auto first = spark.sum(rdd);
  auto second = spark.sum(rdd);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
  EXPECT_GT(spark.total_offheap_fetches(), 0u);
  EXPECT_GT(puts_to_disk(spark), 0u);
}

// Two executors per node share that node's disk: their spilled partitions
// must not overwrite each other.
TEST(MiniSparkTest, ExecutorsSharingADiskSpillIntact) {
  core::DmSystem system(cluster_config());
  system.start();
  MiniSpark::Config config;
  config.executors = 8;  // on 4 nodes
  config.executor.cache_bytes = 64 * KiB;
  config.executor.overflow = OverflowPolicy::kDahi;
  config.ldmc = disk_only();
  MiniSpark spark(system, config);
  auto rdd = make_dataset(32, 4000);
  rdd->cache();
  const Record expected = expected_sum(32, 4000, [](Record r) { return r; });
  auto first = spark.sum(rdd);
  auto second = spark.sum(rdd);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, expected);
  EXPECT_EQ(*second, expected);
  EXPECT_GT(spark.total_offheap_fetches(), 0u);
  EXPECT_GT(puts_to_disk(spark), 0u);
}

TEST(MiniSparkTest, DahiFasterThanRecomputeOnReuse) {
  auto run = [](OverflowPolicy policy) {
    core::DmSystem system(cluster_config());
    system.start();
    MiniSpark::Config config;
    config.executors = 2;
    config.executor.cache_bytes = 64 * KiB;
    config.executor.overflow = policy;
    MiniSpark spark(system, config);
    // Expensive lineage: map chain amplifies recompute cost.
    auto rdd = make_dataset(16, 4000);
    auto derived = rdd->map("m1", [](Record r) { return r * 3 + 1; })
                       ->map("m2", [](Record r) { return r ^ 0x5a5a; });
    derived->cache();
    auto& sim = system.simulator();
    EXPECT_TRUE(spark.sum(derived).ok());
    const SimTime start = sim.now();
    for (int iter = 0; iter < 4; ++iter) EXPECT_TRUE(spark.sum(derived).ok());
    return sim.now() - start;
  };
  const SimTime dahi = run(OverflowPolicy::kDahi);
  const SimTime vanilla = run(OverflowPolicy::kRecompute);
  EXPECT_LT(dahi, vanilla);
}

TEST(MiniSparkTest, CountAction) {
  core::DmSystem system(cluster_config());
  system.start();
  MiniSpark spark(system, {});
  auto rdd = make_dataset(4, 250)->filter(
      "half", [](Record r) { return r % 2 == 0; });
  auto count = spark.count(rdd);
  ASSERT_TRUE(count.ok());
  // Records are p*1000003 + i with i in [0,250): exactly half even per
  // partition parity pattern — verify against direct computation.
  std::uint64_t expected = 0;
  for (std::size_t p = 0; p < 4; ++p)
    for (std::size_t i = 0; i < 250; ++i)
      if ((static_cast<Record>(p * 1000003 + i)) % 2 == 0) ++expected;
  EXPECT_EQ(*count, expected);
}

TEST(MiniSparkTest, ReduceByKeyCorrectness) {
  core::DmSystem system(cluster_config());
  system.start();
  MiniSpark spark(system, {});

  // Records p*1000003 + i; key by value mod 7; sum per key.
  auto rdd = make_dataset(6, 300);
  auto reduced = spark.reduce_by_key(
      rdd, [](Record r) { return static_cast<std::uint64_t>(r % 7); },
      [](Record a, Record b) { return a + b; }, 4);
  ASSERT_TRUE(reduced.ok());
  EXPECT_EQ((*reduced)->partitions(), 4u);

  // The sum over reduced records equals the sum over the input.
  auto reduced_total = spark.sum(*reduced);
  auto input_total = spark.sum(rdd);
  ASSERT_TRUE(reduced_total.ok());
  ASSERT_TRUE(input_total.ok());
  EXPECT_EQ(*reduced_total, *input_total);

  // Exactly 7 keys survive across all output partitions.
  auto key_count = spark.count(*reduced);
  ASSERT_TRUE(key_count.ok());
  EXPECT_EQ(*key_count, 7u);
}

TEST(MiniSparkTest, ReduceByKeyUsesCachedParents) {
  core::DmSystem system(cluster_config());
  system.start();
  MiniSpark::Config config;
  config.executors = 2;
  config.executor.cache_bytes = 64 * KiB;
  config.executor.overflow = OverflowPolicy::kDahi;
  MiniSpark spark(system, config);

  auto rdd = make_dataset(16, 4000);
  rdd->cache();
  ASSERT_TRUE(spark.sum(rdd).ok());  // materialize + cache/overflow

  const auto fetches_before = spark.total_offheap_fetches();
  auto reduced = spark.reduce_by_key(
      rdd, [](Record r) { return static_cast<std::uint64_t>(r & 0xf); },
      [](Record a, Record b) { return std::max(a, b); }, 2);
  ASSERT_TRUE(reduced.ok());
  // The shuffle's map side read overflowed parents from DAHI, not lineage.
  EXPECT_GT(spark.total_offheap_fetches(), fetches_before);
  EXPECT_EQ(spark.total_recomputes(), 0u);
}

TEST(MiniSparkTest, ShuffleOutputIsCacheableRdd) {
  core::DmSystem system(cluster_config());
  system.start();
  MiniSpark spark(system, {});
  auto rdd = make_dataset(4, 200);
  auto reduced = spark.reduce_by_key(
      rdd, [](Record r) { return static_cast<std::uint64_t>(r % 32); },
      [](Record a, Record b) { return a + b; }, 3);
  ASSERT_TRUE(reduced.ok());
  (*reduced)->cache();
  auto first = spark.sum(*reduced);
  auto second = spark.sum(*reduced);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
  EXPECT_GT(spark.total_hits(), 0u);
}

TEST(MiniSparkTest, JoinMatchesReferenceComputation) {
  core::DmSystem system(cluster_config());
  system.start();
  MiniSpark spark(system, {});

  // left: records 0..199 per partition base; right: multiples of 3.
  auto left = Rdd::source("users", 4, 200, [](std::size_t p, std::size_t i) {
    return static_cast<Record>(p * 1000 + i);
  });
  auto right = Rdd::source("orders", 3, 150, [](std::size_t p, std::size_t i) {
    return static_cast<Record>((p * 150 + i) * 3);
  });
  auto key_mod = [](Record r) { return static_cast<std::uint64_t>(r % 97); };
  auto joined = spark.join(
      left, right, key_mod, key_mod,
      [](Record l, Record r) { return l * 100000 + r; }, 4);
  ASSERT_TRUE(joined.ok());

  // Reference: brute-force nested loop.
  std::uint64_t expect_count = 0;
  Record expect_sum = 0;
  for (std::size_t lp = 0; lp < 4; ++lp) {
    for (std::size_t li = 0; li < 200; ++li) {
      const Record l = static_cast<Record>(lp * 1000 + li);
      for (std::size_t rp = 0; rp < 3; ++rp) {
        for (std::size_t ri = 0; ri < 150; ++ri) {
          const Record r = static_cast<Record>((rp * 150 + ri) * 3);
          if (l % 97 == r % 97) {
            ++expect_count;
            expect_sum += l * 100000 + r;
          }
        }
      }
    }
  }
  auto count = spark.count(*joined);
  auto sum = spark.sum(*joined);
  ASSERT_TRUE(count.ok());
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*count, expect_count);
  EXPECT_EQ(*sum, expect_sum);
}

TEST(MiniSparkTest, JoinWithNoMatchingKeysIsEmpty) {
  core::DmSystem system(cluster_config());
  system.start();
  MiniSpark spark(system, {});
  auto evens = Rdd::source("evens", 2, 50, [](std::size_t p, std::size_t i) {
    return static_cast<Record>((p * 50 + i) * 2);
  });
  auto odds = Rdd::source("odds", 2, 50, [](std::size_t p, std::size_t i) {
    return static_cast<Record>((p * 50 + i) * 2 + 1);
  });
  auto identity = [](Record r) { return static_cast<std::uint64_t>(r); };
  auto joined = spark.join(evens, odds, identity, identity,
                           [](Record l, Record) { return l; }, 2);
  ASSERT_TRUE(joined.ok());
  auto count = spark.count(*joined);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 0u);
}

TEST(MiniSparkTest, ExecutorsSpreadAcrossNodes) {
  core::DmSystem system(cluster_config());
  system.start();
  MiniSpark::Config config;
  config.executors = 8;
  MiniSpark spark(system, config);
  std::set<net::NodeId> hosts;
  for (std::size_t i = 0; i < spark.executor_count(); ++i)
    hosts.insert(spark.executor(i).client().service().node().id());
  EXPECT_EQ(hosts.size(), 4u);
}

}  // namespace
}  // namespace dm::rdd
