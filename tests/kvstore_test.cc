// Tests for the key-value cache over disaggregated memory.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/status.h"
#include "common/units.h"
#include "core/dm_system.h"
#include "core/ldmc.h"
#include "kvstore/kv_store.h"
#include "workloads/page_content.h"

namespace dm::kv {
namespace {

struct KvRig {
  explicit KvRig(KvStore::Config config = {}) {
    core::DmSystem::Config cluster;
    cluster.node_count = 4;
    cluster.node.shm.arena_bytes = 8 * MiB;
    cluster.node.recv.arena_bytes = 8 * MiB;
    cluster.node.disk.capacity_bytes = 64 * MiB;
    cluster.service.rdmc.ec_r = 0;  // one copy
    system = std::make_unique<core::DmSystem>(cluster);
    system->start();
    client = &system->create_server(0, 64 * MiB);
    store = std::make_unique<KvStore>(*client, config);
  }
  std::unique_ptr<core::DmSystem> system;
  core::Ldmc* client = nullptr;
  std::unique_ptr<KvStore> store;
};

std::vector<std::byte> value_bytes(std::string_view text) {
  auto span = std::as_bytes(std::span(text.data(), text.size()));
  return {span.begin(), span.end()};
}

TEST(KvStoreTest, SetGetEraseRoundTrip) {
  KvRig rig;
  ASSERT_TRUE(rig.store->set("user:42", value_bytes("alice")).ok());
  auto got = rig.store->get("user:42");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, value_bytes("alice"));
  EXPECT_TRUE(rig.store->contains("user:42"));

  ASSERT_TRUE(rig.store->erase("user:42").ok());
  EXPECT_FALSE(rig.store->contains("user:42"));
  EXPECT_EQ(rig.store->get("user:42").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(rig.store->erase("user:42").code(), StatusCode::kNotFound);
}

TEST(KvStoreTest, SetReplacesValue) {
  KvRig rig;
  ASSERT_TRUE(rig.store->set("k", value_bytes("one")).ok());
  ASSERT_TRUE(rig.store->set("k", value_bytes("two")).ok());
  auto got = rig.store->get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, value_bytes("two"));
  EXPECT_EQ(rig.store->hot_entries(), 1u);
}

TEST(KvStoreTest, OverflowParksValuesInDisaggregatedMemory) {
  KvStore::Config config;
  config.hot_bytes = 16 * KiB;
  KvRig rig(config);

  // 16 x 4 KiB values: only 4 fit hot; the rest go to DM.
  std::vector<std::byte> page(4096);
  for (int i = 0; i < 16; ++i) {
    workloads::fill_page(page, i, 0.3, 9);
    ASSERT_TRUE(rig.store->set("key" + std::to_string(i), page).ok());
  }
  EXPECT_LE(rig.store->hot_bytes_used(), 16 * KiB);
  EXPECT_GT(rig.store->overflow_entries(), 0u);
  EXPECT_GT(rig.store->metrics().counter_value("kv.overflow_stores"), 0u);

  // Every value is still retrievable and intact.
  for (int i = 0; i < 16; ++i) {
    workloads::fill_page(page, i, 0.3, 9);
    auto got = rig.store->get("key" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << i;
    ASSERT_EQ(*got, page) << i;
  }
  EXPECT_GT(rig.store->metrics().counter_value("kv.dm_hits"), 0u);
}

TEST(KvStoreTest, DisaggregationDisabledDropsOverflow) {
  KvStore::Config config;
  config.hot_bytes = 8 * KiB;
  config.use_disaggregated_memory = false;
  KvRig rig(config);
  std::vector<std::byte> page(4096);
  for (int i = 0; i < 8; ++i) {
    workloads::fill_page(page, i, 0.3, 9);
    ASSERT_TRUE(rig.store->set("key" + std::to_string(i), page).ok());
  }
  EXPECT_EQ(rig.store->overflow_entries(), 0u);
  EXPECT_GT(rig.store->metrics().counter_value("kv.overflow_drops"), 0u);
  // The oldest keys are simply gone (the app would re-fetch from its DB).
  EXPECT_EQ(rig.store->get("key0").status().code(), StatusCode::kNotFound);
  // The newest are still hot.
  EXPECT_TRUE(rig.store->get("key7").ok());
}

TEST(KvStoreTest, PromotionBringsValueBackHot) {
  KvStore::Config config;
  config.hot_bytes = 8 * KiB;
  KvRig rig(config);
  std::vector<std::byte> page(4096);
  for (int i = 0; i < 4; ++i) {
    workloads::fill_page(page, i, 0.3, 9);
    ASSERT_TRUE(rig.store->set("key" + std::to_string(i), page).ok());
  }
  const auto overflow_before = rig.store->overflow_entries();
  ASSERT_GT(overflow_before, 0u);
  ASSERT_TRUE(rig.store->get("key0").ok());  // DM hit
  EXPECT_EQ(rig.store->metrics().counter_value("kv.promotions"), 1u);
  EXPECT_LT(rig.store->overflow_entries(), overflow_before + 1);
  // Second get is a hot hit.
  const auto hot_hits = rig.store->metrics().counter_value("kv.hot_hits");
  ASSERT_TRUE(rig.store->get("key0").ok());
  EXPECT_EQ(rig.store->metrics().counter_value("kv.hot_hits"), hot_hits + 1);
}

TEST(KvStoreTest, HotHitsCheaperThanDmHits) {
  KvStore::Config config;
  config.hot_bytes = 8 * KiB;
  KvRig rig(config);
  std::vector<std::byte> page(4096);
  for (int i = 0; i < 4; ++i) {
    workloads::fill_page(page, i, 0.3, 9);
    ASSERT_TRUE(rig.store->set("key" + std::to_string(i), page).ok());
  }
  auto& sim = rig.system->simulator();
  SimTime t0 = sim.now();
  ASSERT_TRUE(rig.store->get("key3").ok());  // hot
  const SimTime hot_cost = sim.now() - t0;
  t0 = sim.now();
  ASSERT_TRUE(rig.store->get("key0").ok());  // DM tier
  const SimTime dm_cost = sim.now() - t0;
  EXPECT_LT(hot_cost, dm_cost);
}

TEST(KvStoreTest, OversizedValueRejected) {
  KvRig rig;
  std::vector<std::byte> huge(70 * KiB);
  EXPECT_EQ(rig.store->set("big", huge).code(), StatusCode::kInvalidArgument);
}

TEST(KvStoreTest, RandomChurnPreservesConsistency) {
  KvStore::Config config;
  config.hot_bytes = 32 * KiB;
  KvRig rig(config);
  Rng rng(808);
  // Reference model: key -> value seed (or absent).
  std::unordered_map<int, std::uint64_t> reference;
  std::vector<std::byte> page(4096);
  for (int step = 0; step < 800; ++step) {
    const int k = static_cast<int>(rng.next_below(40));
    const std::string key = "k" + std::to_string(k);
    switch (rng.next_below(3)) {
      case 0: {  // set
        const std::uint64_t seed = rng.next_u64();
        workloads::fill_page(page, k, 0.4, seed);
        ASSERT_TRUE(rig.store->set(key, page).ok());
        reference[k] = seed;
        break;
      }
      case 1: {  // get
        auto got = rig.store->get(key);
        auto ref = reference.find(k);
        if (ref == reference.end()) {
          ASSERT_FALSE(got.ok());
        } else {
          ASSERT_TRUE(got.ok()) << key;
          workloads::fill_page(page, k, 0.4, ref->second);
          ASSERT_EQ(*got, page) << key;
        }
        break;
      }
      case 2: {  // erase
        const bool existed = reference.erase(k) > 0;
        ASSERT_EQ(rig.store->erase(key).ok(), existed);
        break;
      }
    }
  }
}

}  // namespace
}  // namespace dm::kv
