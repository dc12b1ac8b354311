// Tests for the workload layer: content generation, the Table 1 catalog,
// and the trace drivers.
#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/rng.h"
#include "compress/lz.h"
#include "core/dm_system.h"
#include "swap/swap_manager.h"
#include "swap/systems.h"
#include "workloads/app_catalog.h"
#include "workloads/driver.h"
#include "workloads/page_content.h"

namespace dm::workloads {
namespace {

TEST(PageContentTest, DeterministicPerPageAndSeed) {
  std::vector<std::byte> a(4096), b(4096), c(4096), d(4096);
  fill_page(a, 5, 0.3, 1);
  fill_page(b, 5, 0.3, 1);
  fill_page(c, 6, 0.3, 1);
  fill_page(d, 5, 0.3, 2);
  EXPECT_EQ(a, b);
  EXPECT_NE(fnv1a(a), fnv1a(c));
  EXPECT_NE(fnv1a(a), fnv1a(d));
}

TEST(PageContentTest, RandomFractionControlsCompressedSize) {
  std::size_t previous = 0;
  for (double r : {0.1, 0.4, 0.8}) {
    std::vector<std::byte> page(4096);
    std::size_t total = 0;
    for (std::uint64_t id = 0; id < 16; ++id) {
      fill_page(page, id, r, 3);
      total += compress::lz_compress(page).size();
    }
    EXPECT_GT(total, previous);
    previous = total;
  }
}

// Pins the generator's bytes, which every page the simulator stores is
// made of: every catalog app plus both extremes, at sizes that end inside
// and on a 64-byte run and on and past a page.
TEST(PageContentTest, FillPageMatchesGolden) {
  std::vector<double> fractions{0.0, 1.0};
  for (const auto& app : app_catalog()) fractions.push_back(app.random_fraction);
  std::vector<std::byte> sink;
  for (double r : fractions) {
    for (std::size_t size : {7u, 63u, 4096u, 4100u}) {
      std::vector<std::byte> page(size);
      for (std::uint64_t id = 0; id < 8; ++id) {
        fill_page(page, id, r, /*seed=*/424242);
        sink.insert(sink.end(), page.begin(), page.end());
      }
    }
  }
  EXPECT_EQ(sink.size(), 793536u);
  EXPECT_EQ(fnv1a(sink), 0xa28e089d6d79d75aULL);
}

TEST(AppCatalogTest, TenAppsWithPaperScaleNumbers) {
  auto apps = app_catalog();
  ASSERT_EQ(apps.size(), 10u);
  for (const auto& app : apps) {
    EXPECT_GE(app.working_set_gb, 25.0) << app.name;
    EXPECT_LE(app.working_set_gb, 30.0) << app.name;
    EXPECT_GE(app.input_gb, 12.0) << app.name;
    EXPECT_LE(app.input_gb, 20.0) << app.name;
    EXPECT_GT(app.cpu_ns_per_access, 0) << app.name;
  }
}

TEST(AppCatalogTest, LookupByName) {
  ASSERT_NE(find_app("PageRank"), nullptr);
  EXPECT_EQ(find_app("PageRank")->kind, AppKind::kGraph);
  ASSERT_NE(find_app("Memcached"), nullptr);
  EXPECT_EQ(find_app("Memcached")->kind, AppKind::kKeyValue);
  EXPECT_EQ(find_app("NotAnApp"), nullptr);
}

TEST(AppCatalogTest, EvaluationAppsPresent) {
  // Fig 7 apps + Fig 8 apps + Fig 10 apps must all exist.
  for (const char* name :
       {"PageRank", "LogisticRegression", "TunkRank", "KMeans", "SVM",
        "Redis", "Memcached", "VoltDB", "ConnectedComponents"})
    EXPECT_NE(find_app(name), nullptr) << name;
}

struct DriverRig {
  explicit DriverRig(std::uint64_t resident_pages) {
    core::DmSystem::Config config;
    config.node_count = 4;
    config.node.shm.arena_bytes = 16 * MiB;
    config.node.recv.arena_bytes = 16 * MiB;
    config.node.disk.capacity_bytes = 128 * MiB;
    auto setup = swap::make_system(swap::SystemKind::kFastSwap,
                                   resident_pages);
    config.service = setup.service;
    system = std::make_unique<core::DmSystem>(config);
    system->start();
    auto& client = system->create_server(0, 64 * MiB, setup.ldmc);
    const AppSpec* spec = find_app("LogisticRegression");
    manager = std::make_unique<swap::SwapManager>(client, setup.swap,
                                                  content_for(*spec, 1));
  }
  std::unique_ptr<core::DmSystem> system;
  std::unique_ptr<swap::SwapManager> manager;
};

TEST(DriverTest, FullResidencyRunsWithoutRefaults) {
  DriverRig rig(256);
  AppSpec spec = *find_app("LogisticRegression");
  spec.iterations = 3;
  Rng rng(5);
  auto result = run_iterative(*rig.manager, spec, 128, rng);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.accesses, 3u * 128u);
  // Only cold faults.
  EXPECT_EQ(result.faults, 128u);
  EXPECT_GT(result.elapsed, 0);
}

TEST(DriverTest, MemoryPressureCausesRefaults) {
  DriverRig rig(64);  // 50% of the working set
  AppSpec spec = *find_app("LogisticRegression");
  spec.iterations = 3;
  Rng rng(5);
  auto result = run_iterative(*rig.manager, spec, 128, rng);
  ASSERT_TRUE(result.status.ok());
  EXPECT_GT(result.faults, 128u);  // refaults beyond cold misses
}

TEST(DriverTest, PressureSlowsCompletion) {
  AppSpec spec = *find_app("LogisticRegression");
  spec.iterations = 2;
  auto run = [&](std::uint64_t resident) {
    DriverRig rig(resident);
    Rng rng(5);
    auto result = run_iterative(*rig.manager, spec, 128, rng);
    EXPECT_TRUE(result.status.ok());
    return result.elapsed;
  };
  EXPECT_LT(run(256), run(64));
}

TEST(DriverTest, KvThroughputAndWindows) {
  DriverRig rig(96);
  const AppSpec* spec = find_app("Memcached");
  Rng rng(5);
  std::vector<std::uint64_t> windows;
  auto result = run_kv_timed(
      *rig.manager, *spec, 128, /*duration=*/50 * kMilli,
      /*window=*/10 * kMilli,
      [&](std::size_t index, std::uint64_t ops) {
        ASSERT_EQ(index, windows.size());
        windows.push_back(ops);
      },
      rng);
  ASSERT_TRUE(result.status.ok());
  std::uint64_t total = 0;
  for (auto ops : windows) total += ops;
  EXPECT_EQ(total, result.accesses);
  EXPECT_GE(windows.size(), 5u);
}

TEST(DriverTest, KvOpsComplete) {
  DriverRig rig(128);
  const AppSpec* spec = find_app("Redis");
  Rng rng(5);
  auto result = run_kv(*rig.manager, *spec, 128, 2000, rng);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.accesses, 2000u);
  EXPECT_GT(result.ops_per_second(), 0.0);
}

}  // namespace
}  // namespace dm::workloads
