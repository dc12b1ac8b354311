// Parameterized property sweeps over the swap layer configuration space:
// (batch window x compression on/off x resident fraction) and zswap pools,
// checking integrity and conservation invariants on every combination.
#include <gtest/gtest.h>

#include <tuple>

#include "common/checksum.h"
#include "common/rng.h"
#include "core/dm_system.h"
#include "core/ldmc.h"
#include "core/node_service.h"
#include "swap/swap_manager.h"
#include "swap/systems.h"
#include "workloads/page_content.h"

namespace dm::swap {
namespace {

constexpr std::uint64_t kWorkingSet = 96;
constexpr double kContentRandom = 0.25;

struct SweepRig {
  explicit SweepRig(SwapManager::Config swap_config,
                    core::LdmcOptions ldmc = {}) {
    core::DmSystem::Config config;
    config.node_count = 4;
    config.node.shm.arena_bytes = 8 * MiB;
    config.node.recv.arena_bytes = 8 * MiB;
    config.node.disk.capacity_bytes = 64 * MiB;
    config.service.rdmc.ec_r = 0;  // one copy
    system = std::make_unique<core::DmSystem>(config);
    system->start();
    client = &system->create_server(0, 64 * MiB, ldmc);
    manager = std::make_unique<SwapManager>(
        *client, swap_config, [](std::uint64_t page, std::span<std::byte> out) {
          workloads::fill_page(out, page, kContentRandom, 13);
        });
  }
  std::unique_ptr<core::DmSystem> system;
  core::Ldmc* client = nullptr;
  std::unique_ptr<SwapManager> manager;
};

std::uint64_t expected_checksum(std::uint64_t page) {
  std::vector<std::byte> bytes(kPageBytes);
  workloads::fill_page(bytes, page, kContentRandom, 13);
  return fnv1a(bytes);
}

// The compression column keeps the numbering the sweep has always printed
// in its case names: 0 is off, 2 is four-granularity.
using SweepParam = std::tuple<std::size_t /*batch*/, int /*compression*/,
                              std::uint64_t /*resident*/, bool /*pbs*/>;

class SwapSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SwapSweep, MixedTraceKeepsEveryPageIntact) {
  const auto [batch, compression, resident, pbs] = GetParam();
  SwapManager::Config config;
  config.resident_pages = resident;
  config.batch_pages = batch;
  config.proactive_batch_swap_in = pbs;
  config.compression = compression == 0 ? CompressionMode::kOff
                                        : CompressionMode::kFourGranularity;
  SweepRig rig(config);

  Rng rng(4242);
  for (int step = 0; step < 500; ++step) {
    std::uint64_t page;
    if (rng.bernoulli(0.5)) {
      page = rng.next_below(kWorkingSet);  // uniform
    } else {
      page = step % kWorkingSet;  // scan component
    }
    const bool write = rng.bernoulli(0.3);
    ASSERT_TRUE(rig.manager->touch(page, write).ok()) << "step " << step;
    // Invariant: resident set bounded.
    ASSERT_LE(rig.manager->resident_count(), resident);
    // Invariant: the touched page is resident and intact.
    auto bytes = rig.manager->resident_bytes(page);
    ASSERT_TRUE(bytes.ok());
    ASSERT_EQ(fnv1a(*bytes), expected_checksum(page)) << "page " << page;
  }
  // Invariant: every page ever touched is still reachable and intact.
  for (std::uint64_t page = 0; page < kWorkingSet; ++page) {
    ASSERT_TRUE(rig.manager->touch(page).ok());
    auto bytes = rig.manager->resident_bytes(page);
    ASSERT_TRUE(bytes.ok());
    ASSERT_EQ(fnv1a(*bytes), expected_checksum(page)) << "final " << page;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigGrid, SwapSweep,
    ::testing::Combine(::testing::Values<std::size_t>(1, 4, 8),
                       ::testing::Values(0, 2),  // off / 4-gran
                       ::testing::Values<std::uint64_t>(24, 48),
                       ::testing::Bool()));

class ZswapSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ZswapSweep, PoolSizesPreserveIntegrity) {
  SwapManager::Config config;
  config.resident_pages = 32;
  config.batch_pages = 8;
  config.compression = CompressionMode::kOff;
  config.zswap_pool_bytes = GetParam();
  core::LdmcOptions ldmc;
  ldmc.shm_fraction = 0.0;
  ldmc.allow_remote = false;  // zswap fronts the disk, as in the kernel
  SweepRig rig(config, ldmc);

  Rng rng(555);
  for (int step = 0; step < 400; ++step) {
    const std::uint64_t page = rng.next_below(kWorkingSet);
    ASSERT_TRUE(rig.manager->touch(page, rng.bernoulli(0.3)).ok());
    auto bytes = rig.manager->resident_bytes(page);
    ASSERT_TRUE(bytes.ok());
    ASSERT_EQ(fnv1a(*bytes), expected_checksum(page));
  }
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, ZswapSweep,
                         ::testing::Values(4 * KiB, 32 * KiB, 128 * KiB));

}  // namespace
}  // namespace dm::swap
