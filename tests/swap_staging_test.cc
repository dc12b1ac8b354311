// Tests for write-back staging on a live system, and the goldens pinning
// the default swap configurations byte for byte.
#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/dm_system.h"
#include "core/ldmc.h"
#include "swap/swap_manager.h"
#include "swap/systems.h"
#include "workloads/page_content.h"

namespace dm::swap {
namespace {

// --- rig -------------------------------------------------------------------

struct Rig {
  explicit Rig(SystemSetup system_setup) : setup(std::move(system_setup)) {
    core::DmSystem::Config config;
    config.node_count = 4;
    config.node.shm.arena_bytes = 16 * MiB;
    config.node.recv.arena_bytes = 16 * MiB;
    config.node.disk.capacity_bytes = 128 * MiB;
    config.service = this->setup.service;
    system = std::make_unique<core::DmSystem>(config);
    system->start();
    client = &system->create_server(0, 64 * MiB, this->setup.ldmc);
    manager = std::make_unique<SwapManager>(
        *client, this->setup.swap,
        [](std::uint64_t page, std::span<std::byte> out) {
          workloads::fill_page(out, page, 0.3, 11);
        });
  }

  SimTime elapsed() const { return system->simulator().now(); }

  SystemSetup setup;
  std::unique_ptr<core::DmSystem> system;
  core::Ldmc* client = nullptr;
  std::unique_ptr<SwapManager> manager;
};

// --- write-back staging ------------------------------------------------------

TEST(SwapStagingTest, RewriteHeavyTraceCoalescesStagedPages) {
  auto setup = make_system(SystemKind::kFastSwap, 16);
  setup.swap.writeback_batches = 8;
  setup.swap.writeback_flush_delay = 200 * kMicro;  // long staging window
  Rig rig(setup);
  // Two working-set halves: touching B evicts dirty A pages into staging,
  // then rewriting A immediately invalidates the staged copies.
  for (int round = 0; round < 6; ++round) {
    for (std::uint64_t p = 0; p < 16; ++p)
      ASSERT_TRUE(rig.manager->touch(p, true).ok());
    for (std::uint64_t p = 16; p < 32; ++p)
      ASSERT_TRUE(rig.manager->touch(p, true).ok());
  }
  auto& m = rig.manager->metrics();
  EXPECT_GT(m.counter_value("swap.wb.coalesced"), 0u);
  EXPECT_GT(m.counter_value("swap.wb.staged"), 0u);
}

// A fault on a page whose batch is still staged takes its bytes from the
// staging buffer and reads nothing down-tier. Without PBS it restores the
// faulted page alone.
TEST(SwapStagingTest, StagedFaultsServedFromBuffer) {
  for (const SystemKind kind :
       {SystemKind::kFastSwap, SystemKind::kFastSwapNoPbs}) {
    SCOPED_TRACE(to_string(kind));
    auto setup = make_system(kind, 16);
    setup.swap.writeback_batches = 8;
    setup.swap.writeback_flush_delay = 500 * kMicro;
    Rig rig(setup);
    // Fill past the budget so pages 0.. get staged, then fault them back
    // immediately — before the flush deadline.
    for (std::uint64_t p = 0; p < 32; ++p)
      ASSERT_TRUE(rig.manager->touch(p, true).ok());
    const auto& m = rig.manager->metrics();
    const auto& shm = rig.system->node(0).shm().metrics();
    const std::uint64_t hits = m.counter_value("swap.wb.hits");
    const std::uint64_t singles = m.counter_value("swap.single_page_ins");
    const std::uint64_t gets = shm.counter_value("shm.gets");
    const std::uint64_t ins = rig.manager->swap_ins();
    ASSERT_TRUE(rig.manager->touch(0).ok());
    EXPECT_EQ(m.counter_value("swap.wb.hits"), hits + 1);
    EXPECT_EQ(shm.counter_value("shm.gets"), gets);
    if (kind == SystemKind::kFastSwapNoPbs) {
      EXPECT_EQ(m.counter_value("swap.single_page_ins"), singles + 1);
      EXPECT_EQ(rig.manager->swap_ins(), ins + 1);
    }
  }
}

TEST(SwapStagingTest, BarrierDrainsStagingBuffer) {
  auto setup = make_system(SystemKind::kFastSwap, 16);
  setup.swap.writeback_batches = 8;
  setup.swap.writeback_flush_delay = 500 * kMicro;
  Rig rig(setup);
  for (std::uint64_t p = 0; p < 48; ++p)
    ASSERT_TRUE(rig.manager->touch(p, true).ok());
  EXPECT_GT(rig.manager->wb_staged_batches(), 0u);
  ASSERT_TRUE(rig.manager->wb_barrier().ok());
  EXPECT_EQ(rig.manager->wb_staged_batches(), 0u);
  EXPECT_EQ(rig.manager->wb_in_flight(), 0u);
  // Pages staged before the barrier are durable down-tier now.
  for (std::uint64_t p = 0; p < 48; ++p) {
    ASSERT_TRUE(rig.manager->touch(p).ok());
    auto bytes = rig.manager->resident_bytes(p);
    ASSERT_TRUE(bytes.ok());
    std::vector<std::byte> expect(kPageBytes);
    workloads::fill_page(expect, p, 0.3, 11);
    EXPECT_EQ(fnv1a(*bytes), fnv1a(expect));
  }
}

TEST(SwapStagingTest, BoundedBufferNeverExceedsConfiguredBatches) {
  auto setup = make_system(SystemKind::kFastSwap, 16);
  setup.swap.writeback_batches = 2;
  setup.swap.writeback_flush_delay = 500 * kMicro;
  Rig rig(setup);
  Rng rng(3);
  for (int s = 0; s < 800; ++s) {
    ASSERT_TRUE(
        rig.manager->touch(rng.next_below(64), rng.bernoulli(0.5)).ok());
    ASSERT_LE(rig.manager->wb_staged_batches(), 2u);
  }
  ASSERT_TRUE(rig.manager->flush_all().ok());
  EXPECT_EQ(rig.manager->wb_staged_batches(), 0u);
}

// --- knobs-off regression ----------------------------------------------------
//
// These goldens (fault/swap counts, elapsed virtual time, and an FNV-1a
// hash of the full metrics dump) were captured from the seed tree with the
// exact same trace. Any drift in a default configuration fails here.

struct Golden {
  const char* name;
  std::uint64_t faults;
  std::uint64_t swap_ins;
  std::uint64_t swap_outs;
  std::uint64_t elapsed_ns;
  std::uint64_t metrics_hash;
};

// Metrics hashes re-pinned when histogram percentile interpolation was
// fixed (bucket-boundary rounding): the event stream — counts and elapsed
// virtual time — is untouched, only the rendered p50/p99 text changed.
// The three rows whose batches live in shared or remote memory were
// re-pinned when batch compaction landed: their fault and swap counts are
// untouched, elapsed time moves with the rewrites and the frees that no
// longer wait, and the dump gains the swap.compact.* counters. All four
// were re-pinned when swap-out and sibling decode moved to the swap worker
// and write-back staging became the only swap-out path: the fault and swap
// counts are untouched, elapsed time falls because the faulting thread no
// longer compresses, puts or decodes siblings, and the dump gains the
// swap.wb.* and swap.worker.* metrics. FastSwap and Infiniswap were
// re-pinned when PBS readahead landed: the trace's sequential runs fetch
// their next batch entries ahead, so the fault and swap counts are
// untouched, elapsed time falls by the overlapped fetches, and the dump
// gains the swap.readahead.* metrics. FastSwap-noPBS makes no PBS fault
// and Linux swaps to disk, so neither reads ahead and both keep every byte.
// FastSwap, Infiniswap and Linux were re-pinned when the PBS fan-out came
// to be sized by sibling use: the trace's random half leaves most restored
// siblings untouched, so their PBS faults narrow to the faulted page. Each
// takes more faults (368 -> 388) but swaps in far fewer pages (1225 ->
// 678) and out fewer batches (34 -> 26), and finishes sooner; the dump
// gains the swap.pbs.* counters. FastSwap-noPBS makes no PBS fault, so it
// keeps every byte. The same three were re-pinned when a PBS fault that
// restores one page came to read only that page's stored bytes: the fault
// and swap counts are untouched, elapsed time falls by the bytes those
// faults no longer read, and the dump gains swap.pbs.page_reads.
// FastSwap-noPBS still reads whole entries, so it keeps every byte.
constexpr Golden kSeedGoldens[] = {
    {"FastSwap", 388ull, 678ull, 26ull, 1000434202ull,
     8179644820500592452ull},
    {"FastSwap-noPBS", 430ull, 334ull, 23ull, 1000512880ull,
     15550872554880824175ull},
    {"Infiniswap", 388ull, 678ull, 26ull, 1006568776ull,
     7966231764193588534ull},
    {"Linux", 388ull, 678ull, 26ull, 1587811265ull,
     11142728084693918111ull},
};

TEST(SwapGoldenTest, DefaultPresetsMatchSeedGoldensByteForByte) {
  const SystemKind kinds[] = {SystemKind::kFastSwap,
                              SystemKind::kFastSwapNoPbs,
                              SystemKind::kInfiniswap, SystemKind::kLinux};
  for (std::size_t i = 0; i < std::size(kinds); ++i) {
    Rig rig(make_system(kinds[i], 32));
    Rng rng(2024);
    for (int step = 0; step < 400; ++step) {
      const std::uint64_t page =
          rng.bernoulli(0.5) ? rng.next_below(96)
                             : static_cast<std::uint64_t>(step % 96);
      ASSERT_TRUE(rig.manager->touch(page, rng.bernoulli(0.3)).ok());
    }
    ASSERT_TRUE(rig.manager->flush_all().ok());
    for (std::uint64_t p = 0; p < 96; ++p)
      ASSERT_TRUE(rig.manager->touch(p).ok());

    const Golden& golden = kSeedGoldens[i];
    EXPECT_STREQ(rig.setup.name.c_str(), golden.name);
    EXPECT_EQ(rig.manager->faults(), golden.faults) << golden.name;
    EXPECT_EQ(rig.manager->swap_ins(), golden.swap_ins) << golden.name;
    EXPECT_EQ(rig.manager->swap_outs(), golden.swap_outs) << golden.name;
    EXPECT_EQ(static_cast<std::uint64_t>(rig.elapsed()), golden.elapsed_ns)
        << golden.name;
    const std::string dump = rig.manager->metrics().to_string();
    EXPECT_EQ(fnv1a(std::as_bytes(std::span(dump.data(), dump.size()))),
              golden.metrics_hash)
        << golden.name << " metrics drifted:\n" << dump;
  }
}

}  // namespace
}  // namespace dm::swap