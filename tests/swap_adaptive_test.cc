// Tests for the adaptive swap-path engine: the pattern classifier and
// window controller as pure units, the adaptive policies end to end on a
// live system, compression admission control, write-back staging, and the
// knobs-off regression pinning the default configurations to seed-state
// behavioural goldens.
#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/dm_system.h"
#include "core/ldmc.h"
#include "swap/pattern_tracker.h"
#include "swap/swap_manager.h"
#include "swap/systems.h"
#include "workloads/page_content.h"

namespace dm::swap {
namespace {

// --- PatternTracker ---------------------------------------------------------

TEST(PatternTrackerTest, ColdStartIsUnknown) {
  PatternTracker tracker(32);
  EXPECT_EQ(tracker.classify(), AccessPattern::kUnknown);
  for (std::uint64_t p = 0; p < tracker.min_samples(); ++p) {
    EXPECT_EQ(tracker.classify(), AccessPattern::kUnknown);
    tracker.record(p);
  }
  // min_samples deltas recorded (one fewer than records): one more tips it.
  tracker.record(tracker.min_samples());
  EXPECT_NE(tracker.classify(), AccessPattern::kUnknown);
}

TEST(PatternTrackerTest, UnitStrideIsSequential) {
  PatternTracker tracker(16);
  for (std::uint64_t p = 100; p < 120; ++p) tracker.record(p);
  EXPECT_EQ(tracker.classify(), AccessPattern::kSequential);
  EXPECT_EQ(tracker.dominant_stride(), 1);
}

TEST(PatternTrackerTest, ConstantNonUnitStrideIsStrided) {
  PatternTracker tracker(16);
  for (std::uint64_t p = 0; p < 80; p += 4) tracker.record(p);
  EXPECT_EQ(tracker.classify(), AccessPattern::kStrided);
  EXPECT_EQ(tracker.dominant_stride(), 4);
}

TEST(PatternTrackerTest, ScatteredAddressesAreRandom) {
  PatternTracker tracker(32);
  Rng rng(5);
  for (int i = 0; i < 64; ++i) tracker.record(rng.next_below(100000));
  EXPECT_EQ(tracker.classify(), AccessPattern::kRandom);
  EXPECT_EQ(tracker.dominant_stride(), 0);
}

// The PBS-subsampling case the forward-stream rule exists for: a
// sequential scan observed through batch swap-in faults shows mixed small
// positive deltas (1, window, window/2, ...) with no single dominant value.
TEST(PatternTrackerTest, MixedSmallForwardStridesAreSequential) {
  PatternTracker tracker(32, /*max_stride=*/32);
  std::uint64_t page = 0;
  Rng rng(6);
  for (int i = 0; i < 64; ++i) {
    page += 1 + rng.next_below(16);  // deltas 1..16, rarely repeating
    tracker.record(page);
  }
  EXPECT_EQ(tracker.classify(), AccessPattern::kSequential);
}

TEST(PatternTrackerTest, LargeForwardJumpsAreNotSequential) {
  PatternTracker tracker(32, /*max_stride=*/32);
  std::uint64_t page = 0;
  Rng rng(7);
  for (int i = 0; i < 64; ++i) {
    page += 100 + rng.next_below(1000);  // forward but far beyond a window
    tracker.record(page);
  }
  EXPECT_EQ(tracker.classify(), AccessPattern::kRandom);
}

TEST(PatternTrackerTest, HistoryWindowForgetsOldPhase) {
  PatternTracker tracker(16);
  Rng rng(8);
  for (int i = 0; i < 40; ++i) tracker.record(rng.next_below(100000));
  ASSERT_EQ(tracker.classify(), AccessPattern::kRandom);
  // 16 sequential faults overwrite the entire ring.
  for (std::uint64_t p = 500; p < 517; ++p) tracker.record(p);
  EXPECT_EQ(tracker.classify(), AccessPattern::kSequential);
}

// --- AdaptiveWindow ---------------------------------------------------------

TEST(AdaptiveWindowTest, GrowthRequiresFullHysteresisStreak) {
  AdaptiveWindow window({.min_pages = 1, .max_pages = 32, .start_pages = 8,
                         .hysteresis = 4});
  for (int i = 0; i < 3; ++i) window.update(AccessPattern::kSequential);
  EXPECT_EQ(window.current(), 8u);  // streak not complete
  window.update(AccessPattern::kSequential);
  EXPECT_EQ(window.current(), 16u);
}

TEST(AdaptiveWindowTest, RandomBreaksGrowStreak) {
  AdaptiveWindow window({.min_pages = 1, .max_pages = 32, .start_pages = 8,
                         .hysteresis = 4});
  for (int i = 0; i < 3; ++i) window.update(AccessPattern::kSequential);
  window.update(AccessPattern::kRandom);  // resets the grow streak
  for (int i = 0; i < 3; ++i) window.update(AccessPattern::kSequential);
  EXPECT_EQ(window.current(), 8u);
  window.update(AccessPattern::kSequential);
  EXPECT_EQ(window.current(), 16u);
}

TEST(AdaptiveWindowTest, ShrinksToFloorUnderSustainedRandom) {
  AdaptiveWindow window({.min_pages = 1, .max_pages = 32, .start_pages = 8,
                         .hysteresis = 2});
  for (int i = 0; i < 100; ++i) window.update(AccessPattern::kRandom);
  EXPECT_EQ(window.current(), 1u);
}

TEST(AdaptiveWindowTest, GrowsToCeilingUnderSustainedSequential) {
  AdaptiveWindow window({.min_pages = 1, .max_pages = 32, .start_pages = 8,
                         .hysteresis = 2});
  for (int i = 0; i < 100; ++i) window.update(AccessPattern::kSequential);
  EXPECT_EQ(window.current(), 32u);
}

TEST(AdaptiveWindowTest, StridedHoldsAndBreaksBothStreaks) {
  AdaptiveWindow window({.min_pages = 1, .max_pages = 32, .start_pages = 8,
                         .hysteresis = 2});
  window.update(AccessPattern::kSequential);
  window.update(AccessPattern::kStrided);
  window.update(AccessPattern::kSequential);
  EXPECT_EQ(window.current(), 8u);  // strided reset the streak both times
  window.update(AccessPattern::kRandom);
  window.update(AccessPattern::kStrided);
  window.update(AccessPattern::kRandom);
  EXPECT_EQ(window.current(), 8u);
}

TEST(AdaptiveWindowTest, StartClampedIntoBounds) {
  AdaptiveWindow window({.min_pages = 2, .max_pages = 8, .start_pages = 64,
                         .hysteresis = 2});
  EXPECT_EQ(window.current(), 8u);
}

// --- end-to-end adaptive behaviour ------------------------------------------

struct Rig {
  explicit Rig(SystemSetup system_setup, double content_random = 0.3)
      : setup(std::move(system_setup)) {
    core::DmSystem::Config config;
    config.node_count = 4;
    config.node.shm.arena_bytes = 16 * MiB;
    config.node.recv.arena_bytes = 16 * MiB;
    config.node.disk.capacity_bytes = 128 * MiB;
    config.service = this->setup.service;
    system = std::make_unique<core::DmSystem>(config);
    system->start();
    client = &system->create_server(0, 64 * MiB, this->setup.ldmc);
    const double r = content_random;
    manager = std::make_unique<SwapManager>(
        *client, this->setup.swap,
        [r](std::uint64_t page, std::span<std::byte> out) {
          workloads::fill_page(out, page, r, 11);
        });
  }

  SimTime elapsed() const { return system->simulator().now(); }

  SystemSetup setup;
  std::unique_ptr<core::DmSystem> system;
  core::Ldmc* client = nullptr;
  std::unique_ptr<SwapManager> manager;
};

void run_sequential(Rig& rig, int steps, std::uint64_t space) {
  for (int s = 0; s < steps; ++s)
    ASSERT_TRUE(
        rig.manager->touch(static_cast<std::uint64_t>(s) % space).ok());
}

void run_random(Rig& rig, int steps, std::uint64_t space,
                std::uint64_t seed) {
  Rng rng(seed);
  for (int s = 0; s < steps; ++s)
    ASSERT_TRUE(rig.manager->touch(rng.next_below(space)).ok());
}

TEST(AdaptiveSwapTest, SequentialScanGrowsWindowAndBeatsFixedPbs) {
  Rig fixed(make_system(SystemKind::kFastSwap, 32));
  run_sequential(fixed, 1200, 128);

  auto setup = make_system(SystemKind::kFastSwapAdaptive, 32);
  setup.swap.writeback_batches = 0;       // isolate the PBS policy
  setup.swap.compression_admission = false;
  Rig adaptive(setup);
  run_sequential(adaptive, 1200, 128);

  // The window grew past the fixed 8-page default. (The final verdict may
  // read "strided" rather than "sequential": once the window hits its
  // ceiling, the scan faults exactly once per window, so the fault deltas
  // become one constant stride — the window holds there, by design.)
  EXPECT_GT(adaptive.manager->current_window(), 8u);
  EXPECT_NE(adaptive.manager->current_pattern(), AccessPattern::kRandom);
  // ...and bigger batches mean fewer faults for the same scan.
  EXPECT_LT(adaptive.manager->faults(), fixed.manager->faults());
}

TEST(AdaptiveSwapTest, RandomAccessShrinksWindowAndSuppressesFanout) {
  auto setup = make_system(SystemKind::kFastSwapAdaptive, 32);
  setup.swap.writeback_batches = 0;
  setup.swap.compression_admission = false;
  Rig rig(setup);
  run_random(rig, 1200, 128, 99);

  EXPECT_EQ(rig.manager->current_window(),
            rig.manager->config().min_batch_pages);
  EXPECT_EQ(rig.manager->current_pattern(), AccessPattern::kRandom);
  EXPECT_GT(rig.manager->metrics().counter_value("swap.pbs.fanout_skips"),
            0u);
  // Fan-out suppression means faults restore one page, not a batch.
  EXPECT_GT(rig.manager->metrics().counter_value("swap.single_page_ins"),
            0u);
}

TEST(AdaptiveSwapTest, RandomAccessCheaperThanFixedPbs) {
  Rig fixed(make_system(SystemKind::kFastSwap, 32));
  run_random(fixed, 1200, 128, 99);

  auto setup = make_system(SystemKind::kFastSwapAdaptive, 32);
  setup.swap.compression_admission = false;
  Rig adaptive(setup);
  run_random(adaptive, 1200, 128, 99);

  // Not polluting the resident set with batch siblings pays off twice:
  // fewer wasted swap-ins and less virtual time on the fault path.
  EXPECT_LT(adaptive.manager->swap_ins(), fixed.manager->swap_ins());
  EXPECT_LT(adaptive.elapsed(), fixed.elapsed());
}

TEST(AdaptiveSwapTest, WindowCeilingClampedToResidentBudget) {
  auto setup = make_system(SystemKind::kFastSwapAdaptive, 16);
  setup.swap.max_batch_pages = 64;  // larger than the budget allows
  Rig rig(setup);
  EXPECT_LE(rig.manager->config().max_batch_pages, 8u);
  run_sequential(rig, 600, 64);  // must not livelock in make_room
  EXPECT_LE(rig.manager->current_window(),
            rig.manager->config().max_batch_pages);
}

// --- compression admission control ------------------------------------------

TEST(AdaptiveSwapTest, IncompressibleContentSkipsLzPass) {
  auto setup = make_system(SystemKind::kFastSwap, 32);
  setup.swap.compression_admission = true;
  Rig rig(setup, /*content_random=*/1.0);
  run_sequential(rig, 600, 96);

  auto& m = rig.manager->metrics();
  EXPECT_GT(m.counter_value("swap.admit.skip"), 0u);
  EXPECT_EQ(m.counter_value("swap.admit.accept"), 0u);
  // Skipped pages are stored raw: compressed == logical bytes.
  EXPECT_EQ(m.counter_value("swap.compressed_bytes"),
            m.counter_value("swap.logical_bytes"));
}

TEST(AdaptiveSwapTest, CompressibleContentAdmitsEverything) {
  auto setup = make_system(SystemKind::kFastSwap, 32);
  setup.swap.compression_admission = true;
  Rig rig(setup, /*content_random=*/0.2);
  run_sequential(rig, 600, 96);

  auto& m = rig.manager->metrics();
  EXPECT_GT(m.counter_value("swap.admit.accept"), 0u);
  EXPECT_EQ(m.counter_value("swap.admit.skip"), 0u);
  EXPECT_LT(m.counter_value("swap.compressed_bytes"),
            m.counter_value("swap.logical_bytes"));
}

TEST(AdaptiveSwapTest, AdmissionSavesTimeOnIncompressibleContent) {
  auto base = make_system(SystemKind::kFastSwap, 32);
  Rig without(base, /*content_random=*/1.0);
  run_sequential(without, 600, 96);

  auto admitted = base;
  admitted.swap.compression_admission = true;
  Rig with(admitted, /*content_random=*/1.0);
  run_sequential(with, 600, 96);

  // The probe replaces the full (wasted) LZ pass on every stored page.
  EXPECT_LT(with.elapsed(), without.elapsed());
  // And the stored outcome is the same: everything raw.
  EXPECT_EQ(with.manager->metrics().counter_value("swap.compressed_bytes"),
            without.manager->metrics().counter_value(
                "swap.compressed_bytes"));
}

TEST(AdaptiveSwapTest, AdmittedPagesRoundTripIntact) {
  auto setup = make_system(SystemKind::kFastSwapAdaptive, 16);
  Rig rig(setup, /*content_random=*/0.3);
  for (std::uint64_t p = 0; p < 64; ++p)
    ASSERT_TRUE(rig.manager->touch(p).ok());
  for (std::uint64_t p = 0; p < 64; ++p) {
    ASSERT_TRUE(rig.manager->touch(p).ok());
    auto bytes = rig.manager->resident_bytes(p);
    ASSERT_TRUE(bytes.ok());
    std::vector<std::byte> expect(kPageBytes);
    workloads::fill_page(expect, p, 0.3, 11);
    EXPECT_EQ(fnv1a(*bytes), fnv1a(expect)) << "page " << p;
  }
}

// --- write-back staging ------------------------------------------------------

TEST(AdaptiveSwapTest, RewriteHeavyTraceCoalescesStagedPages) {
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

TEST(AdaptiveSwapTest, StagedFaultsServedFromBuffer) {
  auto setup = make_system(SystemKind::kFastSwap, 16);
  setup.swap.writeback_batches = 8;
  setup.swap.writeback_flush_delay = 500 * kMicro;
  Rig rig(setup);
  // Fill past the budget so pages 0.. get staged, then fault them back
  // immediately — before the flush deadline.
  for (std::uint64_t p = 0; p < 32; ++p)
    ASSERT_TRUE(rig.manager->touch(p, true).ok());
  ASSERT_TRUE(rig.manager->touch(0).ok());
  EXPECT_GT(rig.manager->metrics().counter_value("swap.wb.hits"), 0u);
}

TEST(AdaptiveSwapTest, BarrierDrainsStagingBuffer) {
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

TEST(AdaptiveSwapTest, BoundedBufferNeverExceedsConfiguredBatches) {
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
// The adaptive engine must be invisible when its knobs are off: these
// goldens (fault/swap counts, elapsed virtual time, and an FNV-1a hash of
// the full metrics dump) were captured from the pre-engine seed tree with
// the exact same trace. Any drift in a default configuration fails here.

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
// longer wait, and the dump gains the swap.compact.* counters. The Linux
// row (disk only, never compacted) is the seed capture.
constexpr Golden kSeedGoldens[] = {
    {"FastSwap", 368ull, 1225ull, 34ull, 1001054777ull,
     1897177834987802360ull},
    {"FastSwap-noPBS", 430ull, 334ull, 23ull, 1000707450ull,
     13689877883035445154ull},
    {"Infiniswap", 368ull, 1225ull, 34ull, 1013747569ull,
     3298555524309353555ull},
    {"Linux", 368ull, 1225ull, 34ull, 1721164065ull,
     3902519442920250884ull},
};

TEST(AdaptiveSwapTest, KnobsOffMatchesSeedGoldensByteForByte) {
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