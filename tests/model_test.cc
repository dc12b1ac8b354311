// Model-based randomized tests: drive a component with a random operation
// stream and check every observable against a simple reference model.
//
// The second half of this file is the swap-path model checker: it replays
// seeded fault/evict/flush traces through a full SwapManager (real
// simulator, real tiers, real compression) and, in lockstep, through
// SwapOracle — a pure-function reference that mirrors the paging layer's
// membership semantics (resident set, dirty set, swap-cache backing, batch
// composition, LRU order, the adaptive-PBS policy state machines, and the
// admission-control decision). Eighteen numbered properties (P1–P18) are
// asserted along the trace; see SwapModelChecker::check_*.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <unordered_map>

#include "common/checksum.h"
#include "common/lru.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/dm_system.h"
#include "core/ldmc.h"
#include "core/node_service.h"
#include "cxl/coherence.h"
#include "cxl/page_tier.h"
#include "mem/buffer_pool.h"
#include "mem/memory_map.h"
#include "mem/shared_memory_pool.h"
#include "net/fabric.h"
#include "sim/simulator.h"
#include "swap/pattern_tracker.h"
#include "swap/swap_manager.h"
#include "swap/systems.h"
#include "workloads/page_content.h"

namespace dm::mem {
namespace {

std::vector<std::byte> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng.next_u64() & 0xff);
  return v;
}

// MemoryMap vs std::unordered_map reference, including replica queries.
TEST(MemoryMapModelTest, MatchesReferenceOverRandomOps) {
  Rng rng(101);
  MemoryMap map(8);
  std::unordered_map<EntryId, EntryLocation> reference;

  auto random_location = [&]() {
    EntryLocation loc;
    const int tier = static_cast<int>(rng.next_below(3));
    loc.tier = static_cast<Tier>(tier);
    loc.logical_size = 4096;
    loc.stored_size = static_cast<std::uint32_t>(rng.uniform(1, 4096));
    loc.checksum = rng.next_u64();
    if (loc.tier == Tier::kRemote) {
      const std::size_t replicas = 1 + rng.next_below(3);
      for (std::size_t i = 0; i < replicas; ++i)
        loc.replicas.push_back(
            {static_cast<net::NodeId>(rng.next_below(6)), rng.next_u64(),
             rng.next_below(1 << 20), 0, 4096});
    } else if (loc.tier == Tier::kDisk) {
      loc.disk_offset = rng.next_below(1 << 24);
    }
    return loc;
  };

  for (int step = 0; step < 20000; ++step) {
    const EntryId id = rng.next_below(300);
    switch (rng.next_below(4)) {
      case 0: {  // commit
        auto loc = random_location();
        map.commit(id, loc);
        reference[id] = loc;
        break;
      }
      case 1: {  // lookup
        auto got = map.lookup(id);
        auto ref = reference.find(id);
        ASSERT_EQ(got.ok(), ref != reference.end());
        if (got.ok()) {
          ASSERT_EQ(got->tier, ref->second.tier);
          ASSERT_EQ(got->stored_size, ref->second.stored_size);
          ASSERT_EQ(got->checksum, ref->second.checksum);
          ASSERT_EQ(got->replicas, ref->second.replicas);
        }
        break;
      }
      case 2: {  // remove
        const bool existed = reference.erase(id) > 0;
        ASSERT_EQ(map.remove(id).ok(), existed);
        break;
      }
      case 3: {  // replica query against reference scan
        const auto node = static_cast<net::NodeId>(rng.next_below(6));
        auto got = map.entries_with_replica_on(node);
        std::size_t expect = 0;
        for (const auto& [rid, loc] : reference) {
          if (loc.tier != Tier::kRemote) continue;
          for (const auto& replica : loc.replicas)
            if (replica.node == node) {
              ++expect;
              break;
            }
        }
        ASSERT_EQ(got.size(), expect);
        break;
      }
    }
    ASSERT_EQ(map.size(), reference.size());
  }
}

// SharedMemoryPool vs a byte-accurate reference.
TEST(SharedPoolModelTest, MatchesReferenceOverRandomOps) {
  Rng rng(202);
  SharedMemoryPool pool({.arena_bytes = 2 * MiB, .slab = {}});
  ASSERT_TRUE(pool.set_donation(1, 1 * MiB).ok());
  ASSERT_TRUE(pool.set_donation(2, 512 * KiB).ok());

  std::map<std::pair<ServerId, EntryId>, std::vector<std::byte>> reference;

  for (int step = 0; step < 8000; ++step) {
    const ServerId owner = 1 + static_cast<ServerId>(rng.next_below(2));
    const EntryId id = rng.next_below(200);
    const auto key = std::pair{owner, id};
    switch (rng.next_below(3)) {
      case 0: {  // put
        auto data = random_bytes(rng, 1 + rng.next_below(4096));
        Status s = pool.put(owner, id, data);
        if (reference.count(key) > 0) {
          ASSERT_EQ(s.code(), StatusCode::kAlreadyExists);
        } else if (s.ok()) {
          reference[key] = std::move(data);
        }
        break;
      }
      case 1: {  // get
        auto ref = reference.find(key);
        std::vector<std::byte> out(4096);
        Status s = pool.get(owner, id, out);
        ASSERT_EQ(s.ok(), ref != reference.end());
        if (s.ok()) {
          ASSERT_TRUE(std::equal(ref->second.begin(), ref->second.end(),
                                 out.begin()));
        }
        break;
      }
      case 2: {  // remove
        const bool existed = reference.erase(key) > 0;
        ASSERT_EQ(pool.remove(owner, id).ok(), existed);
        break;
      }
    }
    ASSERT_EQ(pool.entry_count(), reference.size());
  }

  // Drain through LRU eviction: every eviction must return exact bytes.
  while (pool.entry_count() > 0) {
    ServerId owner = 0;
    EntryId id = 0;
    auto bytes = pool.evict_lru(&owner, &id);
    ASSERT_TRUE(bytes.ok());
    auto ref = reference.find({owner, id});
    ASSERT_NE(ref, reference.end());
    ASSERT_EQ(*bytes, ref->second);
    reference.erase(ref);
  }
}

// RegisteredBufferPool invariants under random churn: no block overlap, all
// registered bytes tracked, slab counts consistent with the fabric.
TEST(BufferPoolModelTest, NoOverlapAndConsistentRegistration) {
  sim::Simulator sim;
  net::Fabric fabric(sim);
  fabric.add_node(0);
  RegisteredBufferPool pool(
      fabric, 0, {.arena_bytes = 2 * MiB, .slab_bytes = 128 * KiB});
  Rng rng(303);

  struct Live {
    BlockRef ref;
  };
  std::vector<Live> live;
  for (int step = 0; step < 6000; ++step) {
    if (live.empty() || rng.bernoulli(0.6)) {
      auto block = pool.allocate(
          static_cast<std::uint32_t>(512u << rng.next_below(4)));
      if (!block.ok()) continue;
      // No overlap with any live block in the same slab.
      for (const auto& other : live) {
        if (other.ref.slab != block->slab) continue;
        const bool disjoint =
            block->offset + block->size <= other.ref.offset ||
            other.ref.offset + other.ref.size <= block->offset;
        ASSERT_TRUE(disjoint);
      }
      live.push_back({*block});
    } else {
      const std::size_t idx =
          static_cast<std::size_t>(rng.next_below(live.size()));
      ASSERT_TRUE(pool.free(live[idx].ref).ok());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    ASSERT_EQ(pool.registered_bytes(),
              fabric.registered_bytes(0));
    ASSERT_EQ(pool.active_slabs(), fabric.registered_region_count(0));
  }
  for (const auto& block : live) ASSERT_TRUE(pool.free(block.ref).ok());
  EXPECT_EQ(pool.used_bytes(), 0u);
}

}  // namespace
}  // namespace dm::mem

namespace dm::swap {
namespace {

// Per-page content: every fourth page is incompressible (random bytes),
// the rest compress well — so one trace exercises both admission-control
// branches. Pure function of the page id, like all swap content.
constexpr double kCompressibleFraction = 0.15;
double page_random_fraction(std::uint64_t page) {
  return page % 4 == 0 ? 1.0 : kCompressibleFraction;
}

void model_content(std::uint64_t page, std::span<std::byte> out) {
  workloads::fill_page(out, page, page_random_fraction(page), 17);
}

std::uint64_t model_checksum(std::uint64_t page) {
  std::vector<std::byte> bytes(kPageBytes);
  model_content(page, bytes);
  return fnv1a(bytes);
}

// ---------------------------------------------------------------------------
// SwapOracle: pure-function reference model of SwapManager's membership
// semantics. No simulator, no I/O, no bytes — it tracks WHICH pages are
// where (resident / dirty / backed / batch members / LRU order) and what
// the policy state machines decide, which is exactly what the checker
// compares against the real implementation.
//
// Deliberately out of scope (checked by other means or other tests): fault
// latencies, the zswap tier (model configs run with zswap off), and the
// write-back buffer's asynchronous flush timing — a successful flush does
// not change page membership, so the oracle is exact even with staging on.
// ---------------------------------------------------------------------------
class SwapOracle {
 public:
  struct Counters {
    std::uint64_t faults = 0;
    std::uint64_t swap_ins = 0;
    std::uint64_t swap_outs = 0;
    std::uint64_t cold_faults = 0;
    std::uint64_t clean_drops = 0;
    std::uint64_t pbs_batch_ins = 0;
    std::uint64_t single_page_ins = 0;
    std::uint64_t fanout_skips = 0;
    std::uint64_t admit_accept = 0;
    std::uint64_t admit_skip = 0;
    std::uint64_t swapped_out_pages = 0;
  };

  // `config` must be the manager's post-construction config (the ctor
  // clamps max_batch_pages), i.e. manager.config().
  explicit SwapOracle(const SwapManager::Config& config) : config_(config) {
    if (config_.adaptive_pbs) {
      pattern_.emplace(config_.pattern_history,
                       static_cast<std::int64_t>(config_.max_batch_pages));
      window_.emplace(AdaptiveWindow::Config{
          config_.min_batch_pages, config_.max_batch_pages,
          std::clamp(config_.batch_pages, config_.min_batch_pages,
                     config_.max_batch_pages),
          config_.pattern_hysteresis});
    }
  }

  void touch(std::uint64_t page, bool write) {
    if (resident_.count(page) > 0) {
      lru_.touch(page);
      if (write) {
        dirty_.insert(page);
        invalidate(page);
      }
      return;
    }
    ++c_.faults;
    if (config_.adaptive_pbs) {
      pattern_->record(page);
      window_->update(pattern_->classify());
    }
    if (backed_.count(page) > 0) {
      fault_backed(page);
    } else {
      make_room(1);
      resident_.insert(page);
      lru_.touch(page);
      ++c_.cold_faults;
    }
    if (write) {
      dirty_.insert(page);
      invalidate(page);
    }
  }

  void flush_all() {
    while (!resident_.empty()) evict_for_space();
  }

  std::size_t window() const {
    return window_ ? window_->current() : config_.batch_pages;
  }
  AccessPattern pattern() const {
    return pattern_ ? pattern_->classify() : AccessPattern::kUnknown;
  }

  const Counters& counters() const { return c_; }
  const std::set<std::uint64_t>& resident() const { return resident_; }
  const std::set<std::uint64_t>& dirty() const { return dirty_; }
  const std::map<std::uint64_t, mem::EntryId>& backed() const {
    return backed_;
  }

 private:
  void invalidate(std::uint64_t page) {
    auto it = backed_.find(page);
    if (it == backed_.end()) return;
    const mem::EntryId entry = it->second;
    backed_.erase(it);
    auto& members = batches_.at(entry);
    members.erase(std::find(members.begin(), members.end(), page));
    if (members.empty()) batches_.erase(entry);
  }

  void fault_backed(std::uint64_t page) {
    const mem::EntryId entry = backed_.at(page);
    bool pbs = config_.proactive_batch_swap_in;
    if (pbs && config_.adaptive_pbs &&
        pattern_->classify() == AccessPattern::kRandom) {
      pbs = false;
      ++c_.fanout_skips;
    }
    std::vector<std::uint64_t> restore;
    if (pbs) {
      for (std::uint64_t member : batches_.at(entry))
        if (resident_.count(member) == 0) restore.push_back(member);
      ++c_.pbs_batch_ins;
    } else {
      restore.push_back(page);
      ++c_.single_page_ins;
    }
    make_room(restore.size());
    for (std::uint64_t member : restore) {
      resident_.insert(member);
      lru_.touch(member);
      ++c_.swap_ins;
    }
  }

  void make_room(std::size_t incoming) {
    while (resident_.size() + incoming > config_.resident_pages)
      evict_for_space();
  }

  void evict_for_space() {
    const std::size_t window_pages =
        config_.adaptive_pbs ? window_->current() : config_.batch_pages;
    std::vector<std::uint64_t> to_write;
    while (to_write.size() < window_pages && !lru_.empty()) {
      const std::uint64_t victim = *lru_.evict_lru();
      const bool clean =
          dirty_.count(victim) == 0 && backed_.count(victim) > 0;
      if (clean) {
        resident_.erase(victim);
        ++c_.clean_drops;
        if (to_write.empty()) break;
        continue;
      }
      to_write.push_back(victim);
    }
    if (to_write.empty()) return;
    for (std::uint64_t page : to_write) {
      resident_.erase(page);
      dirty_.erase(page);
    }
    store_batch(to_write);
  }

  void store_batch(const std::vector<std::uint64_t>& pages) {
    const mem::EntryId entry = next_batch_++;
    for (std::uint64_t page : pages) {
      if (config_.compression != CompressionMode::kOff &&
          config_.compression_admission) {
        std::vector<std::byte> bytes(kPageBytes);
        model_content(page, bytes);
        const double entropy =
            compress::sample_entropy(bytes, config_.admission_probe_bytes);
        ++(entropy <= config_.admission_max_entropy ? c_.admit_accept
                                                    : c_.admit_skip);
      }
      backed_.emplace(page, entry);
      batches_[entry].push_back(page);
    }
    ++c_.swap_outs;
    c_.swapped_out_pages += pages.size();
  }

  SwapManager::Config config_;
  std::optional<PatternTracker> pattern_;
  std::optional<AdaptiveWindow> window_;
  std::set<std::uint64_t> resident_;
  std::set<std::uint64_t> dirty_;
  LruTracker<std::uint64_t> lru_;
  std::map<std::uint64_t, mem::EntryId> backed_;
  std::map<mem::EntryId, std::vector<std::uint64_t>> batches_;
  mem::EntryId next_batch_ = 1;
  Counters c_;
};

// ---------------------------------------------------------------------------
// The checker: builds a real system + SwapManager and an oracle from the
// same config, replays a seeded trace of mixed sequential / strided /
// random phases with writes and occasional flush/barrier events, and
// asserts the properties after every step.
// ---------------------------------------------------------------------------
class SwapModelChecker {
 public:
  SwapModelChecker(SystemSetup setup, std::uint64_t seed,
                   std::uint64_t page_space = 128)
      : page_space_(page_space), rng_(seed) {
    core::DmSystem::Config config;
    config.node_count = 4;
    config.node.shm.arena_bytes = 16 * MiB;
    config.node.recv.arena_bytes = 16 * MiB;
    config.node.disk.capacity_bytes = 128 * MiB;
    config.service = setup.service;
    system_ = std::make_unique<core::DmSystem>(config);
    system_->start();
    client_ = &system_->create_server(0, 64 * MiB, setup.ldmc);
    manager_ = std::make_unique<SwapManager>(*client_, setup.swap,
                                             model_content);
    oracle_ = std::make_unique<SwapOracle>(manager_->config());
  }

  void run(int steps) {
    int remaining = 0;
    int mode = 0;
    std::uint64_t cursor = 0;
    std::uint64_t stride = 1;
    for (int step = 0; step < steps; ++step) {
      if (remaining == 0) {
        mode = static_cast<int>(rng_.next_below(3));
        remaining = 16 + static_cast<int>(rng_.next_below(48));
        cursor = rng_.next_below(page_space_);
        stride = 2 + rng_.next_below(6);
      }
      --remaining;
      std::uint64_t page = 0;
      switch (mode) {
        case 0: page = cursor++ % page_space_; break;            // sequential
        case 1: page = (cursor += stride) % page_space_; break;  // strided
        default: page = rng_.next_below(page_space_); break;     // random
      }
      const bool write = rng_.bernoulli(0.3);
      touched_.insert(page);

      // P1: every touch on a healthy system succeeds.
      ASSERT_TRUE(manager_->touch(page, write).ok())
          << "step " << step << " page " << page;
      oracle_->touch(page, write);

      check_step(step, page);
      if (step % 64 == 63) check_full(step);

      if (rng_.bernoulli(0.005)) {
        // P16: the barrier drains the write-back buffer completely.
        ASSERT_TRUE(manager_->wb_barrier().ok());
        ASSERT_EQ(manager_->wb_staged_batches(), 0u);
        ASSERT_EQ(manager_->wb_in_flight(), 0u);
      } else if (rng_.bernoulli(0.003)) {
        // P17: flush_all empties the resident set; every touched page must
        // come back intact afterwards (checked by the next faults + the
        // final sweep below).
        ASSERT_TRUE(manager_->flush_all().ok());
        oracle_->flush_all();
        ASSERT_EQ(manager_->resident_count(), 0u);
        ASSERT_EQ(oracle_->resident().size(), 0u);
        ASSERT_EQ(manager_->wb_staged_batches(), 0u);
        // P18 at quiescence: no batch rewrite is left pending, so every
        // map entry is named by a backed page.
        ASSERT_EQ(manager_->compactions_pending(), 0u);
        check_no_orphans(step);
      }
    }
    check_full(steps);

    // Final integrity sweep (P17's second half): every page ever touched
    // is still recoverable with generator-exact contents.
    for (std::uint64_t page : touched_) {
      ASSERT_TRUE(manager_->touch(page).ok());
      auto bytes = manager_->resident_bytes(page);
      ASSERT_TRUE(bytes.ok());
      ASSERT_EQ(fnv1a(*bytes), model_checksum(page)) << "page " << page;
    }
  }

  SwapManager& manager() { return *manager_; }
  core::DmSystem& system() { return *system_; }

 private:
  void check_step(int step, std::uint64_t page) {
    const auto& c = oracle_->counters();
    auto& m = manager_->metrics();
    // P2: the touched page is resident afterwards.
    ASSERT_TRUE(manager_->is_resident(page)) << "step " << step;
    // P3: fault count matches the oracle.
    ASSERT_EQ(manager_->faults(), c.faults) << "step " << step;
    // P4 / P5: swap-in and swap-out counts match.
    ASSERT_EQ(manager_->swap_ins(), c.swap_ins) << "step " << step;
    ASSERT_EQ(manager_->swap_outs(), c.swap_outs) << "step " << step;
    // P6: resident-set size matches.
    ASSERT_EQ(manager_->resident_count(), oracle_->resident().size());
    // P7: the resident budget is never exceeded.
    ASSERT_LE(manager_->resident_count(),
              manager_->config().resident_pages);
    // P12: service-path counters match.
    ASSERT_EQ(m.counter_value("swap.cold_faults"), c.cold_faults);
    ASSERT_EQ(m.counter_value("swap.clean_drops"), c.clean_drops);
    ASSERT_EQ(m.counter_value("swap.swapped_out_pages"),
              c.swapped_out_pages);
    // P13: the PBS/single-page fan-out decisions match.
    ASSERT_EQ(m.counter_value("swap.pbs_batch_ins"), c.pbs_batch_ins);
    ASSERT_EQ(m.counter_value("swap.single_page_ins"), c.single_page_ins);
    ASSERT_EQ(m.counter_value("swap.pbs.fanout_skips"), c.fanout_skips);
    // P14: every admission-control decision matches the oracle's entropy
    // recomputation.
    ASSERT_EQ(m.counter_value("swap.admit.accept"), c.admit_accept);
    ASSERT_EQ(m.counter_value("swap.admit.skip"), c.admit_skip);
    // P15: the adaptive window agrees and stays within its bounds.
    ASSERT_EQ(manager_->current_window(), oracle_->window());
    if (manager_->config().adaptive_pbs) {
      ASSERT_GE(manager_->current_window(),
                manager_->config().min_batch_pages);
      ASSERT_LE(manager_->current_window(),
                manager_->config().max_batch_pages);
      ASSERT_EQ(manager_->current_pattern(), oracle_->pattern());
    }
    // P16 (bound half): the staging buffer respects its configured bound.
    ASSERT_LE(manager_->wb_staged_batches(),
              std::max<std::size_t>(manager_->config().writeback_batches,
                                    1));
  }

  void check_full(int step) {
    // P6 (membership half) / P8 / P9 / P10, swept over the whole page
    // space every 64 steps.
    for (std::uint64_t page = 0; page < page_space_; ++page) {
      ASSERT_EQ(manager_->is_resident(page),
                oracle_->resident().count(page) > 0)
          << "step " << step << " page " << page;
      // P8: swap-cache backing matches.
      ASSERT_EQ(manager_->is_backed(page),
                oracle_->backed().count(page) > 0)
          << "step " << step << " page " << page;
      // P9: dirty state matches.
      ASSERT_EQ(manager_->is_dirty(page), oracle_->dirty().count(page) > 0)
          << "step " << step << " page " << page;
    }
    ASSERT_EQ(manager_->backed_count(), oracle_->backed().size());
    // P10: conservation — no touched page is ever lost; each is resident,
    // backed down-tier, or both.
    for (std::uint64_t page : touched_) {
      ASSERT_TRUE(manager_->is_resident(page) || manager_->is_backed(page))
          << "page " << page << " lost at step " << step;
    }
    // P11: every resident page holds generator-exact bytes.
    for (std::uint64_t page : touched_) {
      if (!manager_->is_resident(page)) continue;
      auto bytes = manager_->resident_bytes(page);
      ASSERT_TRUE(bytes.ok());
      ASSERT_EQ(fnv1a(*bytes), model_checksum(page)) << "page " << page;
    }
    check_no_orphans(step);
  }

  // P18: no orphaned entry. Every entry in the client's map is named by a
  // backed page or by a batch compaction still pending.
  void check_no_orphans(int step) {
    std::vector<mem::EntryId> orphans;
    client_->map().for_each(
        [this, &orphans](mem::EntryId id, const mem::EntryLocation&) {
          if (!manager_->names_entry(id)) orphans.push_back(id);
        });
    ASSERT_TRUE(orphans.empty())
        << orphans.size() << " orphaned entries at step " << step
        << ", first " << orphans.front();
  }

  std::uint64_t page_space_;
  Rng rng_;
  std::unique_ptr<core::DmSystem> system_;
  core::Ldmc* client_ = nullptr;
  std::unique_ptr<SwapManager> manager_;
  std::unique_ptr<SwapOracle> oracle_;
  std::set<std::uint64_t> touched_;
};

SystemSetup small_setup(SystemKind kind, std::uint64_t resident = 32) {
  auto setup = make_system(kind, resident);
  return setup;
}

// Batch compaction runs in every shared-memory and remote configuration;
// it keeps membership sets, so the oracle stays exact with it on. These two
// also prove the trace exercises it.
TEST(SwapModelTest, FastSwapFixedWindowMatchesOracle) {
  SwapModelChecker checker(small_setup(SystemKind::kFastSwap), 1001);
  checker.run(1500);
  EXPECT_GT(checker.manager().metrics().counter_value(
                "swap.compact.committed"),
            0u);
}

TEST(SwapModelTest, NoPbsMatchesOracle) {
  SwapModelChecker checker(small_setup(SystemKind::kFastSwapNoPbs), 1002);
  checker.run(1500);
  EXPECT_GT(checker.manager().metrics().counter_value(
                "swap.compact.committed"),
            0u);
}

TEST(SwapModelTest, PerPageBatchingMatchesOracle) {
  auto setup = small_setup(SystemKind::kFastSwap);
  setup.swap.batch_pages = 1;
  SwapModelChecker checker(setup, 1003);
  checker.run(1000);
}

TEST(SwapModelTest, AdaptivePbsMatchesOracle) {
  auto setup = small_setup(SystemKind::kFastSwap);
  setup.swap.adaptive_pbs = true;
  SwapModelChecker checker(setup, 1004);
  checker.run(1500);
}

TEST(SwapModelTest, CompressionAdmissionMatchesOracle) {
  auto setup = small_setup(SystemKind::kFastSwap);
  setup.swap.compression_admission = true;
  SwapModelChecker checker(setup, 1005);
  checker.run(1500);
}

TEST(SwapModelTest, WriteBackStagingMatchesOracle) {
  auto setup = small_setup(SystemKind::kFastSwap);
  setup.swap.writeback_batches = 4;
  SwapModelChecker checker(setup, 1006);
  checker.run(1500);
}

TEST(SwapModelTest, FullAdaptiveEngineMatchesOracle) {
  SwapModelChecker checker(small_setup(SystemKind::kFastSwapAdaptive), 1007);
  checker.run(2000);
}

TEST(SwapModelTest, FullAdaptiveEngineMatchesOracleAcrossSeeds) {
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    SwapModelChecker checker(small_setup(SystemKind::kFastSwapAdaptive),
                             seed);
    checker.run(800);
  }
}

TEST(SwapModelTest, UncompressedBaselineWithWriteBackMatchesOracle) {
  auto setup = small_setup(SystemKind::kInfiniswap);
  setup.swap.disk_backup = false;  // keep the oracle's scope exact
  setup.swap.writeback_batches = 2;
  setup.swap.adaptive_pbs = true;
  SwapModelChecker checker(setup, 1008);
  checker.run(1200);
}

// P-determinism: the same seeded trace replayed twice produces the exact
// same counters and a byte-identical metrics dump — the property the
// chaos/recovery suites rely on for reproducing schedules.
TEST(SwapModelTest, SameSeedReplaysAreByteIdentical) {
  auto run_once = [](std::uint64_t seed) {
    SwapModelChecker checker(small_setup(SystemKind::kFastSwapAdaptive),
                             seed);
    checker.run(700);
    const std::string dump = checker.manager().metrics().to_string();
    return std::tuple(checker.manager().faults(),
                      checker.manager().swap_ins(),
                      checker.manager().swap_outs(),
                      checker.system().simulator().now(),
                      fnv1a(std::as_bytes(
                          std::span(dump.data(), dump.size()))));
  };
  EXPECT_EQ(run_once(4242), run_once(4242));
}

}  // namespace
}  // namespace dm::swap

// --- erasure-coded stripe invariants (Hydra-style EC model checker) ----------
//
// A seeded op stream (stripe puts, reads, guarded crashes/recoveries, repair
// scans) runs against a live cluster while four invariants are re-checked
// after every step, for a k > 1 code and for k = 1 (replication, where
// every shard is a whole copy):
//   E1  every EC stripe carries unique shard indices, at most k+r of them;
//   E2  any entry with >= k live shard hosts is readable, byte-exact —
//       including through the degraded reconstruction path;
//   E3  a repair scan never decreases any stripe's surviving-shard count;
//   E4  degraded reads return bytes identical to the fault-free read
//       (checked implicitly by E2's byte-exact comparison both before and
//       after faults).
namespace dm::core {
namespace {

std::vector<std::byte> ec_page(std::uint64_t id) {
  std::vector<std::byte> bytes(4096);
  workloads::fill_page(bytes, id, 0.5, 7);
  return bytes;
}

// (k, r) stripe shape.
using StripeShape = std::tuple<std::size_t, std::size_t>;

class EcModelTest : public ::testing::TestWithParam<StripeShape> {};

TEST_P(EcModelTest, StripeInvariantsHoldOverRandomOps) {
  const std::size_t kEcK = std::get<0>(GetParam());
  const std::size_t kEcR = std::get<1>(GetParam());
  DmSystem::Config config;
  config.node_count = 8;
  config.node.shm.arena_bytes = 4 * MiB;
  config.node.recv.arena_bytes = 16 * MiB;
  config.node.disk.capacity_bytes = 64 * MiB;
  config.service.rdmc.ec_k = kEcK;
  config.service.rdmc.ec_r = kEcR;
  config.service.rdmc.min_shards = kEcK;
  DmSystem system(config);
  system.start();
  LdmcOptions options;
  options.shm_fraction = 0.0;
  options.allow_disk = false;
  auto& client = system.create_server(0, 64 * MiB, options);

  Rng rng(20260809);
  std::set<mem::EntryId> live_keys;
  std::vector<std::size_t> down_nodes;
  mem::EntryId next_key = 1;

  auto live_shards = [&](const mem::EntryLocation& loc) {
    std::size_t live = 0;
    for (const auto& replica : loc.replicas)
      if (system.fabric().node_up(replica.node)) ++live;
    return live;
  };
  // E1 for every live key, plus the E2 readability/byte-exactness check.
  auto check_stripes = [&]() {
    for (mem::EntryId key : live_keys) {
      auto loc = client.map().lookup(key);
      ASSERT_TRUE(loc.ok()) << "key " << key;
      if (loc->tier != mem::Tier::kRemote) continue;
      ASSERT_EQ(loc->ec_k, kEcK);
      std::set<std::uint32_t> shards;
      for (const auto& replica : loc->replicas) {
        EXPECT_LT(replica.shard, kEcK + kEcR);
        shards.insert(replica.shard);
      }
      EXPECT_EQ(shards.size(), loc->replicas.size())
          << "duplicate shard index on key " << key;
      EXPECT_LE(loc->replicas.size(), kEcK + kEcR);
      if (live_shards(*loc) >= kEcK) {
        std::vector<std::byte> out(4096);
        ASSERT_TRUE(client.get_sync(key, out).ok())
            << "key " << key << " unreadable with >= k live shards";
        EXPECT_EQ(out, ec_page(key)) << "key " << key;
      }
    }
  };

  for (int step = 0; step < 120; ++step) {
    const std::size_t op = rng.next_below(10);
    if (op < 4) {  // put a fresh key
      const mem::EntryId key = next_key++;
      if (client.put_sync(key, ec_page(key)).ok()) live_keys.insert(key);
    } else if (op < 7 && !live_keys.empty()) {  // read a random key
      auto it = live_keys.begin();
      std::advance(it, rng.next_below(live_keys.size()));
      std::vector<std::byte> out(4096);
      if (client.get_sync(*it, out).ok()) {
        EXPECT_EQ(out, ec_page(*it));
      }
    } else if (op == 7 && down_nodes.size() < kEcR) {  // guarded crash
      const std::size_t victim = 1 + rng.next_below(7);
      bool ok = system.fabric().node_up(system.node(victim).id());
      client.map().for_each(
          [&](mem::EntryId, const mem::EntryLocation& loc) {
            if (loc.tier != mem::Tier::kRemote) return;
            std::size_t live = 0;
            for (const auto& replica : loc.replicas)
              if (replica.node != system.node(victim).id() &&
                  system.fabric().node_up(replica.node))
                ++live;
            if (live < kEcK) ok = false;
          });
      if (ok) {
        system.crash_node(victim);
        down_nodes.push_back(victim);
      }
    } else if (op == 8 && !down_nodes.empty()) {  // recover
      system.recover_node(down_nodes.back());
      down_nodes.pop_back();
    } else {  // repair scan; E3: surviving counts never decrease
      std::map<mem::EntryId, std::size_t> before;
      for (mem::EntryId key : live_keys) {
        auto loc = client.map().lookup(key);
        if (loc.ok() && loc->tier == mem::Tier::kRemote)
          before[key] = live_shards(*loc);
      }
      bool scanned = false;
      system.repair(0).scan_tick([&]() { scanned = true; });
      ASSERT_TRUE(system.simulator().run_until_flag(scanned));
      for (const auto& [key, count] : before) {
        auto loc = client.map().lookup(key);
        ASSERT_TRUE(loc.ok());
        EXPECT_GE(live_shards(*loc), count)
            << "repair shrank key " << key << "'s surviving shards";
      }
    }
    system.run_for(20 * kMilli);
    check_stripes();
  }

  // Heal completely and re-verify everything one last time.
  for (std::size_t node : down_nodes) system.recover_node(node);
  down_nodes.clear();
  system.run_for(10 * kSecond);
  check_stripes();
  EXPECT_GT(live_keys.size(), 20u);
}

INSTANTIATE_TEST_SUITE_P(Shapes, EcModelTest,
                         ::testing::Values(StripeShape{2, 2},
                                           StripeShape{1, 2}));

}  // namespace
}  // namespace dm::core

// --- CXL tier invariants (DESIGN.md §14) -------------------------------------
//
// A seeded fault/evict trace drives a SwapManager whose eviction path tiers
// DRAM -> CXL -> RDMA backend, and five tier invariants are checked after
// every step:
//
//   T1  exclusivity: a page in the CXL pool is neither resident nor backed
//       down-tier — the pool holds the sole authoritative copy.
//   T2  integrity: promotion/demotion never loses the latest bytes; every
//       resident page always matches its generator image.
//   T3  line faults stay off the page path: a sub-threshold touch of a
//       pooled page moves only fabric.cxl_* counters, never swap_ins/outs.
//   T4  pool bound: the pool never exceeds its configured capacity.
//   T5  conservation: after flush_all, the pool is empty and every page
//       ever touched comes back intact from the durable tiers.

namespace dm::cxl {
namespace {

struct CxlModelRig {
  CxlModelRig(std::uint64_t resident_pages, std::size_t pool_pages,
              std::uint64_t promote_threshold)
      : setup(swap::make_system(swap::SystemKind::kFastSwap, resident_pages)) {
    core::DmSystem::Config config;
    config.node_count = 4;
    config.node.shm.arena_bytes = 16 * MiB;
    config.node.recv.arena_bytes = 16 * MiB;
    config.node.disk.capacity_bytes = 128 * MiB;
    config.service = setup.service;
    config.cxl_region_bytes = 4 * MiB;
    config.cxl_home = 1;
    system = std::make_unique<core::DmSystem>(config);
    system->start();
    client = &system->create_server(0, 64 * MiB, setup.ldmc);
    CxlPageTier::Config tier_config;
    tier_config.pool_pages = pool_pages;
    tier_config.page_bytes = swap::kPageBytes;
    tier = std::make_unique<CxlPageTier>(system->create_cxl_agent(0),
                                         tier_config);
    auto swap_config = setup.swap;
    swap_config.cxl_tier = tier.get();
    swap_config.cxl_promote_threshold = promote_threshold;
    manager = std::make_unique<swap::SwapManager>(
        *client, swap_config, [](std::uint64_t page, std::span<std::byte> out) {
          workloads::fill_page(out, page, 0.3, 11);
        });
  }

  std::uint64_t checksum_of(std::uint64_t page) {
    std::vector<std::byte> bytes(swap::kPageBytes);
    workloads::fill_page(bytes, page, 0.3, 11);
    return fnv1a(bytes);
  }

  swap::SystemSetup setup;
  std::unique_ptr<core::DmSystem> system;
  core::Ldmc* client = nullptr;
  std::unique_ptr<CxlPageTier> tier;
  std::unique_ptr<swap::SwapManager> manager;
};

TEST(CxlTierModelTest, InvariantsHoldOverSeededTrace) {
  constexpr std::uint64_t kPages = 40;
  constexpr std::size_t kPool = 8;
  CxlModelRig rig(/*resident=*/8, kPool, /*threshold=*/3);
  Rng rng(517);

  auto check_invariants = [&]() {
    std::size_t pooled = 0;
    for (std::uint64_t p = 0; p < kPages; ++p) {
      if (!rig.manager->in_cxl(p)) continue;
      ++pooled;
      // T1: the pool copy is the only copy.
      EXPECT_FALSE(rig.manager->is_resident(p)) << "page " << p;
      EXPECT_FALSE(rig.manager->is_backed(p)) << "page " << p;
    }
    EXPECT_EQ(pooled, rig.manager->cxl_pooled());
    EXPECT_LE(pooled, kPool);  // T4
  };

  for (int step = 0; step < 400; ++step) {
    const std::uint64_t page = rng.next_below(kPages);
    const bool write = rng.next_below(4) == 0;
    ASSERT_TRUE(rig.manager->touch(page, write).ok());
    if (rng.next_below(50) == 0 && rig.manager->cxl_pooled() > 0) {
      ASSERT_TRUE(rig.manager->shed_cxl(1).ok());
    }
    check_invariants();
    // T2 (sampled): the page just touched, wherever it landed, is intact.
    if (rig.manager->is_resident(page)) {
      auto bytes = rig.manager->resident_bytes(page);
      ASSERT_TRUE(bytes.ok());
      EXPECT_EQ(fnv1a(*bytes), rig.checksum_of(page)) << "page " << page;
    }
  }

  // T5: flush drains every tier above the durable one, and nothing is lost.
  ASSERT_TRUE(rig.manager->flush_all().ok());
  EXPECT_EQ(rig.manager->cxl_pooled(), 0u);
  for (std::uint64_t p = 0; p < kPages; ++p) {
    ASSERT_TRUE(rig.manager->touch(p).ok());
    auto bytes = rig.manager->resident_bytes(p);
    ASSERT_TRUE(bytes.ok()) << "page " << p;
    EXPECT_EQ(fnv1a(*bytes), rig.checksum_of(p)) << "page " << p;
  }
}

TEST(CxlTierModelTest, LineFaultsNeverTouchThePagePath) {
  CxlModelRig rig(/*resident=*/8, /*pool=*/16, /*threshold=*/100);
  for (std::uint64_t p = 0; p < 24; ++p)
    ASSERT_TRUE(rig.manager->touch(p).ok());

  std::uint64_t pooled = ~0ull;
  for (std::uint64_t p = 0; p < 24; ++p)
    if (rig.manager->in_cxl(p)) pooled = p;
  ASSERT_NE(pooled, ~0ull);

  auto& fabric_metrics = rig.system->fabric().metrics();
  const std::uint64_t swap_ins = rig.manager->swap_ins();
  const std::uint64_t swap_outs = rig.manager->swap_outs();
  const std::uint64_t cxl_reads =
      fabric_metrics.counter_value("fabric.cxl_reads");
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(rig.manager->touch(pooled, /*write=*/true).ok());
    ASSERT_TRUE(rig.manager->in_cxl(pooled));  // threshold never reached
  }
  // T3: eight sub-page faults rode the coherent line port exclusively.
  EXPECT_EQ(rig.manager->swap_ins(), swap_ins);
  EXPECT_EQ(rig.manager->swap_outs(), swap_outs);
  EXPECT_GT(fabric_metrics.counter_value("fabric.cxl_reads"), cxl_reads);
  EXPECT_GT(rig.manager->metrics().counter_value("swap.cxl.line_faults"), 0u);
}

}  // namespace
}  // namespace dm::cxl
