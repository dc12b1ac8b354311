// Model-based randomized tests: drive a component with a random operation
// stream and check every observable against a simple reference model.
//
// The second half of this file is the swap-path model checker: it replays
// seeded fault/evict/flush traces through a full SwapManager (real
// simulator, real tiers, real compression) and, in lockstep, through
// SwapOracle — a pure-function reference that mirrors the paging layer's
// membership semantics (resident set, dirty set, swap-cache backing, batch
// composition, LRU order and the PBS fan-out). Numbered properties P1–P19
// are asserted along the trace (P14, the retired adaptive-window check,
// keeps its number unused); see SwapModelChecker::check_*.
#include <gtest/gtest.h>

#include <map>
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
  SharedMemoryPool pool({.arena_bytes = 2 * MiB});
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

// RegisteredBufferPool invariants under random churn of exact-fit blocks
// from 1 B to a whole slab: every block is 64 B aligned, sized to its
// request rounded up to 64 B, inside one slab and disjoint from every other
// live block; used bytes are the live blocks' sum; registered bytes and
// slab counts agree with the fabric. Once everything is freed, each
// registered slab takes one slab-sized block, so the free extents merged.
TEST(BufferPoolModelTest, NoOverlapAndConsistentRegistration) {
  constexpr std::uint32_t kSlabBytes = 128 * KiB;
  sim::Simulator sim;
  net::Fabric fabric(sim);
  fabric.add_node(0);
  RegisteredBufferPool pool(
      fabric, 0, {.arena_bytes = 2 * MiB, .slab_bytes = kSlabBytes});
  Rng rng(303);

  std::vector<BlockRef> live;
  std::uint64_t live_bytes = 0;
  for (int step = 0; step < 6000; ++step) {
    if (live.empty() || rng.bernoulli(0.6)) {
      // Log-uniform sizes: as many small shards as whole-slab batches.
      const auto size = static_cast<std::uint32_t>(
          1 + rng.next_below(std::uint64_t{1} << rng.next_below(18)));
      auto block = pool.allocate(size);
      if (!block.ok()) {
        ASSERT_EQ(block.status().code(), StatusCode::kResourceExhausted);
        continue;
      }
      ASSERT_EQ(block->offset % 64, 0u);
      ASSERT_EQ(block->size % 64, 0u);
      ASSERT_GE(block->size, size);
      ASSERT_LT(block->size, size + 64);
      ASSERT_LE(block->offset + block->size, kSlabBytes);
      for (const auto& other : live) {
        if (other.slab != block->slab) continue;
        const bool disjoint = block->offset + block->size <= other.offset ||
                              other.offset + other.size <= block->offset;
        ASSERT_TRUE(disjoint);
      }
      live.push_back(*block);
      live_bytes += block->size;
    } else {
      const std::size_t idx =
          static_cast<std::size_t>(rng.next_below(live.size()));
      ASSERT_TRUE(pool.free(live[idx]).ok());
      live_bytes -= live[idx].size;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    ASSERT_EQ(pool.used_bytes(), live_bytes);
    ASSERT_EQ(pool.registered_bytes(),
              fabric.registered_bytes(0));
    ASSERT_EQ(pool.active_slabs(), fabric.registered_region_count(0));
  }
  for (const auto& block : live) ASSERT_TRUE(pool.free(block).ok());
  EXPECT_EQ(pool.used_bytes(), 0u);

  const std::size_t registered = pool.active_slabs();
  ASSERT_GT(registered, 1u);
  std::set<SlabId> whole;
  for (std::size_t i = 0; i < registered; ++i) {
    auto block = pool.allocate(kSlabBytes);
    ASSERT_TRUE(block.ok());
    EXPECT_EQ(block->offset, 0u);
    whole.insert(block->slab);
  }
  EXPECT_EQ(whole.size(), registered);
  EXPECT_EQ(pool.active_slabs(), registered);  // no slab registered anew
}

}  // namespace
}  // namespace dm::mem

namespace dm::swap {
namespace {

// Per-page content: every fourth page is incompressible (random bytes) and
// falls back to a raw 4 KiB slot, the rest compress well into sub-page
// buckets — so one trace exercises both the LZ path and the raw fallback.
// Pure function of the page id, like all swap content.
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
// where (resident / dirty / backed / batch members / LRU order), which is
// exactly what the checker compares against the real implementation, and
// the PBS fan-out that decides which members a fault restores: the
// restored siblings not yet touched, the decayed share of uses and wastes,
// and the page the last PBS fault predicted.
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
    std::uint64_t swapped_out_pages = 0;
    std::uint64_t narrowed_ins = 0;
    std::uint64_t siblings_used = 0;
    std::uint64_t siblings_wasted = 0;
    std::uint64_t predicted_faults = 0;
  };

  explicit SwapOracle(const SwapManager::Config& config) : config_(config) {}

  void touch(std::uint64_t page, bool write) {
    if (resident_.count(page) > 0) {
      if (unused_siblings_.erase(page) > 0) {
        ++c_.siblings_used;
        count_fan_out(/*used=*/true);
      }
      lru_.touch(page);
      if (write) {
        dirty_.insert(page);
        invalidate(page);
      }
      return;
    }
    ++c_.faults;
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

  const Counters& counters() const { return c_; }
  bool fan_out_full() const {
    return SwapManager::kFanOutUseWeight * uses_ >= wastes_;
  }
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

  // One use or waste of the fan-out share, halved as the manager does.
  void count_fan_out(bool used) {
    ++(used ? uses_ : wastes_);
    if (uses_ + wastes_ >= SwapManager::kFanOutWindow) {
      uses_ /= 2;
      wastes_ /= 2;
    }
  }

  void leave_residency(std::uint64_t page) {
    resident_.erase(page);
    if (unused_siblings_.erase(page) > 0) {
      ++c_.siblings_wasted;
      count_fan_out(/*used=*/false);
    }
  }

  void fault_backed(std::uint64_t page) {
    const mem::EntryId entry = backed_.at(page);
    std::vector<std::uint64_t> restore;
    const bool pbs = config_.proactive_batch_swap_in;
    if (pbs) {
      if (page == predicted_) {
        ++c_.predicted_faults;
        count_fan_out(/*used=*/true);
      }
      ++c_.pbs_batch_ins;
      if (fan_out_full()) {
        for (std::uint64_t member : batches_.at(entry))
          if (resident_.count(member) == 0) restore.push_back(member);
      } else {
        restore.push_back(page);
        ++c_.narrowed_ins;
      }
    } else {
      restore.push_back(page);
      ++c_.single_page_ins;
    }
    make_room(restore.size());
    for (std::uint64_t member : restore) {
      resident_.insert(member);
      lru_.touch(member);
      if (member != page) unused_siblings_.insert(member);
      ++c_.swap_ins;
    }
    if (pbs) {
      // The next fault the manager's readahead predictor expects.
      predicted_ = page + 1;
      while (resident_.count(predicted_) > 0) ++predicted_;
    }
  }

  void make_room(std::size_t incoming) {
    while (resident_.size() + incoming > config_.resident_pages)
      evict_for_space();
  }

  void evict_for_space() {
    std::vector<std::uint64_t> to_write;
    while (to_write.size() < config_.batch_pages && !lru_.empty()) {
      const std::uint64_t victim = *lru_.evict_lru();
      const bool clean =
          dirty_.count(victim) == 0 && backed_.count(victim) > 0;
      if (clean) {
        leave_residency(victim);
        ++c_.clean_drops;
        if (to_write.empty()) break;
        continue;
      }
      to_write.push_back(victim);
    }
    if (to_write.empty()) return;
    for (std::uint64_t page : to_write) {
      leave_residency(page);
      dirty_.erase(page);
    }
    store_batch(to_write);
  }

  void store_batch(const std::vector<std::uint64_t>& pages) {
    const mem::EntryId entry = next_batch_++;
    for (std::uint64_t page : pages) {
      backed_.emplace(page, entry);
      batches_[entry].push_back(page);
    }
    ++c_.swap_outs;
    c_.swapped_out_pages += pages.size();
  }

  SwapManager::Config config_;
  std::set<std::uint64_t> resident_;
  std::set<std::uint64_t> dirty_;
  LruTracker<std::uint64_t> lru_;
  std::map<std::uint64_t, mem::EntryId> backed_;
  std::map<mem::EntryId, std::vector<std::uint64_t>> batches_;
  mem::EntryId next_batch_ = 1;
  std::set<std::uint64_t> unused_siblings_;
  std::uint64_t uses_ = 0;
  std::uint64_t wastes_ = 0;
  std::uint64_t predicted_ = ~std::uint64_t{0};
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

  // Phases draw from the first `modes` of sequential, strided and random.
  void run(int steps, int modes = 3) {
    while (step_ < steps) {
      const int mode = static_cast<int>(rng_.next_below(modes));
      const int length = 16 + static_cast<int>(rng_.next_below(48));
      run_phase(mode, std::min(length, steps - step_));
      if (::testing::Test::HasFatalFailure()) return;
    }
    finish();
  }

  // One phase of `length` touches from a random start: sequential (mode
  // 0), strided (1) or random (2).
  void run_phase(int mode, int length) {
    std::uint64_t cursor = rng_.next_below(page_space_);
    const std::uint64_t stride = 2 + rng_.next_below(6);
    for (int i = 0; i < length; ++i) {
      const int step = step_++;
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
        // P15: the barrier drains the write-back buffer completely.
        ASSERT_TRUE(manager_->wb_barrier().ok());
        ASSERT_EQ(manager_->wb_staged_batches(), 0u);
        ASSERT_EQ(manager_->wb_in_flight(), 0u);
      } else if (rng_.bernoulli(0.003)) {
        // P16: flush_all empties the resident set; every touched page must
        // come back intact afterwards (checked by the next faults + the
        // final sweep below).
        ASSERT_TRUE(manager_->flush_all().ok());
        oracle_->flush_all();
        ASSERT_EQ(manager_->resident_count(), 0u);
        ASSERT_EQ(oracle_->resident().size(), 0u);
        ASSERT_EQ(manager_->wb_staged_batches(), 0u);
        // P17 at quiescence: no batch rewrite is left pending, so every
        // map entry is named by a backed page.
        ASSERT_EQ(manager_->compactions_pending(), 0u);
        check_no_orphans(step);
      }
    }
  }

  // The closing sweep (P16's second half): every page ever touched is
  // still recoverable with generator-exact contents.
  void finish() {
    check_full(step_);
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
    // P13: the PBS/single-page fan-out decisions match, and so do the
    // outcomes that size the fan-out: restored siblings used and wasted,
    // and PBS faults on the predicted page.
    ASSERT_EQ(m.counter_value("swap.pbs_batch_ins"), c.pbs_batch_ins);
    ASSERT_EQ(m.counter_value("swap.single_page_ins"), c.single_page_ins);
    ASSERT_EQ(m.counter_value("swap.pbs.narrowed_ins"), c.narrowed_ins);
    ASSERT_EQ(m.counter_value("swap.pbs.siblings_used"), c.siblings_used);
    ASSERT_EQ(m.counter_value("swap.pbs.siblings_wasted"),
              c.siblings_wasted);
    ASSERT_EQ(m.counter_value("swap.pbs.predicted_faults"),
              c.predicted_faults);
    ASSERT_EQ(manager_->pbs_fan_out_full(), oracle_->fan_out_full());
    // P15 (bound half): the staging buffer respects its configured bound.
    ASSERT_LE(manager_->wb_staged_batches(),
              std::max<std::size_t>(manager_->config().writeback_batches,
                                    1));
    // P18: PBS readahead holds at most its window of fetches.
    ASSERT_LE(manager_->readaheads_held(), SwapManager::kReadaheadBatches);
    // P19: a PBS fault reads one page's bytes only when it restores that
    // page alone, so one-page reads are a subset of the PBS faults.
    ASSERT_LE(m.counter_value("swap.pbs.page_reads"),
              m.counter_value("swap.pbs_batch_ins"));
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

  // P17: no orphaned entry. Every entry in the client's map is named by a
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
  int step_ = 0;
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
// also prove the trace exercises it, and this one that its narrowed PBS
// faults read one page.
TEST(SwapModelTest, FastSwapFixedWindowMatchesOracle) {
  SwapModelChecker checker(small_setup(SystemKind::kFastSwap), 1001);
  checker.run(1500);
  const auto& m = checker.manager().metrics();
  EXPECT_GT(m.counter_value("swap.compact.committed"), 0u);
  EXPECT_GT(m.counter_value("swap.pbs.narrowed_ins"), 0u);
  EXPECT_GT(m.counter_value("swap.pbs.page_reads"), 0u);
}

// Sequential phases only, over remote memory and a page space eight times
// the resident set: PBS faults form streams, so readaheads are posted, hit
// and dropped while the oracle and the no-orphan invariant (P17) hold.
TEST(SwapModelTest, SequentialScansWithReadaheadMatchOracle) {
  auto setup = small_setup(SystemKind::kFastSwap);
  setup.ldmc.shm_fraction = 0.0;
  SwapModelChecker checker(setup, 1009, /*page_space=*/256);
  checker.run(3000, /*modes=*/1);
  const auto& m = checker.manager().metrics();
  EXPECT_GT(m.counter_value("swap.readahead.hits"), 0u);
  EXPECT_GT(m.counter_value("swap.readahead.dropped"), 0u);
}

// The PBS fan-out under the oracle over a random, a sequential and a
// random phase, on 128 pages with 32 resident. The first random phase
// touches about a fifth of the siblings it restores, so the fan-out
// narrows. While it is narrow it restores no sibling, so at most the 32
// siblings already resident can still count a waste, and each PBS fault
// on its predicted page counts a use. Both counts sum below kFanOutWindow
// (1024), so wastes - 2 x uses starts below 1024 and grows by at most 32;
// each use cuts it by 2, and halving never raises it. So at most
// (1024 + 32) / 2 = 528 predicted faults make the fan-out full again. A
// narrowed sequential pass over the 128 pages lands 127 of its faults on
// their prediction, so the sequential phase runs five passes.
TEST(SwapModelTest, FanOutNarrowsOnRandomAndRegrowsOnSequential) {
  SwapModelChecker checker(small_setup(SystemKind::kFastSwap), 1010);
  const auto& m = checker.manager().metrics();
  checker.run_phase(/*random*/ 2, 1000);
  ASSERT_FALSE(HasFatalFailure());
  EXPECT_FALSE(checker.manager().pbs_fan_out_full());
  EXPECT_GT(m.counter_value("swap.pbs.narrowed_ins"), 0u);
  EXPECT_GT(m.counter_value("swap.pbs.page_reads"), 0u);
  checker.run_phase(/*sequential*/ 0, 5 * 128);
  ASSERT_FALSE(HasFatalFailure());
  EXPECT_TRUE(checker.manager().pbs_fan_out_full());
  checker.run_phase(/*random*/ 2, 1000);
  ASSERT_FALSE(HasFatalFailure());
  checker.finish();
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

TEST(SwapModelTest, WriteBackStagingMatchesOracle) {
  auto setup = small_setup(SystemKind::kFastSwap);
  setup.swap.writeback_batches = 4;
  SwapModelChecker checker(setup, 1006);
  checker.run(1500);
}

TEST(SwapModelTest, FastSwapMatchesOracleAcrossSeeds) {
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    SwapModelChecker checker(small_setup(SystemKind::kFastSwap), seed);
    checker.run(800);
  }
}

TEST(SwapModelTest, UncompressedBaselineWithWriteBackMatchesOracle) {
  auto setup = small_setup(SystemKind::kInfiniswap);
  setup.swap.disk_backup = false;  // keep the oracle's scope exact
  setup.swap.writeback_batches = 2;
  SwapModelChecker checker(setup, 1008);
  checker.run(1200);
}

// P-determinism: the same seeded trace replayed twice produces the exact
// same counters and a byte-identical metrics dump — the property the
// chaos/recovery suites rely on for reproducing schedules.
TEST(SwapModelTest, SameSeedReplaysAreByteIdentical) {
  auto run_once = [](std::uint64_t seed) {
    SwapModelChecker checker(small_setup(SystemKind::kFastSwap), seed);
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
// scans) runs against a live cluster while five invariants are re-checked
// after every step, for a k > 1 code and for k = 1 (replication, where
// every shard is a whole copy):
//   E1  every EC stripe carries unique shard indices, at most k+r of them;
//   E2  any entry with >= k live shard hosts is readable, byte-exact —
//       including through the degraded reconstruction path;
//   E3  a repair scan never decreases any stripe's surviving-shard count;
//   E4  degraded reads return bytes identical to the fault-free read
//       (checked implicitly by E2's byte-exact comparison both before and
//       after faults);
//   E5  the stripe a successful put commits holds a prefix of shard ids,
//       0..n-1: a short put sheds parity, never data, even when a
//       reservation fails on a host membership has not yet declared down.
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
    if (op < 4) {  // put a fresh key; E5 on the stripe it commits
      const mem::EntryId key = next_key++;
      if (client.put_sync(key, ec_page(key)).ok()) {
        live_keys.insert(key);
        auto loc = client.map().lookup(key);
        ASSERT_TRUE(loc.ok());
        std::set<std::uint32_t> shards;
        for (const auto& replica : loc->replicas) shards.insert(replica.shard);
        // Distinct ids whose largest is n - 1 are exactly 0..n-1.
        ASSERT_FALSE(shards.empty());
        EXPECT_EQ(*shards.rbegin() + 1u, shards.size())
            << "key " << key << " committed a stripe missing a lower shard";
      }
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
