// Transparent swapping over disaggregated memory — FastSwap and baselines
// (paper §IV.H, §V.A).
//
// SwapManager models the guest-OS paging path of one virtual server: a
// resident set of real 4 KiB pages bounded by `resident_pages` (the paper's
// "75% / 50% configuration" = resident budget as a fraction of working
// set), an LRU victim policy, and a pluggable back end — the server's LDMC,
// whose policy knobs select the system under test:
//
//   FastSwap        shm-first LDMC, multi-granularity compression,
//                   window-based batch swap-out, proactive batch swap-in
//   FastSwap w/o PBS  same, but a fault brings in only the faulted page
//   Infiniswap      remote-only LDMC (no node-level pool), per-page
//                   messages, no compression, async whole-page disk backup
//   NBDX            like Infiniswap plus the block-I/O-stack tax per op
//   Linux           disk-only LDMC, per-page, no compression
//
// Batching (§IV.H): swap-out packs up to `batch_pages` dirty victim pages
// (compressed) into ONE disaggregated-memory entry, so one RDMA message
// carries the window. PBS makes a fault fetch that whole entry back and
// repopulate every page in it — this is why Memcached recovers to peak
// throughput quickly in Fig 9.
//
// Swap-cache semantics (as in the kernel): a page restored from
// disaggregated memory stays *backed* — evicting it again while clean is
// free, and only a write invalidates the down-tier copy. Without this,
// batch swap-in would penalize steady-state random access by rewriting
// unmodified pages on every eviction.
//
// Batch compaction (copy-forward cleaning, as in LFS and RAMCloud): a
// rewritten page leaves a dead copy in its batch entry, and the entry is
// freed only once every member is dead. When a fault has read a whole
// shared-memory or remote entry whose live members hold at most a third of
// its stored bytes, their stored bytes — sliced from the buffer the fault
// already holds, so no extra read and no recompression — go out as a new
// entry in the same tier with exactly those members, off the app's clock
// on a fresh trace. The rewrite commits at the next safe point (top of
// touch(), flush_all): members still backed by the old entry move to the
// new one and the old entry is freed. Frees never wait on the fault path.
//
// Adaptive swap-path engine (all knobs default-off, so the baselines above
// stay byte-identical):
//
//  * adaptive_pbs — a PatternTracker classifies the fault-address stream
//    (sequential / strided / random) and an AdaptiveWindow resizes the
//    swap-out window with hysteresis: sequential streams grow it toward
//    max_batch_pages, random streams shrink it toward min_batch_pages. On
//    the swap-in side a random verdict suppresses the PBS fan-out to the
//    single faulted page (fetching a batch of unrelated victims would only
//    pollute the resident set).
//  * compression_admission — an entropy probe over the first
//    admission_probe_bytes of each victim page skips the LZ pass outright
//    for incompressible pages (they would be stored raw anyway; the probe
//    saves the compress_ns CPU burn).
//  * writeback_batches — a bounded write-back staging buffer in front of
//    the LDMC: swap-out batches are staged in DRAM, flushed asynchronously
//    in sim-time (or synchronously when the bound is exceeded), and a
//    fault on a staged page is served straight from the buffer. A page
//    rewritten while its batch is still staged is coalesced — if a whole
//    batch is invalidated before its flush, the remote put is skipped
//    entirely. wb_barrier() (called by flush_all) is the crash-consistency
//    point: it drains every staged batch, and a failed flush rolls its
//    pages back to resident+dirty, so no acknowledged page is ever lost.
//
// All data is real: page contents come from the workload's content
// generator, travel compressed through the tiers, and are checksum-checked
// by the test suite when they return.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/lru.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/units.h"
#include "compress/page_compressor.h"
#include "core/ldmc.h"
#include "cxl/page_tier.h"
#include "sim/span_sink.h"
#include "swap/pattern_tracker.h"
#include "swap/zswap_cache.h"

namespace dm::swap {

inline constexpr std::size_t kPageBytes = compress::kPageSize;

enum class CompressionMode { kOff, kTwoGranularity, kFourGranularity };

// Fills `out` (4 KiB) with the contents of `page` — deterministic per page.
using PageContentFn =
    std::function<void(std::uint64_t page, std::span<std::byte> out)>;

class SwapManager {
 public:
  struct Config {
    std::uint64_t resident_pages = 1024;
    std::size_t batch_pages = 8;  // swap-out window d (1 = per-page)
    bool proactive_batch_swap_in = true;
    CompressionMode compression = CompressionMode::kFourGranularity;
    // CPU cost of (de)compressing one 4 KiB page (LZO-class speeds).
    SimTime compress_ns = 1 * kMicro;
    SimTime decompress_ns = 500;
    // Infiniswap-style asynchronous whole-page disk backup on swap-out.
    bool disk_backup = false;
    // Block-I/O-stack tax charged per swapped *page* (bio submission, nbd
    // request path) on both swap-out and swap-in. Zero for FastSwap (its
    // data path bypasses the block layer entirely) and for the rotational
    // disk (seek time dwarfs it).
    SimTime extra_op_overhead = 0;
    // Zswap: size of the in-DRAM compressed cache in front of the backend
    // (0 = disabled). Pages evicted from the pool are written back through
    // the normal store path.
    std::uint64_t zswap_pool_bytes = 0;

    // --- adaptive swap-path engine (default-off; see file comment) ------
    // Pattern-aware PBS: adaptive swap-out window + swap-in fan-out.
    bool adaptive_pbs = false;
    std::size_t min_batch_pages = 1;   // adaptive window floor
    std::size_t max_batch_pages = 32;  // adaptive window ceiling
    std::size_t pattern_history = 32;  // fault deltas considered
    std::size_t pattern_hysteresis = 4;  // verdicts needed to resize
    // Compression admission control: entropy probe before the LZ pass.
    bool compression_admission = false;
    std::size_t admission_probe_bytes = 512;
    double admission_max_entropy = 6.8;  // bits/byte; above => store raw
    SimTime admission_probe_ns = 100;    // CPU cost of the probe
    // Write-back staging: max batches held in the buffer (0 = disabled,
    // i.e. write-through as before).
    std::size_t writeback_batches = 0;
    SimTime writeback_flush_delay = 30 * kMicro;  // async flush deadline

    // --- CXL tier (default-off; DESIGN.md §14) --------------------------
    // When set, dirty/unbacked eviction victims demote into this CXL page
    // pool (DRAM -> CXL) before the RDMA/disk backend, a fault on a pooled
    // page is served as a coherent cache-line access instead of a page
    // fault, and a page promotes back to DRAM after cxl_promote_threshold
    // sub-page hits. The pool spills its coldest page to the backend
    // (CXL -> RDMA/disk) when full. Null keeps every baseline
    // byte-identical.
    cxl::CxlPageTier* cxl_tier = nullptr;
    std::uint64_t cxl_promote_threshold = 4;
  };

  SwapManager(core::Ldmc& client, Config config, PageContentFn content);
  ~SwapManager();

  SwapManager(const SwapManager&) = delete;
  SwapManager& operator=(const SwapManager&) = delete;

  // Touches one page of the working set; swaps in/out as needed. This is
  // synchronous: it drives the simulator until the fault completes, so the
  // caller reads elapsed virtual time off the simulator clock.
  Status touch(std::uint64_t page, bool write = false);

  // Evicts every resident page (cold-start scenarios, e.g. Fig 9's
  // post-flush recovery measurement). Ends with a write-back barrier when
  // the staging buffer is enabled.
  Status flush_all();

  // Crash-consistency barrier: flushes every staged write-back batch and
  // waits for the puts to settle. Returns the first flush failure (whose
  // pages have been rolled back to resident+dirty) or Ok. A no-op when
  // write-back staging is disabled.
  Status wb_barrier();

  bool is_resident(std::uint64_t page) const {
    return resident_.count(page) > 0;
  }
  std::uint64_t resident_count() const noexcept { return resident_.size(); }

  // Direct read of a resident page's bytes (tests verify integrity).
  StatusOr<std::span<const std::byte>> resident_bytes(
      std::uint64_t page) const;

  std::uint64_t faults() const noexcept { return faults_; }
  std::uint64_t swap_ins() const noexcept { return swap_ins_; }
  std::uint64_t swap_outs() const noexcept { return swap_outs_; }
  MetricsRegistry& metrics() noexcept { return metrics_; }

  // Causal span sink (not owned; null detaches). When attached, every
  // backend fault opens a fresh trace rooted in a "swap"/"swap.fault" span
  // covering exactly the interval the swap.fault_ns histogram records, and
  // the trace rides the fault's LDMC calls through RPC, fabric and device
  // I/O. Compression/decompression CPU charges get "compress" child spans
  // so the critical-path breakdown separates CPU from the wire.
  void set_span_sink(sim::SpanSink* spans) noexcept { spans_ = spans; }

  // --- adaptive-engine observability (model checker + tests) -----------
  bool is_backed(std::uint64_t page) const {
    return backed_.count(page) > 0;
  }
  std::size_t backed_count() const noexcept { return backed_.size(); }
  bool is_dirty(std::uint64_t page) const { return dirty_.count(page) > 0; }
  // Current swap-out window: the adaptive window when adaptive_pbs is on,
  // the static batch_pages otherwise.
  std::size_t current_window() const noexcept;
  // Last pattern verdict (kUnknown when adaptive_pbs is off).
  AccessPattern current_pattern() const noexcept;
  std::size_t wb_staged_batches() const noexcept { return wb_.size(); }
  std::uint64_t wb_in_flight() const noexcept { return wb_inflight_; }
  // Batch compactions issued and not yet committed or abandoned.
  std::size_t compactions_pending() const noexcept {
    return compactions_.size();
  }
  // Whether a backed page or a pending compaction names `entry`. Every
  // entry in the client's map must be named (the no-orphan invariant).
  bool names_entry(mem::EntryId entry) const {
    return batches_.count(entry) > 0 || compactions_.count(entry) > 0;
  }

  // --- CXL tier observability and pressure hook -------------------------
  bool in_cxl(std::uint64_t page) const {
    return config_.cxl_tier != nullptr && config_.cxl_tier->contains(page);
  }
  std::size_t cxl_pooled() const noexcept {
    return config_.cxl_tier != nullptr ? config_.cxl_tier->used() : 0;
  }
  // Harvest-pressure hook: spills the N coldest pool pages down to the
  // backend (e.g. when the pool's host memory is being reclaimed).
  Status shed_cxl(std::size_t pages);

  const Config& config() const noexcept { return config_; }
  core::Ldmc& client() noexcept { return client_; }

 private:
  struct Backing {
    mem::EntryId batch = 0;
    std::uint32_t offset = 0;  // byte offset within the batch entry
    std::uint32_t length = 0;  // stored bytes
    bool compressed = false;
    bool raw = false;  // stored uncompressed inside a compressed batch
  };
  struct BatchInfo {
    std::vector<std::uint64_t> pages;  // pages still stored in this entry
  };
  struct WbBatch {
    std::vector<std::byte> buffer;  // the assembled batch bytes
    bool in_flight = false;         // put issued, completion pending
    bool remove_after = false;      // fully invalidated while in flight
  };
  struct WbFailure {
    mem::EntryId entry = 0;
    std::vector<std::byte> buffer;
    Status status;
  };
  // A batch rewrite in flight, keyed by its new entry.
  struct Compaction {
    mem::EntryId source = 0;
    // The source's live members at issue time, in member order, with
    // their backing inside the new entry.
    std::vector<std::pair<std::uint64_t, Backing>> members;
    std::optional<Status> landed;  // the put's result, once it completes
  };

  Status fault_in(std::uint64_t page);
  Status fault_in_zswap(std::uint64_t page);
  // Serves a sub-page fault on a CXL-pooled page as a coherent line
  // access; promotes the page back to DRAM once it proves hot. Sets
  // `in_place` when the page stays pooled (no residency change).
  Status fault_in_cxl(std::uint64_t page, bool write, bool& in_place);
  // Demotes one extracted victim into the CXL pool (spilling the coldest
  // pooled page to the backend first when full).
  Status cxl_demote(std::uint64_t page, std::span<const std::byte> bytes);
  Status cxl_spill_coldest();
  // Serves a fault for a page whose batch is still in the write-back
  // staging buffer — no backend I/O at all.
  Status fault_in_wb(std::uint64_t page,
                     const std::vector<std::byte>& staged);
  Status make_room(std::uint64_t incoming_pages);
  Status evict_for_space();
  Status write_out_batch(const std::vector<std::uint64_t>& pages);
  // Stores already-extracted (page, raw bytes) pairs as one batch entry.
  Status store_batch(std::vector<std::pair<std::uint64_t,
                                           std::vector<std::byte>>> pages);
  Status invalidate_backing(std::uint64_t page);
  Status materialize(std::uint64_t page, std::span<const std::byte> stored,
                     const Backing& info);
  void charge(SimTime cost);

  // Adaptive-PBS helpers.
  void observe_fault(std::uint64_t page);
  bool pbs_fanout_suppressed();

  // Write-back staging helpers. Flush completions mutate ONLY wb_ /
  // wb_failures_ / counters; the page maps (resident_, backed_, batches_,
  // lru_, dirty_) are rolled back exclusively at safe points — the top of
  // touch()/flush_all() and inside wb_barrier() — because completions can
  // fire mid-fault while those maps are being walked.
  bool wb_enabled() const noexcept { return config_.writeback_batches > 0; }
  Status wb_stage(mem::EntryId entry, std::vector<std::byte> buffer,
                  SimTime batch_started, std::size_t batch_pages);
  void wb_flush_entry(mem::EntryId entry);
  // Rolls back every deferred flush failure; returns the first failure.
  Status wb_process_failures();

  // Batch compaction. compact_batch runs after a fault read all of
  // `entry` into `stored` and issues the rewrite when the entry is sparse
  // enough; its put completion only marks the compaction landed. The page
  // maps move exclusively in compact_commit, at safe points.
  void compact_batch(mem::EntryId entry, std::span<const std::byte> stored);
  void compact_commit();
  // Frees an entry without waiting: the map erase is the commit point.
  void free_entry(mem::EntryId entry);

  core::Ldmc& client_;
  Config config_;
  PageContentFn content_;
  compress::PageCompressor compressor_;
  std::optional<ZswapCache> zswap_;
  std::optional<PatternTracker> pattern_;
  std::optional<AdaptiveWindow> window_;

  std::unordered_map<std::uint64_t, std::vector<std::byte>> resident_;
  std::unordered_set<std::uint64_t> dirty_;
  LruTracker<std::uint64_t> lru_;  // resident pages only
  // Swap-cache: pages with a valid stored copy (may also be resident).
  std::unordered_map<std::uint64_t, Backing> backed_;
  std::unordered_map<mem::EntryId, BatchInfo> batches_;
  mem::EntryId next_batch_ = 1;
  std::uint64_t backup_cursor_ = 0;

  // Write-back staging buffer. wb_order_ is the FIFO flush order (it may
  // hold ids of batches that were since flushed or coalesced; stale ids
  // are skipped).
  std::unordered_map<mem::EntryId, WbBatch> wb_;
  std::deque<mem::EntryId> wb_order_;
  std::uint64_t wb_inflight_ = 0;
  std::vector<WbFailure> wb_failures_;
  // Ordered by new entry id, i.e. issue order, so commits are deterministic.
  std::map<mem::EntryId, Compaction> compactions_;
  // Guards the async flush callbacks against a destroyed manager (events
  // may still be queued on the simulator).
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  sim::SpanSink* spans_ = nullptr;
  // The trace of the fault currently being served; threads through every
  // LDMC call the fault triggers (kNoTrace outside a traced fault).
  net::TraceId active_trace_ = net::kNoTrace;

  std::uint64_t faults_ = 0;
  std::uint64_t swap_ins_ = 0;
  std::uint64_t swap_outs_ = 0;
  MetricsRegistry metrics_;
};

}  // namespace dm::swap
