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
// carries the window. PBS makes a fault bring that batch back and
// repopulate every page in it — this is why Memcached recovers to peak
// throughput quickly in Fig 9.
//
// The swap-in path. Every fault on a backed page runs one sequence,
// fault_in: pick the members to restore and where their bytes come from,
// then make room, pay the block-stack tax, restore, compact and read ahead.
// Under PBS the members are those the fan-out below allows; without PBS,
// the faulted page alone (swap.single_page_ins), and each sibling pays its
// own fetch later — the waste PBS removes. A batch still in the staging
// buffer is served from a copy of it, with no read, tax or compaction
// (swap.wb.hits). Otherwise, since the batch is fetched because it gets
// used, a PBS fault reads the whole entry only when it restores several
// members, a readahead holds the entry, or the entry is due for
// compaction, and else reads the page's stored slice as one range read
// (swap.pbs.page_reads). Without PBS the batch is still the unit of
// storage, so a fault reads the whole entry while the batch holds another
// live member, and the slice otherwise. restore() is the one place a
// backed page is installed from stored bytes. Every restored byte is
// verified: a whole-entry read against the entry checksum its put
// committed, and a slice against the page checksum taken when the batch
// was assembled.
//
// The PBS fan-out is sized by how many restored siblings get used, as
// Leap and the kernel's swapin_nr_pages() size readahead by its hits. A
// sibling a PBS fault restored counts one use at its first touch and one
// waste if it leaves residency untouched; a PBS fault on the page the
// previous one predicted (see PBS readahead) also counts one use, so a
// stream that turns sequential regrows the fan-out. While
// kFanOutUseWeight x uses >= wastes, a PBS fault restores every
// non-resident member. Otherwise it restores only the faulted page, and
// the siblings stay backed in the entry, as under FastSwap w/o PBS. Both
// counts halve once their sum reaches kFanOutWindow. The registry counts
// each kind of outcome, undecayed: siblings used (swap.pbs.siblings_used)
// and wasted (swap.pbs.siblings_wasted), PBS faults on the predicted page
// (swap.pbs.predicted_faults, the other uses), and the PBS faults that
// restored one page (swap.pbs.narrowed_ins, a subset of
// swap.pbs_batch_ins). So siblings_used / (siblings_used +
// siblings_wasted) is the share of restored siblings that got used, and
// the rule's share adds predicted_faults to the uses.
//
// Swap-cache semantics (as in the kernel): a page restored from
// disaggregated memory stays *backed* — evicting it again while clean is
// free, and only a write invalidates the down-tier copy. Without this,
// batch swap-in would penalize steady-state random access by rewriting
// unmodified pages on every eviction.
//
// Batch compaction (copy-forward cleaning, as in LFS and RAMCloud): a
// rewritten page leaves a dead copy in its batch entry, and the entry is
// freed only once every member is dead. An entry whose live members hold
// at most a third of its stored bytes is due, and a PBS fault on it reads
// it whole even when it restores one page. When a fault reads a due
// shared-memory or remote entry whole, the live members' stored bytes —
// sliced from the buffer the fault already holds, so no extra read and no
// recompression — go out as a new entry in the same tier with exactly
// those members, off the app's clock on a fresh trace. A fault served from
// the staging buffer never compacts. The rewrite commits at the next safe
// point (top of touch(), flush_all): members still backed by the old entry
// move to the new one and the old entry is freed. Frees never wait on the
// fault path.
//
// Write-back staging and the swap worker. Every swap-out batch is staged in
// a bounded DRAM buffer (the paper's Fig 1 send buffer) and flushed
// asynchronously: at writeback_flush_delay after staging, or at once when
// staging would exceed writeback_batches. A fault on a staged page takes its
// bytes from the buffer. A page rewritten while its batch is still staged
// is coalesced: if a whole batch is invalidated before its flush, the put is
// skipped entirely. wb_barrier() (called by flush_all) is the
// crash-consistency point: it drains every staged batch, and a failed flush
// rolls its pages back to resident+dirty, so no acknowledged page is lost.
//
// The swap CPU runs on one swap worker per manager, the virtual server's
// kswapd: a FIFO virtual-CPU timeline beside the faulting thread. The worker
// compresses a batch and pays its per-page block-stack tax when the batch
// flushes, then posts the put. On a PBS restore the faulting thread decodes
// only the faulted page; the worker decodes every sibling, in member order,
// and a touch on a sibling it has not finished waits for it
// (swap.worker.wait_ns). No CPU is dropped, only moved: the staging bound is
// the backpressure, so a worker that falls behind still reaches the app's
// clock. Host bytes are compressed at staging and decoded at fetch, so every
// read-back, rollback and staged-page fault sees real bytes.
//
// PBS readahead. Each PBS fault, from a staged batch or not, predicts the
// next one: the first page above the faulted one that is not resident.
// While at least kReadaheadStreak consecutive PBS faults have landed on
// their predicted page, each such fault makes the window the next
// kReadaheadBatches batch entries ahead in page order that live in shared
// or remote memory (a staged batch is skipped) and posts full-entry gets of
// those not yet fetched, so the fetch overlaps the app's compute. A later
// PBS fault on a page of such an entry waits for that fetch instead of
// posting its own. A fetch that failed, whose entry was freed or
// compacted, or that fell out of the window is dropped and the fault
// fetches on demand, so at most kReadaheadBatches buffers are held. Like a
// write-back landing, a completion only marks its fetch landed; the page
// maps move on the faulting thread.
//
// All data is real: page contents come from the workload's content
// generator, travel compressed through the tiers, and are checksum-checked
// by the test suite when they return.
#pragma once

#include <array>
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
#include "swap/zswap_cache.h"

namespace dm::swap {

inline constexpr std::size_t kPageBytes = compress::kPageSize;

enum class CompressionMode { kOff, kFourGranularity };

// Fills `out` (4 KiB) with the contents of `page` — deterministic per page.
using PageContentFn =
    std::function<void(std::uint64_t page, std::span<std::byte> out)>;

class SwapManager {
 public:
  // PBS readahead: the predicted PBS faults in a row that make a stream,
  // and the batch entries fetched ahead of it.
  static constexpr std::size_t kReadaheadStreak = 4;
  static constexpr std::size_t kReadaheadBatches = 2;
  // PBS fan-out: a PBS fault restores its whole batch while
  // kFanOutUseWeight x uses >= wastes, and both counts halve once their
  // sum reaches kFanOutWindow. DESIGN.md §7 has the settings tried.
  static constexpr std::uint64_t kFanOutUseWeight = 2;
  static constexpr std::uint64_t kFanOutWindow = 1024;
  // CPU cost of decompressing one 4 KiB page (LZO-class speed).
  static constexpr SimTime kDecompressNs = 500;

  struct Config {
    std::uint64_t resident_pages = 1024;
    std::size_t batch_pages = 8;  // swap-out window d (1 = per-page)
    bool proactive_batch_swap_in = true;
    CompressionMode compression = CompressionMode::kFourGranularity;
    // CPU cost of compressing one 4 KiB page (LZO-class speed).
    SimTime compress_ns = 1 * kMicro;
    // Infiniswap-style asynchronous whole-page disk backup of every landed
    // batch, into the ring the node service sets aside over the top half
    // of the node's disk (NodeService::reserve_backup_ring).
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
    // Write-back staging (see file comment): at most this many batches are
    // staged or in flight, at least 1 (the constructor raises a 0).
    std::size_t writeback_batches = 4;
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
  // post-flush recovery measurement). Ends with a write-back barrier.
  Status flush_all();

  // Crash-consistency barrier: flushes every staged write-back batch and
  // waits for the puts to settle. Returns the first flush failure (whose
  // pages have been rolled back to resident+dirty) or Ok.
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
  // I/O. The faulted page's decode gets a "compress" child span so the
  // critical-path breakdown separates CPU from the wire. Each write-back
  // flush opens its own trace, rooted in a "swap"/"swap.writeback" span
  // from the put's post to its landing, and so does each readahead, rooted
  // in a "swap"/"swap.readahead" span. A fault that waits on a remote
  // readahead does so under a "net" child span.
  void set_span_sink(sim::SpanSink* spans) noexcept { spans_ = spans; }

  // --- paging-state observability (model checker + tests) ---------------
  bool is_backed(std::uint64_t page) const {
    return backed_.count(page) > 0;
  }
  std::size_t backed_count() const noexcept { return backed_.size(); }
  bool is_dirty(std::uint64_t page) const { return dirty_.count(page) > 0; }
  std::size_t wb_staged_batches() const noexcept { return wb_.size(); }
  std::uint64_t wb_in_flight() const noexcept { return wb_inflight_; }
  // When the swap worker finishes the work queued on it so far.
  SimTime worker_free_at() const noexcept { return worker_free_at_; }
  // Batch compactions issued and not yet committed or abandoned.
  std::size_t compactions_pending() const noexcept {
    return compactions_.size();
  }
  // Whether the next PBS fault restores its whole batch rather than the
  // faulted page alone.
  bool pbs_fan_out_full() const noexcept {
    return kFanOutUseWeight * fan_out_uses_ >= fan_out_wastes_;
  }
  // Readahead fetches held: in flight, or landed and not yet used.
  std::size_t readaheads_held() const noexcept { return readahead_.size(); }
  // The batch entry backing `page`, or 0 when it has no stored copy.
  mem::EntryId backing_entry(std::uint64_t page) const {
    auto it = backed_.find(page);
    return it != backed_.end() ? it->second.batch : 0;
  }
  // Whether a readahead of the batch entry backing `page` is held.
  bool readahead_covers(std::uint64_t page) const {
    return readahead_.count(backing_entry(page)) > 0;
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
    bool lz = false;  // the stored bytes are an LZ stream, not the raw page
    // word_checksum of the stored bytes, checked by a one-page read.
    std::uint64_t checksum = 0;
  };
  struct BatchInfo {
    std::vector<std::uint64_t> pages;  // pages still stored in this entry
  };
  struct WbBatch {
    std::vector<std::byte> buffer;  // the assembled batch bytes
    std::size_t pages = 0;          // pages stored in the buffer
    SimTime staged_at = 0;
    bool in_flight = false;         // flushed, landing pending
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
  // A readahead fetch of one whole batch entry, keyed by the entry.
  struct Readahead {
    // The entry's stored bytes, shared with the get's completion, which
    // may run after the manager is gone.
    std::shared_ptr<std::vector<std::byte>> buffer;
    bool remote = false;           // waiting on it is the network's time
    std::optional<Status> landed;  // the get's result, once it completes
  };

  // The swap-in path of every fault on a backed page (see file comment).
  Status fault_in(std::uint64_t page);
  // Reads the stored bytes of one page's slice of its batch entry into
  // `stored` and checks them against the page checksum (DataLoss on a
  // mismatch).
  Status read_page(const Backing& info, std::vector<std::byte>& stored);
  Status fault_in_zswap(std::uint64_t page);
  // Serves a sub-page fault on a CXL-pooled page as a coherent line
  // access; promotes the page back to DRAM once it proves hot. Sets
  // `in_place` when the page stays pooled (no residency change).
  Status fault_in_cxl(std::uint64_t page, bool write, bool& in_place);
  // Demotes one extracted victim into the CXL pool (spilling the coldest
  // pooled page to the backend first when full).
  Status cxl_demote(std::uint64_t page, std::span<const std::byte> bytes);
  Status cxl_spill_coldest();
  Status make_room(std::uint64_t incoming_pages);
  Status evict_for_space();
  Status write_out_batch(const std::vector<std::uint64_t>& pages);
  // Compresses already-extracted (page, raw bytes) pairs into one batch
  // entry and stages it.
  Status store_batch(std::vector<std::pair<std::uint64_t,
                                           std::vector<std::byte>>> pages);
  Status invalidate_backing(std::uint64_t page);
  // Installs `members` of one batch as resident pages, in member order,
  // decoded from `bytes`: the entry's stored bytes from entry offset `base`
  // on (0 for the whole entry or its staging buffer, the page's offset for
  // its slice). The faulting thread decodes `page`; the worker decodes
  // every LZ sibling, and each sibling is ready when it is done.
  Status restore(std::uint64_t page, const std::vector<std::uint64_t>& members,
                 std::span<const std::byte> bytes, std::uint32_t base);
  // Counts a PBS fault on `page` and returns the members it restores from
  // `batch`: every non-resident one while the fan-out is full, else `page`
  // alone. It moves the readahead streak, and a fault on the predicted
  // page counts a use first.
  std::vector<std::uint64_t> pbs_members(std::uint64_t page,
                                         const BatchInfo& batch);
  // One outcome counted toward the PBS fan-out share: a restored sibling's
  // first touch or its untouched exit, or a PBS fault on the predicted
  // page. Indexes fan_out_counters_.
  enum FanOutOutcome : std::size_t {
    kSiblingUsed,
    kSiblingWasted,
    kPredictedFault
  };
  void count_fan_out(FanOutOutcome outcome);
  // Returns every page still backed by `entry` to resident+dirty, decoded
  // from `buffer` (the entry's only copy: its put failed), and forgets the
  // entry. A page already resident keeps its resident bytes.
  Status roll_back(mem::EntryId entry, std::span<const std::byte> buffer);
  // Runs the faulting thread for `cost` virtual ns.
  void charge(SimTime cost);

  // The swap worker. worker_run queues `cost` ns behind the work already
  // on it and returns when that cost is paid; batch_cost is the worker's
  // price for staging `pages` pages (LZ plus the block-stack tax).
  SimTime worker_run(SimTime cost);
  SimTime batch_cost(std::size_t pages) const noexcept;
  // The first touch of a restored sibling: counts its use and waits until
  // the worker has decoded it, if it is still decoding.
  void await_decode(std::uint64_t page);

  // PBS readahead. fetch_batch reads all of `entry` into `buffer`: from
  // the entry's readahead when one is held (waiting for it to land), else
  // on demand. read_ahead runs at the end of a PBS fault on `page`: it
  // moves the prediction and, while the stream holds, drops the fetches
  // that left the window and posts the ones that entered it.
  Status fetch_batch(mem::EntryId entry, std::vector<std::byte>& buffer);
  void read_ahead(std::uint64_t page);
  void readahead_post(mem::EntryId entry, const mem::EntryLocation& location);

  // Write-back staging helpers. Flush completions mutate ONLY wb_ /
  // wb_failures_ / counters; the page maps (resident_, backed_, batches_,
  // lru_, dirty_) are rolled back exclusively at safe points — the top of
  // touch()/flush_all() and inside wb_barrier() — because completions can
  // fire mid-fault while those maps are being walked.
  Status wb_stage(mem::EntryId entry, std::vector<std::byte> buffer,
                  std::size_t batch_pages);
  // Hands a staged batch to the worker; wb_post puts it once the worker
  // is done with it, under its own swap.writeback root span.
  void wb_flush_entry(mem::EntryId entry);
  void wb_post(mem::EntryId entry);
  // Rolls back every deferred flush failure; returns the first failure.
  Status wb_process_failures();

  // Batch compaction. compact_batch runs after a fault read all of
  // `entry` into `stored` and issues the rewrite when the entry is due
  // (compaction_due); its put completion only marks the compaction landed.
  // The page maps move exclusively in compact_commit, at safe points.
  bool compaction_due(const BatchInfo& batch, std::size_t stored_bytes) const;
  void compact_batch(mem::EntryId entry, std::span<const std::byte> stored);
  void compact_commit();
  // Frees an entry without waiting: the map erase is the commit point. A
  // readahead of the entry is dropped.
  void free_entry(mem::EntryId entry);

  core::Ldmc& client_;
  Config config_;
  PageContentFn content_;
  compress::PageCompressor compressor_;  // four-granularity buckets
  std::optional<ZswapCache> zswap_;

  std::unordered_map<std::uint64_t, std::vector<std::byte>> resident_;
  std::unordered_set<std::uint64_t> dirty_;
  LruTracker<std::uint64_t> lru_;  // resident pages only
  // Swap-cache: pages with a valid stored copy (may also be resident).
  std::unordered_map<std::uint64_t, Backing> backed_;
  std::unordered_map<mem::EntryId, BatchInfo> batches_;
  mem::EntryId next_batch_ = 1;

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

  // Ordered by entry id, so drops walk them deterministically.
  std::map<mem::EntryId, Readahead> readahead_;
  // The page the last PBS fault predicted would fault next, and how many
  // PBS faults in a row landed on their prediction.
  std::uint64_t predicted_fault_ = ~std::uint64_t{0};
  std::size_t stream_hits_ = 0;

  SimTime worker_free_at_ = 0;
  // Resident siblings a PBS fault restored and nothing has touched yet,
  // with the time the worker will have decoded each (a raw one is ready at
  // once). An entry goes at its page's first touch, a fan-out use, or when
  // the page leaves residency untouched, a waste.
  std::unordered_map<std::uint64_t, SimTime> decoding_;
  // The PBS fan-out share's decayed counts, and the registry's counter of
  // each outcome, looked up on first use.
  std::uint64_t fan_out_uses_ = 0;
  std::uint64_t fan_out_wastes_ = 0;
  std::array<std::uint64_t*, 3> fan_out_counters_{};

  sim::SpanSink* spans_ = nullptr;
  // The trace of the fault currently being served; threads through every
  // LDMC call the fault triggers (kNoTrace outside a traced fault).
  net::TraceId active_trace_ = net::kNoTrace;

  // swap.fault_ns.<path> by service path, looked up on first use.
  std::array<Histogram*, 5> fault_ns_{};

  std::uint64_t faults_ = 0;
  std::uint64_t swap_ins_ = 0;
  std::uint64_t swap_outs_ = 0;
  MetricsRegistry metrics_;
};

}  // namespace dm::swap
