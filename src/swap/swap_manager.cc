#include "swap/swap_manager.h"

#include <algorithm>

#include "common/checksum.h"
#include "common/status.h"
#include "common/units.h"
#include "compress/page_compressor.h"
#include "cxl/page_tier.h"
#include "core/ldmc.h"
#include "sim/span_sink.h"

namespace dm::swap {
namespace {

// Batch compaction's one-third rule: an entry is rewritten once its live
// members hold at most 1/kCompactionRatio of its stored bytes. Rewriting
// L live bytes then frees S >= 3L stored ones, so each rewritten byte
// frees at least two dead ones.
constexpr std::uint64_t kCompactionRatio = 3;

// A fault's service path, naming its swap.fault_ns.<path> histogram.
enum FaultPath : std::size_t { kCxlPath, kZswapPath, kWbPath, kBackendPath,
                               kColdPath };
constexpr const char* kFaultPathNames[] = {"cxl", "zswap", "wb", "backend",
                                           "cold"};

}  // namespace

SwapManager::SwapManager(core::Ldmc& client, Config config,
                         PageContentFn content)
    : client_(client), config_(config), content_(std::move(content)) {
  config_.writeback_batches =
      std::max<std::size_t>(config_.writeback_batches, 1);
  if (config_.zswap_pool_bytes > 0) zswap_.emplace(config_.zswap_pool_bytes);
  if (config_.disk_backup) client_.service().reserve_backup_ring();
}

SwapManager::~SwapManager() {
  *alive_ = false;
  // A landed, uncommitted rewrite duplicates pages its source still holds,
  // so it goes; a rewrite or write-back put still in flight frees its entry
  // when it lands, and a batch not yet posted is never put.
  for (const auto& [target, compaction] : compactions_)
    if (compaction.landed && compaction.landed->ok()) free_entry(target);
}

void SwapManager::charge(SimTime cost) {
  auto& sim = client_.service().node().simulator();
  sim.run_until(sim.now() + cost);
}

SimTime SwapManager::worker_run(SimTime cost) {
  const SimTime now = client_.service().node().simulator().now();
  worker_free_at_ = std::max(worker_free_at_, now) + cost;
  metrics_.counter("swap.worker.busy_ns") += static_cast<std::uint64_t>(cost);
  return worker_free_at_;
}

SimTime SwapManager::batch_cost(std::size_t pages) const noexcept {
  const SimTime lz = config_.compression == CompressionMode::kOff
                         ? 0
                         : config_.compress_ns;
  return static_cast<SimTime>(pages) * (lz + config_.extra_op_overhead);
}

void SwapManager::await_decode(std::uint64_t page) {
  auto it = decoding_.find(page);
  if (it == decoding_.end()) return;
  auto& sim = client_.service().node().simulator();
  const SimTime ready = it->second;
  decoding_.erase(it);
  count_fan_out(kSiblingUsed);
  if (ready <= sim.now()) return;
  metrics_.histogram("swap.worker.wait_ns")
      .record(static_cast<std::uint64_t>(ready - sim.now()));
  sim.run_until(ready);
}

Status SwapManager::touch(std::uint64_t page, bool write) {
  // Safe point: roll back any write-back flush that failed while previous
  // faults were in flight (pages return resident+dirty, nothing is lost),
  // and commit the batch rewrites that landed meanwhile.
  (void)wb_process_failures();
  compact_commit();
  auto& latency = client_.service().node().fabric().config().latency;
  auto it = resident_.find(page);
  if (it != resident_.end()) {
    await_decode(page);
    lru_.touch(page);
    if (write) {
      dirty_.insert(page);
      // A write invalidates the swap-cache copy (as the kernel does).
      DM_RETURN_IF_ERROR(invalidate_backing(page));
    }
    charge(latency.dram.overhead_ns);
    return Status::Ok();
  }
  ++faults_;
  // Fault latency by service path, in virtual time: the zswap pool hit,
  // the write-back staging hit, the backend fault (whatever tier the batch
  // entry lives in), and the demand-content cold fault. The spread between
  // these histograms is the paper's Fig 9 tier story in one snapshot.
  auto& sim = client_.service().node().simulator();
  const SimTime fault_started = sim.now();
  // Causal root: a traced fault opens a fresh trace whose root span covers
  // exactly the histogram interval (closed before the record below, so the
  // breakdown components sum to the measured fault latency). active_trace_
  // threads the id through every LDMC call the fault triggers.
  if (spans_ != nullptr)
    active_trace_ = client_.service().node().next_trace_id();
  sim::SpanScope fault_span(spans_, active_trace_,
                            client_.service().node().id(), "swap",
                            "swap.fault");
  struct TraceReset {
    net::TraceId* slot;
    ~TraceReset() { *slot = net::kNoTrace; }
  } trace_reset{&active_trace_};
  FaultPath path = kColdPath;
  // Set when a CXL line access served the fault with the page staying
  // pooled: no residency change, and for a write the dirty line lives in
  // the coherence layer (written back on demotion), so the resident-page
  // dirty/backing bookkeeping below must not run.
  bool cxl_in_place = false;
  if (config_.cxl_tier != nullptr && config_.cxl_tier->contains(page)) {
    path = kCxlPath;
    DM_RETURN_IF_ERROR(fault_in_cxl(page, write, cxl_in_place));
  } else if (zswap_ && zswap_->contains(page)) {
    path = kZswapPath;
    DM_RETURN_IF_ERROR(fault_in_zswap(page));
  } else if (auto backing = backed_.find(page); backing != backed_.end()) {
    path = wb_.count(backing->second.batch) > 0 ? kWbPath : kBackendPath;
    DM_RETURN_IF_ERROR(fault_in(page));
  } else {
    // First touch: demand-zero (well, demand-content) fault.
    DM_RETURN_IF_ERROR(make_room(1));
    auto [slot, inserted] =
        resident_.try_emplace(page, std::vector<std::byte>(kPageBytes));
    content_(page, slot->second);
    lru_.touch(page);
    ++metrics_.counter("swap.cold_faults");
  }
  fault_span.close();
  active_trace_ = net::kNoTrace;
  Histogram*& fault_ns = fault_ns_[path];
  if (fault_ns == nullptr)
    fault_ns = &metrics_.histogram(std::string("swap.fault_ns.") +
                                   kFaultPathNames[path]);
  fault_ns->record(static_cast<std::uint64_t>(sim.now() - fault_started));
  if (write && !cxl_in_place) {
    dirty_.insert(page);
    DM_RETURN_IF_ERROR(invalidate_backing(page));
  }
  charge(latency.dram.overhead_ns);
  return Status::Ok();
}

Status SwapManager::fault_in_cxl(std::uint64_t page, bool write,
                                 bool& in_place) {
  cxl::CxlPageTier* tier = config_.cxl_tier;
  // The accessed line cycles deterministically with the page's hit count
  // (stands in for the workload's sub-page offset stream).
  const std::size_t line_index =
      static_cast<std::size_t>(tier->touches(page)) % tier->lines_per_page();
  DM_RETURN_IF_ERROR(tier->touch_line(page, line_index, write,
                                      active_trace_));
  ++metrics_.counter("swap.cxl.line_faults");
  if (tier->touches(page) < config_.cxl_promote_threshold) {
    in_place = true;
    return Status::Ok();
  }
  // Repeated sub-page hits proved the page hot: promote the whole page
  // back into DRAM (the pool copy was the only copy, so it returns dirty
  // with respect to every lower tier).
  DM_RETURN_IF_ERROR(make_room(1));
  std::vector<std::byte> bytes(kPageBytes);
  DM_RETURN_IF_ERROR(tier->promote(page, bytes, active_trace_));
  resident_.insert_or_assign(page, std::move(bytes));
  lru_.touch(page);
  dirty_.insert(page);
  ++swap_ins_;
  ++metrics_.counter("swap.cxl.promotions");
  return Status::Ok();
}

Status SwapManager::cxl_demote(std::uint64_t page,
                               std::span<const std::byte> bytes) {
  cxl::CxlPageTier* tier = config_.cxl_tier;
  if (tier->full()) DM_RETURN_IF_ERROR(cxl_spill_coldest());
  // Victims reaching this path are never backed (dirty pages invalidated
  // their backing on write; clean backed pages were dropped for free), so
  // the pool copy is authoritative — but keep the invariant airtight.
  DM_RETURN_IF_ERROR(invalidate_backing(page));
  DM_RETURN_IF_ERROR(tier->demote(page, bytes, active_trace_));
  ++metrics_.counter("swap.cxl.demotions");
  return Status::Ok();
}

Status SwapManager::cxl_spill_coldest() {
  cxl::CxlPageTier* tier = config_.cxl_tier;
  auto victim = tier->coldest();
  if (!victim) return ResourceExhaustedError("empty CXL pool cannot spill");
  std::vector<std::byte> bytes(kPageBytes);
  DM_RETURN_IF_ERROR(tier->promote(*victim, bytes, active_trace_));
  ++metrics_.counter("swap.cxl.spills");
  std::vector<std::pair<std::uint64_t, std::vector<std::byte>>> batch;
  batch.emplace_back(*victim, std::move(bytes));
  return store_batch(std::move(batch));
}

Status SwapManager::shed_cxl(std::size_t pages) {
  if (config_.cxl_tier == nullptr) return Status::Ok();
  const std::size_t count = std::min(pages, config_.cxl_tier->used());
  for (std::size_t i = 0; i < count; ++i)
    DM_RETURN_IF_ERROR(cxl_spill_coldest());
  if (count > 0) metrics_.counter("swap.cxl.shed_pages") += count;
  return Status::Ok();
}

Status SwapManager::invalidate_backing(std::uint64_t page) {
  if (zswap_) zswap_->invalidate(page);
  auto it = backed_.find(page);
  if (it == backed_.end()) return Status::Ok();
  const mem::EntryId entry = it->second.batch;
  backed_.erase(it);
  auto batch_it = batches_.find(entry);
  if (batch_it == batches_.end())
    return InternalError("backing references unknown batch");
  auto& members = batch_it->second.pages;
  members.erase(std::find(members.begin(), members.end(), page));
  if (auto wb_it = wb_.find(entry); wb_it != wb_.end()) {
    // Rewrite of a page whose batch is still staged: the stale copy is
    // coalesced away before it ever costs a remote put.
    ++metrics_.counter("swap.wb.coalesced");
    if (members.empty()) {
      batches_.erase(batch_it);
      if (wb_it->second.in_flight) {
        // Too late to cancel the flush; the entry goes once it lands.
        wb_it->second.remove_after = true;
      } else {
        // The batch was compressed when it was staged: the worker pays for
        // it here, so cancelling saves the put but drops no CPU.
        (void)worker_run(batch_cost(wb_it->second.pages));
        wb_.erase(wb_it);
        ++metrics_.counter("swap.wb.cancelled_batches");
      }
    }
    return Status::Ok();
  }
  if (members.empty()) {
    batches_.erase(batch_it);
    free_entry(entry);
  }
  return Status::Ok();
}

void SwapManager::free_entry(mem::EntryId entry) {
  if (readahead_.erase(entry) > 0) ++metrics_.counter("swap.readahead.dropped");
  // A fresh trace: frees stay out of the fault that triggered them.
  client_.remove(entry, [](const Status&) {});
}

Status SwapManager::make_room(std::uint64_t incoming_pages) {
  while (resident_.size() + incoming_pages > config_.resident_pages) {
    DM_RETURN_IF_ERROR(evict_for_space());
  }
  return Status::Ok();
}

Status SwapManager::evict_for_space() {
  // Walk victims in LRU order. Clean pages with a valid swap-cache copy are
  // dropped for free (the copy down-tier is still good); dirty or unbacked
  // pages accumulate into one write-out batch. Clean drops do not end the
  // walk early: stopping at the first clean page would fragment the dirty
  // write-out into tiny batches and destroy the §IV.H clustering (and the
  // Linux baseline's write clustering with it).
  std::vector<std::uint64_t> to_write;
  bool freed_any = false;
  while (to_write.size() < config_.batch_pages && !lru_.empty()) {
    auto victim = lru_.evict_lru();
    if (!victim) break;
    const std::uint64_t page = *victim;
    const bool clean = dirty_.count(page) == 0 && backed_.count(page) > 0;
    if (clean) {
      resident_.erase(page);
      if (decoding_.erase(page) > 0) count_fan_out(kSiblingWasted);
      freed_any = true;
      ++metrics_.counter("swap.clean_drops");
      // Enough frames freed without any I/O? Stop walking.
      if (to_write.empty()) break;
      continue;
    }
    to_write.push_back(page);
  }
  if (to_write.empty()) {
    if (freed_any) return Status::Ok();
    return FailedPreconditionError("nothing resident to evict");
  }
  return write_out_batch(to_write);
}

Status SwapManager::write_out_batch(const std::vector<std::uint64_t>& pages) {
  // Extract the victims' bytes first; the zswap tier (when enabled)
  // absorbs them and only its writebacks continue to the backend.
  std::vector<std::pair<std::uint64_t, std::vector<std::byte>>> extracted;
  extracted.reserve(pages.size());
  for (std::uint64_t page : pages) {
    auto node = resident_.extract(page);
    dirty_.erase(page);
    if (decoding_.erase(page) > 0) count_fan_out(kSiblingWasted);
    extracted.emplace_back(page, std::move(node.mapped()));
  }

  if (config_.cxl_tier != nullptr) {
    // DRAM -> CXL: victims land in the line-addressable pool (spilling its
    // coldest page down to the backend when full). Only pages the pool
    // cannot absorb continue into zswap / the backend below.
    std::vector<std::pair<std::uint64_t, std::vector<std::byte>>> overflow;
    for (auto& [page, bytes] : extracted) {
      Status demoted = cxl_demote(page, bytes);
      if (demoted.ok()) continue;
      if (demoted.code() == StatusCode::kInternal) return demoted;
      // Pool (or its spill path) unavailable: fall through down-tier.
      ++metrics_.counter("swap.cxl.demote_fallbacks");
      overflow.emplace_back(page, std::move(bytes));
    }
    if (overflow.empty()) return Status::Ok();
    extracted = std::move(overflow);
  }

  if (zswap_) {
    std::vector<std::pair<std::uint64_t, std::vector<std::byte>>> writeback;
    for (auto& [page, bytes] : extracted) {
      charge(config_.compress_ns);
      auto overflow = zswap_->put(page, bytes);
      if (!overflow.ok()) return overflow.status();
      for (auto& wb : *overflow)
        writeback.emplace_back(wb.page, std::move(wb.bytes));
    }
    if (writeback.empty()) return Status::Ok();
    return store_batch(std::move(writeback));
  }
  return store_batch(std::move(extracted));
}

Status SwapManager::store_batch(
    std::vector<std::pair<std::uint64_t, std::vector<std::byte>>> pages) {
  // The batch is assembled in the staging buffer, the node's send buffer
  // of paper Fig. 1. Its CPU is the worker's, paid when it flushes.
  std::vector<std::byte> buffer;
  buffer.reserve(pages.size() * kPageBytes);
  BatchInfo batch;
  const mem::EntryId entry = next_batch_++;

  for (auto& [page, bytes] : pages) {
    Backing info;
    info.batch = entry;
    info.offset = static_cast<std::uint32_t>(buffer.size());
    if (config_.compression == CompressionMode::kOff) {
      info.length = kPageBytes;
      buffer.insert(buffer.end(), bytes.begin(), bytes.end());
    } else {
      auto compressed = compressor_.compress(bytes);
      info.lz = !compressed.is_raw;
      info.length = static_cast<std::uint32_t>(compressed.data.size());
      buffer.insert(buffer.end(), compressed.data.begin(),
                    compressed.data.end());
      metrics_.counter("swap.compressed_bytes") += compressed.bucket;
      metrics_.counter("swap.logical_bytes") += kPageBytes;
    }
    info.checksum = word_checksum(
        std::span<const std::byte>(buffer).subspan(info.offset, info.length));
    backed_.emplace(page, info);
    batch.pages.push_back(page);
  }
  const std::size_t batch_pages = batch.pages.size();
  batches_.emplace(entry, std::move(batch));
  return wb_stage(entry, std::move(buffer), batch_pages);
}

Status SwapManager::wb_stage(mem::EntryId entry,
                             std::vector<std::byte> buffer,
                             std::size_t batch_pages) {
  auto& sim = client_.service().node().simulator();
  WbBatch staged;
  staged.buffer = std::move(buffer);
  staged.pages = batch_pages;
  staged.staged_at = sim.now();
  wb_.emplace(entry, std::move(staged));
  wb_order_.push_back(entry);
  ++metrics_.counter("swap.wb.staged");
  // The pages left residency: the swap-out happened from the paging
  // layer's point of view, even though the put is deferred.
  ++swap_outs_;
  metrics_.counter("swap.swapped_out_pages") += batch_pages;

  // Deadline flush: the batch goes out within writeback_flush_delay even
  // if no pressure builds (bounds the crash-exposure window).
  auto alive = alive_;
  sim.schedule_after(config_.writeback_flush_delay,
                     [this, alive, entry]() {
                       if (!*alive) return;
                       wb_flush_entry(entry);
                     });

  // Bounded buffer: when the bound is exceeded, push the oldest staged
  // batch out and wait until the buffer is back under it. This wait is
  // the worker's backpressure on the app.
  while (wb_.size() > config_.writeback_batches) {
    for (mem::EntryId id : wb_order_) {
      auto it = wb_.find(id);
      if (it != wb_.end() && !it->second.in_flight) {
        wb_flush_entry(id);
        break;
      }
    }
    if (wb_inflight_ == 0) break;  // nothing to wait for
    Status drained = client_.drain_until([this]() {
      return wb_.size() <= config_.writeback_batches || wb_inflight_ == 0;
    });
    DM_RETURN_IF_ERROR(drained);
    // Flush failures are deferred to the next safe point; the failed
    // batches already left wb_, so the bound is honoured either way.
  }
  // Lazy prune of stale flush-order ids.
  while (!wb_order_.empty() && wb_.count(wb_order_.front()) == 0)
    wb_order_.pop_front();
  return Status::Ok();
}

void SwapManager::wb_flush_entry(mem::EntryId entry) {
  auto it = wb_.find(entry);
  if (it == wb_.end() || it->second.in_flight) return;
  it->second.in_flight = true;
  ++wb_inflight_;
  ++metrics_.counter("swap.wb.flushes");
  auto& sim = client_.service().node().simulator();
  const SimTime ready = worker_run(batch_cost(it->second.pages));
  if (ready <= sim.now()) {
    wb_post(entry);
    return;
  }
  auto alive = alive_;
  sim.schedule_at(ready, [this, alive, entry]() {
    if (*alive) wb_post(entry);
  });
}

void SwapManager::wb_post(mem::EntryId entry) {
  auto it = wb_.find(entry);
  if (it == wb_.end()) return;
  if (it->second.remove_after) {
    // Every member was rewritten while the worker had the batch: no put.
    --wb_inflight_;
    wb_.erase(it);
    ++metrics_.counter("swap.wb.cancelled_batches");
    return;
  }
  net::TraceId trace = net::kNoTrace;
  if (spans_ != nullptr) trace = client_.service().node().next_trace_id();
  auto alive = alive_;
  core::Ldmc* client = &client_;
  std::function<void(const Status&)> landed =
      [this, alive, client, entry](const Status& stored) {
        if (!*alive) {
          // The manager is gone; nothing will ever name this entry.
          if (stored.ok()) client->remove(entry, [](const Status&) {});
          return;
        }
        --wb_inflight_;
        auto wb_it = wb_.find(entry);
        if (wb_it == wb_.end()) return;
        if (!stored.ok()) {
          // Defer the rollback: the page maps may be mid-walk in a fault.
          wb_failures_.push_back(
              {entry, std::move(wb_it->second.buffer), stored});
          wb_.erase(wb_it);
          return;
        }
        // Staging to landing: the whole swap-out, worker queue included.
        metrics_.histogram("swap.swapout_ns")
            .record(static_cast<std::uint64_t>(
                client_.service().node().simulator().now() -
                wb_it->second.staged_at));
        if (wb_it->second.remove_after) {
          // Every member was rewritten while the put was in flight; the
          // entry is garbage the moment it lands.
          ++metrics_.counter("swap.wb.late_removes");
          client_.remove(entry, [](const Status&) {});
        } else {
          if (auto loc = client_.map().lookup(entry);
              loc.ok() && loc->degraded) {
            // Degraded-mode store (§IV.D hardening): the batch is durable
            // but below its intended placement. The repair service restores
            // the placement in the background; swapping continues.
            ++metrics_.counter("swap.degraded_batches");
          }
          if (config_.disk_backup) {
            // Infiniswap's asynchronous durability path: whole-page backup
            // writes that queue on the disk but block nothing.
            client_.service().backup_pages(wb_it->second.pages, kPageBytes);
            metrics_.counter("swap.backup_writes") += wb_it->second.pages;
          }
        }
        wb_.erase(wb_it);
      };
  client_.put(entry, it->second.buffer,
              sim::span_completion(spans_, trace,
                                   client_.service().node().id(), "swap",
                                   "swap.writeback", std::move(landed)),
              trace);
}

Status SwapManager::wb_process_failures() {
  Status first = Status::Ok();
  while (!wb_failures_.empty()) {
    WbFailure failure = std::move(wb_failures_.front());
    wb_failures_.erase(wb_failures_.begin());
    ++metrics_.counter("swap.wb.flush_failures");
    if (first.ok()) first = failure.status;
    // The staged copy is the only copy: the put never landed. (The resident
    // budget may transiently overshoot; the next fault drains it.)
    DM_RETURN_IF_ERROR(roll_back(failure.entry, failure.buffer));
  }
  return first;
}

Status SwapManager::roll_back(mem::EntryId entry,
                              std::span<const std::byte> buffer) {
  auto batch_it = batches_.find(entry);
  if (batch_it == batches_.end()) return Status::Ok();  // fully coalesced
  for (std::uint64_t page : batch_it->second.pages) {
    auto backing_it = backed_.find(page);
    if (backing_it == backed_.end() || backing_it->second.batch != entry)
      continue;
    const Backing& info = backing_it->second;
    if (resident_.count(page) == 0) {
      std::vector<std::byte> bytes(kPageBytes);
      DM_RETURN_IF_ERROR(compress::decode_page(
          buffer.subspan(info.offset, info.length), info.lz, bytes));
      resident_.emplace(page, std::move(bytes));
      lru_.touch(page);
    }
    dirty_.insert(page);
    backed_.erase(backing_it);
  }
  batches_.erase(batch_it);
  return Status::Ok();
}

Status SwapManager::wb_barrier() {
  // Every staged batch goes out at once. Completions only erase from wb_
  // and nothing stages during the drain, so one drain empties the buffer.
  for (mem::EntryId id : wb_order_) wb_flush_entry(id);
  wb_order_.clear();
  DM_RETURN_IF_ERROR(
      client_.drain_until([this]() { return wb_inflight_ == 0; }));
  // A failed flush rolls its pages back to resident+dirty; future
  // evictions re-stage them. The barrier reports the first failure.
  return wb_process_failures();
}

Status SwapManager::restore(std::uint64_t page,
                            const std::vector<std::uint64_t>& members,
                            std::span<const std::byte> bytes,
                            std::uint32_t base) {
  const SimTime now = client_.service().node().simulator().now();
  bool own_lz = false;
  for (std::uint64_t member : members) {
    const Backing& info = backed_.at(member);
    std::vector<std::byte> decoded(kPageBytes);
    DM_RETURN_IF_ERROR(compress::decode_page(
        bytes.subspan(info.offset - base, info.length), info.lz, decoded));
    resident_.insert_or_assign(member, std::move(decoded));
    lru_.touch(member);
    ++swap_ins_;
    if (member == page) {
      own_lz = info.lz;
    } else if (info.lz) {
      decoding_[member] = worker_run(kDecompressNs);
      ++metrics_.counter("swap.worker.decoded_pages");
    } else {
      decoding_[member] = now;
    }
  }
  if (own_lz) {
    sim::SpanScope decompress_span(spans_, active_trace_,
                                   client_.service().node().id(), "compress",
                                   "decompress.page");
    charge(kDecompressNs);
  }
  return Status::Ok();
}

std::vector<std::uint64_t> SwapManager::pbs_members(std::uint64_t page,
                                                    const BatchInfo& batch) {
  const bool predicted = page == predicted_fault_;
  stream_hits_ = predicted ? stream_hits_ + 1 : 0;
  if (predicted) count_fan_out(kPredictedFault);
  ++metrics_.counter("swap.pbs_batch_ins");
  if (!pbs_fan_out_full()) {
    ++metrics_.counter("swap.pbs.narrowed_ins");
    return {page};
  }
  std::vector<std::uint64_t> members;
  for (std::uint64_t member : batch.pages)
    if (resident_.count(member) == 0) members.push_back(member);
  return members;
}

void SwapManager::count_fan_out(FanOutOutcome outcome) {
  ++(outcome == kSiblingWasted ? fan_out_wastes_ : fan_out_uses_);
  std::uint64_t*& total = fan_out_counters_[outcome];
  if (total == nullptr)
    total = &metrics_.counter(
        outcome == kSiblingUsed     ? "swap.pbs.siblings_used"
        : outcome == kSiblingWasted ? "swap.pbs.siblings_wasted"
                                    : "swap.pbs.predicted_faults");
  ++*total;
  if (fan_out_uses_ + fan_out_wastes_ >= kFanOutWindow) {
    fan_out_uses_ /= 2;
    fan_out_wastes_ /= 2;
  }
}

Status SwapManager::fault_in_zswap(std::uint64_t page) {
  // Load from the pool BEFORE making room: eviction below may push other
  // pages into zswap and write this very entry back down-tier.
  charge(kDecompressNs);
  std::vector<std::byte> bytes(kPageBytes);
  if (!zswap_->take(page, bytes))
    return InternalError("zswap entry vanished during fault");
  DM_RETURN_IF_ERROR(make_room(1));
  // zswap frees the entry on load: the page returns dirty (unbacked).
  resident_.insert_or_assign(page, std::move(bytes));
  dirty_.insert(page);
  lru_.touch(page);
  ++swap_ins_;
  ++metrics_.counter("swap.zswap_hits");
  return Status::Ok();
}

Status SwapManager::fault_in(std::uint64_t page) {
  const Backing info = backed_.at(page);
  auto batch_it = batches_.find(info.batch);
  if (batch_it == batches_.end())
    return InternalError("backed page references unknown batch");
  const bool pbs = config_.proactive_batch_swap_in;
  std::vector<std::uint64_t> members;
  if (pbs) {
    members = pbs_members(page, batch_it->second);
  } else {
    members.push_back(page);
    ++metrics_.counter("swap.single_page_ins");
  }

  // `bytes` holds the entry from offset `base` on. A staged batch is
  // copied: a flush completion may erase the buffer while make_room runs
  // the simulator.
  std::vector<std::byte> bytes;
  std::uint32_t base = 0;
  bool whole = false;
  const auto staged_it = wb_.find(info.batch);
  const bool staged = staged_it != wb_.end();
  if (staged) {
    bytes = staged_it->second.buffer;
  } else {
    if (pbs) {
      auto size = client_.stored_size(info.batch);
      if (!size.ok()) return size.status();
      whole = members.size() > 1 || readahead_.count(info.batch) > 0 ||
              compaction_due(batch_it->second, *size);
    } else {
      // Never whole just to compact: a compaction rides a whole read.
      whole = batch_it->second.pages.size() > 1;
    }
    if (whole) {
      DM_RETURN_IF_ERROR(fetch_batch(info.batch, bytes));
    } else {
      if (pbs) ++metrics_.counter("swap.pbs.page_reads");
      DM_RETURN_IF_ERROR(read_page(info, bytes));
      base = info.offset;
    }
  }

  DM_RETURN_IF_ERROR(make_room(members.size()));
  if (!staged && config_.extra_op_overhead > 0)
    charge(config_.extra_op_overhead * static_cast<SimTime>(members.size()));
  DM_RETURN_IF_ERROR(restore(page, members, bytes, base));
  if (staged) {
    ++metrics_.counter("swap.wb.hits");
  } else if (whole) {
    compact_batch(info.batch, bytes);
  }
  if (pbs) read_ahead(page);
  return Status::Ok();
}

Status SwapManager::read_page(const Backing& info,
                              std::vector<std::byte>& stored) {
  stored.resize(info.length);
  DM_RETURN_IF_ERROR(client_.get_range_sync(info.batch, info.offset, stored,
                                            active_trace_));
  if (word_checksum(stored) != info.checksum)
    return DataLossError("page checksum mismatch on a one-page read");
  return Status::Ok();
}

Status SwapManager::fetch_batch(mem::EntryId entry,
                                std::vector<std::byte>& buffer) {
  if (auto it = readahead_.find(entry); it != readahead_.end()) {
    const Readahead& ahead = it->second;
    if (!ahead.landed) {
      // Still in flight: wait for it rather than post a second read. Only
      // the faulting thread erases readaheads, so `ahead` stays put.
      auto& sim = client_.service().node().simulator();
      const SimTime started = sim.now();
      sim::SpanScope wait_span(ahead.remote ? spans_ : nullptr, active_trace_,
                               client_.service().node().id(), "net",
                               "readahead.wait");
      DM_RETURN_IF_ERROR(client_.drain_until(
          [&ahead]() { return ahead.landed.has_value(); }));
      wait_span.close();
      metrics_.histogram("swap.readahead.wait_ns")
          .record(static_cast<std::uint64_t>(sim.now() - started));
    }
    if (ahead.landed->ok()) {
      buffer = std::move(*ahead.buffer);
      readahead_.erase(it);
      ++metrics_.counter("swap.readahead.hits");
      return Status::Ok();
    }
    // A failed fetch (a checksum mismatch included): fetch on demand.
    readahead_.erase(it);
    ++metrics_.counter("swap.readahead.dropped");
  }
  auto size = client_.stored_size(entry);
  if (!size.ok()) return size.status();
  buffer.resize(*size);
  return client_.get_sync(entry, buffer, active_trace_);
}

void SwapManager::read_ahead(std::uint64_t page) {
  // The stream's next fault: the first page above this one not resident.
  predicted_fault_ = page + 1;
  while (resident_.count(predicted_fault_) > 0) ++predicted_fault_;
  if (stream_hits_ < kReadaheadStreak) return;

  // The window: the next kReadaheadBatches entries in page order from the
  // prediction that a get can read ahead, i.e. landed in shared or remote
  // memory. The walk stops at the first page with no stored copy, or
  // 2 x kReadaheadBatches batch windows past the prediction.
  std::vector<std::pair<mem::EntryId, mem::EntryLocation>> window;
  const auto in_window = [&window](mem::EntryId entry) {
    return std::any_of(window.begin(), window.end(),
                       [entry](const auto& e) { return e.first == entry; });
  };
  const std::uint64_t end =
      predicted_fault_ + 2 * kReadaheadBatches * config_.batch_pages;
  mem::EntryId last = 0;
  for (std::uint64_t q = predicted_fault_;
       q < end && window.size() < kReadaheadBatches; ++q) {
    if (resident_.count(q) > 0) continue;
    auto backing = backed_.find(q);
    if (backing == backed_.end()) break;
    const mem::EntryId entry = backing->second.batch;
    if (entry == last) continue;
    last = entry;
    if (wb_.count(entry) > 0 || in_window(entry)) continue;
    auto location = client_.map().lookup(entry);
    if (!location.ok() || (location->tier != mem::Tier::kSharedMemory &&
                           location->tier != mem::Tier::kRemote))
      continue;
    window.emplace_back(entry, *location);
  }
  for (auto it = readahead_.begin(); it != readahead_.end();) {
    if (in_window(it->first)) {
      ++it;
      continue;
    }
    ++metrics_.counter("swap.readahead.dropped");
    it = readahead_.erase(it);
  }
  for (const auto& [entry, location] : window)
    if (readahead_.count(entry) == 0) readahead_post(entry, location);
}

void SwapManager::readahead_post(mem::EntryId entry,
                                 const mem::EntryLocation& location) {
  auto buffer =
      std::make_shared<std::vector<std::byte>>(location.stored_size);
  net::TraceId trace = net::kNoTrace;
  if (spans_ != nullptr) trace = client_.service().node().next_trace_id();
  // Held before the get is posted: a get that fails at once completes
  // inside the call.
  readahead_.emplace(entry,
                     Readahead{buffer, location.tier == mem::Tier::kRemote,
                               std::nullopt});
  ++metrics_.counter("swap.readahead.issued");
  auto alive = alive_;
  std::function<void(const Status&)> landed =
      [this, alive, entry, buffer](const Status& got) {
        if (!*alive) return;
        // Only mark it landed: the page maps may be mid-walk in a fault.
        auto it = readahead_.find(entry);
        if (it != readahead_.end() && it->second.buffer == buffer)
          it->second.landed = got;
      };
  client_.get(entry, *buffer,
              sim::span_completion(spans_, trace,
                                   client_.service().node().id(), "swap",
                                   "swap.readahead", std::move(landed)),
              trace);
}

bool SwapManager::compaction_due(const BatchInfo& batch,
                                 std::size_t stored_bytes) const {
  std::uint64_t live = 0;
  for (std::uint64_t member : batch.pages) live += backed_.at(member).length;
  return live * kCompactionRatio <= stored_bytes;
}

void SwapManager::compact_batch(mem::EntryId entry,
                                std::span<const std::byte> stored) {
  auto batch_it = batches_.find(entry);
  if (batch_it == batches_.end()) return;
  for (const auto& [target, compaction] : compactions_)
    if (compaction.source == entry) return;  // already being rewritten
  // Device tiers are never rewritten: their space is not the scarce DRAM
  // disaggregation harvests.
  auto location = client_.map().lookup(entry);
  if (!location.ok() || (location->tier != mem::Tier::kSharedMemory &&
                         location->tier != mem::Tier::kRemote))
    return;
  if (!compaction_due(batch_it->second, stored.size())) return;

  const mem::EntryId target = next_batch_++;
  Compaction compaction;
  compaction.source = entry;
  std::vector<std::byte> buffer;
  buffer.reserve(stored.size() / kCompactionRatio);
  for (std::uint64_t member : batch_it->second.pages) {
    Backing moved = backed_.at(member);
    const auto bytes = stored.subspan(moved.offset, moved.length);
    moved.batch = target;
    moved.offset = static_cast<std::uint32_t>(buffer.size());
    buffer.insert(buffer.end(), bytes.begin(), bytes.end());
    compaction.members.emplace_back(member, moved);
  }
  compactions_.emplace(target, std::move(compaction));
  ++metrics_.counter("swap.compact.issued");
  // Off the app's clock, on a fresh trace: completion only marks the
  // compaction landed (the page maps may be mid-walk in a fault).
  auto alive = alive_;
  core::Ldmc* client = &client_;
  client_.put_in_tier(
      target, buffer, location->tier,
      [this, alive, client, target](const Status& stored_status) {
        if (!*alive) {
          // The manager is gone; nothing will ever name this entry.
          if (stored_status.ok()) client->remove(target, [](const Status&) {});
          return;
        }
        auto it = compactions_.find(target);
        if (it != compactions_.end()) it->second.landed = stored_status;
      });
}

void SwapManager::compact_commit() {
  for (auto it = compactions_.begin(); it != compactions_.end();) {
    if (!it->second.landed) {
      ++it;
      continue;
    }
    const mem::EntryId target = it->first;
    const Compaction& compaction = it->second;
    if (!compaction.landed->ok()) {
      // The put did not land in the source's tier: the source entry stays
      // authoritative and nothing moves.
      ++metrics_.counter("swap.compact.abandoned");
    } else {
      // Members still backed by the source move to the new entry, in
      // member order, so PBS restores the same group. A member rewritten
      // meanwhile stays dead in the new entry. Membership only shrinks,
      // so the source is left with no member and is freed.
      BatchInfo moved;
      if (auto source = batches_.find(compaction.source);
          source != batches_.end()) {
        for (const auto& [page, backing] : compaction.members) {
          auto backing_it = backed_.find(page);
          if (backing_it == backed_.end() ||
              backing_it->second.batch != compaction.source)
            continue;
          backing_it->second = backing;
          moved.pages.push_back(page);
        }
        batches_.erase(source);
        free_entry(compaction.source);
      }
      if (moved.pages.empty()) {
        free_entry(target);  // every member died while the put was out
      } else {
        batches_.emplace(target, std::move(moved));
      }
      ++metrics_.counter("swap.compact.committed");
    }
    it = compactions_.erase(it);
  }
}

Status SwapManager::flush_all() {
  (void)wb_process_failures();
  compact_commit();
  while (!resident_.empty()) {
    DM_RETURN_IF_ERROR(evict_for_space());
  }
  // Drain the CXL pool too: a cold restart loses the coherence-layer
  // caches, so every pooled page must reach the durable backend.
  if (config_.cxl_tier != nullptr) {
    while (config_.cxl_tier->used() > 0) DM_RETURN_IF_ERROR(cxl_spill_coldest());
  }
  // Crash-consistency barrier: Fig 9's cold restart (and any recovery
  // scenario) must find every page durable down-tier, not staged in DRAM.
  DM_RETURN_IF_ERROR(wb_barrier());
  // And in exactly one entry: settle every batch rewrite in flight.
  DM_RETURN_IF_ERROR(client_.drain_until([this]() {
    return std::all_of(
        compactions_.begin(), compactions_.end(),
        [](const auto& kv) { return kv.second.landed.has_value(); });
  }));
  compact_commit();
  return Status::Ok();
}

StatusOr<std::span<const std::byte>> SwapManager::resident_bytes(
    std::uint64_t page) const {
  auto it = resident_.find(page);
  if (it == resident_.end()) return NotFoundError("page not resident");
  return std::span<const std::byte>(it->second);
}

}  // namespace dm::swap
