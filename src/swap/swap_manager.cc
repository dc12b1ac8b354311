#include "swap/swap_manager.h"

#include <algorithm>
#include <cstring>

#include "common/status.h"
#include "common/units.h"
#include "compress/page_compressor.h"
#include "cxl/page_tier.h"
#include "core/ldmc.h"
#include "sim/span_sink.h"
#include "swap/pattern_tracker.h"

namespace dm::swap {
namespace {

// Batch compaction's one-third rule: an entry is rewritten once its live
// members hold at most 1/kCompactionRatio of its stored bytes. Rewriting
// L live bytes then frees S >= 3L stored ones, so each rewritten byte
// frees at least two dead ones.
constexpr std::uint64_t kCompactionRatio = 3;

compress::GranularityMode granularity_of(CompressionMode mode) {
  return mode == CompressionMode::kTwoGranularity
             ? compress::GranularityMode::kTwo
             : compress::GranularityMode::kFour;
}

}  // namespace

SwapManager::SwapManager(core::Ldmc& client, Config config,
                         PageContentFn content)
    : client_(client), config_(config), content_(std::move(content)),
      compressor_(granularity_of(config.compression)) {
  if (config_.zswap_pool_bytes > 0) zswap_.emplace(config_.zswap_pool_bytes);
  if (config_.adaptive_pbs) {
    // Cap the window so a PBS restore can always fit the resident budget
    // (make_room(w) must terminate with frames to spare).
    config_.max_batch_pages = std::max<std::size_t>(
        config_.min_batch_pages,
        std::min<std::size_t>(config_.max_batch_pages,
                              config_.resident_pages / 2));
    pattern_.emplace(config_.pattern_history,
                     static_cast<std::int64_t>(config_.max_batch_pages));
    window_.emplace(AdaptiveWindow::Config{
        config_.min_batch_pages, config_.max_batch_pages,
        std::clamp(config_.batch_pages, config_.min_batch_pages,
                   config_.max_batch_pages),
        config_.pattern_hysteresis});
  }
  // Backup region: top half of the node's swap disk (never read back; it
  // models Infiniswap's asynchronous durability path).
  backup_cursor_ = client_.service().node().disk().capacity() / 2;
}

SwapManager::~SwapManager() {
  *alive_ = false;
  // A landed, uncommitted rewrite duplicates pages its source still holds,
  // so it goes; a rewrite still in flight frees its entry when it lands.
  for (const auto& [target, compaction] : compactions_)
    if (compaction.landed && compaction.landed->ok()) free_entry(target);
}

void SwapManager::charge(SimTime cost) {
  auto& sim = client_.service().node().simulator();
  sim.run_until(sim.now() + cost);
}

std::size_t SwapManager::current_window() const noexcept {
  return window_ ? window_->current() : config_.batch_pages;
}

AccessPattern SwapManager::current_pattern() const noexcept {
  return pattern_ ? pattern_->classify() : AccessPattern::kUnknown;
}

void SwapManager::observe_fault(std::uint64_t page) {
  pattern_->record(page);
  const AccessPattern verdict = pattern_->classify();
  ++metrics_.counter(std::string("swap.pattern.") +
                     std::string(to_string(verdict)));
  const std::size_t window = window_->update(verdict);
  metrics_.histogram("swap.pbs.window")
      .record(static_cast<std::uint64_t>(window));
}

bool SwapManager::pbs_fanout_suppressed() {
  if (!config_.adaptive_pbs) return false;
  if (pattern_->classify() != AccessPattern::kRandom) return false;
  ++metrics_.counter("swap.pbs.fanout_skips");
  return true;
}

Status SwapManager::touch(std::uint64_t page, bool write) {
  // Safe point: roll back any write-back flush that failed while previous
  // faults were in flight (pages return resident+dirty, nothing is lost),
  // and commit the batch rewrites that landed meanwhile.
  if (wb_enabled()) (void)wb_process_failures();
  compact_commit();
  auto& latency = client_.service().node().fabric().config().latency;
  auto it = resident_.find(page);
  if (it != resident_.end()) {
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
  if (config_.adaptive_pbs) observe_fault(page);
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
  const char* path = nullptr;
  // Set when a CXL line access served the fault with the page staying
  // pooled: no residency change, and for a write the dirty line lives in
  // the coherence layer (written back on demotion), so the resident-page
  // dirty/backing bookkeeping below must not run.
  bool cxl_in_place = false;
  if (config_.cxl_tier != nullptr && config_.cxl_tier->contains(page)) {
    path = "cxl";
    DM_RETURN_IF_ERROR(fault_in_cxl(page, write, cxl_in_place));
  } else if (zswap_ && zswap_->contains(page)) {
    path = "zswap";
    DM_RETURN_IF_ERROR(fault_in_zswap(page));
  } else if (auto backing = backed_.find(page); backing != backed_.end()) {
    path = wb_enabled() && wb_.count(backing->second.batch) > 0 ? "wb"
                                                                : "backend";
    DM_RETURN_IF_ERROR(fault_in(page));
  } else {
    // First touch: demand-zero (well, demand-content) fault.
    path = "cold";
    DM_RETURN_IF_ERROR(make_room(1));
    auto [slot, inserted] =
        resident_.try_emplace(page, std::vector<std::byte>(kPageBytes));
    content_(page, slot->second);
    lru_.touch(page);
    ++metrics_.counter("swap.cold_faults");
  }
  fault_span.close();
  active_trace_ = net::kNoTrace;
  metrics_.histogram(std::string("swap.fault_ns.") + path)
      .record(static_cast<std::uint64_t>(sim.now() - fault_started));
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
        // Too late to cancel the put; remove the entry once it lands.
        wb_it->second.remove_after = true;
      } else {
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
  const std::size_t window = current_window();
  std::vector<std::uint64_t> to_write;
  bool freed_any = false;
  while (to_write.size() < window && !lru_.empty()) {
    auto victim = lru_.evict_lru();
    if (!victim) break;
    const std::uint64_t page = *victim;
    const bool clean = dirty_.count(page) == 0 && backed_.count(page) > 0;
    if (clean) {
      resident_.erase(page);
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
  // The batch is assembled in the node's send staging pool (paper Fig. 1:
  // the cluster-wide DM send buffer), then handed to the LDMC in one piece.
  auto& sim = client_.service().node().simulator();
  const SimTime batch_started = sim.now();
  std::vector<std::byte> buffer;
  buffer.reserve(pages.size() * kPageBytes);
  BatchInfo batch;
  const mem::EntryId entry = next_batch_++;

  for (auto& [page, bytes] : pages) {

    if (config_.extra_op_overhead > 0) charge(config_.extra_op_overhead);
    Backing info;
    info.batch = entry;
    info.offset = static_cast<std::uint32_t>(buffer.size());
    bool admit = true;
    if (config_.compression != CompressionMode::kOff &&
        config_.compression_admission) {
      // Admission control: probe the prefix entropy; an incompressible
      // page skips the LZ pass and is stored raw (it would have fallen
      // back to raw after burning compress_ns anyway).
      charge(config_.admission_probe_ns);
      const double entropy =
          compress::sample_entropy(bytes, config_.admission_probe_bytes);
      admit = entropy <= config_.admission_max_entropy;
      ++metrics_.counter(admit ? "swap.admit.accept" : "swap.admit.skip");
    }
    if (config_.compression == CompressionMode::kOff) {
      info.length = kPageBytes;
      buffer.insert(buffer.end(), bytes.begin(), bytes.end());
    } else if (!admit) {
      info.compressed = true;
      info.raw = true;
      info.length = kPageBytes;
      buffer.insert(buffer.end(), bytes.begin(), bytes.end());
      metrics_.counter("swap.compressed_bytes") += kPageBytes;
      metrics_.counter("swap.logical_bytes") += kPageBytes;
    } else {
      {
        sim::SpanScope compress_span(spans_, active_trace_,
                                     client_.service().node().id(),
                                     "compress", "compress.page");
        charge(config_.compress_ns);
      }
      auto compressed = compressor_.compress(bytes);
      info.compressed = true;
      info.raw = compressed.is_raw;
      info.length = static_cast<std::uint32_t>(compressed.data.size());
      buffer.insert(buffer.end(), compressed.data.begin(),
                    compressed.data.end());
      metrics_.counter("swap.compressed_bytes") += compressed.bucket;
      metrics_.counter("swap.logical_bytes") += kPageBytes;
    }
    backed_.emplace(page, info);
    batch.pages.push_back(page);
  }
  const std::size_t batch_pages = batch.pages.size();
  batches_.emplace(entry, std::move(batch));

  if (wb_enabled())
    return wb_stage(entry, std::move(buffer), batch_started, batch_pages);

  // Stage the assembled batch; falls back to the local vector if the
  // window exceeds the pool (functional behaviour is identical — the pool
  // models the reserved send-side memory of §IV.B).
  auto& staging = client_.service().node().send_pool();
  staging.reset();
  std::span<const std::byte> outgoing = buffer;
  if (auto staged = staging.stage(buffer.size()); staged.ok()) {
    std::memcpy(staged->data(), buffer.data(), buffer.size());
    outgoing = *staged;
    ++metrics_.counter("swap.batches_staged");
  }
  Status stored = client_.put_sync(entry, outgoing, active_trace_);
  if (!stored.ok()) {
    // Roll back: restore the victims as resident from the staged buffer.
    // (For zswap writebacks "resident" is a safe over-approximation: the
    // pages re-enter the LRU dirty and will be retried.)
    for (std::uint64_t page : batches_.at(entry).pages) {
      const Backing info = backed_.at(page);
      std::vector<std::byte> bytes(kPageBytes);
      if (info.compressed && !info.raw) {
        compress::CompressedPage cp;
        cp.data.assign(buffer.begin() + info.offset,
                       buffer.begin() + info.offset + info.length);
        cp.is_raw = false;
        (void)compressor_.decompress(cp, bytes);
      } else {
        std::memcpy(bytes.data(), buffer.data() + info.offset, info.length);
      }
      resident_.emplace(page, std::move(bytes));
      lru_.touch(page);
      dirty_.insert(page);  // still unbacked down-tier
      backed_.erase(page);
    }
    batches_.erase(entry);
    return stored;
  }
  ++swap_outs_;
  if (auto loc = client_.map().lookup(entry); loc.ok() && loc->degraded) {
    // Degraded-mode store (§IV.D hardening): the batch is durable but below
    // its intended placement — remote with a short replica set, or pushed
    // to disk because remote memory was unreachable. The repair service
    // restores the placement in the background; swapping continues.
    ++metrics_.counter("swap.degraded_batches");
  }
  metrics_.counter("swap.swapped_out_pages") += batch_pages;
  // Compression + staging + replicated store, end to end for one window.
  metrics_.histogram("swap.swapout_ns")
      .record(static_cast<std::uint64_t>(sim.now() - batch_started));

  if (config_.disk_backup) {
    // Asynchronous full-page backup writes (Infiniswap durability path);
    // they queue on the disk but do not block the fault path.
    auto& disk = client_.service().node().disk();
    for (std::size_t i = 0; i < batch_pages; ++i) {
      if (backup_cursor_ + kPageBytes > disk.capacity())
        backup_cursor_ = disk.capacity() / 2;
      std::vector<std::byte> copy(kPageBytes);
      (void)disk.write(backup_cursor_, copy, {});
      backup_cursor_ += kPageBytes;
      ++metrics_.counter("swap.backup_writes");
    }
  }
  return Status::Ok();
}

Status SwapManager::wb_stage(mem::EntryId entry,
                             std::vector<std::byte> buffer,
                             SimTime batch_started, std::size_t batch_pages) {
  auto& sim = client_.service().node().simulator();
  WbBatch staged;
  staged.buffer = std::move(buffer);
  wb_.emplace(entry, std::move(staged));
  wb_order_.push_back(entry);
  ++metrics_.counter("swap.wb.staged");
  // The pages left residency: the swap-out happened from the paging
  // layer's point of view, even though the put is deferred.
  ++swap_outs_;
  metrics_.counter("swap.swapped_out_pages") += batch_pages;
  metrics_.histogram("swap.swapout_ns")
      .record(static_cast<std::uint64_t>(sim.now() - batch_started));

  // Deadline flush: the batch goes out within writeback_flush_delay even
  // if no pressure builds (bounds the crash-exposure window).
  auto alive = alive_;
  sim.schedule_after(config_.writeback_flush_delay,
                     [this, alive, entry]() {
                       if (!*alive) return;
                       wb_flush_entry(entry);
                     });

  // Bounded buffer: when the bound is exceeded, push the oldest staged
  // batch out and wait until the buffer is back under it.
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
  auto alive = alive_;
  client_.put(
      entry, it->second.buffer, [this, alive, entry](const Status& stored) {
        if (!*alive) return;
        --wb_inflight_;
        auto wb_it = wb_.find(entry);
        if (wb_it == wb_.end()) return;
        if (stored.ok()) {
          if (wb_it->second.remove_after) {
            // Every member was rewritten while the put was in flight; the
            // entry is garbage the moment it lands.
            ++metrics_.counter("swap.wb.late_removes");
            client_.remove(entry, [](const Status&) {});
          } else if (auto loc = client_.map().lookup(entry);
                     loc.ok() && loc->degraded) {
            ++metrics_.counter("swap.degraded_batches");
          }
          wb_.erase(wb_it);
          return;
        }
        // Defer the rollback: the page maps may be mid-walk in a fault.
        wb_failures_.push_back(
            {entry, std::move(wb_it->second.buffer), stored});
        wb_.erase(wb_it);
      });
}

Status SwapManager::wb_process_failures() {
  Status first = Status::Ok();
  while (!wb_failures_.empty()) {
    WbFailure failure = std::move(wb_failures_.front());
    wb_failures_.erase(wb_failures_.begin());
    ++metrics_.counter("swap.wb.flush_failures");
    if (first.ok()) first = failure.status;
    auto batch_it = batches_.find(failure.entry);
    if (batch_it == batches_.end()) continue;  // fully coalesced meanwhile
    // The staged copy is the only copy: the put never landed. Every page
    // still backed by this batch returns to resident+dirty (the resident
    // budget may transiently overshoot; the next fault drains it).
    for (std::uint64_t page : batch_it->second.pages) {
      auto backing_it = backed_.find(page);
      if (backing_it == backed_.end() ||
          backing_it->second.batch != failure.entry)
        continue;
      const Backing info = backing_it->second;
      if (resident_.count(page) == 0) {
        std::vector<std::byte> bytes(kPageBytes);
        if (info.compressed && !info.raw) {
          compress::CompressedPage cp;
          cp.data.assign(failure.buffer.begin() + info.offset,
                         failure.buffer.begin() + info.offset + info.length);
          cp.is_raw = false;
          DM_RETURN_IF_ERROR(compressor_.decompress(cp, bytes));
        } else {
          std::memcpy(bytes.data(), failure.buffer.data() + info.offset,
                      info.length);
        }
        resident_.emplace(page, std::move(bytes));
        lru_.touch(page);
      }
      dirty_.insert(page);
      backed_.erase(backing_it);
    }
    batches_.erase(batch_it);
  }
  return first;
}

Status SwapManager::wb_barrier() {
  if (!wb_enabled()) return Status::Ok();
  Status first = wb_process_failures();
  while (!wb_.empty() || !wb_failures_.empty()) {
    for (mem::EntryId id : std::vector<mem::EntryId>(wb_order_.begin(),
                                                     wb_order_.end())) {
      auto it = wb_.find(id);
      if (it != wb_.end() && !it->second.in_flight) wb_flush_entry(id);
    }
    if (wb_inflight_ > 0) {
      Status drained =
          client_.drain_until([this]() { return wb_inflight_ == 0; });
      if (!drained.ok()) return drained;
    }
    Status failed = wb_process_failures();
    if (first.ok()) first = failed;
    // A failed flush rolled its pages back to resident+dirty — they will
    // be re-staged by future evictions, not retried here; the barrier
    // reports the failure and leaves the pages safe.
    if (wb_inflight_ == 0 &&
        std::none_of(wb_.begin(), wb_.end(), [](const auto& kv) {
          return !kv.second.in_flight;
        }) &&
        !wb_.empty())
      break;  // only in-flight entries remain and nothing is draining them
    if (!failed.ok() || !first.ok()) {
      if (wb_.empty()) break;
    }
  }
  wb_order_.clear();
  for (const auto& [id, batch] : wb_) wb_order_.push_back(id);
  return first;
}

Status SwapManager::materialize(std::uint64_t page,
                                std::span<const std::byte> stored,
                                const Backing& info) {
  std::vector<std::byte> bytes(kPageBytes);
  if (info.compressed && !info.raw) {
    {
      sim::SpanScope decompress_span(spans_, active_trace_,
                                     client_.service().node().id(),
                                     "compress", "decompress.page");
      charge(config_.decompress_ns);
    }
    compress::CompressedPage cp;
    cp.data.assign(stored.begin(), stored.end());
    cp.is_raw = false;
    DM_RETURN_IF_ERROR(compressor_.decompress(cp, bytes));
  } else {
    if (stored.size() != kPageBytes)
      return DataLossError("raw page has wrong stored size");
    std::memcpy(bytes.data(), stored.data(), kPageBytes);
  }
  resident_.insert_or_assign(page, std::move(bytes));
  lru_.touch(page);
  ++swap_ins_;
  return Status::Ok();
}

Status SwapManager::fault_in_zswap(std::uint64_t page) {
  // Load from the pool BEFORE making room: eviction below may push other
  // pages into zswap and write this very entry back down-tier.
  charge(config_.decompress_ns);
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

Status SwapManager::fault_in_wb(std::uint64_t page,
                                const std::vector<std::byte>& staged) {
  // Copy first: a flush completion may erase the staged buffer while the
  // decompress/make_room charges below drive the simulator.
  const std::vector<std::byte> buffer = staged;
  const Backing info = backed_.at(page);
  auto batch_it = batches_.find(info.batch);
  if (batch_it == batches_.end())
    return InternalError("staged page references unknown batch");

  std::vector<std::uint64_t> restore;
  if (config_.proactive_batch_swap_in && !pbs_fanout_suppressed()) {
    for (std::uint64_t member : batch_it->second.pages)
      if (resident_.count(member) == 0) restore.push_back(member);
    ++metrics_.counter("swap.pbs_batch_ins");
  } else {
    restore.push_back(page);
    ++metrics_.counter("swap.single_page_ins");
  }
  DM_RETURN_IF_ERROR(make_room(restore.size()));
  for (std::uint64_t member : restore) {
    const Backing member_info = backed_.at(member);
    DM_RETURN_IF_ERROR(materialize(
        member,
        std::span<const std::byte>(buffer).subspan(member_info.offset,
                                                   member_info.length),
        member_info));
  }
  ++metrics_.counter("swap.wb.hits");
  return Status::Ok();
}

Status SwapManager::fault_in(std::uint64_t page) {
  const Backing info = backed_.at(page);
  auto batch_it = batches_.find(info.batch);
  if (batch_it == batches_.end())
    return InternalError("backed page references unknown batch");

  // Still in the write-back staging buffer: serve straight from DRAM.
  if (wb_enabled()) {
    if (auto wb_it = wb_.find(info.batch); wb_it != wb_.end())
      return fault_in_wb(page, wb_it->second.buffer);
  }

  if (config_.proactive_batch_swap_in && !pbs_fanout_suppressed()) {
    // PBS: fetch the whole batch entry with one disaggregated-memory read
    // and repopulate every non-resident page stored in it. The swap-cache
    // copies stay valid (pages come back clean).
    auto size = client_.stored_size(info.batch);
    if (!size.ok()) return size.status();
    std::vector<std::byte> buffer(*size);
    DM_RETURN_IF_ERROR(client_.get_sync(info.batch, buffer, active_trace_));

    std::vector<std::uint64_t> restore;
    for (std::uint64_t member : batch_it->second.pages)
      if (resident_.count(member) == 0) restore.push_back(member);
    DM_RETURN_IF_ERROR(make_room(restore.size()));
    if (config_.extra_op_overhead > 0)
      charge(config_.extra_op_overhead *
             static_cast<SimTime>(restore.size()));
    for (std::uint64_t member : restore) {
      const Backing member_info = backed_.at(member);
      DM_RETURN_IF_ERROR(materialize(
          member,
          std::span<const std::byte>(buffer).subspan(member_info.offset,
                                                     member_info.length),
          member_info));
    }
    ++metrics_.counter("swap.pbs_batch_ins");
    compact_batch(info.batch, buffer);
    return Status::Ok();
  }

  // Non-PBS (or adaptive fan-out suppressed under random access): the
  // batch is still the unit of storage (one §IV.H message holds the
  // window), so the fault fetches the batch entry but restores only the
  // faulted page — its siblings stay down-tier and each pays the same
  // fetch again on its own fault. This is exactly the waste PBS removes.
  // Batches of one page degenerate to a cheap sub-read.
  if (config_.extra_op_overhead > 0) charge(config_.extra_op_overhead);
  if (batch_it->second.pages.size() > 1) {
    auto size = client_.stored_size(info.batch);
    if (!size.ok()) return size.status();
    std::vector<std::byte> buffer(*size);
    DM_RETURN_IF_ERROR(client_.get_sync(info.batch, buffer, active_trace_));
    DM_RETURN_IF_ERROR(make_room(1));
    DM_RETURN_IF_ERROR(materialize(
        page,
        std::span<const std::byte>(buffer).subspan(info.offset, info.length),
        info));
    compact_batch(info.batch, buffer);
  } else {
    std::vector<std::byte> stored(info.length);
    DM_RETURN_IF_ERROR(client_.get_range_sync(info.batch, info.offset,
                                              stored, active_trace_));
    DM_RETURN_IF_ERROR(make_room(1));
    DM_RETURN_IF_ERROR(materialize(page, stored, info));
  }
  ++metrics_.counter("swap.single_page_ins");
  return Status::Ok();
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
  std::uint64_t live = 0;
  for (std::uint64_t member : batch_it->second.pages)
    live += backed_.at(member).length;
  if (live * kCompactionRatio > stored.size()) return;

  const mem::EntryId target = next_batch_++;
  Compaction compaction;
  compaction.source = entry;
  std::vector<std::byte> buffer;
  buffer.reserve(live);
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
  if (wb_enabled()) (void)wb_process_failures();
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
  if (wb_enabled()) DM_RETURN_IF_ERROR(wb_barrier());
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
