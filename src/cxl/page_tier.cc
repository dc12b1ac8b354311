#include "cxl/page_tier.h"

#include <algorithm>
#include <array>
#include <cassert>

#include "common/status.h"
#include "cxl/coherence.h"

namespace dm::cxl {

CxlPageTier::CxlPageTier(CxlAgent& agent, Config config)
    : agent_(agent), config_(config) {
  assert(config_.page_bytes % kLineBytes == 0);
  lines_per_page_ = config_.page_bytes / kLineBytes;
  // The pool cannot outgrow the directory region.
  capacity_ = std::min(config_.pool_pages,
                       agent_.directory().line_count() / lines_per_page_);
  for (std::size_t i = 0; i < capacity_; ++i) free_slots_.insert(i);
}

std::uint64_t CxlPageTier::touches(std::uint64_t page) const {
  auto it = pages_.find(page);
  return it == pages_.end() ? 0 : it->second.touches;
}

Status CxlPageTier::demote(std::uint64_t page,
                           std::span<const std::byte> bytes,
                           net::TraceId trace) {
  if (bytes.size() != config_.page_bytes)
    return InvalidArgumentError("page size mismatch");
  if (pages_.count(page) > 0)
    return AlreadyExistsError("page already in CXL pool");
  if (free_slots_.empty())
    return ResourceExhaustedError("CXL pool full");
  const std::size_t slot = *free_slots_.begin();
  Status stored =
      agent_.write_region_sync(first_line_of(slot), bytes, trace);
  if (!stored.ok()) return stored;
  free_slots_.erase(free_slots_.begin());
  pages_.emplace(page, Slot{slot, 0});
  lru_.touch(page);
  ++metrics_.counter("cxl.tier.pages_in");
  return Status::Ok();
}

Status CxlPageTier::promote(std::uint64_t page, std::span<std::byte> out,
                            net::TraceId trace) {
  if (out.size() != config_.page_bytes)
    return InvalidArgumentError("page size mismatch");
  auto it = pages_.find(page);
  if (it == pages_.end()) return NotFoundError("page not in CXL pool");
  Status read =
      agent_.read_region_sync(first_line_of(it->second.index), out, trace);
  if (!read.ok()) return read;
  free_slots_.insert(it->second.index);
  pages_.erase(it);
  lru_.erase(page);
  ++metrics_.counter("cxl.tier.pages_out");
  return Status::Ok();
}

Status CxlPageTier::touch_line(std::uint64_t page, std::size_t line_index,
                               bool write, net::TraceId trace) {
  auto it = pages_.find(page);
  if (it == pages_.end()) return NotFoundError("page not in CXL pool");
  const LineId line =
      first_line_of(it->second.index) + (line_index % lines_per_page_);
  std::array<std::byte, kLineBytes> buf{};
  Status loaded = agent_.load_sync(
      line, 0, std::span<std::byte>(buf.data(), buf.size()), trace);
  if (!loaded.ok()) return loaded;
  if (write) {
    // Read-modify-write: the application mutates within the line; the
    // dirty Exclusive copy writes back on demotion, not through.
    Status stored = agent_.store_sync(
        line, 0, std::span<const std::byte>(buf.data(), buf.size()), trace);
    if (!stored.ok()) return stored;
    ++metrics_.counter("cxl.tier.line_writes");
  }
  ++it->second.touches;
  lru_.touch(page);
  ++metrics_.counter("cxl.tier.line_hits");
  return Status::Ok();
}

}  // namespace dm::cxl
