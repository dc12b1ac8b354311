// Page-granular pool over the CXL line tier — the middle rung of the
// DRAM -> CXL -> RDMA -> disk hierarchy (DESIGN.md §14).
//
// The tier owns a slab of consecutive lines in a CxlDirectory region and
// maps demoted 4 KiB pages onto fixed slots. A demotion pushes the whole
// page through the coherence protocol as one bulk region write (holders
// invalidated line by line, one fabric data transaction); a promotion
// pulls it back and frees the slot. While a page lives here, sub-page
// accesses run as coherent cache-line loads/stores through the owning
// agent — a hot line costs a local hit or one ns-scale line fill instead
// of a microsecond-scale page fault, which is the entire point of the
// tier. Per-page touch counts feed the swap layer's promotion policy
// (promote after N sub-page hits); LRU order feeds demotion-to-backend
// when the pool is full.
//
// Pages stored here are authoritative: the swap layer never keeps a page
// simultaneously in the CXL pool and in the RDMA/disk backend
// (tests/model_test.cc invariant T1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>

#include "common/lru.h"
#include "common/metrics.h"
#include "common/status.h"
#include "cxl/coherence.h"

namespace dm::cxl {

class CxlPageTier {
 public:
  // The pool's slots are consecutive from directory line 0.
  struct Config {
    std::size_t pool_pages = 64;
    std::size_t page_bytes = 4096;
  };

  CxlPageTier(CxlAgent& agent, Config config);

  CxlPageTier(const CxlPageTier&) = delete;
  CxlPageTier& operator=(const CxlPageTier&) = delete;

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t used() const noexcept { return pages_.size(); }
  bool full() const noexcept { return free_slots_.empty(); }
  bool contains(std::uint64_t page) const { return pages_.count(page) > 0; }
  std::size_t lines_per_page() const noexcept { return lines_per_page_; }
  CxlAgent& agent() noexcept { return agent_; }
  MetricsRegistry& metrics() noexcept { return metrics_; }

  // Sub-page hit count since the page entered the pool (0 if absent).
  std::uint64_t touches(std::uint64_t page) const;
  // Least-recently-touched page in the pool (demotion victim).
  std::optional<std::uint64_t> coldest() const { return lru_.peek_lru(); }

  // Moves a page into the pool (one bulk region write through the
  // protocol). Fails with kResourceExhausted when full, kAlreadyExists if
  // the page is already pooled.
  [[nodiscard]] Status demote(std::uint64_t page,
                              std::span<const std::byte> bytes,
                              net::TraceId trace = net::kNoTrace);

  // Pulls a page out of the pool into `out` and frees its slot (dirty
  // holder lines are flushed first, so `out` sees the latest write).
  [[nodiscard]] Status promote(std::uint64_t page, std::span<std::byte> out,
                               net::TraceId trace = net::kNoTrace);

  // Coherent sub-page access to one line of a pooled page (read-modify-
  // write when `write`); bumps the page's touch count and LRU recency.
  [[nodiscard]] Status touch_line(std::uint64_t page, std::size_t line_index,
                                  bool write,
                                  net::TraceId trace = net::kNoTrace);

 private:
  LineId first_line_of(std::size_t slot) const noexcept {
    return slot * lines_per_page_;
  }

  struct Slot {
    std::size_t index = 0;
    std::uint64_t touches = 0;
  };

  CxlAgent& agent_;
  Config config_;
  std::size_t lines_per_page_ = 0;
  std::size_t capacity_ = 0;
  std::map<std::uint64_t, Slot> pages_;
  std::set<std::size_t> free_slots_;  // lowest-first: deterministic reuse
  LruTracker<std::uint64_t> lru_;
  MetricsRegistry metrics_;
};

}  // namespace dm::cxl
