// Software-coherent CXL-class memory tier (ROADMAP: the successor tier
// between local DRAM and RDMA paging; see the cross-layer survey in
// PAPERS.md and DESIGN.md §14).
//
// One CxlDirectory owns a line-granular backing region registered with the
// fabric on its home node and tracks, per 64-byte line, which agents hold
// copies and in which state. CxlAgents are per-node load/store ports with a
// small local line cache; misses run an MSI-style protocol:
//
//   load miss  -> AcquireShared: the home downgrades an exclusive owner
//                 (write-back if dirty), then the requester pulls the line
//                 over the fabric's CXL port and caches it Shared.
//   store miss -> AcquireExclusive: the home back-invalidates every other
//                 holder (write-back from a dirty owner first), then grants
//                 the line Exclusive; the store applies in the local cache
//                 and the line goes dirty. Write-back happens on demotion
//                 (eviction, snoop, region read), not write-through.
//
// Every protocol hop is a real fabric transaction (Fabric::cxl_read /
// cxl_write): data hops carry line bytes into/out of the home's backing
// region; control hops are zero-length transactions, a snoop against the
// holder's mailbox line and an upgrade against the home. All timing is
// virtual, so the same seed and call sequence yield bit-identical protocol
// traces.
//
// Memory model. With the store buffer off (default), an operation completes
// only once it is globally visible, so completed operations are
// sequentially consistent: the classic litmus shapes admit exactly their SC
// outcome sets (SB forbids r0=r1=0, LB forbids 1/1, MP forbids 1/0, IRIW
// forbids disagreeing readers — pinned by tests/cxl_test.cc). With
// Config::store_buffer on, stores retire into a per-agent FIFO buffer and
// drain asynchronously (TSO): loads forward from the buffer, SB
// additionally admits r0=r1=0, and LB/MP/IRIW sets are unchanged. fence()
// drains the buffer.
//
// Concurrency discipline: the directory serializes transactions per line
// with a FIFO lock queue. Loads, stores, evictions and the page tier's
// region ops all run one line transaction, which takes the locks of its
// line range in ascending order (a single-line op is a range of one) — no
// cycle is possible, so the protocol cannot deadlock.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string_view>
#include <vector>

#include "common/lru.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/units.h"
#include "common/zero_arena.h"
#include "net/fabric.h"
#include "net/rdma.h"
#include "sim/simulator.h"
#include "sim/span_sink.h"

namespace dm::cxl {

// CXL.mem transaction granularity: one cache line.
inline constexpr std::size_t kLineBytes = 64;

using LineId = std::uint64_t;

enum class LineState : std::uint8_t {
  kInvalid = 0,
  kShared = 1,     // clean, possibly replicated across agents
  kExclusive = 2,  // sole copy, may be dirty
};

std::string_view to_string(LineState state) noexcept;

class CxlAgent;

// Home-side state: the backing bytes plus per-line holder bookkeeping.
class CxlDirectory {
 public:
  struct Config {
    net::NodeId home = 0;
    std::size_t line_count = 1024;
  };

  CxlDirectory(net::Fabric& fabric, Config config);
  ~CxlDirectory();

  CxlDirectory(const CxlDirectory&) = delete;
  CxlDirectory& operator=(const CxlDirectory&) = delete;

  net::NodeId home() const noexcept { return config_.home; }
  std::size_t line_count() const noexcept { return config_.line_count; }
  net::Fabric& fabric() noexcept { return fabric_; }
  MetricsRegistry& metrics() noexcept { return metrics_; }
  void set_span_sink(sim::SpanSink* spans) noexcept { spans_ = spans; }
  sim::SpanSink* span_sink() const noexcept { return spans_; }

  // Directory-side views (tests/diagnostics). owner_of returns kInvalidNode
  // when no agent holds the line Exclusive. Clean Shared drops update the
  // holder bookkeeping without a fabric transaction (clean data needs no
  // write-back and no permission change at the home).
  net::NodeId owner_of(LineId line) const;
  std::size_t sharer_count(LineId line) const;
  bool line_busy(LineId line) const;
  // The home copy of a line (authoritative once write-backs land).
  std::span<const std::byte> backing_line(LineId line) const;

 private:
  friend class CxlAgent;

  struct LineMeta {
    net::NodeId owner = net::kInvalidNode;
    std::set<net::NodeId> sharers;  // excludes owner
    bool busy = false;              // a transaction holds the line lock
    std::deque<std::function<void()>> waiters;  // FIFO lock queue
  };

  // Per-line FIFO lock: fn runs once the line is exclusively ours.
  void lock(LineId line, std::function<void()> fn);
  void unlock(LineId line);
  LineMeta& meta(LineId line);

  void register_agent(CxlAgent* agent);
  void unregister_agent(CxlAgent* agent);
  CxlAgent* agent_on(net::NodeId node);

  // Snoops every holder other than `requester` (pass kInvalidNode to visit
  // all holders): one control hop home->holder per snoop, a write-back data
  // hop first when the holder is dirty. keep_shared demotes holders to
  // Shared (load path); otherwise they are invalidated (store path). Runs
  // `then` once every holder has settled. Caller must hold the line lock.
  void settle_holders(LineId line, net::NodeId requester, bool keep_shared,
                      net::TraceId trace, std::function<void()> then);
  // One step of that chain: settles `holder`, then runs `next`.
  void snoop(LineId line, net::NodeId holder, bool keep_shared,
             net::TraceId trace, std::function<void()> next);

  net::Fabric& fabric_;
  Config config_;
  ZeroArena backing_;
  net::RKey rkey_ = net::kInvalidRKey;
  std::map<LineId, LineMeta> lines_;
  std::map<net::NodeId, CxlAgent*> agents_;
  MetricsRegistry metrics_;
  sim::SpanSink* spans_ = nullptr;
};

// Per-node load/store port with a small software-managed line cache.
class CxlAgent {
 public:
  // Local hit / store-buffer retire latency.
  static constexpr SimTime kHitNs = 40;

  struct Config {
    net::NodeId node = 0;
    // Soft capacity: installs never block; over-capacity lines are trimmed
    // by an asynchronous LRU release chain (transient overshoot is bounded
    // by the lines a burst can install before the chain catches up).
    std::size_t cache_lines = 64;
    // TSO mode: stores retire into a FIFO buffer and drain asynchronously.
    bool store_buffer = false;
    // Delay before a buffered store starts draining to the cache/protocol.
    SimTime drain_ns = 2 * kMicro;
  };

  using DoneCallback = std::function<void(const Status&)>;

  CxlAgent(CxlDirectory& directory, Config config);
  ~CxlAgent();

  CxlAgent(const CxlAgent&) = delete;
  CxlAgent& operator=(const CxlAgent&) = delete;

  net::NodeId node() const noexcept { return config_.node; }
  const Config& config() const noexcept { return config_; }
  CxlDirectory& directory() noexcept { return dir_; }
  MetricsRegistry& metrics() noexcept { return metrics_; }

  // Async load/store of a sub-line range [offset, offset + size) within
  // `line`. size must fit in the line. Completion order defines the memory
  // model (see file header).
  void load(LineId line, std::uint32_t offset, std::span<std::byte> out,
            DoneCallback done, net::TraceId trace = net::kNoTrace);
  void store(LineId line, std::uint32_t offset,
             std::span<const std::byte> data, DoneCallback done,
             net::TraceId trace = net::kNoTrace);
  // Completes once every buffered store has drained (SC mode: immediately).
  void fence(DoneCallback done);

  // Bulk ops for the page tier: write/read `data.size() / kLineBytes`
  // consecutive lines starting at `first`, through the protocol (every
  // holder settled per line, own copies included) but with one fabric data
  // transaction for the whole range and no cache fill — a page demotion
  // must not evict the hot lines it rides past.
  void write_region(LineId first, std::span<const std::byte> data,
                    DoneCallback done, net::TraceId trace = net::kNoTrace);
  void read_region(LineId first, std::span<std::byte> out, DoneCallback done,
                   net::TraceId trace = net::kNoTrace);

  // Synchronous wrappers: drive the simulator until the completion fires.
  [[nodiscard]] Status load_sync(LineId line, std::uint32_t offset,
                                 std::span<std::byte> out,
                                 net::TraceId trace = net::kNoTrace);
  [[nodiscard]] Status store_sync(LineId line, std::uint32_t offset,
                                  std::span<const std::byte> data,
                                  net::TraceId trace = net::kNoTrace);
  [[nodiscard]] Status fence_sync();
  [[nodiscard]] Status write_region_sync(LineId first,
                                         std::span<const std::byte> data,
                                         net::TraceId trace = net::kNoTrace);
  [[nodiscard]] Status read_region_sync(LineId first, std::span<std::byte> out,
                                        net::TraceId trace = net::kNoTrace);

  // Cache-side views (tests/diagnostics).
  LineState state_of(LineId line) const;
  bool line_dirty(LineId line) const;
  std::size_t cached_lines() const noexcept { return cache_.size(); }
  std::size_t store_buffer_depth() const noexcept { return sb_.size(); }

 private:
  friend class CxlDirectory;

  struct CacheLine {
    LineState state = LineState::kInvalid;
    bool dirty = false;
    // Set while a snoop or eviction is settling the line: fast-path hits
    // must miss and queue behind the in-flight transaction, or a hit could
    // dirty the line after its write-back snapshot and lose the write.
    bool settling = false;
    std::array<std::byte, kLineBytes> bytes{};
  };

  struct SbEntry {
    LineId line = 0;
    std::uint32_t offset = 0;
    std::vector<std::byte> data;
  };

  sim::Simulator& sim() noexcept { return dir_.fabric_.simulator(); }
  CacheLine* find(LineId line);
  const CacheLine* find(LineId line) const;
  bool hit_ok(const CacheLine* cl, LineState need) const;
  // Serve a load or store from the agent's own cache when it can (counted
  // as a hit, one latency sample); false on a miss.
  bool load_hit(LineId line, std::uint32_t offset, std::span<std::byte> out,
                SimTime latency);
  bool store_hit(LineId line, std::uint32_t offset,
                 std::span<const std::byte> data, SimTime latency);

  // The line transaction every load, store, eviction and region op runs.
  struct Txn;
  using TxnPtr = std::shared_ptr<Txn>;
  // Posts a transaction's one fabric hop with the completion it is given.
  using Post = std::function<Status(net::CompletionCallback)>;

  // Takes the locks of [first, first + count) in ascending order, then
  // runs `body` holding them all; the body ends through Txn::finish. A
  // teardown while the locks are taken hands back the ones held.
  void transact(LineId first, std::size_t count,
                std::function<void(const TxnPtr&)> body);
  // Settles every holder of the transaction's lines but `requester`, line
  // by line, then runs `then` — unless the agent tore down meanwhile.
  void settle(const TxnPtr& txn, net::NodeId requester, bool keep_shared,
              net::TraceId trace, std::function<void()> then);
  // Runs the transaction's fabric hop; `landed` gets its status (or the
  // post's own error) if the agent still lives.
  void hop(const TxnPtr& txn, const Post& post,
           std::function<void(const Status&)> landed);
  // Region ops: settle every holder of the range, own copies included,
  // then one hop for the whole range and no cache fill.
  void region(LineId first, std::size_t count, bool keep_shared,
              net::TraceId trace, Post post, DoneCallback done);

  void perform_load(LineId line, std::uint32_t offset,
                    std::span<std::byte> out, DoneCallback done,
                    net::TraceId trace);
  void perform_store(LineId line, std::uint32_t offset,
                     std::vector<std::byte> data, DoneCallback done,
                     net::TraceId trace);
  void install(LineId line, LineState state, const std::byte* bytes);
  // Asynchronous LRU trim back to capacity (see Config::cache_lines).
  void trim_cache();
  // Releases one line (write-back for Exclusive, which is always dirty;
  // silent drop for Shared), then runs `then` unless the agent is gone.
  void release_line(LineId line, std::function<void()> then);
  void complete_after(SimTime delay, DoneCallback done, Status status);

  // Store-buffer drain pump (one in-flight drain at a time).
  void pump_store_buffer();
  void finish_drain_if_empty();

  CxlDirectory& dir_;
  Config config_;
  std::map<LineId, CacheLine> cache_;
  LruTracker<LineId> lru_;
  std::deque<SbEntry> sb_;
  bool drain_inflight_ = false;
  std::vector<DoneCallback> fence_waiters_;
  bool trimming_ = false;
  // Snoop mailbox: zero-length control writes land here (the payload is
  // the transaction itself; state changes apply at its completion).
  std::array<std::byte, kLineBytes> mailbox_{};
  net::RKey mailbox_rkey_ = net::kInvalidRKey;
  MetricsRegistry metrics_;
  // Guards scheduled callbacks against agent teardown.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace dm::cxl
