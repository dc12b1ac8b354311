#include "cxl/coherence.h"

#include <cassert>
#include <cstring>

#include "common/status.h"
#include "common/units.h"
#include "net/fabric.h"
#include "sim/simulator.h"
#include "sim/span_sink.h"

namespace dm::cxl {

std::string_view to_string(LineState state) noexcept {
  switch (state) {
    case LineState::kInvalid: return "invalid";
    case LineState::kShared: return "shared";
    case LineState::kExclusive: return "exclusive";
  }
  return "?";
}

namespace {

// The one sequential walk: runs step(i, next) for i = 0 .. n - 1 in order,
// each step resuming the walk by calling `next` (at once or from a later
// event), then runs `done`. The transaction's line-by-line settle and the
// directory's snoop chain are this walk; the lock walk is written out in
// CxlAgent::transact. Its state lives in one shared object, so no lambda
// captures itself.
template <typename Step, typename Done>
struct Walk {
  std::size_t n = 0;
  Step step;  // void(std::size_t i, std::function<void()> next)
  Done done;

  static void advance(const std::shared_ptr<Walk>& w, std::size_t i) {
    if (i == w->n) {
      w->done();
      return;
    }
    w->step(i, [w, i]() { advance(w, i + 1); });
  }
};

template <typename Step, typename Done>
void walk(std::size_t n, Step step, Done done) {
  using W = Walk<Step, Done>;
  W::advance(std::make_shared<W>(W{n, std::move(step), std::move(done)}), 0);
}

}  // namespace

// ---- CxlDirectory ----------------------------------------------------------

CxlDirectory::CxlDirectory(net::Fabric& fabric, Config config)
    : fabric_(fabric), config_(config),
      backing_(config.line_count * kLineBytes) {
  auto rkey = fabric_.register_memory(config_.home,
                                      std::span<std::byte>(backing_));
  assert(rkey.ok() && "CXL home node must exist in the fabric");
  if (rkey.ok()) rkey_ = *rkey;
}

CxlDirectory::~CxlDirectory() {
  if (rkey_ != net::kInvalidRKey)
    (void)fabric_.deregister_memory(config_.home, rkey_);
}

net::NodeId CxlDirectory::owner_of(LineId line) const {
  auto it = lines_.find(line);
  return it == lines_.end() ? net::kInvalidNode : it->second.owner;
}

std::size_t CxlDirectory::sharer_count(LineId line) const {
  auto it = lines_.find(line);
  return it == lines_.end() ? 0 : it->second.sharers.size();
}

bool CxlDirectory::line_busy(LineId line) const {
  auto it = lines_.find(line);
  return it != lines_.end() && it->second.busy;
}

std::span<const std::byte> CxlDirectory::backing_line(LineId line) const {
  assert(line < config_.line_count);
  return std::span<const std::byte>(backing_.data() + line * kLineBytes,
                                    kLineBytes);
}

CxlDirectory::LineMeta& CxlDirectory::meta(LineId line) {
  assert(line < config_.line_count);
  return lines_[line];
}

void CxlDirectory::lock(LineId line, std::function<void()> fn) {
  auto& m = meta(line);
  if (!m.busy) {
    m.busy = true;
    fn();
    return;
  }
  ++metrics_.counter("cxl.dir.lock_waits");
  m.waiters.push_back(std::move(fn));
}

void CxlDirectory::unlock(LineId line) {
  auto& m = meta(line);
  assert(m.busy);
  if (m.waiters.empty()) {
    m.busy = false;
    return;
  }
  // Hand the lock to the next waiter via the event queue (keeps deep waiter
  // chains off the call stack; busy stays true across the handoff).
  auto next = std::move(m.waiters.front());
  m.waiters.pop_front();
  fabric_.simulator().schedule_after(0, std::move(next));
}

void CxlDirectory::register_agent(CxlAgent* agent) {
  assert(agents_.count(agent->node()) == 0 && "one CXL agent per node");
  agents_[agent->node()] = agent;
}

void CxlDirectory::unregister_agent(CxlAgent* agent) {
  auto it = agents_.find(agent->node());
  if (it != agents_.end() && it->second == agent) agents_.erase(it);
}

CxlAgent* CxlDirectory::agent_on(net::NodeId node) {
  auto it = agents_.find(node);
  return it == agents_.end() ? nullptr : it->second;
}

void CxlDirectory::settle_holders(LineId line, net::NodeId requester,
                                  bool keep_shared, net::TraceId trace,
                                  std::function<void()> then) {
  auto& m = meta(line);
  assert(m.busy && "settle_holders requires the line lock");
  std::vector<net::NodeId> targets;
  if (m.owner != net::kInvalidNode && m.owner != requester)
    targets.push_back(m.owner);
  if (!keep_shared) {
    for (net::NodeId s : m.sharers)
      if (s != requester && s != m.owner) targets.push_back(s);
  }
  // Sequential snoop chain: each holder settles before the next is snooped.
  const std::size_t n = targets.size();  // read before `targets` moves
  walk(
      n,
      [this, line, keep_shared, trace, targets = std::move(targets)](
          std::size_t idx, std::function<void()> next) {
        snoop(line, targets[idx], keep_shared, trace, std::move(next));
      },
      std::move(then));
}

void CxlDirectory::snoop(LineId line, net::NodeId holder, bool keep_shared,
                         net::TraceId trace, std::function<void()> next) {
  auto drop_holder = [this, line, holder]() {
    auto& m = meta(line);
    m.sharers.erase(holder);
    if (m.owner == holder) m.owner = net::kInvalidNode;
  };
  CxlAgent* agent = agent_on(holder);
  if (agent == nullptr) {
    drop_holder();  // stale entry for a departed agent
    next();
    return;
  }
  ++metrics_.counter("cxl.dir.snoops");
  Status posted = fabric_.cxl_write(
      config_.home, holder, agent->mailbox_rkey_, 0, {},
      [this, line, holder, keep_shared, trace, next,
       drop_holder](const net::Completion& c) {
        CxlAgent* a = agent_on(holder);
        if (!c.status.ok() || a == nullptr) {
          // Holder unreachable: its copy is unrecoverable, the home copy
          // stands. Drop it from the directory and move on.
          drop_holder();
          if (a != nullptr) {
            a->cache_.erase(line);
            a->lru_.erase(line);
          }
          next();
          return;
        }
        auto settled = [this, line, holder, keep_shared, next]() {
          CxlAgent* a2 = agent_on(holder);
          auto& m = meta(line);
          if (keep_shared) {
            ++metrics_.counter("cxl.dir.downgrades");
            if (a2 != nullptr) {
              if (auto* cl = a2->find(line)) {
                cl->state = LineState::kShared;
                cl->dirty = false;
                cl->settling = false;
              }
            }
            if (m.owner == holder) {
              m.owner = net::kInvalidNode;
              m.sharers.insert(holder);
            }
          } else {
            ++metrics_.counter("cxl.dir.invalidations");
            if (a2 != nullptr) {
              a2->cache_.erase(line);
              a2->lru_.erase(line);
            }
            m.sharers.erase(holder);
            if (m.owner == holder) m.owner = net::kInvalidNode;
          }
          next();
        };
        CxlAgent::CacheLine* cl = a->find(line);
        // Block fast-path hits from here on: a store landing after the
        // write-back snapshot below would be lost otherwise.
        if (cl != nullptr) cl->settling = true;
        if (cl != nullptr && cl->dirty) {
          ++metrics_.counter("cxl.dir.writebacks");
          Status wb = fabric_.cxl_write(
              holder, config_.home, rkey_, line * kLineBytes,
              std::span<const std::byte>(cl->bytes.data(), kLineBytes),
              [settled](const net::Completion&) { settled(); }, trace);
          if (!wb.ok()) settled();
          return;
        }
        settled();
      },
      trace);
  if (!posted.ok()) {
    drop_holder();
    next();
  }
}

// ---- CxlAgent --------------------------------------------------------------

CxlAgent::CxlAgent(CxlDirectory& directory, Config config)
    : dir_(directory), config_(config) {
  auto rkey = dir_.fabric_.register_memory(
      config_.node, std::span<std::byte>(mailbox_.data(), mailbox_.size()));
  assert(rkey.ok() && "CXL agent node must exist in the fabric");
  if (rkey.ok()) mailbox_rkey_ = *rkey;
  dir_.register_agent(this);
}

CxlAgent::~CxlAgent() {
  *alive_ = false;
  dir_.unregister_agent(this);
  if (mailbox_rkey_ != net::kInvalidRKey)
    (void)dir_.fabric_.deregister_memory(config_.node, mailbox_rkey_);
}

CxlAgent::CacheLine* CxlAgent::find(LineId line) {
  auto it = cache_.find(line);
  return it == cache_.end() ? nullptr : &it->second;
}

const CxlAgent::CacheLine* CxlAgent::find(LineId line) const {
  auto it = cache_.find(line);
  return it == cache_.end() ? nullptr : &it->second;
}

bool CxlAgent::hit_ok(const CacheLine* cl, LineState need) const {
  if (cl == nullptr || cl->settling) return false;
  if (need == LineState::kExclusive)
    return cl->state == LineState::kExclusive;
  return cl->state != LineState::kInvalid;
}

LineState CxlAgent::state_of(LineId line) const {
  const CacheLine* cl = find(line);
  return cl == nullptr ? LineState::kInvalid : cl->state;
}

bool CxlAgent::line_dirty(LineId line) const {
  const CacheLine* cl = find(line);
  return cl != nullptr && cl->dirty;
}

bool CxlAgent::load_hit(LineId line, std::uint32_t offset,
                        std::span<std::byte> out, SimTime latency) {
  const CacheLine* cl = find(line);
  if (!hit_ok(cl, LineState::kShared)) return false;
  ++metrics_.counter("cxl.load_hits");
  lru_.touch(line);
  std::memcpy(out.data(), cl->bytes.data() + offset, out.size());
  metrics_.histogram("cxl.load_ns").record(static_cast<std::uint64_t>(latency));
  return true;
}

bool CxlAgent::store_hit(LineId line, std::uint32_t offset,
                         std::span<const std::byte> data, SimTime latency) {
  CacheLine* cl = find(line);
  if (!hit_ok(cl, LineState::kExclusive)) return false;
  ++metrics_.counter("cxl.store_hits");
  lru_.touch(line);
  std::memcpy(cl->bytes.data() + offset, data.data(), data.size());
  cl->dirty = true;
  metrics_.histogram("cxl.store_ns")
      .record(static_cast<std::uint64_t>(latency));
  return true;
}

void CxlAgent::complete_after(SimTime delay, DoneCallback done,
                              Status status) {
  auto alive = alive_;
  sim().schedule_after(delay, [alive, done = std::move(done),
                               status = std::move(status)]() {
    if (*alive && done) done(status);
  });
}

void CxlAgent::install(LineId line, LineState state, const std::byte* bytes) {
  CacheLine& cl = cache_[line];
  cl.state = state;
  cl.dirty = false;
  cl.settling = false;
  std::memcpy(cl.bytes.data(), bytes, kLineBytes);
  lru_.touch(line);
  trim_cache();
}

// ---- the line transaction --------------------------------------------------

// A transaction over lines [first, first + count), holding the locks of
// [first, first + held). It outlives its agent, so that a teardown can
// still hand the locks back.
struct CxlAgent::Txn {
  CxlDirectory* dir = nullptr;
  std::shared_ptr<bool> alive;
  LineId first = 0;
  std::size_t count = 0;
  std::size_t held = 0;

  // The one release: frees every held lock, then completes the caller
  // unless the agent is gone.
  template <typename Complete>
  void finish(Complete&& complete) {
    for (std::size_t i = 0; i < held; ++i) dir->unlock(first + i);
    if (*alive) complete();
  }
  void finish() { finish([] {}); }
  // The teardown guard, checked at every hop of the transaction: once the
  // agent is gone it ends the transaction and reports true.
  bool abandoned() {
    if (*alive) return false;
    finish();
    return true;
  }
};

void CxlAgent::transact(LineId first, std::size_t count,
                        std::function<void(const TxnPtr&)> body) {
  // The lock walk, written out rather than run on walk(): the grant of lock
  // first + idx requests lock first + idx + 1 right here, where dm_lint's
  // lock-order rule sees the step and proves the walk ascending.
  struct Acquire {
    static void from(const TxnPtr& txn, LineId first, std::size_t idx,
                     std::function<void(const TxnPtr&)> body) {
      if (idx == txn->count) {
        body(txn);
        return;
      }
      // Every transaction takes its locks here, in ascending order, so no
      // two can wait on each other in a cycle.
      // dm-lock: order(cxl.line, ascending)
      txn->dir->lock(first + idx, [txn, first, idx,
                                   body = std::move(body)]() mutable {
        ++txn->held;  // [first, first + idx] are ours now
        if (!txn->abandoned()) from(txn, first, idx + 1, std::move(body));
      });
    }
  };
  Acquire::from(std::make_shared<Txn>(Txn{&dir_, alive_, first, count}),
                first, 0, std::move(body));
}

void CxlAgent::settle(const TxnPtr& txn, net::NodeId requester,
                      bool keep_shared, net::TraceId trace,
                      std::function<void()> then) {
  walk(
      txn->count,
      [txn, requester, keep_shared, trace](std::size_t idx,
                                           std::function<void()> next) {
        if (txn->abandoned()) return;
        txn->dir->settle_holders(txn->first + idx, requester, keep_shared,
                                 trace, std::move(next));
      },
      [txn, then = std::move(then)]() {
        if (!txn->abandoned()) then();
      });
}

void CxlAgent::hop(const TxnPtr& txn, const Post& post,
                   std::function<void(const Status&)> landed) {
  auto guarded = [txn, landed = std::move(landed)](const Status& status) {
    if (!txn->abandoned()) landed(status);
  };
  Status posted =
      post([guarded](const net::Completion& c) { guarded(c.status); });
  if (!posted.ok()) guarded(posted);
}

// ---- loads and stores ----------------------------------------------------

void CxlAgent::load(LineId line, std::uint32_t offset,
                    std::span<std::byte> out, DoneCallback done,
                    net::TraceId trace) {
  assert(offset + out.size() <= kLineBytes);
  ++metrics_.counter("cxl.loads");
  if (config_.store_buffer) {
    // TSO store-to-load forwarding: the youngest same-line buffered store
    // that covers the load supplies the value; a same-line store that only
    // partially overlaps forces a drain first (conservative).
    for (auto it = sb_.rbegin(); it != sb_.rend(); ++it) {
      if (it->line != line) continue;
      if (it->offset <= offset &&
          offset + out.size() <= it->offset + it->data.size()) {
        std::memcpy(out.data(), it->data.data() + (offset - it->offset),
                    out.size());
        ++metrics_.counter("cxl.sb_forwards");
        complete_after(kHitNs, std::move(done), Status::Ok());
        return;
      }
      fence([this, line, offset, out, done = std::move(done),
             trace](const Status&) mutable {
        perform_load(line, offset, out, std::move(done), trace);
      });
      return;
    }
  }
  perform_load(line, offset, out, std::move(done), trace);
}

void CxlAgent::perform_load(LineId line, std::uint32_t offset,
                            std::span<std::byte> out, DoneCallback done,
                            net::TraceId trace) {
  if (line >= dir_.line_count()) {
    complete_after(0, std::move(done),
                   InvalidArgumentError("line out of range"));
    return;
  }
  if (load_hit(line, offset, out, kHitNs)) {
    complete_after(kHitNs, std::move(done), Status::Ok());
    return;
  }
  done = sim::span_completion(dir_.spans_, trace, config_.node, "cxl",
                              "cxl.fill", std::move(done));
  const SimTime start = sim().now();
  transact(line, 1, [this, line, offset, out, done = std::move(done), trace,
                     start](const TxnPtr& txn) mutable {
    // Re-check: an earlier transaction of ours may have filled the line
    // while we queued on the lock.
    if (load_hit(line, offset, out, sim().now() - start + kHitNs)) {
      txn->finish(
          [&]() { complete_after(kHitNs, std::move(done), Status::Ok()); });
      return;
    }
    ++metrics_.counter("cxl.load_misses");
    settle(txn, node(), /*keep_shared=*/true, trace,
           [this, txn, line, offset, out, done = std::move(done), trace,
            start]() mutable {
      auto buf = std::make_shared<std::array<std::byte, kLineBytes>>();
      hop(
          txn,
          [this, line, buf, trace](net::CompletionCallback landed) {
            return dir_.fabric_.cxl_read(
                node(), dir_.home(), dir_.rkey_, line * kLineBytes,
                std::span<std::byte>(buf->data(), buf->size()),
                std::move(landed), trace);
          },
          [this, txn, line, offset, out, done = std::move(done), buf,
           start](const Status& status) {
            if (status.ok()) {
              install(line, LineState::kShared, buf->data());
              auto& m = dir_.meta(line);
              m.sharers.insert(node());
              if (m.owner == node()) m.owner = net::kInvalidNode;
              ++metrics_.counter("cxl.fills");
              std::memcpy(out.data(), buf->data() + offset, out.size());
              metrics_.histogram("cxl.load_ns")
                  .record(static_cast<std::uint64_t>(sim().now() - start));
            }
            txn->finish([&]() { done(status); });
          });
    });
  });
}

void CxlAgent::store(LineId line, std::uint32_t offset,
                     std::span<const std::byte> data, DoneCallback done,
                     net::TraceId trace) {
  assert(offset + data.size() <= kLineBytes);
  ++metrics_.counter("cxl.stores");
  if (config_.store_buffer) {
    sb_.push_back(SbEntry{line, offset,
                          std::vector<std::byte>(data.begin(), data.end())});
    metrics_.histogram("cxl.sb_depth").record(sb_.size());
    auto alive = alive_;
    sim().schedule_after(config_.drain_ns, [this, alive]() {
      if (*alive) pump_store_buffer();
    });
    // TSO: the store retires locally as soon as it is buffered.
    complete_after(kHitNs, std::move(done), Status::Ok());
    return;
  }
  perform_store(line, offset,
                std::vector<std::byte>(data.begin(), data.end()),
                std::move(done), trace);
}

void CxlAgent::perform_store(LineId line, std::uint32_t offset,
                             std::vector<std::byte> data, DoneCallback done,
                             net::TraceId trace) {
  if (line >= dir_.line_count()) {
    complete_after(0, std::move(done),
                   InvalidArgumentError("line out of range"));
    return;
  }
  const SimTime start = sim().now();
  if (store_hit(line, offset, data, kHitNs)) {
    complete_after(kHitNs, std::move(done), Status::Ok());
    return;
  }
  done = sim::span_completion(dir_.spans_, trace, config_.node, "cxl",
                              "cxl.upgrade", std::move(done));
  transact(line, 1, [this, line, offset, data = std::move(data),
                     done = std::move(done), trace,
                     start](const TxnPtr& txn) mutable {
    if (store_hit(line, offset, data, sim().now() - start + kHitNs)) {
      txn->finish(
          [&]() { complete_after(kHitNs, std::move(done), Status::Ok()); });
      return;
    }
    settle(txn, node(), /*keep_shared=*/false, trace,
           [this, txn, line, offset, data = std::move(data),
            done = std::move(done), trace, start]() mutable {
      // Counted by the transaction the store runs: an upgrade when the line
      // is still held Shared, a miss when it must be filled.
      const bool upgrade = hit_ok(find(line), LineState::kShared);
      ++metrics_.counter(upgrade ? "cxl.upgrades" : "cxl.store_misses");
      auto buf = upgrade
                     ? nullptr
                     : std::make_shared<std::array<std::byte, kLineBytes>>();
      hop(
          txn,
          [this, line, upgrade, buf, trace](net::CompletionCallback landed) {
            // An upgrade holds the bytes already: a zero-length control
            // transaction records the ownership change at the home. A miss
            // fills the line from home, and the store applies on top.
            if (upgrade)
              return dir_.fabric_.cxl_write(node(), dir_.home(), dir_.rkey_,
                                            line * kLineBytes, {},
                                            std::move(landed), trace);
            return dir_.fabric_.cxl_read(
                node(), dir_.home(), dir_.rkey_, line * kLineBytes,
                std::span<std::byte>(buf->data(), buf->size()),
                std::move(landed), trace);
          },
          [this, txn, line, offset, data = std::move(data),
           done = std::move(done), upgrade, buf,
           start](const Status& status) {
            if (status.ok()) {
              if (!upgrade) install(line, LineState::kExclusive, buf->data());
              CacheLine& granted = cache_[line];
              granted.state = LineState::kExclusive;
              granted.settling = false;
              std::memcpy(granted.bytes.data() + offset, data.data(),
                          data.size());
              granted.dirty = true;
              lru_.touch(line);
              auto& m = dir_.meta(line);
              m.owner = node();
              m.sharers.erase(node());
              metrics_.histogram("cxl.store_ns")
                  .record(static_cast<std::uint64_t>(sim().now() - start));
              if (!upgrade) ++metrics_.counter("cxl.fills");
            }
            // A fill trims inside install(); an upgrade installs nothing
            // and trims here, between the release and the completion.
            txn->finish([&]() {
              if (status.ok() && upgrade) trim_cache();
              done(status);
            });
          });
    });
  });
}

void CxlAgent::fence(DoneCallback done) {
  ++metrics_.counter("cxl.fences");
  if (sb_.empty() && !drain_inflight_) {
    complete_after(0, std::move(done), Status::Ok());
    return;
  }
  fence_waiters_.push_back(std::move(done));
  pump_store_buffer();
}

void CxlAgent::pump_store_buffer() {
  if (drain_inflight_) return;
  if (sb_.empty()) {
    finish_drain_if_empty();
    return;
  }
  drain_inflight_ = true;
  const SbEntry& entry = sb_.front();
  perform_store(entry.line, entry.offset, entry.data,
                [this](const Status& s) {
                  drain_inflight_ = false;
                  sb_.pop_front();
                  ++metrics_.counter("cxl.sb_drains");
                  if (!s.ok()) ++metrics_.counter("cxl.sb_drain_errors");
                  if (sb_.empty())
                    finish_drain_if_empty();
                  else
                    pump_store_buffer();
                },
                net::kNoTrace);
}

void CxlAgent::finish_drain_if_empty() {
  if (!sb_.empty() || drain_inflight_) return;
  auto waiters = std::move(fence_waiters_);
  fence_waiters_.clear();
  for (auto& waiter : waiters) waiter(Status::Ok());
}

void CxlAgent::trim_cache() {
  if (trimming_ || cache_.size() <= config_.cache_lines) return;
  trimming_ = true;
  auto victim = lru_.evict_lru();
  if (!victim) {
    trimming_ = false;
    return;
  }
  release_line(*victim, [this]() {
    trimming_ = false;
    trim_cache();
  });
}

void CxlAgent::release_line(LineId line, std::function<void()> then) {
  transact(line, 1, [this, line,
                     then = std::move(then)](const TxnPtr& txn) mutable {
    CacheLine* cl = find(line);
    if (cl == nullptr) {
      txn->finish(then);
      return;
    }
    cl->settling = true;
    ++metrics_.counter("cxl.evictions");
    if (cl->state == LineState::kShared) {
      // Silent drop: no fabric traffic; the directory entry may go stale
      // and is repaired at the next snoop.
      cache_.erase(line);
      lru_.erase(line);
      dir_.meta(line).sharers.erase(node());
      txn->finish(then);
      return;
    }
    // Exclusive: every grant of Exclusive dirties the line, so the release
    // always writes it back.
    assert(cl->dirty && "an Exclusive line is always dirty");
    ++metrics_.counter("cxl.evict_writebacks");
    // The one hop whose landing runs after a teardown too: the home stops
    // naming this node as a holder either way, so the bookkeeping names the
    // node by value rather than through `this`.
    auto landed = [this, txn, line, self = node(), then]() {
      auto& m = txn->dir->meta(line);
      if (m.owner == self) m.owner = net::kInvalidNode;
      m.sharers.erase(self);
      txn->finish([&]() {
        cache_.erase(line);
        lru_.erase(line);
        then();
      });
    };
    Status posted = dir_.fabric_.cxl_write(
        node(), dir_.home(), dir_.rkey_, line * kLineBytes,
        std::span<const std::byte>(cl->bytes.data(), kLineBytes),
        [landed](const net::Completion&) { landed(); }, net::kNoTrace);
    if (!posted.ok()) landed();
  });
}

// ---- region ops ------------------------------------------------------------

void CxlAgent::region(LineId first, std::size_t count, bool keep_shared,
                      net::TraceId trace, Post post, DoneCallback done) {
  transact(first, count, [this, keep_shared, trace, post = std::move(post),
                          done = std::move(done)](
                             const TxnPtr& txn) mutable {
    // kInvalidNode requester: settle every holder, own copies included — a
    // region write must invalidate (and a region read must flush) the
    // initiating agent's cached lines too.
    settle(txn, net::kInvalidNode, keep_shared, trace,
           [this, txn, post = std::move(post),
            done = std::move(done)]() mutable {
      hop(txn, post, [txn, done = std::move(done)](const Status& status) {
        txn->finish([&]() { done(status); });
      });
    });
  });
}

void CxlAgent::write_region(LineId first, std::span<const std::byte> data,
                            DoneCallback done, net::TraceId trace) {
  assert(data.size() % kLineBytes == 0);
  const std::size_t count = data.size() / kLineBytes;
  if (count == 0 || first + count > dir_.line_count()) {
    complete_after(0, std::move(done),
                   InvalidArgumentError("region out of range"));
    return;
  }
  ++metrics_.counter("cxl.region_writes");
  done = sim::span_completion(dir_.spans_, trace, config_.node, "cxl",
                              "cxl.region_write", std::move(done));
  auto payload =
      std::make_shared<std::vector<std::byte>>(data.begin(), data.end());
  region(first, count, /*keep_shared=*/false, trace,
         [this, first, payload, trace](net::CompletionCallback landed) {
           return dir_.fabric_.cxl_write(
               node(), dir_.home(), dir_.rkey_, first * kLineBytes,
               std::span<const std::byte>(*payload), std::move(landed), trace);
         },
         std::move(done));
}

void CxlAgent::read_region(LineId first, std::span<std::byte> out,
                           DoneCallback done, net::TraceId trace) {
  assert(out.size() % kLineBytes == 0);
  const std::size_t count = out.size() / kLineBytes;
  if (count == 0 || first + count > dir_.line_count()) {
    complete_after(0, std::move(done),
                   InvalidArgumentError("region out of range"));
    return;
  }
  ++metrics_.counter("cxl.region_reads");
  done = sim::span_completion(dir_.spans_, trace, config_.node, "cxl",
                              "cxl.region_read", std::move(done));
  // Flush dirty owners (holders stay Shared), then pull the range.
  region(first, count, /*keep_shared=*/true, trace,
         [this, first, out, trace](net::CompletionCallback landed) {
           return dir_.fabric_.cxl_read(node(), dir_.home(), dir_.rkey_,
                                        first * kLineBytes, out,
                                        std::move(landed), trace);
         },
         std::move(done));
}

// ---- synchronous wrappers --------------------------------------------------

Status CxlAgent::load_sync(LineId line, std::uint32_t offset,
                           std::span<std::byte> out, net::TraceId trace) {
  return sim().run_until_complete(
      [&](auto done) { load(line, offset, out, std::move(done), trace); },
      StatusCode::kTimeout, "cxl load lost completion");
}

Status CxlAgent::store_sync(LineId line, std::uint32_t offset,
                            std::span<const std::byte> data,
                            net::TraceId trace) {
  return sim().run_until_complete(
      [&](auto done) { store(line, offset, data, std::move(done), trace); },
      StatusCode::kTimeout, "cxl store lost completion");
}

Status CxlAgent::fence_sync() {
  return sim().run_until_complete(
      [&](auto done) { fence(std::move(done)); }, StatusCode::kTimeout,
      "cxl fence lost completion");
}

Status CxlAgent::write_region_sync(LineId first,
                                   std::span<const std::byte> data,
                                   net::TraceId trace) {
  return sim().run_until_complete(
      [&](auto done) { write_region(first, data, std::move(done), trace); },
      StatusCode::kTimeout, "cxl region write lost completion");
}

Status CxlAgent::read_region_sync(LineId first, std::span<std::byte> out,
                                  net::TraceId trace) {
  return sim().run_until_complete(
      [&](auto done) { read_region(first, out, std::move(done), trace); },
      StatusCode::kTimeout, "cxl region read lost completion");
}

}  // namespace dm::cxl
