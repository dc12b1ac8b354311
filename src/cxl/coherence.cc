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

namespace {
struct SettleState {
  LineId line = 0;
  bool keep_shared = false;
  net::TraceId trace = net::kNoTrace;
  std::vector<net::NodeId> targets;
  std::function<void()> then;
};
}  // namespace

void CxlDirectory::settle_holders(LineId line, net::NodeId requester,
                                  bool keep_shared, net::TraceId trace,
                                  std::function<void()> then) {
  auto& m = meta(line);
  assert(m.busy && "settle_holders requires the line lock");
  auto st = std::make_shared<SettleState>();
  st->line = line;
  st->keep_shared = keep_shared;
  st->trace = trace;
  st->then = std::move(then);
  if (m.owner != net::kInvalidNode && m.owner != requester)
    st->targets.push_back(m.owner);
  if (!keep_shared) {
    for (net::NodeId s : m.sharers)
      if (s != requester && s != m.owner) st->targets.push_back(s);
  }

  // Sequential snoop chain: each hop's completion advances to the next
  // holder. State lives in `st` (no lambda self-capture, so no ref cycles).
  struct Step {
    static void run(CxlDirectory* dir, std::shared_ptr<SettleState> st,
                    std::size_t idx) {
      if (idx >= st->targets.size()) {
        st->then();
        return;
      }
      const net::NodeId holder = st->targets[idx];
      const LineId line = st->line;
      CxlAgent* agent = dir->agent_on(holder);
      auto drop_holder = [dir, line, holder]() {
        auto& mm = dir->meta(line);
        mm.sharers.erase(holder);
        if (mm.owner == holder) mm.owner = net::kInvalidNode;
      };
      if (agent == nullptr) {
        drop_holder();  // stale entry for a departed agent
        run(dir, st, idx + 1);
        return;
      }
      ++dir->metrics_.counter("cxl.dir.snoops");
      Status posted = dir->fabric_.cxl_write(
          dir->config_.home, holder, agent->mailbox_rkey_, 0, {},
          [dir, st, idx, holder, line, drop_holder](const net::Completion& c) {
            CxlAgent* a = dir->agent_on(holder);
            if (!c.status.ok() || a == nullptr) {
              // Holder unreachable: its copy is unrecoverable, the home
              // copy stands. Drop it from the directory and move on.
              drop_holder();
              if (a != nullptr) {
                a->cache_.erase(line);
                a->lru_.erase(line);
              }
              run(dir, st, idx + 1);
              return;
            }
            auto settled = [dir, st, idx, holder, line]() {
              CxlAgent* a2 = dir->agent_on(holder);
              auto& mm = dir->meta(line);
              if (st->keep_shared) {
                ++dir->metrics_.counter("cxl.dir.downgrades");
                if (a2 != nullptr) {
                  if (auto* cl = a2->find(line)) {
                    cl->state = LineState::kShared;
                    cl->dirty = false;
                    cl->settling = false;
                  }
                }
                if (mm.owner == holder) {
                  mm.owner = net::kInvalidNode;
                  mm.sharers.insert(holder);
                }
              } else {
                ++dir->metrics_.counter("cxl.dir.invalidations");
                if (a2 != nullptr) {
                  a2->cache_.erase(line);
                  a2->lru_.erase(line);
                }
                mm.sharers.erase(holder);
                if (mm.owner == holder) mm.owner = net::kInvalidNode;
              }
              run(dir, st, idx + 1);
            };
            CxlAgent::CacheLine* cl = a->find(line);
            // Block fast-path hits from here on: a store landing after the
            // write-back snapshot below would be lost otherwise.
            if (cl != nullptr) cl->settling = true;
            if (cl != nullptr && cl->dirty) {
              ++dir->metrics_.counter("cxl.dir.writebacks");
              Status wb = dir->fabric_.cxl_write(
                  holder, dir->config_.home, dir->rkey_, line * kLineBytes,
                  std::span<const std::byte>(cl->bytes.data(), kLineBytes),
                  [settled](const net::Completion&) { settled(); },
                  st->trace);
              if (!wb.ok()) settled();
              return;
            }
            settled();
          },
          st->trace);
      if (!posted.ok()) {
        drop_holder();
        run(dir, st, idx + 1);
      }
    }
  };
  Step::run(this, std::move(st), 0);
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
  const CacheLine* cl = find(line);
  if (hit_ok(cl, LineState::kShared)) {
    ++metrics_.counter("cxl.load_hits");
    lru_.touch(line);
    std::memcpy(out.data(), cl->bytes.data() + offset, out.size());
    metrics_.histogram("cxl.load_ns")
        .record(static_cast<std::uint64_t>(kHitNs));
    complete_after(kHitNs, std::move(done), Status::Ok());
    return;
  }
  done = sim::span_completion(dir_.spans_, trace, config_.node, "cxl",
                              "cxl.fill", std::move(done));
  const SimTime start = sim().now();
  auto alive = alive_;
  CxlDirectory* dir = &dir_;
  // dm-lock: order(cxl.line)
  dir_.lock(line, [this, alive, dir, line, offset, out,
                   done = std::move(done), trace, start]() mutable {
    if (!*alive) {
      dir->unlock(line);
      return;
    }
    // Re-check: an earlier transaction of ours may have filled the line
    // while we queued on the lock.
    const CacheLine* cl2 = find(line);
    if (hit_ok(cl2, LineState::kShared)) {
      ++metrics_.counter("cxl.load_hits");
      lru_.touch(line);
      std::memcpy(out.data(), cl2->bytes.data() + offset, out.size());
      metrics_.histogram("cxl.load_ns")
          .record(static_cast<std::uint64_t>(sim().now() - start + kHitNs));
      dir->unlock(line);
      complete_after(kHitNs, std::move(done), Status::Ok());
      return;
    }
    ++metrics_.counter("cxl.load_misses");
    dir->settle_holders(
        line, node(), /*keep_shared=*/true, trace,
        [this, alive, dir, line, offset, out, done = std::move(done), trace,
         start]() mutable {
          if (!*alive) {
            dir->unlock(line);
            return;
          }
          auto buf = std::make_shared<std::array<std::byte, kLineBytes>>();
          Status posted = dir->fabric_.cxl_read(
              node(), dir->home(), dir->rkey_, line * kLineBytes,
              std::span<std::byte>(buf->data(), buf->size()),
              [this, alive, dir, line, offset, out, done, buf,
               start](const net::Completion& c) mutable {
                if (!*alive) {
                  dir->unlock(line);
                  return;
                }
                if (!c.status.ok()) {
                  dir->unlock(line);
                  done(c.status);
                  return;
                }
                install(line, LineState::kShared, buf->data());
                auto& m = dir->meta(line);
                m.sharers.insert(node());
                if (m.owner == node()) m.owner = net::kInvalidNode;
                ++metrics_.counter("cxl.fills");
                std::memcpy(out.data(), buf->data() + offset, out.size());
                metrics_.histogram("cxl.load_ns")
                    .record(static_cast<std::uint64_t>(sim().now() - start));
                dir->unlock(line);
                done(Status::Ok());
              },
              trace);
          if (!posted.ok()) {
            dir->unlock(line);
            done(posted);
          }
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
  CacheLine* cl = find(line);
  if (hit_ok(cl, LineState::kExclusive)) {
    ++metrics_.counter("cxl.store_hits");
    lru_.touch(line);
    std::memcpy(cl->bytes.data() + offset, data.data(), data.size());
    cl->dirty = true;
    metrics_.histogram("cxl.store_ns")
        .record(static_cast<std::uint64_t>(kHitNs));
    complete_after(kHitNs, std::move(done), Status::Ok());
    return;
  }
  done = sim::span_completion(dir_.spans_, trace, config_.node, "cxl",
                              "cxl.upgrade", std::move(done));
  auto alive = alive_;
  CxlDirectory* dir = &dir_;
  // dm-lock: order(cxl.line)
  dir_.lock(line, [this, alive, dir, line, offset, data = std::move(data),
                   done = std::move(done), trace, start]() mutable {
    if (!*alive) {
      dir->unlock(line);
      return;
    }
    CacheLine* cl2 = find(line);
    if (hit_ok(cl2, LineState::kExclusive)) {
      ++metrics_.counter("cxl.store_hits");
      lru_.touch(line);
      std::memcpy(cl2->bytes.data() + offset, data.data(), data.size());
      cl2->dirty = true;
      metrics_.histogram("cxl.store_ns")
          .record(static_cast<std::uint64_t>(sim().now() - start + kHitNs));
      dir->unlock(line);
      complete_after(kHitNs, std::move(done), Status::Ok());
      return;
    }
    dir->settle_holders(
        line, node(), /*keep_shared=*/false, trace,
        [this, alive, dir, line, offset, data = std::move(data),
         done = std::move(done), trace, start]() mutable {
          if (!*alive) {
            dir->unlock(line);
            return;
          }
          auto grant = [this, dir, line, offset, start](
                           std::span<const std::byte> value) {
            CacheLine& granted = cache_[line];
            granted.state = LineState::kExclusive;
            granted.settling = false;
            std::memcpy(granted.bytes.data() + offset, value.data(),
                        value.size());
            granted.dirty = true;
            lru_.touch(line);
            auto& m = dir->meta(line);
            m.owner = node();
            m.sharers.erase(node());
            metrics_.histogram("cxl.store_ns")
                .record(static_cast<std::uint64_t>(sim().now() - start));
          };
          // Counted by the transaction the store runs: an upgrade when
          // the line is still held Shared, a miss when it must be filled.
          const bool upgrade = hit_ok(find(line), LineState::kShared);
          ++metrics_.counter(upgrade ? "cxl.upgrades" : "cxl.store_misses");
          if (upgrade) {
            // Upgrade in place: we hold the bytes; a zero-length control
            // transaction records the ownership change at the home.
            Status posted = dir->fabric_.cxl_write(
                node(), dir->home(), dir->rkey_, line * kLineBytes, {},
                [this, alive, dir, line, data = std::move(data), done,
                 grant](const net::Completion& c) mutable {
                  if (!*alive) {
                    dir->unlock(line);
                    return;
                  }
                  if (!c.status.ok()) {
                    dir->unlock(line);
                    done(c.status);
                    return;
                  }
                  grant(std::span<const std::byte>(data));
                  dir->unlock(line);
                  trim_cache();
                  done(Status::Ok());
                },
                trace);
            if (!posted.ok()) {
              dir->unlock(line);
              done(posted);
            }
            return;
          }
          // Miss: fill the line from home, then apply the store on top.
          auto buf = std::make_shared<std::array<std::byte, kLineBytes>>();
          Status posted = dir->fabric_.cxl_read(
              node(), dir->home(), dir->rkey_, line * kLineBytes,
              std::span<std::byte>(buf->data(), buf->size()),
              [this, alive, dir, line, data = std::move(data), done, buf,
               grant](const net::Completion& c) mutable {
                if (!*alive) {
                  dir->unlock(line);
                  return;
                }
                if (!c.status.ok()) {
                  dir->unlock(line);
                  done(c.status);
                  return;
                }
                install(line, LineState::kExclusive, buf->data());
                grant(std::span<const std::byte>(data));
                ++metrics_.counter("cxl.fills");
                dir->unlock(line);
                done(Status::Ok());
              },
              trace);
          if (!posted.ok()) {
            dir->unlock(line);
            done(posted);
          }
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
  auto alive = alive_;
  perform_store(entry.line, entry.offset, entry.data,
                [this, alive](const Status& s) {
                  if (!*alive) return;
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
  auto alive = alive_;
  release_line(*victim, [this, alive]() {
    if (!*alive) return;
    trimming_ = false;
    trim_cache();
  });
}

void CxlAgent::release_line(LineId line, std::function<void()> then) {
  auto alive = alive_;
  CxlDirectory* dir = &dir_;
  // dm-lock: order(cxl.line)
  dir_.lock(line, [this, alive, dir, line, then = std::move(then)]() mutable {
    if (!*alive) {
      dir->unlock(line);
      then();
      return;
    }
    CacheLine* cl = find(line);
    if (cl == nullptr) {
      dir->unlock(line);
      then();
      return;
    }
    cl->settling = true;
    ++metrics_.counter("cxl.evictions");
    if (cl->state == LineState::kShared) {
      // Silent drop: no fabric traffic; the directory entry may go stale
      // and is repaired at the next snoop.
      cache_.erase(line);
      lru_.erase(line);
      dir->meta(line).sharers.erase(node());
      dir->unlock(line);
      then();
      return;
    }
    // Exclusive: write back if dirty; a clean release is a zero-length
    // control transaction recording the ownership change.
    const bool dirty = cl->dirty;
    if (dirty) ++metrics_.counter("cxl.evict_writebacks");
    std::span<const std::byte> payload =
        dirty ? std::span<const std::byte>(cl->bytes.data(), kLineBytes)
              : std::span<const std::byte>{};
    auto finish = [this, alive, dir, line, then = std::move(then)]() mutable {
      if (*alive) {
        cache_.erase(line);
        lru_.erase(line);
      }
      auto& m = dir->meta(line);
      if (m.owner == node()) m.owner = net::kInvalidNode;
      m.sharers.erase(node());
      dir->unlock(line);
      then();
    };
    Status posted = dir->fabric_.cxl_write(
        node(), dir->home(), dir->rkey_, line * kLineBytes, payload,
        [finish](const net::Completion&) mutable { finish(); },
        net::kNoTrace);
    if (!posted.ok()) finish();
  });
}

// ---- region ops ------------------------------------------------------------

void CxlAgent::unlock_range_of(CxlDirectory* dir, LineId first,
                               std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) dir->unlock(first + i);
}

void CxlAgent::lock_range(LineId first, std::size_t count,
                          std::function<void()> fn) {
  struct Step {
    static void run(CxlAgent* self, std::shared_ptr<bool> alive,
                    CxlDirectory* dir, LineId first, std::size_t count,
                    std::size_t idx,
                    std::shared_ptr<std::function<void()>> fn) {
      if (idx == count) {
        (*fn)();
        return;
      }
      // Ascending acquisition order: cannot cycle with any other range op
      // (also ascending) or single-line transaction (holds one lock).
      // dm-lock: order(cxl.line, ascending)
      dir->lock(first + idx, [self, alive, dir, first, count, idx, fn]() {
        if (!*alive) {
          // The agent tore down while we queued; we now hold
          // [first, first + idx] and must hand them all back.
          unlock_range_of(dir, first, idx + 1);
          return;
        }
        run(self, alive, dir, first, count, idx + 1, fn);
      });
    }
  };
  Step::run(this, alive_, &dir_, first, count, 0,
            std::make_shared<std::function<void()>>(std::move(fn)));
}

void CxlAgent::settle_range(LineId first, std::size_t count, bool keep_shared,
                            net::TraceId trace, std::function<void()> then) {
  struct Step {
    static void run(std::shared_ptr<bool> alive, CxlDirectory* dir,
                    LineId first, std::size_t count, std::size_t idx,
                    bool keep_shared, net::TraceId trace,
                    std::shared_ptr<std::function<void()>> then) {
      // A teardown mid-chain short-circuits straight to `then`, whose own
      // alive guard releases the range locks.
      if (idx == count || !*alive) {
        (*then)();
        return;
      }
      // kInvalidNode requester: settle every holder, own copies included —
      // a region write must invalidate (and a region read must flush) the
      // initiating agent's cached lines too.
      dir->settle_holders(
          first + idx, net::kInvalidNode, keep_shared, trace,
          [alive, dir, first, count, idx, keep_shared, trace, then]() {
            run(alive, dir, first, count, idx + 1, keep_shared, trace, then);
          });
    }
  };
  Step::run(alive_, &dir_, first, count, 0, keep_shared, trace,
            std::make_shared<std::function<void()>>(std::move(then)));
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
  auto alive = alive_;
  CxlDirectory* dir = &dir_;
  lock_range(first, count, [this, alive, dir, first, count, payload,
                            done = std::move(done), trace]() mutable {
    if (!*alive) {
      unlock_range_of(dir, first, count);
      return;
    }
    settle_range(first, count, /*keep_shared=*/false, trace,
                 [this, alive, dir, first, count, payload,
                  done = std::move(done), trace]() mutable {
                   if (!*alive) {
                     unlock_range_of(dir, first, count);
                     return;
                   }
                   Status posted = dir->fabric_.cxl_write(
                       node(), dir->home(), dir->rkey_, first * kLineBytes,
                       std::span<const std::byte>(*payload),
                       [alive, dir, first, count, payload,
                        done](const net::Completion& c) {
                         unlock_range_of(dir, first, count);
                         if (*alive && done) done(c.status);
                       },
                       trace);
                   if (!posted.ok()) {
                     unlock_range_of(dir, first, count);
                     done(posted);
                   }
                 });
  });
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
  auto alive = alive_;
  CxlDirectory* dir = &dir_;
  lock_range(first, count, [this, alive, dir, first, count, out,
                            done = std::move(done), trace]() mutable {
    if (!*alive) {
      unlock_range_of(dir, first, count);
      return;
    }
    // Flush dirty owners (holders stay Shared), then pull the range.
    settle_range(first, count, /*keep_shared=*/true, trace,
                 [this, alive, dir, first, count, out,
                  done = std::move(done), trace]() mutable {
                   if (!*alive) {
                     unlock_range_of(dir, first, count);
                     return;
                   }
                   Status posted = dir->fabric_.cxl_read(
                       node(), dir->home(), dir->rkey_, first * kLineBytes,
                       out,
                       [alive, dir, first, count,
                        done](const net::Completion& c) {
                         unlock_range_of(dir, first, count);
                         if (*alive && done) done(c.status);
                       },
                       trace);
                   if (!posted.ok()) {
                     unlock_range_of(dir, first, count);
                     done(posted);
                   }
                 });
  });
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
