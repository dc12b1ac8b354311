#include "core/node_service.h"

#include <algorithm>

#include "common/checksum.h"
#include "common/status.h"
#include "common/units.h"
#include "core/ldmc.h"
#include "core/rdmc.h"
#include "ec/rs_codec.h"
#include "mem/memory_map.h"
#include "net/wire.h"
#include "storage/block_device.h"

namespace dm::core {

using cluster::kRpcEvictNotice;
using cluster::kRpcMigrateRegion;
using cluster::kRpcQueryCandidates;

NodeService::NodeService(cluster::Node& node, Config config)
    : node_(node), config_(std::move(config)), rdms_(node),
      rdmc_(node, config_.rdmc),
      // A (k, r) the codec rejects is a configuration error (asserted).
      codec_(*ec::RsCodec::make(config_.rdmc.ec_k, config_.rdmc.ec_r)) {
  // Candidate set for placement: either this node's own heartbeat view or
  // the leader-aggregated cache (§IV.E), when enabled and populated.
  rdmc_.set_candidates_provider([this]() {
    if (config_.leader_candidates && !candidate_cache_.empty())
      return candidate_cache_;
    return local_candidate_view(/*include_self=*/false);
  });
  node_.rpc().handle(kRpcQueryCandidates,
                     [this](net::NodeId from, net::WireReader& r) {
                       return handle_query_candidates(from, r);
                     });
  node_.rpc().handle(kRpcEvictNotice,
                     [this](net::NodeId from, net::WireReader& r) {
                       return handle_evict_notice(from, r);
                     });
  node_.rpc().handle(kRpcMigrateRegion,
                     [this](net::NodeId from, net::WireReader& r) {
                       return handle_migrate_region(from, r);
                     });
  node_.membership().on_peer_down(
      [this](net::NodeId dead) { repair_after_node_down(dead); });
  // Advertise local DM demand in heartbeats so placement and harvesting on
  // other nodes can steer around hot spots.
  node_.membership().set_pressure_provider([this]() { return pressure(); });
}

NodeService::~NodeService() = default;

Ldmc& NodeService::create_client(cluster::ServerId server,
                                 LdmcOptions options) {
  auto it = clients_.find(server);
  if (it != clients_.end()) return *it->second;
  auto client = std::make_unique<Ldmc>(*this, server, options);
  auto* raw = client.get();
  clients_.emplace(server, std::move(client));
  return *raw;
}

Ldmc* NodeService::client(cluster::ServerId server) {
  auto it = clients_.find(server);
  return it == clients_.end() ? nullptr : it->second.get();
}

void NodeService::for_each_client(
    const std::function<void(cluster::ServerId, Ldmc&)>& fn) {
  for (const auto& [server, client_ptr] : clients_) fn(server, *client_ptr);
}

// ---- put path ---------------------------------------------------------------

void NodeService::put_entry(cluster::ServerId server, mem::EntryId entry,
                            std::span<const std::byte> data, bool prefer_shm,
                            bool allow_remote, bool allow_disk,
                            PutCallback done, net::TraceId trace) {
  ++dm_requests_window_[server];
  if (trace == net::kNoTrace) trace = node_.next_trace_id();
  // Per-tier put latency, keyed by whichever tier finally accepted the
  // entry (the fallback chain may walk shm -> remote -> disk).
  const SimTime started = node_.simulator().now();
  done = [this, started, inner = std::move(done)](
             StatusOr<mem::EntryLocation> result) {
    const char* tier =
        result.ok() ? mem::tier_name(result->tier) : "failed";
    metrics_.histogram(std::string("ldms.put_ns.") + tier)
        .record(static_cast<std::uint64_t>(node_.simulator().now() - started));
    inner(std::move(result));
  };

  if (prefer_shm) {
    // Iterative shm attempt with bounded LRU spill (§IV.B: the LDMS asks
    // the node manager for more shared-memory space before going remote).
    struct ShmAttempt : std::enable_shared_from_this<ShmAttempt> {
      NodeService* self;
      cluster::ServerId server;
      mem::EntryId entry;
      std::vector<std::byte> payload;
      std::size_t spill_budget;
      bool allow_remote;
      bool allow_disk;
      net::TraceId trace;
      PutCallback done;

      void run() {
        Status s = self->node_.shm().put(server, entry, payload);
        if (s.ok()) {
          mem::EntryLocation loc;
          loc.tier = mem::Tier::kSharedMemory;
          loc.stored_size = static_cast<std::uint32_t>(payload.size());
          const SimTime cost = self->node_.fabric()
                                   .config()
                                   .latency.shared_memory.cost(payload.size());
          ++self->metrics_.counter("ldms.put_shm");
          self->node_.simulator().schedule_after(
              cost, [loc, done = std::move(done)]() { done(loc); });
          return;
        }
        const bool can_spill = s.code() == StatusCode::kResourceExhausted &&
                               self->config_.spill_shm_lru && allow_remote &&
                               spill_budget > 0;
        if (can_spill) {
          --spill_budget;
          auto self_ptr = shared_from_this();
          self->spill_one([self_ptr](bool progressed) {
            if (progressed) {
              self_ptr->run();
            } else {
              self_ptr->fall_through();
            }
          });
          return;
        }
        fall_through();
      }

      void fall_through() {
        if (allow_remote) {
          self->put_remote(server, entry, payload, allow_disk,
                           std::move(done), trace);
        } else if (allow_disk) {
          self->put_device(server, entry, payload, std::move(done));
        } else {
          done(ResourceExhaustedError("no tier available for entry"));
        }
      }
    };
    auto attempt = std::make_shared<ShmAttempt>();
    attempt->self = this;
    attempt->server = server;
    attempt->entry = entry;
    attempt->payload.assign(data.begin(), data.end());
    attempt->spill_budget = config_.max_spill_per_put;
    attempt->allow_remote = allow_remote;
    attempt->allow_disk = allow_disk;
    attempt->trace = trace;
    attempt->done = std::move(done);
    attempt->run();
    return;
  }

  if (allow_remote) {
    put_remote(server, entry, data, allow_disk, std::move(done), trace);
  } else if (allow_disk) {
    put_device(server, entry, data, std::move(done), trace);
  } else {
    done(ResourceExhaustedError("no tier available for entry"));
  }
}

void NodeService::put_remote(cluster::ServerId server, mem::EntryId entry,
                             std::span<const std::byte> data, bool allow_disk,
                             PutCallback done, net::TraceId trace) {
  ++remote_puts_window_;
  note_pressure();
  // Keep a copy for the disk fallback: the stripe store consumes the span
  // immediately, but on failure we need the bytes again.
  auto payload = std::make_shared<std::vector<std::byte>>(data.begin(),
                                                          data.end());
  store_stripe(
      server, entry, *payload,
      [this, server, entry, allow_disk, payload, trace,
       done = std::move(done)](StatusOr<mem::EntryLocation> loc) mutable {
        if (loc.ok()) {
          // Degraded-mode put (§IV.D hardening): fewer shards than the
          // stripe landed; flagged for the repair service.
          if (loc->degraded) ++metrics_.counter("ldms.put_remote_degraded");
          ++metrics_.counter("ldms.put_remote");
          done(*std::move(loc));
          return;
        }
        // Remote tier refused the entry. Capacity exhaustion is a normal
        // overflow; anything else means remote memory is unreachable, so
        // the disk copy is a *degraded* placement the repair service
        // should re-promote once the cluster heals.
        const bool unreachable =
            loc.status().code() != StatusCode::kResourceExhausted;
        if (allow_disk) {
          ++metrics_.counter("ldms.remote_overflow_to_disk");
          put_device(server, entry, *payload,
                     [this, unreachable, done = std::move(done)](
                         StatusOr<mem::EntryLocation> result) mutable {
                       if (result.ok() && unreachable) {
                         result->degraded = true;
                         ++metrics_.counter("ldms.degraded_to_disk");
                       }
                       done(std::move(result));
                     },
                     trace);
          return;
        }
        done(loc.status());
      },
      trace);
}

// ---- the stripe path: every remote entry is an RS(k, r) stripe --------------

void NodeService::store_stripe(
    cluster::ServerId server, mem::EntryId entry,
    std::span<const std::byte> data,
    std::function<void(StatusOr<mem::EntryLocation>)> done,
    net::TraceId trace) {
  if (trace == net::kNoTrace) trace = node_.next_trace_id();
  const std::size_t k = codec_.k();
  const std::size_t total = codec_.total_shards();
  auto shards = codec_.encode(data);
  if (!shards.ok()) {
    done(shards.status());
    return;
  }
  // k = 1 copies need no per-shard checksums: each one is the whole
  // payload, whose checksum the committed location already carries.
  std::vector<std::uint64_t> checksums;
  std::vector<Rdmc::ShardPayload> payloads(total);
  for (std::size_t i = 0; i < total; ++i) {
    payloads[i].shard = static_cast<std::uint32_t>(i);
    payloads[i].bytes = std::move((*shards)[i]);
    if (k > 1) checksums.push_back(word_checksum(payloads[i].bytes));
  }
  // Degraded floor ("min surviving shards"): never below k — fewer could
  // not be read back — and min_shards = 0 means all-or-nothing.
  const std::size_t min_needed =
      config_.rdmc.min_shards == 0
          ? total
          : std::clamp(config_.rdmc.min_shards, k, total);
  const auto size = static_cast<std::uint32_t>(data.size());
  auto fan_out = [this, server, entry, size, k, total, trace,
                  checksums = std::move(checksums),
                  payloads = std::move(payloads), min_needed,
                  done = std::move(done)]() mutable {
    rdmc_.put(
        server, entry, std::move(payloads), min_needed,
        [size, k, total, checksums = std::move(checksums),
         done = std::move(done)](
            StatusOr<std::vector<mem::RemoteReplica>> replicas) mutable {
          if (!replicas.ok()) {
            done(replicas.status());
            return;
          }
          mem::EntryLocation loc;
          loc.tier = mem::Tier::kRemote;
          loc.stored_size = size;
          loc.ec_k = static_cast<std::uint8_t>(k);
          loc.ec_r = static_cast<std::uint8_t>(total - k);
          loc.shard_checksums = std::move(checksums);
          loc.replicas = *std::move(replicas);
          loc.degraded = loc.replicas.size() < total;
          done(std::move(loc));
        },
        /*exclude=*/{}, trace);
  };
  // Copying k = 1 shards costs nothing; a real encode is pure computation
  // whose CPU is charged as virtual time before the shard fan-out starts.
  if (k == 1) {
    fan_out();
    return;
  }
  const SimTime cost = config_.ec_encode_cost.cost(size);
  metrics_.histogram("ec.encode_ns").record(
      static_cast<std::uint64_t>(cost));
  ++metrics_.counter("ec.encodes");
  std::uint64_t span = 0;
  if (spans_ != nullptr)
    // dm-lint: allow(span-unclosed) — closed when the encode delay elapses.
    span = spans_->begin_span(trace, node_.id(), "ec", "ec.encode");
  node_.simulator().schedule_after(
      cost, [this, span, have_span = spans_ != nullptr,
             fan_out = std::move(fan_out)]() mutable {
        if (have_span && spans_ != nullptr) spans_->end_span(span);
        fan_out();
      });
}

void NodeService::drop_corrupt_shards(
    const mem::EntryLocation& loc,
    std::vector<std::vector<std::byte>>& shards) {
  // A corrupted shard is as lost as a missing one, but silently wrong: reject
  // shards whose bytes do not match the committed checksum before they can
  // poison the decode.
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (shards[i].empty() || i >= loc.shard_checksums.size()) continue;
    if (word_checksum(shards[i]) != loc.shard_checksums[i]) {
      shards[i].clear();
      ++metrics_.counter("ec.corrupt_shards");
    }
  }
}

void NodeService::read_stripe(const mem::EntryLocation& location,
                              std::uint64_t offset, std::span<std::byte> out,
                              DoneCallback done, net::TraceId trace) {
  if (location.ec_k == 1) {
    // Every k = 1 shard is a whole copy: fail over across them in
    // committed order.
    rdmc_.read(location.replicas, offset, out, std::move(done), trace);
    return;
  }
  ++metrics_.counter("ec.reads");
  const std::size_t k = location.ec_k;
  const std::size_t shard_len =
      ec::RsCodec::shard_size(location.stored_size, k);
  if (out.empty()) {
    node_.simulator().schedule_after(
        0, [done = std::move(done)]() { done(Status::Ok()); });
    return;
  }
  // Fast path: the requested range maps onto whole-or-partial *data*
  // shards read directly (systematic code — no decode needed). Falls to
  // the degraded path if any covering shard is missing or its host is
  // known-down; reads that fail in flight (partitions) fall back too.
  struct Seg {
    mem::RemoteReplica replica;
    std::uint64_t off = 0;
    std::span<std::byte> dst;
  };
  std::vector<Seg> segs;
  bool all_present = true;
  const std::uint64_t end = offset + out.size();
  for (std::uint64_t s = offset / shard_len; s * shard_len < end; ++s) {
    const std::uint64_t seg_begin =
        std::max<std::uint64_t>(offset, s * shard_len);
    const std::uint64_t seg_end =
        std::min<std::uint64_t>(end, (s + 1) * shard_len);
    const mem::RemoteReplica* holder = nullptr;
    for (const auto& replica : location.replicas)
      if (replica.shard == s) holder = &replica;
    if (holder == nullptr || !node_.fabric().node_up(holder->node)) {
      all_present = false;
      break;
    }
    segs.push_back({*holder, seg_begin - s * shard_len,
                    out.subspan(seg_begin - offset, seg_end - seg_begin)});
  }
  if (!all_present) {
    degraded_read(location, offset, out, std::move(done), trace);
    return;
  }
  struct FastRead {
    std::size_t pending = 0;
    bool failed = false;
    DoneCallback done;
  };
  auto st = std::make_shared<FastRead>();
  st->pending = segs.size();
  st->done = std::move(done);
  for (const auto& seg : segs) {
    rdmc_.read(
        {seg.replica}, seg.off, seg.dst,
        [this, st, location, offset, out, trace](const Status& s) {
          if (!s.ok()) st->failed = true;
          if (--st->pending != 0) return;
          if (!st->failed) {
            st->done(Status::Ok());
            return;
          }
          degraded_read(location, offset, out, std::move(st->done), trace);
        },
        trace);
  }
}

void NodeService::degraded_read(mem::EntryLocation location,
                                std::uint64_t offset, std::span<std::byte> out,
                                DoneCallback done, net::TraceId trace) {
  const std::size_t k = location.ec_k;
  const std::size_t total = k + location.ec_r;
  const std::size_t shard_len =
      ec::RsCodec::shard_size(location.stored_size, k);
  struct Degraded {
    NodeService* self = nullptr;
    mem::EntryLocation loc;
    std::vector<std::vector<std::byte>> shards;
    std::size_t pending = 0;
    std::uint64_t offset = 0;
    std::span<std::byte> out;
    DoneCallback done;
    net::TraceId trace = net::kNoTrace;
  };
  auto st = std::make_shared<Degraded>();
  st->self = this;
  st->loc = std::move(location);
  st->shards.assign(total, {});
  st->offset = offset;
  st->out = out;
  st->done = std::move(done);
  st->trace = trace;
  auto finish = [st]() {
    st->self->drop_corrupt_shards(st->loc, st->shards);
    auto data = st->self->codec_.decode(st->shards, st->loc.stored_size);
    if (!data.ok()) {
      st->done(data.status());
      return;
    }
    const SimTime cost =
        st->self->config_.ec_decode_cost.cost(st->loc.stored_size);
    st->self->metrics_.histogram("ec.decode_ns")
        .record(static_cast<std::uint64_t>(cost));
    ++st->self->metrics_.counter("ec.degraded_reads");
    std::uint64_t span = 0;
    const bool have_span = st->self->spans_ != nullptr;
    if (have_span)
      // dm-lint: allow(span-unclosed) — closed when the decode delay ends.
      span = st->self->spans_->begin_span(st->trace, st->self->node_.id(),
                                          "ec", "ec.decode");
    std::copy_n(data->data() + st->offset, st->out.size(), st->out.data());
    st->self->node_.simulator().schedule_after(
        cost, [st, span, have_span]() {
          if (have_span && st->self->spans_ != nullptr)
            st->self->spans_->end_span(span);
          st->done(Status::Ok());
        });
  };
  // Pull every surviving shard in full, in parallel; failures just leave
  // their slot empty and the decode proceeds from whatever >= k arrive.
  std::size_t launched = 0;
  for (const auto& replica : st->loc.replicas)
    if (replica.shard < total) ++launched;
  if (launched == 0) {
    node_.simulator().schedule_after(0, [st]() {
      st->done(DataLossError("ec entry has no surviving shards"));
    });
    return;
  }
  st->pending = launched;
  for (const auto& replica : st->loc.replicas) {
    if (replica.shard >= total) continue;
    st->shards[replica.shard].resize(shard_len);
    rdmc_.read(
        {replica}, 0, st->shards[replica.shard],
        [st, shard = replica.shard, finish](const Status& s) {
          if (!s.ok()) st->shards[shard].clear();
          if (--st->pending == 0) finish();
        },
        trace);
  }
}

void NodeService::put_device(cluster::ServerId server, mem::EntryId entry,
                             std::span<const std::byte> data, PutCallback done,
                             net::TraceId trace) {
  note_pressure();
  // §VI convergence: a local NVM tier, when present, sits between remote
  // memory and the rotational swap device.
  if (node_.nvm() != nullptr) {
    put_nvm(server, entry, data, std::move(done), trace);
    return;
  }
  put_disk(server, entry, data, std::move(done), trace);
}

void NodeService::put_nvm(cluster::ServerId server, mem::EntryId entry,
                          std::span<const std::byte> data, PutCallback done,
                          net::TraceId trace) {
  auto offset = alloc_nvm(static_cast<std::uint32_t>(data.size()));
  if (!offset.ok()) {
    // NVM full: fall through to the disk below it.
    ++metrics_.counter("ldms.nvm_overflow_to_disk");
    put_disk(server, entry, data, std::move(done), trace);
    return;
  }
  if (spans_ != nullptr && trace != net::kNoTrace) {
    // dm-lint: allow(span-unclosed) — closed by the wrapped completion.
    const std::uint64_t span =
        spans_->begin_span(trace, node_.id(), "disk", "nvm.write");
    done = [spans = spans_, span, inner = std::move(done)](
               StatusOr<mem::EntryLocation> result) {
      spans->end_span(span);
      inner(std::move(result));
    };
  }
  const auto size = static_cast<std::uint32_t>(data.size());
  const std::uint64_t at = *offset;
  auto done_ptr = std::make_shared<PutCallback>(std::move(done));
  Status posted = node_.nvm()->write(
      at, data, [this, at, size, done_ptr](const Status& s, SimTime) {
        if (!s.ok()) {
          free_nvm(at, size);
          (*done_ptr)(s);
          return;
        }
        mem::EntryLocation loc;
        loc.tier = mem::Tier::kNvm;
        loc.stored_size = size;
        loc.disk_offset = at;
        ++metrics_.counter("ldms.put_nvm");
        (*done_ptr)(loc);
      });
  if (!posted.ok()) {
    free_nvm(at, size);
    (*done_ptr)(posted);
  }
}

void NodeService::put_disk(cluster::ServerId server, mem::EntryId entry,
                           std::span<const std::byte> data, PutCallback done,
                           net::TraceId trace) {
  (void)server;
  (void)entry;
  auto offset = alloc_disk(static_cast<std::uint32_t>(data.size()));
  if (!offset.ok()) {
    done(offset.status());
    return;
  }
  if (spans_ != nullptr && trace != net::kNoTrace) {
    // dm-lint: allow(span-unclosed) — closed by the wrapped completion.
    const std::uint64_t span =
        spans_->begin_span(trace, node_.id(), "disk", "disk.write");
    done = [spans = spans_, span, inner = std::move(done)](
               StatusOr<mem::EntryLocation> result) {
      spans->end_span(span);
      inner(std::move(result));
    };
  }
  const auto size = static_cast<std::uint32_t>(data.size());
  const std::uint64_t at = *offset;
  // Shared so the error path below can still invoke it if the device
  // rejects the I/O at post time (the lambda then never runs).
  auto done_ptr = std::make_shared<PutCallback>(std::move(done));
  Status posted = node_.disk().write(
      at, data, [this, at, size, done_ptr](const Status& s, SimTime) {
        if (!s.ok()) {
          free_disk(at, size);
          (*done_ptr)(s);
          return;
        }
        mem::EntryLocation loc;
        loc.tier = mem::Tier::kDisk;
        loc.stored_size = size;
        loc.disk_offset = at;
        ++metrics_.counter("ldms.put_disk");
        (*done_ptr)(loc);
      });
  if (!posted.ok()) {
    free_disk(at, size);
    ++metrics_.counter("ldms.put_disk_failed");
    (*done_ptr)(posted);
  }
}

void NodeService::spill_one(std::function<void(bool)> done) {
  auto victim = node_.shm().lru_entry();
  if (!victim) {
    done(false);
    return;
  }
  const auto [owner, entry] = *victim;
  Ldmc* owner_client = client(owner);
  if (owner_client == nullptr) {
    done(false);
    return;
  }
  auto old_loc = owner_client->map().lookup(entry);
  if (!old_loc.ok() || old_loc->tier != mem::Tier::kSharedMemory) {
    // Map and pool disagree; drop the orphan pool entry defensively.
    (void)node_.shm().remove(owner, entry);
    ++metrics_.counter("ldms.spill_orphan");
    done(true);
    return;
  }
  auto size = node_.shm().stored_size(owner, entry);
  if (!size.ok()) {
    done(false);
    return;
  }
  auto bytes = std::make_shared<std::vector<std::byte>>(*size);
  if (Status s = node_.shm().peek(owner, entry, *bytes); !s.ok()) {
    done(false);
    return;
  }
  store_stripe(
      owner, entry, *bytes,
      [this, owner, entry, bytes, old = *old_loc,
       done = std::move(done)](StatusOr<mem::EntryLocation> stripe) mutable {
        if (!stripe.ok()) {
          ++metrics_.counter("ldms.spill_failed");
          done(false);
          return;
        }
        // Re-check: the owner may have removed or moved the entry while
        // the put was in flight — committing now would resurrect it with
        // stale data and leak the blocks.
        Ldmc* live_client = client(owner);
        auto current = live_client != nullptr
                           ? live_client->map().lookup(entry)
                           : NotFoundError("owner gone");
        if (!current.ok() || current->tier != mem::Tier::kSharedMemory) {
          rdmc_.free_replicas(std::move(stripe->replicas));
          ++metrics_.counter("ldms.spill_stale");
          // The space may already be free.
          done(node_.shm().contains(owner, entry) ? false : true);
          return;
        }
        mem::EntryLocation loc = old;
        loc.tier = mem::Tier::kRemote;
        loc.replicas = std::move(stripe->replicas);
        loc.ec_k = stripe->ec_k;
        loc.ec_r = stripe->ec_r;
        loc.shard_checksums = std::move(stripe->shard_checksums);
        loc.degraded = stripe->degraded;
        live_client->map().commit(entry, std::move(loc));
        (void)node_.shm().remove(owner, entry);
        ++metrics_.counter("ldms.spilled_to_remote");
        done(true);
      },
      net::kNoTrace);
}

// ---- get / remove paths -----------------------------------------------------

void NodeService::get_entry(cluster::ServerId server, mem::EntryId entry,
                            const mem::EntryLocation& location,
                            std::uint64_t offset, std::span<std::byte> out,
                            DoneCallback done, net::TraceId trace) {
  if (trace == net::kNoTrace) trace = node_.next_trace_id();
  // A get that misses shared memory is unmet local demand: it counts
  // toward the advertised pressure alongside overflow puts.
  if (location.tier != mem::Tier::kSharedMemory) note_pressure();
  // Per-tier access latency: the paper's core latency story is the gap
  // between these histograms (DRAM-speed shm vs RDMA vs device).
  const SimTime started = node_.simulator().now();
  done = [this, started, tier = location.tier,
          inner = std::move(done)](const Status& s) {
    metrics_.histogram(std::string("ldms.get_ns.") + mem::tier_name(tier))
        .record(static_cast<std::uint64_t>(node_.simulator().now() - started));
    inner(s);
  };
  switch (location.tier) {
    case mem::Tier::kSharedMemory: {
      Status s = node_.shm().get_range(server, entry, offset, out);
      const SimTime cost =
          node_.fabric().config().latency.shared_memory.cost(out.size());
      node_.simulator().schedule_after(
          cost, [s, done = std::move(done)]() { done(s); });
      return;
    }
    case mem::Tier::kRemote:
      read_stripe(location, offset, out, std::move(done), trace);
      return;
    case mem::Tier::kNvm:
    case mem::Tier::kDisk: {
      storage::BlockDevice* device =
          location.tier == mem::Tier::kNvm ? node_.nvm() : &node_.disk();
      if (device == nullptr) {
        done(FailedPreconditionError("entry on absent NVM tier"));
        return;
      }
      if (spans_ != nullptr && trace != net::kNoTrace) {
        // dm-lint: allow(span-unclosed) — closed by the wrapped completion.
        const std::uint64_t span = spans_->begin_span(
            trace, node_.id(), "disk",
            location.tier == mem::Tier::kNvm ? "nvm.read" : "disk.read");
        done = [spans = spans_, span,
                inner = std::move(done)](const Status& s) {
          spans->end_span(span);
          inner(s);
        };
      }
      auto done_ptr = std::make_shared<DoneCallback>(std::move(done));
      Status posted = device->read(
          location.disk_offset + offset, out,
          [done_ptr](const Status& s, SimTime) { (*done_ptr)(s); });
      if (!posted.ok()) {
        node_.simulator().schedule_after(
            0, [posted, done_ptr]() { (*done_ptr)(posted); });
      }
      return;
    }
  }
  done(InternalError("unknown tier"));
}

void NodeService::remove_entry(cluster::ServerId server, mem::EntryId entry,
                               const mem::EntryLocation& location,
                               DoneCallback done, net::TraceId trace) {
  switch (location.tier) {
    case mem::Tier::kSharedMemory: {
      Status s = node_.shm().remove(server, entry);
      node_.simulator().schedule_after(
          node_.fabric().config().latency.shared_memory.overhead_ns,
          [s, done = std::move(done)]() { done(s); });
      return;
    }
    case mem::Tier::kRemote:
      rdmc_.free_replicas(location.replicas, std::move(done), trace);
      return;
    case mem::Tier::kNvm:
      free_nvm(location.disk_offset, location.stored_size);
      node_.simulator().schedule_after(
          0, [done = std::move(done)]() { done(Status::Ok()); });
      return;
    case mem::Tier::kDisk:
      free_disk(location.disk_offset, location.stored_size);
      node_.simulator().schedule_after(
          0, [done = std::move(done)]() { done(Status::Ok()); });
      return;
  }
  done(InternalError("unknown tier"));
}

// ---- eviction notices and migration (§IV.F) ---------------------------------

StatusOr<std::vector<std::byte>> NodeService::handle_evict_notice(
    net::NodeId, net::WireReader& req) {
  const auto evicting = static_cast<net::NodeId>(req.u32());
  const auto count = req.u32();
  DM_RETURN_IF_ERROR(req.status());
  std::vector<std::pair<cluster::ServerId, mem::EntryId>> victims;
  victims.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto server = static_cast<cluster::ServerId>(req.u32());
    const auto entry = static_cast<mem::EntryId>(req.u64());
    if (!req.ok()) break;
    victims.emplace_back(server, entry);
  }
  DM_RETURN_IF_ERROR(req.status());
  // Ack immediately; migrations proceed asynchronously and complete the
  // drain by freeing the old blocks.
  for (const auto& [server, entry] : victims) {
    node_.simulator().schedule_after(0, [this, evicting, server = server,
                                         entry = entry]() {
      migrate_entry(server, entry, evicting);
    });
  }
  return std::vector<std::byte>{};
}

void NodeService::migrate_entry(cluster::ServerId server, mem::EntryId entry,
                                net::NodeId away_from, net::TraceId trace) {
  Ldmc* owner = client(server);
  if (owner == nullptr) {
    ++metrics_.counter("ldms.migrate_unknown_server");
    return;
  }
  auto loc = owner->map().lookup(entry);
  if (!loc.ok() || loc->tier != mem::Tier::kRemote) {
    ++metrics_.counter("ldms.migrate_stale");
    return;
  }
  mem::RemoteReplica old_replica;
  for (const auto& replica : loc->replicas)
    if (replica.node == away_from) old_replica = replica;
  if (old_replica.node == net::kInvalidNode) {
    ++metrics_.counter("ldms.migrate_stale");
    return;
  }
  // Only the shard hosted on `away_from` moves: copy it onto a fresh node,
  // then swap it into the committed set. The departing node is still up
  // (this is a drain, not a crash), so it can serve its own shard; a k = 1
  // shard is any copy, so the other copies are read first in committed
  // order and the departing host last.
  std::vector<mem::RemoteReplica> sources;
  if (loc->ec_k == 1)
    for (const auto& replica : loc->replicas)
      if (replica.node != away_from) sources.push_back(replica);
  sources.push_back(old_replica);
  const std::size_t total = static_cast<std::size_t>(loc->ec_k) + loc->ec_r;
  auto bytes = std::make_shared<std::vector<std::byte>>(
      ec::RsCodec::shard_size(loc->stored_size, loc->ec_k));
  std::vector<net::NodeId> exclude;
  for (const auto& replica : loc->replicas) exclude.push_back(replica.node);
  const SimTime migrate_started = node_.simulator().now();
  rdmc_.read(
      sources, 0, *bytes,
      [this, server, entry, bytes, old_replica, trace, migrate_started, total,
       exclude = std::move(exclude)](const Status& s) mutable {
        if (!s.ok()) {
          ++metrics_.counter("ldms.migrate_read_failed");
          return;
        }
        std::vector<Rdmc::ShardPayload> payload(1);
        payload[0].shard = old_replica.shard;
        payload[0].bytes = std::move(*bytes);
        rdmc_.put(
            server, entry, std::move(payload), /*min_needed=*/1,
            [this, server, entry, old_replica, migrate_started, total](
                StatusOr<std::vector<mem::RemoteReplica>> fresh) mutable {
              if (!fresh.ok()) {
                ++metrics_.counter("ldms.migrate_put_failed");
                return;
              }
              // Commit against the *current* location: the departing
              // block is replaced only while it is still listed. The entry
              // may have been removed or relocated in flight, or another
              // migration of it (a second offload, or an evict notice) may
              // have committed first; either way never resurrect it, never
              // drop the other migration's fresh block, and never free the
              // departed block twice.
              Ldmc* live_owner = client(server);
              auto current = live_owner != nullptr
                                 ? live_owner->map().lookup(entry)
                                 : NotFoundError("owner gone");
              const bool listed =
                  current.ok() && current->tier == mem::Tier::kRemote &&
                  std::find(current->replicas.begin(),
                            current->replicas.end(),
                            old_replica) != current->replicas.end();
              if (!listed) {
                rdmc_.free_replicas(*std::move(fresh));
                ++metrics_.counter("ldms.migrate_stale");
                return;
              }
              mem::EntryLocation updated = *std::move(current);
              std::erase(updated.replicas, old_replica);
              for (auto& replica : *fresh)
                updated.replicas.push_back(replica);
              updated.degraded = updated.replicas.size() < total;
              live_owner->map().commit(entry, std::move(updated));
              rdmc_.free_replicas({old_replica});
              ++metrics_.counter("ldms.migrated_entries");
              metrics_.histogram("cluster.migrate_ns")
                  .record(static_cast<std::uint64_t>(
                      node_.simulator().now() - migrate_started));
            },
            exclude, trace);
      },
      trace);
}

// ---- cluster balancing: live migration off hot nodes ------------------------

StatusOr<std::vector<std::byte>> NodeService::handle_migrate_region(
    net::NodeId, net::WireReader& req) {
  const auto hot_node = static_cast<net::NodeId>(req.u32());
  const auto max_entries = req.u32();
  DM_RETURN_IF_ERROR(req.status());
  // Walk owned maps in (server, entry) order and schedule copy-then-redirect
  // migrations for regions replicated on the hot node, up to the budget.
  // Like the eviction path, migrations run asynchronously after the ack;
  // each keeps the source replica until the new location commits, so a
  // crash mid-migration degrades back to the pre-migration placement.
  std::uint32_t scheduled = 0;
  for (const auto& [server, client_ptr] : clients_) {
    if (scheduled >= max_entries) break;
    for (mem::EntryId entry :
         client_ptr->map().entries_with_replica_on(hot_node)) {
      if (scheduled >= max_entries) break;
      node_.simulator().schedule_after(
          0, [this, hot_node, server = server, entry]() {
            migrate_entry(server, entry, hot_node, node_.next_trace_id());
          });
      ++scheduled;
      ++metrics_.counter("placement.rebalance_moves");
    }
  }
  net::WireWriter w;
  w.put_u32(scheduled);
  return std::move(w).take();
}

void NodeService::offload_hot_node(std::size_t max_entries,
                                   std::function<void(std::size_t)> done) {
  // Owners of regions hosted here, asked in ascending id order, each with
  // the remaining budget. Sequential (next RPC only after the previous
  // reply) so the budget is respected and the RPC order is deterministic.
  struct Offload : std::enable_shared_from_this<Offload> {
    NodeService* self = nullptr;
    std::vector<std::pair<net::NodeId, std::size_t>> owners;
    std::size_t next = 0;
    std::size_t budget = 0;
    std::size_t accepted = 0;
    std::function<void(std::size_t)> done;

    void step() {
      if (next >= owners.size() || budget == 0) {
        if (done) done(accepted);
        return;
      }
      const net::NodeId owner = owners[next++].first;
      net::WireWriter w;
      w.put_u32(self->node_.id());
      w.put_u32(static_cast<std::uint32_t>(budget));
      self->node_.rpc().call(
          owner, kRpcMigrateRegion, std::move(w).take(), 100 * kMilli,
          [op = shared_from_this()](StatusOr<std::vector<std::byte>> resp) {
            if (resp.ok()) {
              net::WireReader r(*resp);
              const std::uint32_t got = r.u32();
              if (r.ok()) {
                const std::size_t n = std::min<std::size_t>(got, op->budget);
                op->accepted += n;
                op->budget -= n;
                ++op->self->metrics_.counter("harvest.offload_scheduled");
              }
            }
            op->step();
          });
    }
  };

  ++metrics_.counter("harvest.offload_requests");
  auto op = std::make_shared<Offload>();
  op->self = this;
  op->owners = rdms_.hosted_owners();
  op->budget = max_entries;
  op->done = std::move(done);
  op->step();
}

bool NodeService::reclaim_donated_slab() {
  if (rdms_.active_drains() != 0) return false;
  auto slab = node_.recv_pool().least_loaded_slab();
  if (!slab) return false;
  ++metrics_.counter("harvest.slab_drains");
  const SimTime drain_started = node_.simulator().now();
  const std::uint64_t registered_before = node_.recv_pool().registered_bytes();
  rdms_.drain_slab(*slab, [this, drain_started,
                           registered_before](const Status& s) {
    metrics_.histogram("harvest.drain_ns")
        .record(static_cast<std::uint64_t>(node_.simulator().now() -
                                           drain_started));
    if (!s.ok()) {
      ++metrics_.counter("harvest.drain_failed");
      return;
    }
    const std::uint64_t registered_after = node_.recv_pool().registered_bytes();
    if (registered_after < registered_before)
      metrics_.counter("harvest.reclaimed_pages") +=
          (registered_before - registered_after) / 4096;
  });
  return true;
}

void NodeService::repair_after_node_down(net::NodeId dead) {
  for (auto& [server, client_ptr] : clients_) {
    Ldmc* owner = client_ptr.get();
    for (mem::EntryId entry : owner->map().entries_with_replica_on(dead)) {
      auto loc = owner->map().lookup(entry);
      if (!loc.ok() || loc->tier != mem::Tier::kRemote) continue;
      std::vector<mem::RemoteReplica> survivors;
      for (const auto& replica : loc->replicas)
        if (replica.node != dead &&
            node_.fabric().node_up(replica.node))
          survivors.push_back(replica);
      // A stripe stays readable while >= k shards survive. Degrade the
      // committed set so reads stop touching the dead host, then let
      // repair_entry rebuild the lost shards onto fresh nodes.
      if (survivors.size() < loc->ec_k) {
        ++data_loss_;
        ++metrics_.counter("ldms.repair_data_loss");
        continue;
      }
      mem::EntryLocation degraded = *loc;
      degraded.replicas = std::move(survivors);
      degraded.degraded =
          degraded.replicas.size() <
          static_cast<std::size_t>(loc->ec_k) + loc->ec_r;
      owner->map().commit(entry, degraded);
      const auto server_id = server;
      node_.simulator().schedule_after(0, [this, server_id, entry]() {
        repair_entry(server_id, entry, [](const Status&) {});
      });
    }
  }
}

void NodeService::invalidate_replicas_on(net::NodeId host) {
  for_each_client([&](cluster::ServerId, Ldmc& owner) {
    for (mem::EntryId entry : owner.map().entries_with_replica_on(host)) {
      auto loc = owner.map().lookup(entry);
      if (!loc.ok() || loc->tier != mem::Tier::kRemote) continue;
      std::vector<mem::RemoteReplica> survivors;
      for (const auto& replica : loc->replicas)
        if (replica.node != host) survivors.push_back(replica);
      // A stripe stays readable down to ec_k surviving shards (one copy
      // for k = 1). Below that floor the rebooted node held the last
      // usable bytes: genuine data loss.
      if (survivors.size() < loc->ec_k) {
        ++data_loss_;
        ++metrics_.counter("ldms.repair_data_loss");
        continue;
      }
      mem::EntryLocation updated = *loc;
      updated.replicas = std::move(survivors);
      updated.degraded = updated.replicas.size() <
                         static_cast<std::size_t>(loc->ec_k) + loc->ec_r;
      owner.map().commit(entry, std::move(updated));
      ++metrics_.counter("ldms.replicas_invalidated");
    }
  });
}

void NodeService::repair_entry(cluster::ServerId server, mem::EntryId entry,
                               DoneCallback done, net::TraceId trace) {
  if (trace == net::kNoTrace) trace = node_.next_trace_id();
  Ldmc* owner = client(server);
  if (owner == nullptr) {
    done(NotFoundError("unknown server"));
    return;
  }
  auto loc = owner->map().lookup(entry);
  if (!loc.ok()) {
    done(loc.status());
    return;
  }

  if (loc->tier == mem::Tier::kRemote) {
    repair_stripe(server, entry, *loc, std::move(done), trace);
    return;
  }

  if ((loc->tier == mem::Tier::kDisk || loc->tier == mem::Tier::kNvm) &&
      loc->degraded) {
    // Disk-fallback entry: read the device copy, re-promote it to remote
    // memory as a full stripe, then release the device extent.
    auto bytes = std::make_shared<std::vector<std::byte>>(loc->stored_size);
    get_entry(
        server, entry, *loc, 0, *bytes,
        [this, server, entry, bytes, old = *loc,
         done = std::move(done), trace](const Status& s) mutable {
          if (!s.ok()) {
            ++metrics_.counter("ldms.repair_read_failed");
            done(s);
            return;
          }
          store_stripe(
              server, entry, *bytes,
              [this, server, entry, bytes, old = std::move(old),
               done = std::move(done)](
                  StatusOr<mem::EntryLocation> stripe) mutable {
                if (!stripe.ok()) {
                  ++metrics_.counter("ldms.repair_put_failed");
                  done(stripe.status());
                  return;
                }
                Ldmc* live_owner = client(server);
                auto current = live_owner != nullptr
                                   ? live_owner->map().lookup(entry)
                                   : NotFoundError("owner gone");
                // Promote only if the entry still sits in the same device
                // extent the bytes were read from.
                if (!current.ok() || current->tier != old.tier ||
                    current->disk_offset != old.disk_offset) {
                  rdmc_.free_replicas(std::move(stripe->replicas));
                  ++metrics_.counter("ldms.repair_stale");
                  done(Status::Ok());
                  return;
                }
                const mem::Tier old_tier = old.tier;
                const std::uint64_t extent = old.disk_offset;
                mem::EntryLocation updated = std::move(old);
                updated.tier = mem::Tier::kRemote;
                updated.replicas = std::move(stripe->replicas);
                updated.ec_k = stripe->ec_k;
                updated.ec_r = stripe->ec_r;
                updated.shard_checksums = std::move(stripe->shard_checksums);
                updated.degraded = stripe->degraded;
                updated.disk_offset = 0;
                const std::uint32_t stored = updated.stored_size;
                live_owner->map().commit(entry, std::move(updated));
                if (old_tier == mem::Tier::kNvm)
                  free_nvm(extent, stored);
                else
                  free_disk(extent, stored);
                ++metrics_.counter("ldms.promoted_from_disk");
                done(Status::Ok());
              },
              trace);
        },
        trace);
    return;
  }

  // Healthy (or shm-resident) entry: nothing to repair.
  done(Status::Ok());
}

void NodeService::repair_stripe(cluster::ServerId server, mem::EntryId entry,
                                const mem::EntryLocation& loc,
                                DoneCallback done, net::TraceId trace) {
  const std::size_t k = loc.ec_k;
  const std::size_t total = k + loc.ec_r;
  std::vector<mem::RemoteReplica> survivors;
  for (const auto& replica : loc.replicas)
    if (node_.fabric().node_up(replica.node)) survivors.push_back(replica);
  if (survivors.size() < k) {
    ++data_loss_;
    ++metrics_.counter("ldms.repair_data_loss");
    done(DataLossError("fewer than k shards survive"));
    return;
  }
  Ldmc* owner = client(server);
  if (owner == nullptr) {
    done(NotFoundError("unknown server"));
    return;
  }
  mem::EntryLocation pruned = loc;
  pruned.replicas = survivors;
  pruned.degraded = survivors.size() < total;
  if (pruned.replicas.size() != loc.replicas.size() ||
      pruned.degraded != loc.degraded)
    owner->map().commit(entry, pruned);
  if (survivors.size() == total) {
    done(Status::Ok());
    return;
  }

  // Pull all surviving shards, reconstruct the lost ones, and stripe them
  // onto fresh nodes. Partial success is fine (min_needed = 1): every
  // landed shard strictly improves durability and the next scan retries.
  const std::size_t shard_len = ec::RsCodec::shard_size(loc.stored_size, k);
  struct Repair {
    NodeService* self = nullptr;
    cluster::ServerId server = 0;
    mem::EntryId entry = 0;
    mem::EntryLocation base;  // pruned committed state
    std::vector<std::vector<std::byte>> shards;
    std::size_t pending = 0;
    DoneCallback done;
    net::TraceId trace = net::kNoTrace;
  };
  auto st = std::make_shared<Repair>();
  st->self = this;
  st->server = server;
  st->entry = entry;
  st->base = std::move(pruned);
  st->shards.assign(total, {});
  st->done = std::move(done);
  st->trace = trace;

  auto rebuild = [st, k, total]() {
    NodeService* self = st->self;
    // Same checksum gate as degraded reads: a corrupted surviving shard
    // must not contaminate the rebuilt ones.
    self->drop_corrupt_shards(st->base, st->shards);
    Status rec = self->codec_.reconstruct(st->shards);
    if (rec.code() == StatusCode::kDataLoss)
      ++self->metrics_.counter("ldms.repair_read_failed");
    if (!rec.ok()) {
      st->done(rec);
      return;
    }
    // Copying k = 1 shards costs nothing; a real reconstruction is a
    // decode, charged as virtual time before the fan-out.
    SimTime cost = 0;
    if (k > 1) {
      cost = self->config_.ec_decode_cost.cost(st->base.stored_size);
      self->metrics_.histogram("ec.decode_ns")
          .record(static_cast<std::uint64_t>(cost));
    }
    std::vector<Rdmc::ShardPayload> missing;
    for (std::size_t i = 0; i < total; ++i) {
      bool held = false;
      for (const auto& replica : st->base.replicas)
        if (replica.shard == i) held = true;
      if (held) continue;
      Rdmc::ShardPayload payload;
      payload.shard = static_cast<std::uint32_t>(i);
      payload.bytes = std::move(st->shards[i]);
      missing.push_back(std::move(payload));
    }
    if (missing.empty()) {
      st->done(Status::Ok());
      return;
    }
    std::vector<net::NodeId> exclude;
    for (const auto& replica : st->base.replicas)
      exclude.push_back(replica.node);
    auto fan_out = [st, k, total, missing = std::move(missing),
                    exclude = std::move(exclude)]() mutable {
      st->self->rdmc_.put(
          st->server, st->entry, std::move(missing), /*min_needed=*/1,
          [st, k, total](
              StatusOr<std::vector<mem::RemoteReplica>> fresh) mutable {
            NodeService* svc = st->self;
            if (!fresh.ok()) {
              ++svc->metrics_.counter("ldms.repair_put_failed");
              st->done(fresh.status());
              return;
            }
            Ldmc* live_owner = svc->client(st->server);
            // Stale re-check: never resurrect a removed or relocated
            // entry with freshly-minted shards.
            auto current = live_owner != nullptr
                               ? live_owner->map().lookup(st->entry)
                               : NotFoundError("owner gone");
            if (!current.ok() || current->tier != mem::Tier::kRemote ||
                current->ec_k != st->base.ec_k) {
              svc->rdmc_.free_replicas(*std::move(fresh));
              ++svc->metrics_.counter("ldms.repair_stale");
              st->done(Status::Ok());
              return;
            }
            // Merge by shard index against the *current* committed set (a
            // concurrent repair/migration may have added shards): the
            // surviving-shard count never decreases, duplicates are freed.
            mem::EntryLocation updated = *std::move(current);
            std::size_t appended = 0;
            for (auto& replica : *fresh) {
              bool duplicate = false;
              for (const auto& held : updated.replicas)
                if (held.shard == replica.shard) duplicate = true;
              if (duplicate) {
                svc->rdmc_.free_replicas({replica});
                continue;
              }
              updated.replicas.push_back(replica);
              ++appended;
            }
            updated.degraded = updated.replicas.size() < total;
            live_owner->map().commit(st->entry, std::move(updated));
            if (k > 1) svc->metrics_.counter("ec.shards_repaired") += appended;
            ++svc->metrics_.counter("ldms.repaired_entries");
            st->done(Status::Ok());
          },
          exclude, st->trace);
    };
    if (k == 1) {
      fan_out();
      return;
    }
    self->node_.simulator().schedule_after(cost, std::move(fan_out));
  };

  st->pending = st->base.replicas.size();
  for (const auto& replica : st->base.replicas) {
    st->shards[replica.shard].resize(shard_len);
    rdmc_.read(
        {replica}, 0, st->shards[replica.shard],
        [st, shard = replica.shard, rebuild](const Status& s) {
          if (!s.ok()) st->shards[shard].clear();
          if (--st->pending == 0) rebuild();
        },
        trace);
  }
}

// ---- pressure accounting (§I imbalance signal) -------------------------------

// Lazy window rotation: both the reader and the writer first roll the
// window forward to the one containing `now`, so the reported value is the
// count of the last *complete* window regardless of call order. A node
// that goes quiet for more than a window reports zero (stale demand must
// not repel placements forever).
void NodeService::note_pressure() {
  const SimTime now = node_.simulator().now();
  if (now - pressure_window_start_ >= config_.pressure_window) {
    const bool adjacent =
        now - pressure_window_start_ < 2 * config_.pressure_window;
    pressure_last_ = adjacent ? pressure_accum_ : 0;
    pressure_accum_ = 0;
    pressure_window_start_ =
        now - (now - pressure_window_start_) % config_.pressure_window;
  }
  ++pressure_accum_;
}

std::uint64_t NodeService::pressure() const {
  const SimTime now = node_.simulator().now();
  if (now - pressure_window_start_ >= config_.pressure_window) {
    const bool adjacent =
        now - pressure_window_start_ < 2 * config_.pressure_window;
    pressure_last_ = adjacent ? pressure_accum_ : 0;
    pressure_accum_ = 0;
    pressure_window_start_ =
        now - (now - pressure_window_start_) % config_.pressure_window;
  }
  return pressure_last_;
}

// ---- leader candidate sets (§IV.E) -------------------------------------------

std::vector<cluster::CandidateNode> NodeService::local_candidate_view(
    bool include_self) const {
  std::vector<cluster::CandidateNode> out;
  if (include_self)
    out.push_back({node_.id(), node_.donatable_free_bytes(), pressure()});
  for (net::NodeId peer : node_.membership().peers()) {
    if (!node_.membership().alive(peer)) continue;
    out.push_back({peer, node_.membership().last_known_free(peer),
                   node_.membership().last_known_pressure(peer)});
  }
  return out;
}

StatusOr<std::vector<std::byte>> NodeService::handle_query_candidates(
    net::NodeId, net::WireReader&) {
  // Answered by whoever is asked — in practice the group leader, whose
  // heartbeat view aggregates the whole group.
  auto view = local_candidate_view(/*include_self=*/true);
  net::WireWriter w;
  w.put_u32(static_cast<std::uint32_t>(view.size()));
  for (const auto& candidate : view) {
    w.put_u32(candidate.node);
    w.put_u64(candidate.free_bytes);
    w.put_u64(candidate.pressure);
  }
  ++metrics_.counter("candidates.queries_served");
  return std::move(w).take();
}

void NodeService::start_candidate_refresh() {
  if (!config_.leader_candidates || candidate_refresh_running_) return;
  candidate_refresh_running_ = true;
  refresh_candidates();
}

void NodeService::refresh_candidates() {
  if (!candidate_refresh_running_) return;
  const net::NodeId leader =
      node_.election() != nullptr ? node_.election()->leader()
                                  : net::kInvalidNode;
  auto reschedule = [this]() {
    node_.simulator().schedule_after(config_.candidate_refresh_period,
                                     [this]() { refresh_candidates(); });
  };
  if (leader == net::kInvalidNode || leader == node_.id()) {
    // We are (or have no) leader: use the local aggregate directly.
    candidate_cache_ = local_candidate_view(/*include_self=*/true);
    ++metrics_.counter("candidates.local_refreshes");
    reschedule();
    return;
  }
  node_.rpc().call(
      leader, kRpcQueryCandidates, {}, 50 * kMilli,
      [this, reschedule](StatusOr<std::vector<std::byte>> resp) {
        if (resp.ok()) {
          net::WireReader r(*resp);
          const std::uint32_t n = r.u32();
          std::vector<cluster::CandidateNode> fresh;
          for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
            const auto node = static_cast<net::NodeId>(r.u32());
            const std::uint64_t free_bytes = r.u64();
            const std::uint64_t pressure = r.u64();
            fresh.push_back({node, free_bytes, pressure});
          }
          if (r.ok()) {
            candidate_cache_ = std::move(fresh);
            ++metrics_.counter("candidates.leader_refreshes");
          }
        } else {
          // Leader unreachable: fall back to the local view until the next
          // round (the election will move the leader shortly anyway).
          candidate_cache_.clear();
          ++metrics_.counter("candidates.refresh_failed");
        }
        reschedule();
      });
}

// ---- eviction monitor (§IV.F policies 1 & 2) --------------------------------

void NodeService::start_eviction_monitor() {
  if (monitor_running_ || !config_.eviction.enabled) return;
  monitor_running_ = true;
  node_.simulator().schedule_after(config_.eviction.period, [this]() {
    monitor_running_ = false;
    eviction_tick();
    start_eviction_monitor();
  });
}

void NodeService::eviction_tick() {
  const auto& cfg = config_.eviction;
  auto& pool = node_.recv_pool();

  // Policy 1: local servers are overflowing to remote memory while this
  // node still donates DRAM to peers -> reclaim a receive-pool slab.
  const double free_fraction =
      pool.capacity_bytes() == 0
          ? 1.0
          : static_cast<double>(node_.donatable_free_bytes()) /
                static_cast<double>(pool.capacity_bytes());
  if (remote_puts_window_ >= cfg.remote_rate_threshold &&
      free_fraction < cfg.low_free_watermark && rdms_.active_drains() == 0) {
    if (auto slab = pool.least_loaded_slab()) {
      ++metrics_.counter("eviction.slab_drains");
      const SimTime drain_started = node_.simulator().now();
      rdms_.drain_slab(*slab, [this, drain_started](const Status& s) {
        metrics_.histogram("eviction.drain_ns")
            .record(static_cast<std::uint64_t>(node_.simulator().now() -
                                               drain_started));
        if (!s.ok()) ++metrics_.counter("eviction.drain_failed");
      });
    }
  }

  // Policy 2: a server hammering disaggregated memory should get more
  // resident DRAM (ballooning) by shrinking its donation.
  for (const auto& [server, requests] : dm_requests_window_) {
    if (requests < cfg.remote_rate_threshold) continue;
    ++metrics_.counter("eviction.balloon_advice");
    if (cfg.auto_balloon) {
      if (auto* vs = node_.find_server(server)) {
        const double next =
            std::max(0.0, vs->donation_fraction() - cfg.balloon_step);
        if (node_.set_server_donation(server, next).ok())
          ++metrics_.counter("eviction.balloon_applied");
      }
    }
  }

  dm_requests_window_.clear();
  remote_puts_window_ = 0;
}

// ---- disk extents -----------------------------------------------------------

std::uint32_t NodeService::disk_class(std::uint32_t size) noexcept {
  std::uint32_t cls = 512;
  while (cls < size) cls <<= 1;
  return cls;
}

StatusOr<std::uint64_t> NodeService::alloc_extent(DiskExtents& extents,
                                                  std::uint64_t capacity,
                                                  std::uint32_t size) {
  const std::uint32_t cls = disk_class(size);
  auto& free_list = extents.free_by_class[cls];
  if (!free_list.empty()) {
    const std::uint64_t offset = free_list.back();
    free_list.pop_back();
    return offset;
  }
  if (extents.cursor + cls > capacity)
    return ResourceExhaustedError("device full");
  const std::uint64_t offset = extents.cursor;
  extents.cursor += cls;
  return offset;
}

StatusOr<std::uint64_t> NodeService::alloc_disk(std::uint32_t size) {
  return alloc_extent(disk_extents_, node_.disk().capacity(), size);
}

void NodeService::free_disk(std::uint64_t offset, std::uint32_t size) {
  disk_extents_.free_by_class[disk_class(size)].push_back(offset);
}

StatusOr<std::uint64_t> NodeService::alloc_nvm(std::uint32_t size) {
  if (node_.nvm() == nullptr)
    return FailedPreconditionError("no NVM tier on this node");
  return alloc_extent(nvm_extents_, node_.nvm()->capacity(), size);
}

void NodeService::free_nvm(std::uint64_t offset, std::uint32_t size) {
  nvm_extents_.free_by_class[disk_class(size)].push_back(offset);
}

}  // namespace dm::core
