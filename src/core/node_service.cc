#include "core/node_service.h"

#include <algorithm>
#include <cassert>

#include "common/checksum.h"
#include "common/status.h"
#include "common/units.h"
#include "core/ldmc.h"
#include "core/rdmc.h"
#include "ec/rs_codec.h"
#include "mem/memory_map.h"
#include "net/wire.h"
#include "sim/latency_model.h"
#include "storage/block_device.h"

namespace dm::core {

using cluster::kRpcEvictNotice;
using cluster::kRpcMigrateRegion;
using cluster::kRpcQueryCandidates;

namespace {

// Shared-pool LRU entries a put may spill to remote memory to make room
// before it falls through to the tiers below (§IV.B).
constexpr std::size_t kMaxSpillPerPut = 4;
// Period of the leader candidate-set refresh (§IV.E).
constexpr SimTime kCandidateRefreshPeriod = 500 * kMilli;
// Window over which the node's disaggregated-memory pressure (remote puts
// + non-shm gets) is counted. The last full window's count is what
// heartbeats advertise and load-aware placement discounts by.
constexpr SimTime kPressureWindow = 1 * kSecond;
// The eviction monitor (§IV.F) evaluates its two policies once a period.
constexpr SimTime kEvictionPeriod = 500 * kMilli;
// Policy 1: drain a receive-pool slab when the pool's free fraction drops
// below this while local servers are going remote.
constexpr double kLowFreeWatermark = 0.15;
// Requests per period that make a server (policy 2) or the node's remote
// puts (policy 1) count as hot.
constexpr std::uint64_t kRemoteRateThreshold = 32;
// Virtual-time CPU cost of the Reed–Solomon codec when rdmc.ec_k > 1
// (k = 1 copies cost nothing). The codec itself is pure computation, so
// its cost is modeled as latency: encode on every remote put, decode on
// degraded reads and shard reconstruction. The figures approximate a
// table-driven GF(2^8) software codec on one core.
constexpr sim::CostModel kEcEncodeCost{2000, 4.0};
constexpr sim::CostModel kEcDecodeCost{3000, 3.0};

// Moves a relocated entry onto the stripe store_stripe wrote for it; the
// entry's own fields (sizes, checksum, generation) stay.
void adopt_stripe(mem::EntryLocation& loc, mem::EntryLocation stripe) {
  loc.tier = mem::Tier::kRemote;
  loc.disk_offset = 0;
  loc.degraded = stripe.degraded;
  loc.ec_k = stripe.ec_k;
  loc.ec_r = stripe.ec_r;
  loc.shard_checksums = std::move(stripe.shard_checksums);
  loc.replicas = std::move(stripe.replicas);
}

}  // namespace

NodeService::NodeService(cluster::Node& node, Config config)
    : node_(node), config_(std::move(config)), rdms_(node),
      rdmc_(node, config_.rdmc),
      // A (k, r) the codec rejects is a configuration error (asserted).
      codec_(*ec::RsCodec::make(config_.rdmc.ec_k, config_.rdmc.ec_r)),
      eviction_monitor_(node.simulator(), kEvictionPeriod,
                        sim::PeriodicTask::First::kAfterPeriod,
                        [this]() { eviction_tick(); }),
      candidate_refresh_(node.simulator(), kCandidateRefreshPeriod,
                         sim::PeriodicTask::First::kAtStart,
                         [this](sim::PeriodicTask::Done done) {
                           refresh_candidates(std::move(done));
                         }) {
  // §VI convergence: a local NVM tier, when present, sits between remote
  // memory and the rotational swap device.
  if (storage::BlockDevice* nvm = node_.nvm(); nvm != nullptr)
    devices_.push_back({nvm, storage::ExtentAllocator(nvm->capacity()),
                        mem::Tier::kNvm, "nvm.read", "nvm.write"});
  devices_.push_back({&node_.disk(),
                      storage::ExtentAllocator(node_.disk().capacity()),
                      mem::Tier::kDisk, "disk.read", "disk.write"});
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
    // One slot per tier, and the last for a put no tier accepted.
    Histogram*& put_ns =
        put_ns_[result.ok() ? static_cast<std::size_t>(result->tier)
                            : put_ns_.size() - 1];
    if (put_ns == nullptr) {
      const char* tier =
          result.ok() ? mem::tier_name(result->tier) : "failed";
      put_ns = &metrics_.histogram(std::string("ldms.put_ns.") + tier);
    }
    put_ns->record(
        static_cast<std::uint64_t>(node_.simulator().now() - started));
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
                               allow_remote && spill_budget > 0;
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
        self->put_below_shm(server, entry, payload, allow_remote, allow_disk,
                            std::move(done), trace);
      }
    };
    auto attempt = std::make_shared<ShmAttempt>();
    attempt->self = this;
    attempt->server = server;
    attempt->entry = entry;
    attempt->payload.assign(data.begin(), data.end());
    attempt->spill_budget = kMaxSpillPerPut;
    attempt->allow_remote = allow_remote;
    attempt->allow_disk = allow_disk;
    attempt->trace = trace;
    attempt->done = std::move(done);
    attempt->run();
    return;
  }
  put_below_shm(server, entry, data, allow_remote, allow_disk,
                std::move(done), trace);
}

void NodeService::put_below_shm(cluster::ServerId server, mem::EntryId entry,
                                std::span<const std::byte> data,
                                bool allow_remote, bool allow_disk,
                                PutCallback done, net::TraceId trace) {
  if (allow_remote) {
    put_remote(server, entry, data, allow_disk, std::move(done), trace);
  } else if (allow_disk) {
    put_device(data, std::move(done), trace);
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
      [this, allow_disk, payload, trace,
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
          put_device(*payload,
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
  // Copying k = 1 shards costs nothing; a real encode is charged before
  // the shard fan-out starts.
  if (k == 1) {
    fan_out();
    return;
  }
  ++metrics_.counter("ec.encodes");
  charge_codec(/*encode=*/true, size, trace, std::move(fan_out));
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

void NodeService::degraded_read(const mem::EntryLocation& location,
                                std::uint64_t offset, std::span<std::byte> out,
                                DoneCallback done, net::TraceId trace) {
  // Decode from whatever >= k shards arrive intact.
  gather_shards(
      location, trace,
      [this, stored = location.stored_size, offset, out, trace,
       done = std::move(done)](std::vector<std::vector<std::byte>> shards) {
        auto data = codec_.decode(shards, stored);
        if (!data.ok()) {
          done(data.status());
          return;
        }
        ++metrics_.counter("ec.degraded_reads");
        std::copy_n(data->data() + offset, out.size(), out.data());
        charge_codec(/*encode=*/false, stored, trace,
                     [done]() { done(Status::Ok()); });
      });
}

void NodeService::put_device(std::span<const std::byte> data,
                             PutCallback done, net::TraceId trace) {
  note_pressure();
  const auto size = static_cast<std::uint32_t>(data.size());
  Device* dev = &devices_.front();
  auto offset = dev->extents.allocate(size);
  if (!offset.ok() && dev->tier == mem::Tier::kNvm) {
    // NVM full: fall through to the disk below it.
    ++metrics_.counter("ldms.nvm_overflow_to_disk");
    dev = &devices_.back();
    offset = dev->extents.allocate(size);
  }
  if (!offset.ok()) {
    done(offset.status());
    return;
  }
  done = sim::span_completion(spans_, trace, node_.id(), "disk",
                              dev->write_span, std::move(done));
  const std::uint64_t at = *offset;
  // Shared so the error path below can still invoke it if the device
  // rejects the I/O at post time (the lambda then never runs).
  auto done_ptr = std::make_shared<PutCallback>(std::move(done));
  Status posted = dev->block->write(
      at, data, [this, dev, at, size, done_ptr](const Status& s, SimTime) {
        if (!s.ok()) {
          dev->extents.release(at, size);
          (*done_ptr)(s);
          return;
        }
        mem::EntryLocation loc;
        loc.tier = dev->tier;
        loc.stored_size = size;
        loc.disk_offset = at;
        ++metrics_.counter(dev->tier == mem::Tier::kNvm ? "ldms.put_nvm"
                                                        : "ldms.put_disk");
        (*done_ptr)(loc);
      });
  if (!posted.ok()) {
    dev->extents.release(at, size);
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
      [this, owner, entry, bytes, generation = old_loc->generation,
       done = std::move(done)](StatusOr<mem::EntryLocation> stripe) mutable {
        if (!stripe.ok()) {
          ++metrics_.counter("ldms.spill_failed");
          done(false);
          return;
        }
        // A second spill of the same entry may have committed first.
        const bool committed = commit_relocation(
            owner, entry, generation, stripe->replicas,
            [](const mem::EntryLocation& current) {
              return current.tier == mem::Tier::kSharedMemory;
            },
            [&stripe](mem::EntryLocation& current) {
              adopt_stripe(current, *std::move(stripe));
            });
        if (!committed) {
          ++metrics_.counter("ldms.spill_stale");
          // The space may already be free.
          done(!node_.shm().contains(owner, entry));
          return;
        }
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
    Histogram*& get_ns = get_ns_[static_cast<std::size_t>(tier)];
    if (get_ns == nullptr)
      get_ns = &metrics_.histogram(std::string("ldms.get_ns.") +
                                   mem::tier_name(tier));
    get_ns->record(
        static_cast<std::uint64_t>(node_.simulator().now() - started));
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
    case mem::Tier::kDisk:
      read_device(location, offset, out, std::move(done), trace);
      return;
  }
  done(InternalError("unknown tier"));
}

void NodeService::read_device(const mem::EntryLocation& location,
                              std::uint64_t offset, std::span<std::byte> out,
                              DoneCallback done, net::TraceId trace) {
  Device* dev = device(location.tier);
  if (dev == nullptr) {
    done(FailedPreconditionError("entry on absent NVM tier"));
    return;
  }
  done = sim::span_completion(spans_, trace, node_.id(), "disk",
                              dev->read_span, std::move(done));
  auto done_ptr = std::make_shared<DoneCallback>(std::move(done));
  Status posted = dev->block->read(
      location.disk_offset + offset, out,
      [done_ptr](const Status& s, SimTime) { (*done_ptr)(s); });
  if (!posted.ok()) {
    node_.simulator().schedule_after(
        0, [posted, done_ptr]() { (*done_ptr)(posted); });
  }
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
    case mem::Tier::kDisk:
      if (Device* dev = device(location.tier); dev != nullptr)
        dev->extents.release(location.disk_offset, location.stored_size);
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
      [this, server, entry, generation = loc->generation, bytes, old_replica,
       trace, migrate_started, total,
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
            [this, server, entry, generation, old_replica, migrate_started,
             total](
                StatusOr<std::vector<mem::RemoteReplica>> fresh) mutable {
              if (!fresh.ok()) {
                ++metrics_.counter("ldms.migrate_put_failed");
                return;
              }
              // The departing block is replaced only while it is still
              // listed: another migration of it (a second offload, or an
              // evict notice) may have committed first. Never drop that
              // migration's fresh block or free the departed one twice.
              const bool committed = commit_relocation(
                  server, entry, generation, *fresh,
                  [&old_replica](const mem::EntryLocation& current) {
                    return std::ranges::find(current.replicas, old_replica) !=
                           current.replicas.end();
                  },
                  [&](mem::EntryLocation& updated) {
                    std::erase(updated.replicas, old_replica);
                    updated.replicas.insert(updated.replicas.end(),
                                            fresh->begin(), fresh->end());
                    updated.degraded = updated.replicas.size() < total;
                  });
              if (!committed) {
                ++metrics_.counter("ldms.migrate_stale");
                return;
              }
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
    mem::MemoryMap& map = client_ptr->map();
    for (mem::EntryId entry : map.entries_with_replica_on(dead)) {
      // A stripe stays readable while >= k shards survive. Degrade the
      // committed set so reads stop touching the dead host, then let
      // repair_entry rebuild the lost shards onto fresh nodes.
      const auto keep = [&](const mem::RemoteReplica& r) {
        return r.node != dead && node_.fabric().node_up(r.node);
      };
      if (!prune_shards(map, entry, keep).ok()) continue;
      node_.simulator().schedule_after(0, [this, server_id = server, entry]() {
        repair_entry(server_id, entry, [](const Status&) {});
      });
    }
  }
}

void NodeService::invalidate_replicas_on(net::NodeId host) {
  for (auto& [server, client_ptr] : clients_) {
    mem::MemoryMap& map = client_ptr->map();
    for (mem::EntryId entry : map.entries_with_replica_on(host)) {
      // Below the ec_k floor the rebooted node held the last usable bytes:
      // genuine data loss.
      const auto keep = [host](const mem::RemoteReplica& r) {
        return r.node != host;
      };
      if (prune_shards(map, entry, keep).ok())
        ++metrics_.counter("ldms.replicas_invalidated");
    }
  }
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
    repair_stripe(server, entry, owner->map(), std::move(done), trace);
    return;
  }

  if ((loc->tier == mem::Tier::kDisk || loc->tier == mem::Tier::kNvm) &&
      loc->degraded) {
    // Disk-fallback entry: read the device copy, re-promote it to remote
    // memory as a full stripe, then release the device extent. Background
    // I/O, so the read skips get_entry's demand accounting.
    auto bytes = std::make_shared<std::vector<std::byte>>(loc->stored_size);
    read_device(
        *loc, 0, *bytes,
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
                // Promote only if the entry still sits in the device
                // extent the bytes were read from.
                const bool committed = commit_relocation(
                    server, entry, old.generation, stripe->replicas,
                    [&old](const mem::EntryLocation& current) {
                      return current.tier == old.tier &&
                             current.disk_offset == old.disk_offset;
                    },
                    [&stripe](mem::EntryLocation& current) {
                      adopt_stripe(current, *std::move(stripe));
                    });
                if (!committed) {
                  ++metrics_.counter("ldms.repair_stale");
                  done(Status::Ok());
                  return;
                }
                if (Device* dev = device(old.tier); dev != nullptr)
                  dev->extents.release(old.disk_offset, old.stored_size);
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
                                mem::MemoryMap& map, DoneCallback done,
                                net::TraceId trace) {
  auto base = prune_shards(map, entry, [this](const mem::RemoteReplica& r) {
    return node_.fabric().node_up(r.node);
  });
  if (!base.ok()) {
    done(base.status());
    return;
  }
  const std::size_t k = base->ec_k;
  const std::size_t total = k + base->ec_r;
  if (base->replicas.size() == total) {
    done(Status::Ok());
    return;
  }

  // Pull all surviving shards, reconstruct the lost ones, and stripe them
  // onto fresh nodes. Partial success is fine (min_needed = 1): every
  // landed shard strictly improves durability and the next scan retries.
  gather_shards(*base, trace, [this, server, entry, base = *base, k, total,
                               done = std::move(done), trace](
                                  std::vector<std::vector<std::byte>> shards) {
    Status rec = codec_.reconstruct(shards);
    if (rec.code() == StatusCode::kDataLoss)
      ++metrics_.counter("ldms.repair_read_failed");
    if (!rec.ok()) {
      done(rec);
      return;
    }
    std::vector<Rdmc::ShardPayload> missing;
    for (std::uint32_t i = 0; i < total; ++i) {
      const bool held =
          std::ranges::any_of(base.replicas, [i](const mem::RemoteReplica& r) {
            return r.shard == i;
          });
      if (!held) missing.push_back({i, std::move(shards[i])});
    }
    std::vector<net::NodeId> exclude;
    for (const auto& replica : base.replicas) exclude.push_back(replica.node);
    auto fan_out = [this, server, entry, generation = base.generation, k,
                    total, done, trace,
                    missing = std::move(missing),
                    exclude = std::move(exclude)]() mutable {
      rdmc_.put(
          server, entry, std::move(missing), /*min_needed=*/1,
          [this, server, entry, generation, k, total, done](
              StatusOr<std::vector<mem::RemoteReplica>> fresh) mutable {
            if (!fresh.ok()) {
              ++metrics_.counter("ldms.repair_put_failed");
              done(fresh.status());
              return;
            }
            // Merge by shard index against the *current* committed set (a
            // concurrent repair or migration may have added shards): the
            // surviving-shard count never decreases, duplicates are freed.
            std::size_t appended = 0;
            const bool committed = commit_relocation(
                server, entry, generation, *fresh,
                [k](const mem::EntryLocation& current) {
                  return current.tier == mem::Tier::kRemote &&
                         current.ec_k == k;
                },
                [&](mem::EntryLocation& updated) {
                  for (const auto& replica : *fresh) {
                    if (std::ranges::any_of(
                            updated.replicas,
                            [&](const mem::RemoteReplica& held) {
                              return held.shard == replica.shard;
                            })) {
                      rdmc_.free_replicas({replica});
                      continue;
                    }
                    updated.replicas.push_back(replica);
                    ++appended;
                  }
                  updated.degraded = updated.replicas.size() < total;
                });
            if (!committed) {
              ++metrics_.counter("ldms.repair_stale");
              done(Status::Ok());
              return;
            }
            if (k > 1) metrics_.counter("ec.shards_repaired") += appended;
            ++metrics_.counter("ldms.repaired_entries");
            done(Status::Ok());
          },
          exclude, trace);
    };
    // Copying k = 1 shards costs nothing; a real reconstruction is a
    // decode, charged before the fan-out.
    if (k == 1) {
      fan_out();
      return;
    }
    charge_codec(/*encode=*/false, base.stored_size, trace,
                 std::move(fan_out));
  });
}

// ---- the stripe rules -------------------------------------------------------

bool NodeService::commit_relocation(
    cluster::ServerId server, mem::EntryId entry, std::uint32_t generation,
    std::vector<mem::RemoteReplica>& fresh,
    const std::function<bool(const mem::EntryLocation&)>& holds,
    const std::function<void(mem::EntryLocation&)>& apply) {
  Ldmc* owner = client(server);
  auto current = owner != nullptr ? owner->map().lookup(entry)
                                  : NotFoundError("owner gone");
  if (!current.ok() || current->generation != generation ||
      !holds(*current)) {
    rdmc_.free_replicas(std::move(fresh));
    return false;
  }
  apply(*current);
  owner->map().commit(entry, *std::move(current));
  return true;
}

StatusOr<mem::EntryLocation> NodeService::prune_shards(
    mem::MemoryMap& map, mem::EntryId entry,
    const std::function<bool(const mem::RemoteReplica&)>& keep) {
  auto loc = map.lookup(entry);
  if (!loc.ok()) return loc;
  const std::size_t listed = loc->replicas.size();
  std::erase_if(loc->replicas,
                [&](const mem::RemoteReplica& r) { return !keep(r); });
  if (loc->replicas.size() < loc->ec_k) {
    ++data_loss_;
    ++metrics_.counter("ldms.repair_data_loss");
    return DataLossError("fewer than k shards survive");
  }
  const bool degraded = loc->replicas.size() <
                        static_cast<std::size_t>(loc->ec_k) + loc->ec_r;
  if (loc->replicas.size() != listed || degraded != loc->degraded) {
    loc->degraded = degraded;
    map.commit(entry, *loc);
  }
  return loc;
}

void NodeService::gather_shards(
    const mem::EntryLocation& loc, net::TraceId trace,
    std::function<void(std::vector<std::vector<std::byte>>)> done) {
  const std::size_t total = static_cast<std::size_t>(loc.ec_k) + loc.ec_r;
  const std::size_t shard_len =
      ec::RsCodec::shard_size(loc.stored_size, loc.ec_k);
  struct Gather {
    std::vector<std::vector<std::byte>> shards;
    std::vector<std::uint64_t> checksums;
    std::size_t pending = 0;
    std::function<void(std::vector<std::vector<std::byte>>)> done;
  };
  auto st = std::make_shared<Gather>();
  st->shards.assign(total, {});
  st->checksums = loc.shard_checksums;
  st->done = std::move(done);
  for (const auto& replica : loc.replicas)
    if (replica.shard < total) ++st->pending;
  if (st->pending == 0) {
    node_.simulator().schedule_after(
        0, [st]() { st->done(std::move(st->shards)); });
    return;
  }
  for (const auto& replica : loc.replicas) {
    if (replica.shard >= total) continue;
    st->shards[replica.shard].resize(shard_len);
    rdmc_.read(
        {replica}, 0, st->shards[replica.shard],
        [this, st, shard = replica.shard](const Status& s) {
          if (!s.ok()) st->shards[shard].clear();
          if (--st->pending != 0) return;
          for (std::size_t i = 0;
               i < st->checksums.size() && i < st->shards.size(); ++i) {
            std::vector<std::byte>& bytes = st->shards[i];
            if (!bytes.empty() && word_checksum(bytes) != st->checksums[i]) {
              bytes.clear();
              ++metrics_.counter("ec.corrupt_shards");
            }
          }
          st->done(std::move(st->shards));
        },
        trace);
  }
}

void NodeService::charge_codec(bool encode, std::uint32_t bytes,
                               net::TraceId trace,
                               std::function<void()> next) {
  const SimTime cost = (encode ? kEcEncodeCost : kEcDecodeCost).cost(bytes);
  metrics_.histogram(encode ? "ec.encode_ns" : "ec.decode_ns")
      .record(static_cast<std::uint64_t>(cost));
  node_.simulator().schedule_after(
      cost, sim::span_completion(spans_, trace, node_.id(), "ec",
                                 encode ? "ec.encode" : "ec.decode",
                                 std::move(next)));
}

// ---- pressure accounting (§I imbalance signal) -------------------------------

// Lazy window rotation: both the reader and the writer first roll the
// window forward to the one containing `now`, so the reported value is the
// count of the last *complete* window regardless of call order. A node
// that goes quiet for more than a window reports zero (stale demand must
// not repel placements forever).
void NodeService::roll_pressure_window() const {
  const SimTime now = node_.simulator().now();
  const SimTime elapsed = now - pressure_window_start_;
  if (elapsed < kPressureWindow) return;
  pressure_last_ = elapsed < 2 * kPressureWindow ? pressure_accum_ : 0;
  pressure_accum_ = 0;
  pressure_window_start_ = now - elapsed % kPressureWindow;
}

void NodeService::note_pressure() {
  roll_pressure_window();
  ++pressure_accum_;
}

std::uint64_t NodeService::pressure() const {
  roll_pressure_window();
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

void NodeService::start() {
  if (config_.eviction.enabled) eviction_monitor_.start();
  if (config_.leader_candidates) candidate_refresh_.start();
}

void NodeService::stop() noexcept {
  eviction_monitor_.stop();
  candidate_refresh_.stop();
}

void NodeService::refresh_candidates(sim::PeriodicTask::Done done) {
  const net::NodeId leader =
      node_.election() != nullptr ? node_.election()->leader()
                                  : net::kInvalidNode;
  if (leader == net::kInvalidNode || leader == node_.id()) {
    // We are (or have no) leader: use the local aggregate directly.
    candidate_cache_ = local_candidate_view(/*include_self=*/true);
    ++metrics_.counter("candidates.local_refreshes");
    done();
    return;
  }
  node_.rpc().call(
      leader, kRpcQueryCandidates, {}, 50 * kMilli,
      [this, done = std::move(done)](StatusOr<std::vector<std::byte>> resp) {
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
        done();
      });
}

// ---- eviction monitor (§IV.F policies 1 & 2) --------------------------------

void NodeService::eviction_tick() {
  auto& pool = node_.recv_pool();

  // Policy 1: local servers are overflowing to remote memory while this
  // node still donates DRAM to peers -> reclaim a receive-pool slab.
  const double free_fraction =
      pool.capacity_bytes() == 0
          ? 1.0
          : static_cast<double>(node_.donatable_free_bytes()) /
                static_cast<double>(pool.capacity_bytes());
  if (remote_puts_window_ >= kRemoteRateThreshold &&
      free_fraction < kLowFreeWatermark && rdms_.active_drains() == 0) {
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
  // resident DRAM (ballooning); the monitor advises it.
  for (const auto& [server, requests] : dm_requests_window_)
    if (requests >= kRemoteRateThreshold)
      ++metrics_.counter("eviction.balloon_advice");

  dm_requests_window_.clear();
  remote_puts_window_ = 0;
}

// ---- the device tier ---------------------------------------------------------

NodeService::Device* NodeService::device(mem::Tier tier) {
  for (Device& dev : devices_)
    if (dev.tier == tier) return &dev;
  return nullptr;
}

void NodeService::reserve_backup_ring() {
  if (backup_cursor_ != 0) return;
  Device& disk = devices_.back();
  const std::uint64_t ring = disk.block->capacity() / 2;
  // Extents already in the ring would be overwritten by backup writes.
  [[maybe_unused]] const Status reserved = disk.extents.reserve_top(ring);
  assert(reserved.ok() && "disk extents already reach the backup ring");
  backup_cursor_ = ring;
}

void NodeService::backup_pages(std::size_t pages, std::size_t page_bytes) {
  storage::BlockDevice& disk = *devices_.back().block;
  for (std::size_t i = 0; i < pages; ++i) {
    if (backup_cursor_ + page_bytes > disk.capacity())
      backup_cursor_ = disk.capacity() / 2;
    std::vector<std::byte> copy(page_bytes);
    (void)disk.write(backup_cursor_, copy, {});
    backup_cursor_ += page_bytes;
  }
}

}  // namespace dm::core
