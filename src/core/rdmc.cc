#include "core/rdmc.h"

#include <algorithm>

#include "common/status.h"
#include "common/units.h"
#include "mem/memory_map.h"
#include "net/wire.h"
#include "sim/span_sink.h"

namespace dm::core {

using cluster::kRpcAllocBlock;
using cluster::kRpcFreeBlock;

namespace {

// Deadline of each block alloc/free RPC.
constexpr SimTime kBlockCallTimeout = 5 * kMilli;

}  // namespace

Rdmc::Rdmc(cluster::Node& node, Config config)
    : node_(node), config_(config),
      policy_(cluster::make_placement_policy(config.placement)) {}

void Rdmc::put(cluster::ServerId server, mem::EntryId entry,
               std::vector<ShardPayload> shards, std::size_t min_needed,
               PutCallback done, std::span<const net::NodeId> exclude,
               net::TraceId trace) {
  if (!candidates_) {
    done(FailedPreconditionError("no candidates provider bound"));
    return;
  }
  if (shards.empty()) {
    done(InvalidArgumentError("put: empty shard set"));
    return;
  }
  if (min_needed == 0 || min_needed > shards.size())
    min_needed = shards.size();
  if (trace == net::kNoTrace) trace = node_.next_trace_id();
  // End-to-end transaction latency (placement + alloc RPCs + write fan-out),
  // success and rollback alike.
  const SimTime started = node_.simulator().now();
  done = [this, started, inner = std::move(done)](
             StatusOr<std::vector<mem::RemoteReplica>> result) {
    node_.recv_pool().metrics().histogram("rdmc.put_ns")
        .record(static_cast<std::uint64_t>(node_.simulator().now() - started));
    inner(std::move(result));
  };
  auto candidates = candidates_();
  std::erase_if(candidates, [&](const cluster::CandidateNode& c) {
    if (c.node == node_.id()) return true;
    return std::find(exclude.begin(), exclude.end(), c.node) != exclude.end();
  });
  const std::size_t shard_bytes = shards.front().bytes.size();
  auto targets = policy_->pick_recorded(candidates, shards.size(),
                                        shard_bytes, node_.rng(),
                                        &node_.recv_pool().metrics());
  // Not enough candidates for every shard: retry the placement with
  // progressively fewer shards, shedding from the back (parity last) down
  // to the degraded floor.
  std::size_t want = shards.size();
  while (!targets.ok() && want > min_needed) {
    --want;
    targets = policy_->pick_recorded(candidates, want, shard_bytes,
                                     node_.rng(),
                                     &node_.recv_pool().metrics());
  }
  if (!targets.ok()) {
    ++node_.recv_pool().metrics().counter("rdmc.put_no_candidates");
    done(targets.status());
    return;
  }
  if (targets->size() < shards.size())
    ++node_.recv_pool().metrics().counter("rdmc.put_short_placement");

  // Shared transaction state across the async alloc + write fan-out.
  struct ShardTx {
    std::vector<ShardPayload> shards;
    std::vector<mem::RemoteReplica> replicas;
    std::size_t pending = 0;
    std::size_t min_needed = 0;
    bool failed = false;
    Status first_error;
    PutCallback done;
  };
  auto tx = std::make_shared<ShardTx>();
  tx->shards = std::move(shards);
  tx->pending = targets->size();
  tx->min_needed = min_needed;
  tx->done = std::move(done);

  auto finish_allocs = [this, tx, trace]() {
    if (tx->failed && tx->replicas.size() < tx->min_needed) {
      // Roll back whatever was reserved; the caller's map is untouched.
      free_replicas(std::move(tx->replicas), {}, trace);
      tx->done(tx->first_error);
      return;
    }
    if (tx->failed) {
      ++node_.recv_pool().metrics().counter("rdmc.put_degraded_alloc");
      // Shed parity, not data: every shard of one put has the same size,
      // so the landed blocks take the put's lowest shard ids, in the order
      // of the ids they drew (a block below the first failure keeps its
      // own). Nothing has been written yet.
      std::vector<std::uint32_t> drawn;
      std::vector<std::uint32_t> ids;
      for (const auto& replica : tx->replicas) drawn.push_back(replica.shard);
      for (const auto& s : tx->shards) ids.push_back(s.shard);
      std::ranges::sort(drawn);
      std::ranges::sort(ids);
      for (auto& replica : tx->replicas) {
        const auto rank =
            std::ranges::lower_bound(drawn, replica.shard) - drawn.begin();
        replica.shard = ids[static_cast<std::size_t>(rank)];
      }
    }
    // Phase 2: one-sided writes to every reserved block. A failed write
    // drops that shard (its block is freed); the put still succeeds if
    // enough writes landed.
    tx->failed = false;
    tx->first_error = Status::Ok();
    tx->pending = tx->replicas.size();
    auto written = std::make_shared<std::vector<mem::RemoteReplica>>();
    auto lost = std::make_shared<std::vector<mem::RemoteReplica>>();
    auto settle_writes = [this, tx, written, lost, trace]() {
      if (written->size() >= tx->min_needed) {
        if (!lost->empty()) {
          ++node_.recv_pool().metrics().counter("rdmc.put_degraded_write");
          free_replicas(std::move(*lost), {}, trace);
        }
        tx->done(std::move(*written));
      } else {
        free_replicas(std::move(tx->replicas), {}, trace);
        tx->done(tx->first_error.ok()
                     ? UnavailableError("shard writes failed")
                     : tx->first_error);
      }
    };
    for (const auto& replica : tx->replicas) {
      const ShardPayload* payload = nullptr;
      for (const auto& s : tx->shards)
        if (s.shard == replica.shard) payload = &s;
      auto qp = node_.connections().ensure_data_channel(node_.id(),
                                                        replica.node);
      Status posted =
          !qp.ok() ? qp.status()
                   : (*qp)->post_write(
                         replica.rkey, replica.offset, payload->bytes,
                         [tx, replica, written, lost,
                          settle_writes](const net::Completion& c) {
                           if (c.status.ok()) {
                             written->push_back(replica);
                           } else {
                             lost->push_back(replica);
                             if (tx->first_error.ok())
                               tx->first_error = c.status;
                           }
                           if (--tx->pending == 0) settle_writes();
                         },
                         trace);
      if (!posted.ok()) {
        lost->push_back(replica);
        if (tx->first_error.ok()) tx->first_error = posted;
        if (--tx->pending == 0) settle_writes();
      }
    }
  };

  // Phase 1: reserve a block for shard i on target i.
  for (std::size_t i = 0; i < targets->size(); ++i) {
    const net::NodeId target = (*targets)[i];
    const std::uint32_t shard_id = tx->shards[i].shard;
    const std::size_t size = tx->shards[i].bytes.size();
    Status channel = node_.connections().ensure_control_channel(node_.id(),
                                                                target);
    if (!channel.ok()) {
      if (!tx->failed) {
        tx->failed = true;
        tx->first_error = channel;
      }
      if (--tx->pending == 0) finish_allocs();
      continue;
    }
    net::WireWriter w;
    w.put_u32(node_.id());
    w.put_u32(server);
    w.put_u64(entry);
    w.put_u32(static_cast<std::uint32_t>(size));
    node_.rpc().call(
        target, kRpcAllocBlock, std::move(w).take(), kBlockCallTimeout,
        [tx, target, shard_id,
         finish_allocs](StatusOr<std::vector<std::byte>> resp) {
          if (resp.ok()) {
            net::WireReader r(*resp);
            mem::RemoteReplica replica;
            replica.node = target;
            replica.slab = r.u32();
            replica.rkey = r.u64();
            replica.offset = r.u64();
            replica.block_size = r.u32();
            replica.shard = shard_id;
            if (r.ok()) {
              tx->replicas.push_back(replica);
            } else if (!tx->failed) {
              tx->failed = true;
              tx->first_error = r.status();
            }
          } else if (!tx->failed) {
            tx->failed = true;
            tx->first_error = resp.status();
          }
          if (--tx->pending == 0) finish_allocs();
        },
        trace);
  }
  ++node_.recv_pool().metrics().counter("rdmc.puts");
}

void Rdmc::read(const std::vector<mem::RemoteReplica>& replicas,
                std::uint64_t range_offset, std::span<std::byte> out,
                ReadCallback done, net::TraceId trace) {
  if (replicas.empty()) {
    done(DataLossError("entry has no remote replicas"));
    return;
  }
  if (trace == net::kNoTrace) trace = node_.next_trace_id();
  auto tx = std::make_shared<ReadTx>();
  tx->replicas = replicas;
  tx->range_offset = range_offset;
  tx->out = out;
  tx->trace = trace;
  // Whole-read latency including any failover hops.
  const SimTime started = node_.simulator().now();
  tx->done = [this, started, inner = std::move(done)](const Status& s) {
    node_.recv_pool().metrics().histogram("rdmc.read_ns")
        .record(static_cast<std::uint64_t>(node_.simulator().now() - started));
    inner(s);
  };
  read_from(std::move(tx), 0);
}

void Rdmc::read_from(std::shared_ptr<ReadTx> tx, std::size_t index) {
  const mem::RemoteReplica& replica = tx->replicas[index];
  auto qp = node_.connections().ensure_data_channel(node_.id(), replica.node);
  const Status posted =
      !qp.ok() ? qp.status()
               : (*qp)->post_read(
                     replica.rkey, replica.offset + tx->range_offset, tx->out,
                     [this, tx, index](const net::Completion& c) {
                       if (c.status.ok()) {
                         tx->done(Status::Ok());
                       } else {
                         fail_over(tx, index);
                       }
                     },
                     tx->trace);
  if (!posted.ok()) fail_over(std::move(tx), index);
}

void Rdmc::fail_over(std::shared_ptr<ReadTx> tx, std::size_t index) {
  if (index + 1 == tx->replicas.size()) {
    ++node_.recv_pool().metrics().counter("rdmc.read_all_replicas_failed");
    tx->done(DataLossError("all replicas unreachable"));
    return;
  }
  ++node_.recv_pool().metrics().counter("rdmc.read_failovers");
  // A failed READ shows as a span, but a copy skipped with no verb posted
  // (host crashed or unreachable) does not; the event marks every hop.
  sim::SpanSink* spans = node_.fabric().span_sink();
  if (spans != nullptr && tx->trace != net::kNoTrace) {
    spans->event(tx->trace, node_.id(), "rdmc.read_failover",
                 "skip node" + std::to_string(tx->replicas[index].node) +
                     ", try node" +
                     std::to_string(tx->replicas[index + 1].node));
  }
  read_from(std::move(tx), index + 1);
}

void Rdmc::free_replicas(std::vector<mem::RemoteReplica> replicas,
                         DoneCallback done, net::TraceId trace) {
  if (replicas.empty()) {
    if (done) done(Status::Ok());
    return;
  }
  struct FreeState {
    std::size_t pending;
    Status first_error;
    DoneCallback done;
  };
  auto state = std::make_shared<FreeState>();
  state->pending = replicas.size();
  state->done = std::move(done);
  for (const auto& replica : replicas) {
    net::WireWriter w;
    w.put_u64(replica.rkey);
    w.put_u64(replica.offset);
    const net::NodeId host = replica.node;
    node_.rpc().call(
        host, kRpcFreeBlock, std::move(w).take(), kBlockCallTimeout,
        [this, state, host](StatusOr<std::vector<std::byte>> resp) {
          // A block on a crashed host died with its DRAM, and the host's
          // recovery drops every block it hosted: the free is done.
          if (!resp.ok() && !node_.fabric().node_up(host)) {
            ++node_.recv_pool().metrics().counter("rdmc.frees_on_dead_host");
          } else if (!resp.ok() && state->first_error.ok()) {
            state->first_error = resp.status();
          }
          if (--state->pending == 0 && state->done)
            state->done(state->first_error);
        },
        trace);
  }
}

}  // namespace dm::core
