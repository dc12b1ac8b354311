#include "core/rdmc.h"

#include <algorithm>

#include "common/status.h"
#include "common/units.h"
#include "mem/memory_map.h"
#include "net/wire.h"
#include "sim/trace.h"

namespace dm::core {

using cluster::kRpcAllocBlock;
using cluster::kRpcFreeBlock;

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
    if (tx->failed)
      ++node_.recv_pool().metrics().counter("rdmc.put_degraded_alloc");
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
        target, kRpcAllocBlock, std::move(w).take(), config_.rpc_timeout,
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
  // Whole-read latency including any failover hops.
  const SimTime started = node_.simulator().now();
  done = [this, started, inner = std::move(done)](const Status& s) {
    node_.recv_pool().metrics().histogram("rdmc.read_ns")
        .record(static_cast<std::uint64_t>(node_.simulator().now() - started));
    inner(s);
  };
  auto ordered = std::make_shared<std::vector<mem::RemoteReplica>>(replicas);
  read_from(std::move(ordered), 0, range_offset, out, std::move(done), trace);
}

void Rdmc::read_from(
    std::shared_ptr<std::vector<mem::RemoteReplica>> replicas,
    std::size_t index, std::uint64_t range_offset, std::span<std::byte> out,
    ReadCallback done, net::TraceId trace) {
  if (index >= replicas->size()) {
    ++node_.recv_pool().metrics().counter("rdmc.read_all_replicas_failed");
    done(DataLossError("all replicas unreachable"));
    return;
  }
  const auto& replica = (*replicas)[index];
  auto qp = node_.connections().ensure_data_channel(node_.id(), replica.node);
  if (!qp.ok()) {
    // No channel to this replica's host (crashed or unreachable): record
    // the skipped hop so the causal chain shows the failover, then try
    // the next replica.
    if (sim::Tracer* tracer = node_.fabric().tracer())
      tracer->record(node_.simulator().now(), "rdmc.read_failover",
                     "node" + std::to_string(node_.id()) +
                         " skipping dead replica on node" +
                         std::to_string(replica.node) + " " +
                         net::format_trace_id(trace));
    read_from(std::move(replicas), index + 1, range_offset, out,
              std::move(done), trace);
    return;
  }
  Status posted = (*qp)->post_read(
      replica.rkey, replica.offset + range_offset, out,
      [this, replicas, index, range_offset, out, trace,
       done = std::move(done)](const net::Completion& c) mutable {
        if (c.status.ok()) {
          done(Status::Ok());
          return;
        }
        ++node_.recv_pool().metrics().counter("rdmc.read_failovers");
        read_from(std::move(replicas), index + 1, range_offset, out,
                  std::move(done), trace);
      },
      trace);
  if (!posted.ok())
    read_from(std::move(replicas), index + 1, range_offset, out,
              std::move(done), trace);
}

void Rdmc::read_twosided(const std::vector<mem::RemoteReplica>& replicas,
                         std::uint64_t range_offset, std::span<std::byte> out,
                         ReadCallback done, net::TraceId trace) {
  if (replicas.empty()) {
    done(DataLossError("entry has no remote replicas"));
    return;
  }
  if (trace == net::kNoTrace) trace = node_.next_trace_id();
  ++node_.recv_pool().metrics().counter("rdmc.reads_twosided");
  const SimTime started = node_.simulator().now();
  done = [this, started, inner = std::move(done)](const Status& s) {
    node_.recv_pool().metrics().histogram("rdmc.read_ns")
        .record(static_cast<std::uint64_t>(node_.simulator().now() - started));
    inner(s);
  };
  auto ordered = std::make_shared<std::vector<mem::RemoteReplica>>(replicas);
  read_twosided_from(std::move(ordered), 0, range_offset, out,
                     std::move(done), trace);
}

void Rdmc::read_twosided_from(
    std::shared_ptr<std::vector<mem::RemoteReplica>> replicas,
    std::size_t index, std::uint64_t range_offset, std::span<std::byte> out,
    ReadCallback done, net::TraceId trace) {
  if (index >= replicas->size()) {
    ++node_.recv_pool().metrics().counter("rdmc.read_all_replicas_failed");
    done(DataLossError("all replicas unreachable"));
    return;
  }
  // The RDMS read handler serves a prefix of the hosted block, so ask for
  // range_offset + size bytes and keep the tail.
  const auto& replica = (*replicas)[index];
  net::WireWriter w;
  w.put_u64(replica.rkey);
  w.put_u64(replica.offset);
  w.put_u32(static_cast<std::uint32_t>(range_offset + out.size()));
  node_.rpc().call(
      replica.node, cluster::kRpcReadBlock, std::move(w).take(),
      config_.rpc_timeout,
      [this, replicas, index, range_offset, out, trace,
       done = std::move(done)](StatusOr<std::vector<std::byte>> resp) mutable {
        if (resp.ok()) {
          net::WireReader r(*resp);
          const auto bytes = r.bytes();
          if (r.ok() && bytes.size() >= range_offset + out.size()) {
            std::copy_n(bytes.begin() + static_cast<std::ptrdiff_t>(
                                            range_offset),
                        out.size(), out.begin());
            done(Status::Ok());
            return;
          }
        }
        ++node_.recv_pool().metrics().counter("rdmc.read_failovers");
        read_twosided_from(std::move(replicas), index + 1, range_offset, out,
                           std::move(done), trace);
      },
      trace);
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
        host, kRpcFreeBlock, std::move(w).take(), config_.rpc_timeout,
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
