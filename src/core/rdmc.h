// Remote Disaggregated Memory Client (paper Fig. 1–2, §IV.B, §IV.D–E).
//
// The RDMC is the per-node service through which local data leaves for
// remote memory. A replicated put is the §IV.D atomic transaction:
//
//   1. pick `replication` distinct target nodes via the configured
//      placement policy (§IV.E) over the current candidate set,
//   2. reserve a block on each target (control-plane RPC to its RDMS),
//   3. one-sided RDMA WRITE the payload into every reserved block,
//   4. succeed only if *all* replicas acked — otherwise free whatever was
//      reserved and report failure, leaving the caller's memory map
//      untouched (all-or-nothing).
//
// Reads are one-sided RDMA READs that fail over across replicas, so a dead
// replica host costs one detection timeout, not data loss.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "cluster/node.h"
#include "cluster/placement.h"
#include "cluster/protocol.h"
#include "common/status.h"
#include "common/units.h"
#include "mem/memory_map.h"

namespace dm::core {

class Rdmc {
 public:
  struct Config {
    std::size_t replication = 3;
    // Degraded-mode floor: a put that cannot reach the full replication
    // factor (dead targets, exhausted candidates) still succeeds once at
    // least this many replicas are written, reporting the short replica
    // set; the repair service tops it up later. 0 = strict all-or-nothing
    // (the historical §IV.D transaction).
    std::size_t min_replicas = 0;
    // Erasure coding (Hydra-style, §IV.D alternative): when ec_k > 0 the
    // LDMS stores each remote entry as ec_k data + ec_r parity shards,
    // one per node, via put_shards() instead of whole-copy replication —
    // ~(ec_k+ec_r)/ec_k memory overhead instead of replication's factor.
    // The entry survives any ec_r shard losses; degraded reads
    // reconstruct from the surviving >= ec_k shards.
    std::size_t ec_k = 0;
    std::size_t ec_r = 0;
    // Degraded floor for shard placement, the EC analogue of
    // min_replicas: a put that cannot stripe all ec_k+ec_r shards still
    // succeeds once this many landed (clamped to >= ec_k, since fewer
    // could never be read back). 0 = all shards required.
    std::size_t min_shards = 0;
    cluster::PlacementPolicyKind placement =
        cluster::PlacementPolicyKind::kPowerOfTwoChoices;
    SimTime rpc_timeout = 5 * kMilli;
  };

  using PutCallback =
      std::function<void(StatusOr<std::vector<mem::RemoteReplica>>)>;
  using ReadCallback = std::function<void(const Status&)>;
  using DoneCallback = std::function<void(const Status&)>;

  Rdmc(cluster::Node& node, Config config);

  // Candidate remote hosts (typically: alive group members, excluding this
  // node, with their advertised free bytes). Bound by NodeService.
  void set_candidates_provider(
      std::function<std::vector<cluster::CandidateNode>()> provider) {
    candidates_ = std::move(provider);
  }

  const Config& config() const noexcept { return config_; }

  // Replicated put; `exclude` removes nodes from candidacy (used when
  // migrating an entry *away* from a node). `count` overrides the number of
  // replicas written (0 = the configured replication factor) — repair paths
  // top up a degraded entry with exactly one fresh replica. `trace` joins
  // the alloc RPCs and data-plane writes to the caller's causal chain
  // (kNoTrace = start a fresh chain at this node).
  void put(cluster::ServerId server, mem::EntryId entry,
           std::span<const std::byte> data, PutCallback done,
           std::span<const net::NodeId> exclude = {}, std::size_t count = 0,
           net::TraceId trace = net::kNoTrace);

  // One erasure-coded shard bound for its own node.
  struct ShardPayload {
    std::uint32_t shard = 0;  // index within the (k, r) stripe
    std::vector<std::byte> bytes;
  };

  // Erasure-coded put: stripes the given shards across distinct nodes (one
  // shard per node, same two-phase reserve/write transaction as put()).
  // Succeeds once >= min_needed shards are written — the survivors, with
  // RemoteReplica::shard identifying each — and rolls everything back
  // below that. When placement comes up short, shards are dropped from the
  // *back* of the vector down to min_needed, so callers order them
  // data-first/parity-last to shed parity before data. Repair paths call
  // this with just the missing shards (min_needed = 1) to top up a
  // degraded stripe.
  void put_shards(cluster::ServerId server, mem::EntryId entry,
                  std::vector<ShardPayload> shards, std::size_t min_needed,
                  PutCallback done, std::span<const net::NodeId> exclude = {},
                  net::TraceId trace = net::kNoTrace);

  // Reads out.size() bytes at `range_offset` within the entry, failing over
  // across replicas in order.
  void read(const std::vector<mem::RemoteReplica>& replicas,
            std::uint64_t range_offset, std::span<std::byte> out,
            ReadCallback done, net::TraceId trace = net::kNoTrace);

  // Two-sided fallback read: fetches the range over the control channel
  // (kRpcReadBlock, served by the replica host's RDMS) instead of a
  // one-sided RDMA READ. For callers that cannot establish a data channel
  // to the replica host — connection budget exhausted, or a transport
  // without one-sided verbs. Same replica failover order as read().
  void read_twosided(const std::vector<mem::RemoteReplica>& replicas,
                     std::uint64_t range_offset, std::span<std::byte> out,
                     ReadCallback done, net::TraceId trace = net::kNoTrace);

  // Frees all replica blocks; done fires after every free settles. A free
  // that fails while its host is down counts as done (the block died with
  // the host, whose recovery drops all it hosted).
  void free_replicas(std::vector<mem::RemoteReplica> replicas,
                     DoneCallback done = {},
                     net::TraceId trace = net::kNoTrace);

 private:
  void read_from(std::shared_ptr<std::vector<mem::RemoteReplica>> replicas,
                 std::size_t index, std::uint64_t range_offset,
                 std::span<std::byte> out, ReadCallback done,
                 net::TraceId trace);
  void read_twosided_from(
      std::shared_ptr<std::vector<mem::RemoteReplica>> replicas,
      std::size_t index, std::uint64_t range_offset, std::span<std::byte> out,
      ReadCallback done, net::TraceId trace);

  cluster::Node& node_;
  Config config_;
  std::unique_ptr<cluster::PlacementPolicy> policy_;
  std::function<std::vector<cluster::CandidateNode>()> candidates_;
};

}  // namespace dm::core
