// Remote Disaggregated Memory Client (paper Fig. 1–2, §IV.B, §IV.D–E).
//
// The RDMC is the per-node service through which local data leaves for
// remote memory. Every remote entry is a systematic Reed–Solomon stripe of
// ec_k data and ec_r parity shards, one shard per node (Hydra-style, §IV.D).
// Replication is the k = 1 corner of that space: every coding row is all
// ones, so each parity shard is a verbatim copy and RS(1, r) keeps r + 1
// copies. A put is the §IV.D atomic transaction:
//
//   1. pick one distinct target node per shard via the configured
//      placement policy (§IV.E) over the current candidate set,
//   2. reserve a block on each target (control-plane RPC to its RDMS),
//   3. one-sided RDMA WRITE each shard into its reserved block,
//   4. succeed only if enough shards acked — otherwise free whatever was
//      reserved and report failure, leaving the caller's memory map
//      untouched (all-or-nothing down to the degraded floor).
//
// Reads are one-sided RDMA READs that fail over across the blocks they are
// given, so a dead copy's host costs one detection timeout, not data loss.
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
    // Stripe shape: ec_k data + ec_r parity shards on ec_k + ec_r distinct
    // nodes, ~(ec_k+ec_r)/ec_k memory overhead. The entry survives any
    // ec_r shard losses; degraded reads reconstruct from >= ec_k
    // survivors. n-way replication is (1, n - 1); the default keeps 3
    // copies.
    std::size_t ec_k = 1;
    std::size_t ec_r = 2;
    // Degraded-mode floor: a put that cannot place all ec_k+ec_r shards
    // (dead targets, exhausted candidates) still succeeds once this many
    // landed (clamped to >= ec_k, since fewer could never be read back),
    // reporting the short stripe for the repair service to top up.
    // 0 = strict all-or-nothing (the historical §IV.D transaction).
    std::size_t min_shards = 0;
    cluster::PlacementPolicyKind placement =
        cluster::PlacementPolicyKind::kPowerOfTwoChoices;
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

  // One shard bound for its own node: index `shard` within the (k, r)
  // stripe (for k = 1, a copy id), with the bytes that block holds.
  struct ShardPayload {
    std::uint32_t shard = 0;
    std::vector<std::byte> bytes;
  };

  // Stripes the given shards across distinct nodes, one shard per node.
  // Succeeds once >= min_needed shards are written (0 = all) — the
  // survivors, with RemoteReplica::shard identifying each — and rolls
  // everything back below that. When placement comes up short, shards are
  // dropped from the *back* of the vector down to min_needed, so callers
  // order them data-first/parity-last to shed parity before data. A failed
  // reservation (say, on a host that crashed before membership noticed)
  // also costs parity before data: every shard of one put has the same
  // size, so the blocks that were reserved take the put's lowest shard ids
  // before anything is written. Only a write that fails after that drops
  // the shard it carried. `exclude` removes nodes from candidacy (migration
  // and repair place fresh shards away from every current host); repair
  // paths pass just the missing shards with min_needed = 1, so a short
  // repair restores the lowest missing ids. `trace` joins the alloc RPCs
  // and data-plane writes to the caller's causal chain (kNoTrace = start a
  // fresh chain at this node).
  void put(cluster::ServerId server, mem::EntryId entry,
           std::vector<ShardPayload> shards, std::size_t min_needed,
           PutCallback done, std::span<const net::NodeId> exclude = {},
           net::TraceId trace = net::kNoTrace);

  // Reads out.size() bytes at `range_offset` within a block, failing over
  // across `replicas` in order (every one must hold the same bytes: one
  // shard, or any copy of a k = 1 entry). Each move to a next copy counts
  // one "rdmc.read_failovers" and, on a traced read with a span sink
  // attached, puts an "rdmc.read_failover" point event naming the skipped
  // host on this node's trace.
  void read(const std::vector<mem::RemoteReplica>& replicas,
            std::uint64_t range_offset, std::span<std::byte> out,
            ReadCallback done, net::TraceId trace = net::kNoTrace);

  // Frees all replica blocks; done fires after every free settles. A free
  // that fails while its host is down counts as done (the block died with
  // the host, whose recovery drops all it hosted).
  void free_replicas(std::vector<mem::RemoteReplica> replicas,
                     DoneCallback done = {},
                     net::TraceId trace = net::kNoTrace);

 private:
  // One read in flight: the copies in failover order and where the bytes
  // go. Shared by every hop, so a refused post keeps `done`.
  struct ReadTx {
    std::vector<mem::RemoteReplica> replicas;
    std::uint64_t range_offset = 0;
    std::span<std::byte> out;
    ReadCallback done;
    net::TraceId trace = net::kNoTrace;
  };

  void read_from(std::shared_ptr<ReadTx> tx, std::size_t index);
  // Copy `index` could not serve the read: try the next one, or fail the
  // read after the last.
  void fail_over(std::shared_ptr<ReadTx> tx, std::size_t index);

  cluster::Node& node_;
  Config config_;
  std::unique_ptr<cluster::PlacementPolicy> policy_;
  std::function<std::vector<cluster::CandidateNode>()> candidates_;
};

}  // namespace dm::core
