// Disaggregated memory map (paper §IV.C, §IV.G).
//
// Each virtual server tracks where every one of its data entries lives: the
// node-coordinated shared memory, a stripe of shards on remote nodes (by
// default three whole copies), or external storage. The map is the commit
// point of the system — a remote write "happens" when its entry is
// committed here (all-or-nothing, §IV.D), so an interrupted replication
// leaves the previous committed location intact.
//
// The map is sharded by entry id to address the paper's scalability concern
// (§IV.C: a flat single hash table per server does not scale to TB-range
// disaggregated memory), and exposes approx_bytes() so tests can check the
// paper's arithmetic (≈8 B of location metadata per 4 KiB entry ⇒ ~5 GB of
// map for 2 TB of remote memory).
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "mem/buffer_pool.h"
#include "net/rdma.h"

namespace dm::mem {

using EntryId = std::uint64_t;

enum class Tier : std::uint8_t {
  kSharedMemory = 0,  // node-coordinated shared pool on the home node
  kRemote = 1,        // striped across remote nodes' receive pools
  kDisk = 2,          // external storage (swap device)
  kNvm = 3,           // local non-volatile memory tier (§VI), when present
};

// Short tier label used in metric names ("ldms.get_ns.<tier>") and dumps.
inline const char* tier_name(Tier tier) noexcept {
  switch (tier) {
    case Tier::kSharedMemory: return "shm";
    case Tier::kRemote: return "remote";
    case Tier::kDisk: return "disk";
    case Tier::kNvm: return "nvm";
  }
  return "?";
}

struct RemoteReplica {
  net::NodeId node = net::kInvalidNode;
  net::RKey rkey = net::kInvalidRKey;
  std::uint64_t offset = 0;     // offset within the registered slab
  std::uint32_t slab = 0;       // host-side slab id (needed to free)
  std::uint32_t block_size = 0; // size class of the hosting block
  // Which of the stripe's k+r shards this block holds (for k = 1, which
  // copy: each is the full payload).
  std::uint32_t shard = 0;

  friend bool operator==(const RemoteReplica&, const RemoteReplica&) = default;
};

struct EntryLocation {
  Tier tier = Tier::kSharedMemory;
  std::uint32_t logical_size = 0;  // original entry bytes (e.g. 4096)
  std::uint32_t stored_size = 0;   // bytes as stored (post-compression)
  bool compressed = false;
  bool raw_fallback = false;       // compressed=true but stored raw
  std::uint64_t checksum = 0;      // word_checksum of the logical bytes
  std::uint64_t disk_offset = 0;   // device offset (tier kDisk or kNvm)
  // Degraded mode (§IV.D hardening): the entry is durable but below its
  // intended placement — written with fewer shards than its stripe, or
  // pushed to a device tier because remote memory was unreachable. The
  // background repair service revisits degraded entries and clears the
  // flag once the intended placement is restored.
  bool degraded = false;
  // Stripe shape of a remote entry (Hydra-style): ec_k data + ec_r parity
  // shards, one per replica slot, and `replicas` holds the surviving shard
  // set (identified by RemoteReplica::shard). Missing shards are simply
  // absent; the entry stays readable while >= ec_k shards survive. ec_k = 1
  // is replication: every shard is a whole copy.
  std::uint8_t ec_k = 0;
  std::uint8_t ec_r = 0;
  // word_checksum per stored shard (index-aligned with shard ids, size
  // ec_k+ec_r) so degraded reads can reject corrupted shards before
  // decoding. Empty for k = 1, whose copies are each covered by `checksum`.
  std::vector<std::uint64_t> shard_checksums;
  std::vector<RemoteReplica> replicas;  // valid when tier == kRemote
};

class MemoryMap {
 public:
  explicit MemoryMap(std::size_t shard_count = 16);

  // Atomically installs (or replaces) the committed location of an entry.
  void commit(EntryId id, EntryLocation location);

  StatusOr<EntryLocation> lookup(EntryId id) const;
  bool contains(EntryId id) const;
  Status remove(EntryId id);

  std::size_t size() const noexcept { return size_; }

  // Visits every committed entry (order unspecified but deterministic for a
  // given insertion history).
  void for_each(
      const std::function<void(EntryId, const EntryLocation&)>& fn) const;

  // Entries with a replica on `node` — the failure/eviction repair set.
  std::vector<EntryId> entries_with_replica_on(net::NodeId node) const;

  // Entries the repair service should revisit: remote entries holding
  // fewer than their ec_k + ec_r shards, plus anything explicitly marked
  // degraded (e.g. disk-fallback writes awaiting re-promotion).
  std::vector<EntryId> repair_candidates() const;

  // Estimated resident metadata bytes (the §IV.C scalability arithmetic).
  std::uint64_t approx_bytes() const noexcept;

 private:
  std::size_t shard_of(EntryId id) const noexcept {
    // Multiplicative hash so sequential page numbers spread across shards.
    return static_cast<std::size_t>((id * 0x9e3779b97f4a7c15ULL) >> 32) %
           shards_.size();
  }

  std::vector<std::unordered_map<EntryId, EntryLocation>> shards_;
  std::size_t size_ = 0;
};

}  // namespace dm::mem
