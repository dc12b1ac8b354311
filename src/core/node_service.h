// Node-side disaggregated memory orchestration (paper Fig. 1).
//
// NodeService combines the roles the paper draws as separate boxes on each
// node — the Local Disaggregated Memory Server (LDMS), the node manager,
// and ownership of the RDMC/RDMS pair — because they share one state
// machine. Responsibilities:
//
//  * the put path: try the node-coordinated shared memory pool first (DRAM
//    speed), spill the pool's LRU entries to remote memory under pressure,
//    route overflow to remote memory via the RDMC, and fall back to the
//    device tier when the cluster has no room (§IV.B);
//  * the device tier, the only code that places bytes on the node's block
//    devices: one extent allocator per device, NVM (when present) before
//    the disk (§VI), and Infiniswap's backup ring over the disk's top half;
//  * the get path: serve from whichever tier the entry's committed map
//    location names, failing over across copies or reconstructing a
//    stripe around lost shards;
//  * eviction notices from remote RDMSes draining a slab (§IV.F): migrate
//    the named entries to new hosts, then free the old blocks;
//  * failure repair (§IV.D): when membership declares a node dead, rebuild
//    the lost shard of every local entry that had one there;
//  * the eviction monitor (§IV.F policies 1 and 2): watermark-triggered
//    preemptive slab deregistration and ballooning advice for servers that
//    hit disaggregated memory too often.
//
// Background work (LRU spill, migration, re-promotion, shard repair) copies
// an entry while its owner keeps using it. Each such relocation commits
// through one rule: onto the entry only if it still carries the generation
// the copy was made from (see commit_relocation).
#pragma once

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "cluster/node.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/units.h"
#include "core/rdmc.h"
#include "core/rdms.h"
#include "ec/rs_codec.h"
#include "mem/memory_map.h"
#include "net/wire.h"
#include "sim/periodic_task.h"
#include "sim/span_sink.h"
#include "storage/block_device.h"

namespace dm::core {

class Ldmc;

// Per-virtual-server policy knobs for the LDMC (see ldmc.h for semantics).
// Lives here so NodeService::create_client can accept it while ldmc.h
// depends on this header.
struct LdmcOptions {
  double shm_fraction = 1.0;
  bool allow_remote = true;
  bool allow_disk = true;
};

class NodeService {
 public:
  // The monitor's period and thresholds are constants (node_service.cc).
  struct EvictionConfig {
    bool enabled = false;
  };

  struct Config {
    Rdmc::Config rdmc{};
    EvictionConfig eviction{};
    // §IV.E: consult the group leader for the placement candidate set
    // (refreshed periodically) instead of each node's own heartbeat view.
    // The leader aggregates the group, so placement decisions across nodes
    // draw from one consistent picture.
    bool leader_candidates = false;
  };

  using PutCallback = std::function<void(StatusOr<mem::EntryLocation>)>;
  using DoneCallback = std::function<void(const Status&)>;

  NodeService(cluster::Node& node, Config config);
  ~NodeService();

  NodeService(const NodeService&) = delete;
  NodeService& operator=(const NodeService&) = delete;

  cluster::Node& node() noexcept { return node_; }
  Rdmc& rdmc() noexcept { return rdmc_; }
  Rdms& rdms() noexcept { return rdms_; }
  MetricsRegistry& metrics() noexcept { return metrics_; }

  // Causal span sink (not owned; null detaches). Traced device-tier I/O
  // gets "disk"/"disk.read|write" and "disk"/"nvm.read|write" spans from
  // post to completion, the disk/NVM components of a fault's critical path.
  // The backup ring's writes are untraced.
  void set_span_sink(sim::SpanSink* spans) noexcept { spans_ = spans; }

  // --- client registry -------------------------------------------------------
  Ldmc& create_client(cluster::ServerId server, LdmcOptions options = {});
  Ldmc* client(cluster::ServerId server);
  // Visits every client in server-id order (deterministic; used by the
  // repair scanner and invariant-checking tests).
  void for_each_client(
      const std::function<void(cluster::ServerId, Ldmc&)>& fn);

  // --- LDMS data path (called by Ldmc) ---------------------------------------
  // prefer_shm picks the first tier to try; the fallback chain is
  // shm -> remote -> disk, gated by the allow_* flags. `trace` threads the
  // caller's causal chain through any control/data-plane traffic the
  // operation generates (kNoTrace = start a fresh chain). Completion
  // latency lands in "ldms.put_ns.<tier>" / "ldms.get_ns.<tier>"
  // histograms keyed by the tier that served the request.
  void put_entry(cluster::ServerId server, mem::EntryId entry,
                 std::span<const std::byte> data, bool prefer_shm,
                 bool allow_remote, bool allow_disk, PutCallback done,
                 net::TraceId trace = net::kNoTrace);
  void get_entry(cluster::ServerId server, mem::EntryId entry,
                 const mem::EntryLocation& location, std::uint64_t offset,
                 std::span<std::byte> out, DoneCallback done,
                 net::TraceId trace = net::kNoTrace);
  void remove_entry(cluster::ServerId server, mem::EntryId entry,
                    const mem::EntryLocation& location, DoneCallback done,
                    net::TraceId trace = net::kNoTrace);

  // --- maintenance -----------------------------------------------------------
  // Starts the node's periodic loops: the eviction/ballooning monitor
  // (§IV.F, when Config::eviction.enabled) and the leader candidate-set
  // refresh (when Config::leader_candidates). A running loop is left as is.
  void start();
  // Stops both loops (the node crashed).
  void stop() noexcept;
  // One monitor evaluation (exposed for deterministic tests).
  void eviction_tick();

  // Restores one entry to its intended placement (§IV.D hardening): prunes
  // shards on dead hosts, rebuilds a short stripe back to its k + r
  // shards, and re-promotes degraded device-tier entries to remote memory.
  // No-op for healthy entries. Driven by the RepairService; exposed for
  // targeted recovery tests.
  void repair_entry(cluster::ServerId server, mem::EntryId entry,
                    DoneCallback done, net::TraceId trace = net::kNoTrace);

  // A crashed node that reboots loses its DRAM, so every replica the
  // cluster still lists on it is dead even though the host is up again.
  // Drops those replicas from all local maps and marks the entries degraded
  // for the repair service (called by DmSystem::recover_node before the
  // node rejoins the fabric).
  void invalidate_replicas_on(net::NodeId host);

  std::uint64_t data_loss_entries() const noexcept { return data_loss_; }

  // --- the backup ring (Infiniswap's durability path) -----------------------
  // Sets aside the top half of the disk, [capacity/2, capacity), as a ring
  // of whole-page backup writes; device-tier extents stop below it from
  // then on. Called by every swap manager with disk backup on; the first
  // call reserves. A disk whose extents already reach the ring is a
  // configuration error (asserted).
  void reserve_backup_ring();
  // Queues `pages` asynchronous whole-page writes at the ring's cursor,
  // wrapping at the end of the disk. Nothing reads them back: they cost
  // disk time, which is what the backup models.
  void backup_pages(std::size_t pages, std::size_t page_bytes);

  // --- cluster balancing (§I, §IV.F extended) --------------------------------
  // This node's disaggregated-memory demand: the op count of the last full
  // pressure window (lazily rotated against virtual time). Advertised in
  // heartbeats; feeds load-aware placement and the harvester.
  std::uint64_t pressure() const;

  // Runs on a *hot* node: asks the owners of regions hosted here (via
  // kRpcMigrateRegion, in ascending owner order) to live-migrate up to
  // `max_entries` of them to colder donors. Owners reuse the crash-safe
  // copy-then-redirect path (migrate_entry), so every region stays readable
  // throughout and the old copy is freed only after the new location
  // commits. `done` (optional) receives the number of migrations the owners
  // accepted.
  void offload_hot_node(std::size_t max_entries,
                        std::function<void(std::size_t)> done = {});

  // Drains and deregisters this node's least-loaded donated slab (§IV.F
  // policy 1 mechanics, cluster-initiated): hosted regions migrate away,
  // then the DRAM is handed back. Returns false if a drain is already in
  // flight or nothing is registered. Reclaimed DRAM lands in the
  // "harvest.reclaimed_pages" counter when the drain completes.
  bool reclaim_donated_slab();

 private:
  // One block device of the node's device tier: the only place bytes
  // land on the disk or the NVM.
  struct Device {
    storage::BlockDevice* block;
    storage::ExtentAllocator extents;
    mem::Tier tier;
    const char* read_span;    // "<tier>.read", subsystem "disk"
    const char* write_span;   // "<tier>.write", subsystem "disk"
  };

  // The device holding `tier`'s entries; null when the node has none.
  Device* device(mem::Tier tier);
  // Below shared memory: remote memory when allowed (which itself falls
  // to the device tier on overflow), else the device tier, else an error.
  void put_below_shm(cluster::ServerId server, mem::EntryId entry,
                     std::span<const std::byte> data, bool allow_remote,
                     bool allow_disk, PutCallback done, net::TraceId trace);
  void put_remote(cluster::ServerId server, mem::EntryId entry,
                  std::span<const std::byte> data, bool allow_disk,
                  PutCallback done, net::TraceId trace = net::kNoTrace);
  // --- the stripe path: every remote entry is an RS(k, r) stripe -----------
  // (Hydra-style; k = 1 is replication, its r parity shards whole copies.)
  // Encodes `data` into k+r shards, stripes them across distinct nodes,
  // and reports the complete remote EntryLocation (stripe shape, per-shard
  // checksums when k > 1, surviving shard set, degraded flag). Callers
  // merge it into their committed entry; shared by the put, spill, and
  // re-promotion paths.
  void store_stripe(cluster::ServerId server, mem::EntryId entry,
                    std::span<const std::byte> data,
                    std::function<void(StatusOr<mem::EntryLocation>)> done,
                    net::TraceId trace);
  // Range read: a k = 1 entry fails over across its copies in committed
  // order; a k > 1 stripe reads the covering data shards directly when
  // they all survive, and otherwise reconstructs from any k surviving
  // shards (the degraded-read path).
  void read_stripe(const mem::EntryLocation& location, std::uint64_t offset,
                   std::span<std::byte> out, DoneCallback done,
                   net::TraceId trace);
  void degraded_read(const mem::EntryLocation& location, std::uint64_t offset,
                     std::span<std::byte> out, DoneCallback done,
                     net::TraceId trace);
  // Rebuilds the shards lost to crashed hosts onto fresh nodes ("min
  // surviving shards" repair). Merges by shard index against the *current*
  // committed replica set, so a concurrent repair or migration never loses
  // shards.
  void repair_stripe(cluster::ServerId server, mem::EntryId entry,
                     mem::MemoryMap& map, DoneCallback done,
                     net::TraceId trace);

  // --- one copy of each rule applied to an entry's stripe -----------------
  // The relocation commit (§IV.G: the map is the commit point). A
  // relocation copied `server`'s entry at `generation` and wrote `fresh`
  // replicas. It commits only if the entry still carries that generation
  // and `holds` accepts its current location, which `apply` then rewrites.
  // Otherwise the entry was removed, overwritten or moved while the copy
  // was in flight: `fresh` is freed and false returned (the caller counts
  // its own "*_stale").
  bool commit_relocation(
      cluster::ServerId server, mem::EntryId entry, std::uint32_t generation,
      std::vector<mem::RemoteReplica>& fresh,
      const std::function<bool(const mem::EntryLocation&)>& holds,
      const std::function<void(mem::EntryLocation&)>& apply);
  // The survivor prune: drops every shard of the remote `entry` that `keep`
  // rejects and recommits the rest with `degraded` recomputed, when that
  // changes anything. Fewer than ec_k survivors is data loss: counted,
  // nothing committed, and a DataLoss status returned.
  StatusOr<mem::EntryLocation> prune_shards(
      mem::MemoryMap& map, mem::EntryId entry,
      const std::function<bool(const mem::RemoteReplica&)>& keep);
  // The shard gather: reads every listed shard of `loc` in full and in
  // parallel, in listed order, into one slot per shard index. A shard whose
  // read fails, or whose bytes fail the committed per-shard checksum (k > 1
  // stripes carry them), comes back empty: it counts as lost instead of
  // poisoning a decode.
  void gather_shards(
      const mem::EntryLocation& loc, net::TraceId trace,
      std::function<void(std::vector<std::vector<std::byte>>)> done);
  // The codec charge: a k > 1 encode or decode of `bytes` is pure
  // computation, charged as virtual time. Records "ec.encode_ns" or
  // "ec.decode_ns", spans the delay as "ec"/"ec.encode|decode" when
  // traced, and runs `next` once it has elapsed.
  void charge_codec(bool encode, std::uint32_t bytes, net::TraceId trace,
                    std::function<void()> next);
  // The device tier: the first device with room, NVM (when present)
  // before the disk.
  void put_device(std::span<const std::byte> data, PutCallback done,
                  net::TraceId trace);
  // Reads `out.size()` bytes at `offset` within a device-tier entry,
  // spanned as "disk"/"<tier>.read" when traced. No demand accounting:
  // get_entry adds it for application gets, and re-promotion reads
  // through here directly.
  void read_device(const mem::EntryLocation& location, std::uint64_t offset,
                   std::span<std::byte> out, DoneCallback done,
                   net::TraceId trace);
  // Frees one LRU shared-pool entry by pushing it to remote memory; the
  // callback reports whether space was reclaimed.
  void spill_one(std::function<void(bool)> done);

  [[nodiscard]] StatusOr<std::vector<std::byte>> handle_evict_notice(net::NodeId from,
                                                       net::WireReader& req);
  [[nodiscard]] StatusOr<std::vector<std::byte>> handle_query_candidates(
      net::NodeId from, net::WireReader& req);
  [[nodiscard]] StatusOr<std::vector<std::byte>> handle_migrate_region(
      net::NodeId from, net::WireReader& req);
  std::vector<cluster::CandidateNode> local_candidate_view(
      bool include_self) const;
  // One candidate-set refresh; `done` runs once the cache is refreshed.
  void refresh_candidates(sim::PeriodicTask::Done done);
  void migrate_entry(cluster::ServerId server, mem::EntryId entry,
                     net::NodeId away_from,
                     net::TraceId trace = net::kNoTrace);
  void repair_after_node_down(net::NodeId dead);
  void note_pressure();
  // Rolls the pressure window forward to the one containing now.
  void roll_pressure_window() const;

  cluster::Node& node_;
  Config config_;
  Rdms rdms_;
  Rdmc rdmc_;
  // Reed–Solomon codec matching Config::rdmc.{ec_k, ec_r}.
  ec::RsCodec codec_;
  MetricsRegistry metrics_;
  // ldms.get_ns.<tier> and ldms.put_ns.<tier> by mem::Tier, looked up on
  // first use; put_ns_'s last slot is ldms.put_ns.failed.
  std::array<Histogram*, 4> get_ns_{};
  std::array<Histogram*, 5> put_ns_{};
  sim::SpanSink* spans_ = nullptr;
  // Ordered: repair and eviction scans iterate these and issue RPCs, so
  // the walk order must not depend on hash-bucket layout.
  std::map<cluster::ServerId, std::unique_ptr<Ldmc>> clients_;
  // Fall-through order: NVM (when present) first, the disk last.
  std::vector<Device> devices_;
  std::uint64_t backup_cursor_ = 0;  // 0 = no ring reserved
  // Per-server disaggregated-memory request counts within the current
  // monitor window (feeds §IV.F policy 2).
  std::map<cluster::ServerId, std::uint64_t> dm_requests_window_;
  std::uint64_t remote_puts_window_ = 0;
  // Pressure accounting: `pressure()` reports the last *full* window so the
  // advertised value is stable within a window (lazy rotation on read and
  // write keeps it a pure function of virtual time + op sequence).
  mutable std::uint64_t pressure_accum_ = 0;
  mutable std::uint64_t pressure_last_ = 0;
  mutable SimTime pressure_window_start_ = 0;
  std::uint64_t data_loss_ = 0;
  std::vector<cluster::CandidateNode> candidate_cache_;
  sim::PeriodicTask eviction_monitor_;
  sim::PeriodicTask candidate_refresh_;
};

}  // namespace dm::core
