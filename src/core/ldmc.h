// Local Disaggregated Memory Client (paper Fig. 1, §IV.B).
//
// One LDMC runs inside each virtual server. It is the only interface
// applications (or the transparent layers acting for them — the swap
// frontend, the RDD cache) see: put/get/remove of opaque entries, with the
// location tracked in the server's disaggregated memory map. Where an entry
// physically lands — shared memory, remote replicas, disk — is decided by
// the node-side service; the LDMC only expresses policy knobs:
//
//  * shm_fraction: the fraction of puts that try the node-coordinated
//    shared pool first. 1.0 is the paper's FS-SM configuration, 0.0 is
//    FS-RDMA, intermediate values give the FS-9:1 / 7:3 / 5:5 splits of
//    Fig 8.
//  * allow_remote / allow_disk: the fallback chain gates (baselines switch
//    these off: Linux swap is disk-only; Infiniswap is remote+disk).
#pragma once

#include <span>

#include "common/checksum.h"
#include "common/status.h"
#include "core/node_service.h"
#include "mem/memory_map.h"

namespace dm::core {

class Ldmc {
 public:
  using Config = LdmcOptions;

  Ldmc(NodeService& service, cluster::ServerId server, Config config);

  cluster::ServerId server() const noexcept { return server_; }
  mem::MemoryMap& map() noexcept { return map_; }
  const Config& config() const noexcept { return config_; }
  NodeService& service() noexcept { return service_; }

  // --- asynchronous API -------------------------------------------------------
  // `trace` threads the caller's causal chain through every RPC and verb
  // the operation triggers (kNoTrace = the node service starts a fresh
  // chain), so a swap fault's journey is followable in the tracer.
  void put(mem::EntryId entry, std::span<const std::byte> data,
           std::function<void(const Status&)> done,
           net::TraceId trace = net::kNoTrace);
  // Full-entry read of stored bytes (out must be >= stored size).
  void get(mem::EntryId entry, std::span<std::byte> out,
           std::function<void(const Status&)> done,
           net::TraceId trace = net::kNoTrace);
  // Sub-range read at `offset` within the stored bytes.
  void get_range(mem::EntryId entry, std::uint64_t offset,
                 std::span<std::byte> out,
                 std::function<void(const Status&)> done,
                 net::TraceId trace = net::kNoTrace);
  void remove(mem::EntryId entry, std::function<void(const Status&)> done,
              net::TraceId trace = net::kNoTrace);
  // Puts a new entry into exactly `tier`, which must be shared memory or
  // remote memory: no shm-LRU spill, no fall down-tier, and the shm-ratio
  // routing sequence does not advance, so routed puts keep their tiers.
  // Fails when the tier cannot take the entry. `data` is copied before
  // the call returns. The swap layer's batch compaction rewrites an entry
  // into the tier its source lives in.
  void put_in_tier(mem::EntryId entry, std::span<const std::byte> data,
                   mem::Tier tier, std::function<void(const Status&)> done,
                   net::TraceId trace = net::kNoTrace);

  // --- synchronous wrappers (drive the simulator until completion) ------------
  // `trace` threads the caller's chain exactly as in the async API, so
  // blocking-style callers (the swap fault path, tools) keep causal spans.
  [[nodiscard]] Status put_sync(mem::EntryId entry, std::span<const std::byte> data,
                                net::TraceId trace = net::kNoTrace);
  [[nodiscard]] Status get_sync(mem::EntryId entry, std::span<std::byte> out,
                                net::TraceId trace = net::kNoTrace);
  [[nodiscard]] Status get_range_sync(mem::EntryId entry, std::uint64_t offset,
                        std::span<std::byte> out,
                        net::TraceId trace = net::kNoTrace);
  [[nodiscard]] Status remove_sync(mem::EntryId entry,
                                   net::TraceId trace = net::kNoTrace);

  // Drives the simulator until `done()` holds. Unlike run_until_flag this
  // takes an arbitrary predicate, so callers with several operations in
  // flight (the swap layer's write-back staging buffer) can wait for a
  // compound condition. Errors if the event queue runs dry first.
  [[nodiscard]] Status drain_until(const std::function<bool()>& done);

  [[nodiscard]] StatusOr<std::size_t> stored_size(mem::EntryId entry) const;
  bool contains(mem::EntryId entry) const { return map_.contains(entry); }

  // Per-tier counts of routed puts (bench/tests); put_in_tier is not
  // routed and not counted.
  std::uint64_t puts_to_shm() const noexcept { return puts_shm_; }
  std::uint64_t puts_to_remote() const noexcept { return puts_remote_; }
  std::uint64_t puts_to_disk() const noexcept { return puts_disk_; }
  std::uint64_t puts_to_nvm() const noexcept { return puts_nvm_; }

 private:
  friend class NodeService;  // migration/repair rewrite committed locations

  Status wait(const bool& flag, const Status& result);
  // Hands `data` to the node service and commits the location it reports;
  // `routed` puts count in the per-tier counters.
  void store(mem::EntryId entry, std::span<const std::byte> data,
             bool prefer_shm, bool allow_remote, bool allow_disk, bool routed,
             std::function<void(const Status&)> done, net::TraceId trace);

  NodeService& service_;
  cluster::ServerId server_;
  Config config_;
  mem::MemoryMap map_;
  std::uint64_t put_counter_ = 0;
  std::uint64_t puts_shm_ = 0;
  std::uint64_t puts_remote_ = 0;
  std::uint64_t puts_disk_ = 0;
  std::uint64_t puts_nvm_ = 0;
};

}  // namespace dm::core
