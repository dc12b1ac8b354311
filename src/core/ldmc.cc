#include "core/ldmc.h"

#include "common/checksum.h"
#include "common/status.h"
#include "core/node_service.h"
#include "mem/memory_map.h"
#include "sim/simulator.h"

namespace dm::core {
namespace {

// The synchronous wrappers' lost-completion message.
constexpr char kRanDry[] = "simulation ran dry while waiting for completion";

}  // namespace

Ldmc::Ldmc(NodeService& service, cluster::ServerId server, Config config)
    : service_(service), server_(server), config_(config) {}

void Ldmc::put(mem::EntryId entry, std::span<const std::byte> data,
               std::function<void(const Status&)> done, net::TraceId trace) {
  if (trace == net::kNoTrace) trace = service_.node().next_trace_id();
  if (map_.contains(entry)) {
    // Overwrite = remove + put; the paper's entries (swap pages, cached
    // partitions) are immutable once written, so this path is rare.
    remove(entry,
           [this, entry,
            payload = std::vector<std::byte>(data.begin(), data.end()), trace,
            done = std::move(done)](const Status& removed) mutable {
             if (!removed.ok()) {
               done(removed);
               return;
             }
             put(entry, payload, std::move(done), trace);
           },
           trace);
    return;
  }
  // Deterministic ratio routing: spread the shm-first decision evenly over
  // the put sequence (90/10 really means 9 of every 10 puts).
  const bool prefer_shm =
      config_.shm_fraction > 0.0 &&
      static_cast<double>(put_counter_ % 100) <
          config_.shm_fraction * 100.0;
  ++put_counter_;
  store(entry, data, prefer_shm, config_.allow_remote, config_.allow_disk,
        /*routed=*/true, std::move(done), trace);
}

void Ldmc::put_in_tier(mem::EntryId entry, std::span<const std::byte> data,
                       mem::Tier tier,
                       std::function<void(const Status&)> done,
                       net::TraceId trace) {
  if (tier != mem::Tier::kSharedMemory && tier != mem::Tier::kRemote) {
    done(InvalidArgumentError("put_in_tier takes shared or remote memory"));
    return;
  }
  const bool shm = tier == mem::Tier::kSharedMemory;
  store(entry, data, /*prefer_shm=*/shm, /*allow_remote=*/!shm,
        /*allow_disk=*/false, /*routed=*/false, std::move(done), trace);
}

void Ldmc::store(mem::EntryId entry, std::span<const std::byte> data,
                 bool prefer_shm, bool allow_remote, bool allow_disk,
                 bool routed, std::function<void(const Status&)> done,
                 net::TraceId trace) {
  const std::uint64_t checksum = word_checksum(data);
  const auto logical = static_cast<std::uint32_t>(data.size());
  service_.put_entry(
      server_, entry, data, prefer_shm, allow_remote, allow_disk,
      [this, entry, checksum, logical, routed,
       done = std::move(done)](StatusOr<mem::EntryLocation> location) {
        if (!location.ok()) {
          done(location.status());
          return;
        }
        location->checksum = checksum;
        location->logical_size = logical;
        location->generation = ++generations_;
        if (routed) {
          switch (location->tier) {
            case mem::Tier::kSharedMemory: ++puts_shm_; break;
            case mem::Tier::kRemote: ++puts_remote_; break;
            case mem::Tier::kNvm: ++puts_nvm_; break;
            case mem::Tier::kDisk: ++puts_disk_; break;
          }
        }
        map_.commit(entry, *std::move(location));
        done(Status::Ok());
      },
      trace);
}

void Ldmc::get(mem::EntryId entry, std::span<std::byte> out,
               std::function<void(const Status&)> done, net::TraceId trace) {
  auto location = map_.lookup(entry);
  if (!location.ok()) {
    done(location.status());
    return;
  }
  // A full read is checked against the checksum its put committed: for a
  // k = 1 copy that is the only integrity check.
  const bool full_read = out.size() >= location->stored_size;
  auto window = full_read ? out.first(location->stored_size) : out;
  const std::uint64_t expect = location->checksum;
  service_.get_entry(
      server_, entry, *location, 0, window,
      [window, expect, full_read, done = std::move(done)](const Status& s) {
        if (s.ok() && full_read && word_checksum(window) != expect) {
          done(DataLossError("checksum mismatch on get"));
          return;
        }
        done(s);
      },
      trace);
}

void Ldmc::get_range(mem::EntryId entry, std::uint64_t offset,
                     std::span<std::byte> out,
                     std::function<void(const Status&)> done,
                     net::TraceId trace) {
  auto location = map_.lookup(entry);
  if (!location.ok()) {
    done(location.status());
    return;
  }
  if (offset + out.size() > location->stored_size) {
    done(InvalidArgumentError("range past end of stored entry"));
    return;
  }
  service_.get_entry(server_, entry, *location, offset, out, std::move(done),
                     trace);
}

void Ldmc::remove(mem::EntryId entry,
                  std::function<void(const Status&)> done,
                  net::TraceId trace) {
  auto location = map_.lookup(entry);
  if (!location.ok()) {
    done(location.status());
    return;
  }
  // Erase first: the map is the commit point. A repair or migration that
  // commits after this point sees the entry gone in its stale re-check and
  // frees its own provisional blocks; freeing the just-erased committed
  // replica set here therefore cannot race with a late commit (which would
  // leak the late replica if the erase happened after the frees).
  (void)map_.remove(entry);
  service_.remove_entry(server_, entry, *location, std::move(done), trace);
}

StatusOr<std::size_t> Ldmc::stored_size(mem::EntryId entry) const {
  auto location = map_.lookup(entry);
  if (!location.ok()) return location.status();
  return static_cast<std::size_t>(location->stored_size);
}

Status Ldmc::drain_until(const std::function<bool()>& done) {
  auto& sim = service_.node().simulator();
  while (!done()) {
    if (!sim.step())
      return InternalError("simulation ran dry while draining completions");
  }
  return Status::Ok();
}

Status Ldmc::put_sync(mem::EntryId entry, std::span<const std::byte> data,
                      net::TraceId trace) {
  return service_.node().simulator().run_until_complete(
      [&](auto done) { put(entry, data, std::move(done), trace); },
      StatusCode::kInternal, kRanDry);
}

Status Ldmc::get_sync(mem::EntryId entry, std::span<std::byte> out,
                      net::TraceId trace) {
  return service_.node().simulator().run_until_complete(
      [&](auto done) { get(entry, out, std::move(done), trace); },
      StatusCode::kInternal, kRanDry);
}

Status Ldmc::get_range_sync(mem::EntryId entry, std::uint64_t offset,
                            std::span<std::byte> out, net::TraceId trace) {
  return service_.node().simulator().run_until_complete(
      [&](auto done) { get_range(entry, offset, out, std::move(done), trace); },
      StatusCode::kInternal, kRanDry);
}

Status Ldmc::remove_sync(mem::EntryId entry, net::TraceId trace) {
  return service_.node().simulator().run_until_complete(
      [&](auto done) { remove(entry, std::move(done), trace); },
      StatusCode::kInternal, kRanDry);
}

}  // namespace dm::core
