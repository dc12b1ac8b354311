#include "mem/memory_map.h"

#include <algorithm>

#include "common/status.h"

namespace dm::mem {

MemoryMap::MemoryMap(std::size_t shard_count)
    : shards_(shard_count == 0 ? 1 : shard_count) {}

void MemoryMap::commit(EntryId id, EntryLocation location) {
  auto& shard = shards_[shard_of(id)];
  auto [it, inserted] = shard.insert_or_assign(id, std::move(location));
  if (inserted) ++size_;
}

StatusOr<EntryLocation> MemoryMap::lookup(EntryId id) const {
  const auto& shard = shards_[shard_of(id)];
  auto it = shard.find(id);
  if (it == shard.end()) return NotFoundError("entry not mapped");
  return it->second;
}

bool MemoryMap::contains(EntryId id) const {
  const auto& shard = shards_[shard_of(id)];
  return shard.count(id) > 0;
}

Status MemoryMap::remove(EntryId id) {
  auto& shard = shards_[shard_of(id)];
  if (shard.erase(id) == 0) return NotFoundError("entry not mapped");
  --size_;
  return Status::Ok();
}

void MemoryMap::for_each(
    const std::function<void(EntryId, const EntryLocation&)>& fn) const {
  for (const auto& shard : shards_)
    for (const auto& [id, loc] : shard) fn(id, loc);
}

std::vector<EntryId> MemoryMap::entries_with_replica_on(
    net::NodeId node) const {
  std::vector<EntryId> out;
  for (const auto& shard : shards_) {
    for (const auto& [id, loc] : shard) {
      if (loc.tier != Tier::kRemote) continue;
      for (const auto& replica : loc.replicas) {
        if (replica.node == node) {
          out.push_back(id);
          break;
        }
      }
    }
  }
  return out;
}

std::vector<EntryId> MemoryMap::repair_candidates() const {
  std::vector<EntryId> out;
  for (const auto& shard : shards_) {
    for (const auto& [id, loc] : shard) {
      const bool short_stripe =
          loc.tier == Tier::kRemote &&
          loc.replicas.size() < static_cast<std::size_t>(loc.ec_k) + loc.ec_r;
      if (short_stripe || loc.degraded) out.push_back(id);
    }
  }
  // Sorted so the repair order is independent of hash-table iteration.
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t MemoryMap::approx_bytes() const noexcept {
  std::uint64_t bytes = 0;
  for (const auto& shard : shards_) {
    bytes += shard.bucket_count() * sizeof(void*);
    bytes += shard.size() *
             (sizeof(EntryId) + sizeof(EntryLocation) + 2 * sizeof(void*));
    for (const auto& [id, loc] : shard) {
      bytes += loc.replicas.capacity() * sizeof(RemoteReplica);
      bytes += loc.shard_checksums.capacity() * sizeof(std::uint64_t);
    }
  }
  return bytes;
}

}  // namespace dm::mem
