#include "mem/shared_memory_pool.h"

#include <algorithm>
#include <cstring>

#include "common/status.h"
#include "mem/slab_allocator.h"

namespace dm::mem {

SharedMemoryPool::SharedMemoryPool() : SharedMemoryPool(Config{}) {}

SharedMemoryPool::SharedMemoryPool(Config config)
    : arena_(config.arena_bytes), allocator_(arena_) {}

Status SharedMemoryPool::set_donation(ServerId server, std::uint64_t bytes) {
  const std::uint64_t stored = stored_per_server_.count(server)
                                   ? stored_per_server_.at(server)
                                   : 0;
  if (bytes < stored)
    return FailedPreconditionError(
        "cannot shrink donation below server's stored bytes");
  auto [it, inserted] = donations_.try_emplace(server, 0);
  total_donated_ -= it->second;
  it->second = bytes;
  total_donated_ += bytes;
  return Status::Ok();
}

std::uint64_t SharedMemoryPool::donation_of(ServerId server) const {
  auto it = donations_.find(server);
  return it == donations_.end() ? 0 : it->second;
}

Status SharedMemoryPool::put(ServerId owner, EntryId id,
                             std::span<const std::byte> data) {
  const Key key{owner, id};
  if (entries_.count(key) > 0)
    return AlreadyExistsError("entry already in shared pool");
  // Logical capacity: the pool may only hold what servers donated. Charge
  // the 64 B-rounded block the allocator will hand out, so used bytes never
  // pass the donation.
  if (used_bytes() + SlabAllocator::block_bytes_for(data.size()) >
      total_donated_) {
    ++metrics_.counter("shm.put_rejected_capacity");
    return ResourceExhaustedError("donated capacity exhausted");
  }
  auto offset = allocator_.allocate(data.size());
  if (!offset.ok()) {
    ++metrics_.counter("shm.put_rejected_arena");
    return offset.status();
  }
  std::memcpy(arena_.data() + *offset, data.data(), data.size());
  entries_.emplace(key,
                   Entry{*offset, static_cast<std::uint32_t>(data.size())});
  stored_per_server_[owner] += data.size();
  lru_.touch(key);
  ++metrics_.counter("shm.puts");
  metrics_.counter("shm.bytes_in") += data.size();
  return Status::Ok();
}

Status SharedMemoryPool::get(ServerId owner, EntryId id,
                             std::span<std::byte> out) const {
  const Key key{owner, id};
  auto it = entries_.find(key);
  if (it == entries_.end()) return NotFoundError("entry not in shared pool");
  if (out.size() < it->second.size)
    return InvalidArgumentError("output buffer too small");
  std::memcpy(out.data(), arena_.data() + it->second.offset, it->second.size);
  lru_.touch(key);
  ++metrics_.counter("shm.gets");
  return Status::Ok();
}

Status SharedMemoryPool::peek(ServerId owner, EntryId id,
                              std::span<std::byte> out) const {
  auto it = entries_.find(Key{owner, id});
  if (it == entries_.end()) return NotFoundError("entry not in shared pool");
  if (out.size() < it->second.size)
    return InvalidArgumentError("output buffer too small");
  std::memcpy(out.data(), arena_.data() + it->second.offset, it->second.size);
  return Status::Ok();
}

Status SharedMemoryPool::get_range(ServerId owner, EntryId id,
                                   std::uint64_t offset,
                                   std::span<std::byte> out) const {
  const Key key{owner, id};
  auto it = entries_.find(key);
  if (it == entries_.end()) return NotFoundError("entry not in shared pool");
  if (offset + out.size() > it->second.size)
    return InvalidArgumentError("range past end of entry");
  std::memcpy(out.data(), arena_.data() + it->second.offset + offset,
              out.size());
  lru_.touch(key);
  ++metrics_.counter("shm.gets");
  return Status::Ok();
}

StatusOr<std::size_t> SharedMemoryPool::stored_size(ServerId owner,
                                                    EntryId id) const {
  auto it = entries_.find(Key{owner, id});
  if (it == entries_.end()) return NotFoundError("entry not in shared pool");
  return static_cast<std::size_t>(it->second.size);
}

bool SharedMemoryPool::contains(ServerId owner, EntryId id) const {
  return entries_.count(Key{owner, id}) > 0;
}

Status SharedMemoryPool::remove(ServerId owner, EntryId id) {
  const Key key{owner, id};
  auto it = entries_.find(key);
  if (it == entries_.end()) return NotFoundError("entry not in shared pool");
  stored_per_server_[owner] -= it->second.size;
  DM_RETURN_IF_ERROR(allocator_.free(it->second.offset));
  entries_.erase(it);
  lru_.erase(key);
  ++metrics_.counter("shm.removes");
  return Status::Ok();
}

std::optional<std::pair<ServerId, EntryId>> SharedMemoryPool::lru_entry()
    const {
  return lru_.peek_lru();
}

StatusOr<std::vector<std::byte>> SharedMemoryPool::evict_lru(
    ServerId* owner_out, EntryId* id_out) {
  auto victim = lru_entry();
  if (!victim) return ResourceExhaustedError("pool empty, nothing to evict");
  const auto [owner, id] = *victim;
  auto it = entries_.find(Key{owner, id});
  std::vector<std::byte> bytes(it->second.size);
  std::memcpy(bytes.data(), arena_.data() + it->second.offset,
              it->second.size);
  DM_RETURN_IF_ERROR(remove(owner, id));
  if (owner_out != nullptr) *owner_out = owner;
  if (id_out != nullptr) *id_out = id;
  ++metrics_.counter("shm.evictions");
  return bytes;
}

}  // namespace dm::mem
