#include "kvstore/kv_store.h"

#include <cstring>

#include "common/checksum.h"
#include "common/status.h"
#include "common/units.h"
#include "core/ldmc.h"

namespace dm::kv {
namespace {

constexpr std::size_t kMaxEntryBytes = 64 * 1024;
// CPU cost per operation (hashing, bucket walk, bookkeeping).
constexpr SimTime kCpuNsPerOp = 500;

std::uint64_t hash_key(std::string_view key, std::uint64_t salt) {
  return fnv1a(std::as_bytes(std::span(key.data(), key.size()))) ^
         mix64(salt);
}

}  // namespace

KvStore::KvStore(core::Ldmc& client, Config config)
    : client_(client), config_(config) {}

void KvStore::charge(SimTime cost) {
  auto& sim = client_.service().node().simulator();
  sim.run_until(sim.now() + cost);
}

std::vector<std::byte> KvStore::encode(std::string_view key,
                                       std::span<const std::byte> value) {
  std::vector<std::byte> out(sizeof(std::uint32_t) + key.size() +
                             value.size());
  const auto key_len = static_cast<std::uint32_t>(key.size());
  std::memcpy(out.data(), &key_len, sizeof(key_len));
  std::memcpy(out.data() + sizeof(key_len), key.data(), key.size());
  std::memcpy(out.data() + sizeof(key_len) + key.size(), value.data(),
              value.size());
  return out;
}

StatusOr<std::pair<std::string, std::vector<std::byte>>> KvStore::decode(
    std::span<const std::byte> entry) {
  if (entry.size() < sizeof(std::uint32_t))
    return DataLossError("kv entry truncated");
  std::uint32_t key_len = 0;
  std::memcpy(&key_len, entry.data(), sizeof(key_len));
  if (entry.size() < sizeof(key_len) + key_len)
    return DataLossError("kv entry key truncated");
  std::string key(reinterpret_cast<const char*>(entry.data() + sizeof(key_len)),
                  key_len);
  std::vector<std::byte> value(entry.begin() + sizeof(key_len) + key_len,
                               entry.end());
  return std::pair{std::move(key), std::move(value)};
}

mem::EntryId KvStore::allocate_entry_id(const std::string& key) {
  // Hash-derived id, salted past collisions with already-assigned ids of
  // *other* keys (the index is the source of truth; the stored key makes
  // wrong-id reads detectable rather than silent).
  for (;; ++next_salt_) {
    const mem::EntryId id = hash_key(key, next_salt_);
    if (!client_.contains(id)) return id;
  }
}

Status KvStore::set(std::string_view key, std::span<const std::byte> value) {
  charge(kCpuNsPerOp);
  if (sizeof(std::uint32_t) + key.size() + value.size() > kMaxEntryBytes)
    return InvalidArgumentError("value too large for one kv entry");
  std::string key_owned(key);

  // Replace any previous copy in either tier.
  DM_RETURN_IF_ERROR(erase_internal(key_owned, /*missing_ok=*/true));

  while (hot_used_ + value.size() > config_.hot_bytes) {
    Status evicted = evict_one();
    if (!evicted.ok()) break;  // nothing evictable
  }
  if (hot_used_ + value.size() > config_.hot_bytes) {
    // Even an empty hot tier cannot honour the budget for this value:
    // park it down-tier directly instead of blowing the budget.
    if (config_.use_disaggregated_memory) {
      const mem::EntryId id = allocate_entry_id(key_owned);
      Status stored = client_.put_sync(id, encode(key_owned, value));
      if (stored.ok()) {
        overflow_[key_owned] = id;
        ++metrics_.counter("kv.overflow_stores");
        ++metrics_.counter("kv.sets");
        return Status::Ok();
      }
    }
    ++metrics_.counter("kv.overflow_drops");
    return ResourceExhaustedError("value exceeds hot budget and no DM room");
  }
  hot_used_ += value.size();
  hot_[key_owned] = HotValue{{value.begin(), value.end()}};
  lru_.touch(key_owned);
  ++metrics_.counter("kv.sets");
  return Status::Ok();
}

Status KvStore::evict_one() {
  auto victim = lru_.evict_lru();
  if (!victim) return ResourceExhaustedError("hot tier empty");
  auto it = hot_.find(*victim);
  if (it == hot_.end()) return InternalError("lru/hot tier out of sync");
  hot_used_ -= it->second.bytes.size();

  if (config_.use_disaggregated_memory) {
    const mem::EntryId id = allocate_entry_id(*victim);
    auto encoded = encode(*victim, it->second.bytes);
    Status stored = client_.put_sync(id, encoded);
    if (stored.ok()) {
      overflow_[*victim] = id;
      ++metrics_.counter("kv.overflow_stores");
    } else {
      ++metrics_.counter("kv.overflow_drops");  // DM full: value is lost
    }
  } else {
    ++metrics_.counter("kv.overflow_drops");
  }
  hot_.erase(it);
  return Status::Ok();
}

StatusOr<std::vector<std::byte>> KvStore::get(std::string_view key) {
  charge(kCpuNsPerOp);
  std::string key_owned(key);
  if (auto it = hot_.find(key_owned); it != hot_.end()) {
    lru_.touch(key_owned);
    ++metrics_.counter("kv.hot_hits");
    return it->second.bytes;
  }
  auto overflow = overflow_.find(key_owned);
  if (overflow == overflow_.end()) {
    ++metrics_.counter("kv.misses");
    return NotFoundError("key not cached");
  }
  auto size = client_.stored_size(overflow->second);
  if (!size.ok()) return size.status();
  std::vector<std::byte> entry(*size);
  DM_RETURN_IF_ERROR(client_.get_sync(overflow->second, entry));
  auto decoded = decode(entry);
  if (!decoded.ok()) return decoded.status();
  if (decoded->first != key_owned)
    return DataLossError("kv entry key mismatch");
  ++metrics_.counter("kv.dm_hits");

  // A disaggregated-tier hit is promoted back into the hot tier.
  std::vector<std::byte> value = std::move(decoded->second);
  DM_RETURN_IF_ERROR(client_.remove_sync(overflow->second));
  overflow_.erase(overflow);
  while (hot_used_ + value.size() > config_.hot_bytes) {
    Status evicted = evict_one();
    if (!evicted.ok()) break;
  }
  hot_used_ += value.size();
  hot_[key_owned] = HotValue{value};
  lru_.touch(key_owned);
  ++metrics_.counter("kv.promotions");
  return value;
}

Status KvStore::erase(std::string_view key) {
  charge(kCpuNsPerOp);
  return erase_internal(std::string(key), /*missing_ok=*/false);
}

Status KvStore::erase_internal(const std::string& key, bool missing_ok) {
  bool found = false;
  if (auto it = hot_.find(key); it != hot_.end()) {
    hot_used_ -= it->second.bytes.size();
    hot_.erase(it);
    lru_.erase(key);
    found = true;
  }
  if (auto it = overflow_.find(key); it != overflow_.end()) {
    DM_RETURN_IF_ERROR(client_.remove_sync(it->second));
    overflow_.erase(it);
    found = true;
  }
  if (!found && !missing_ok) return NotFoundError("key not cached");
  if (found) ++metrics_.counter("kv.erases");
  return Status::Ok();
}

bool KvStore::contains(std::string_view key) const {
  const std::string key_owned(key);
  return hot_.count(key_owned) > 0 || overflow_.count(key_owned) > 0;
}

}  // namespace dm::kv
