#include "rddcache/executor.h"

#include <cstring>

#include "common/status.h"
#include "common/units.h"
#include "core/ldmc.h"

namespace dm::rdd {
namespace {

constexpr SimTime kCpuNsPerRecord = 60;  // lineage compute cost

std::uint64_t pack(RddId rdd, std::uint64_t partition) {
  return (static_cast<std::uint64_t>(rdd) << 40) ^ partition;
}

}  // namespace

Executor::Executor(core::Ldmc& client, Config config)
    : client_(client), config_(config) {}

void Executor::charge(SimTime cost) {
  auto& sim = client_.service().node().simulator();
  sim.run_until(sim.now() + cost);
}

std::vector<std::byte> Executor::serialize(
    const std::vector<Record>& records) {
  std::vector<std::byte> out(records.size() * sizeof(Record));
  std::memcpy(out.data(), records.data(), out.size());
  return out;
}

std::vector<Record> Executor::deserialize(std::span<const std::byte> bytes) {
  std::vector<Record> out(bytes.size() / sizeof(Record));
  std::memcpy(out.data(), bytes.data(), out.size() * sizeof(Record));
  return out;
}

mem::EntryId Executor::chunk_entry(const CacheKey& key,
                                   std::uint64_t chunk) const {
  return (static_cast<mem::EntryId>(key.rdd) << 40) ^
         ((key.partition & 0xffffffffULL) << 8) ^ chunk;
}

StatusOr<std::vector<Record>> Executor::get_partition(const RddPtr& rdd,
                                                      std::size_t p) {
  const CacheKey key{rdd->id(), p};

  if (rdd->is_cached()) {
    if (auto cached = cache_load(key)) {
      ++hits_;
      return *std::move(cached);
    }
    // Off-heap copy?
    auto off = offheap_.find(key);
    if (off != offheap_.end()) {
      ++offheap_fetches_;
      std::vector<std::byte> bytes(off->second.bytes);
      std::uint64_t cursor = 0;
      for (std::uint64_t c = 0; c < off->second.chunks; ++c) {
        const mem::EntryId entry = chunk_entry(key, c);
        auto size = client_.stored_size(entry);
        if (!size.ok()) return size.status();
        DM_RETURN_IF_ERROR(client_.get_sync(
            entry, std::span(bytes).subspan(cursor, *size)));
        cursor += *size;
      }
      return deserialize(bytes);
    }
  }

  // Compute from lineage.
  std::uint64_t compute_ops = 0;
  std::vector<Record> records = rdd->compute(p, &compute_ops);
  charge(static_cast<SimTime>(compute_ops) * kCpuNsPerRecord);
  if (rdd->is_cached()) {
    if (computed_before_.count(pack(key.rdd, key.partition)) > 0)
      ++recomputes_;
    computed_before_.insert(pack(key.rdd, key.partition));
    cache_store(key, records);
  }
  return records;
}

std::optional<std::vector<Record>> Executor::cache_load(const CacheKey& key) {
  auto it = heap_.find(key);
  if (it == heap_.end()) return std::nullopt;
  lru_.touch(pack(key.rdd, key.partition));
  return it->second;
}

void Executor::cache_store(const CacheKey& key,
                           const std::vector<Record>& records) {
  const std::uint64_t bytes = records.size() * sizeof(Record);
  if (heap_used_ + bytes > config_.cache_bytes) {
    // Spark MEMORY_ONLY semantics: a block that does not fit is not
    // admitted (blocks of the RDD being materialized are never evicted for
    // it). Vanilla drops it — "partial caching" — while DAHI stores it
    // off-heap instead.
    overflow_store(key, records);
    return;
  }
  heap_.emplace(key, records);
  heap_used_ += bytes;
  lru_.touch(pack(key.rdd, key.partition));
}

void Executor::overflow_store(const CacheKey& key,
                              const std::vector<Record>& records) {
  switch (config_.overflow) {
    case OverflowPolicy::kRecompute:
      return;  // dropped; lineage recomputes on next use
    case OverflowPolicy::kDahi: {
      std::vector<std::byte> bytes = serialize(records);
      const std::uint64_t chunk_bytes = config_.dahi_chunk_bytes;
      std::uint64_t chunks = 0;
      for (std::uint64_t cursor = 0; cursor < bytes.size();
           cursor += chunk_bytes, ++chunks) {
        const std::uint64_t len =
            std::min<std::uint64_t>(chunk_bytes, bytes.size() - cursor);
        Status stored = client_.put_sync(
            chunk_entry(key, chunks),
            std::span<const std::byte>(bytes).subspan(cursor, len));
        if (!stored.ok()) {
          // Roll back partial chunks; the partition is simply not cached.
          for (std::uint64_t c = 0; c < chunks; ++c)
            (void)client_.remove_sync(chunk_entry(key, c));
          return;
        }
      }
      offheap_[key] = OffHeapRef{chunks, bytes.size()};
      return;
    }
  }
}

}  // namespace dm::rdd
