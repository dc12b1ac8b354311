// Key-value cache over disaggregated memory (paper §II.B, §III).
//
// "Memory swapping and key-value based memory caching are the two killer
// applications for partial memory disaggregation." The swap path lives in
// src/swap; this is the other one: a memcached-class cache whose hot tier
// is plain DRAM and whose overflow values are parked in disaggregated
// memory through the server's LDMC (node-level shared pool first, then
// remote memory) instead of being dropped.
//
// With the disaggregated tier disabled the store behaves like a plain
// bounded cache: overflow values are discarded and later gets miss — the
// application then pays its backend (database) cost, which is the
// comparison bench_ablation_kv_cache quantifies.
//
// Values are stored verbatim together with their key (the entry is
// self-describing), so a get from the disaggregated tier verifies that the
// hash-derived entry id really belongs to the requested key.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/lru.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/units.h"
#include "core/ldmc.h"

namespace dm::kv {

class KvStore {
 public:
  struct Config {
    // DRAM budget for hot values (keys + metadata are always in DRAM, as
    // in memcached).
    std::uint64_t hot_bytes = 16 * MiB;
    // Park overflow values in disaggregated memory (vs dropping them).
    bool use_disaggregated_memory = true;
  };

  KvStore(core::Ldmc& client, Config config);

  // Inserts or replaces a value. Values up to 64 KiB minus header.
  Status set(std::string_view key, std::span<const std::byte> value);

  // Returns the value, from the hot tier or the disaggregated tier.
  // kNotFound when the key was never set, was erased, or its overflow
  // value was dropped (disaggregation disabled).
  StatusOr<std::vector<std::byte>> get(std::string_view key);

  Status erase(std::string_view key);
  bool contains(std::string_view key) const;

  std::uint64_t hot_bytes_used() const noexcept { return hot_used_; }
  std::size_t hot_entries() const noexcept { return hot_.size(); }
  std::size_t overflow_entries() const noexcept { return overflow_.size(); }
  MetricsRegistry& metrics() noexcept { return metrics_; }
  core::Ldmc& client() noexcept { return client_; }

 private:
  struct HotValue {
    std::vector<std::byte> bytes;
  };

  void charge(SimTime cost);
  Status evict_one();
  Status erase_internal(const std::string& key, bool missing_ok);
  // Serialized form: u32 key length, key bytes, value bytes.
  static std::vector<std::byte> encode(std::string_view key,
                                       std::span<const std::byte> value);
  static StatusOr<std::pair<std::string, std::vector<std::byte>>> decode(
      std::span<const std::byte> entry);
  mem::EntryId allocate_entry_id(const std::string& key);

  core::Ldmc& client_;
  Config config_;
  std::unordered_map<std::string, HotValue> hot_;
  LruTracker<std::string> lru_;
  std::unordered_map<std::string, mem::EntryId> overflow_;
  std::uint64_t hot_used_ = 0;
  std::uint64_t next_salt_ = 0;
  MetricsRegistry metrics_;
};

}  // namespace dm::kv
