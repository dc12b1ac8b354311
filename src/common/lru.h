// O(1) LRU recency tracker over arbitrary keys.
//
// Used by the swap frontends (victim selection) and caches (eviction order).
// touch() moves a key to the MRU end; evict_lru() pops the LRU end.
#pragma once

#include <cassert>
#include <functional>
#include <list>
#include <optional>
#include <unordered_map>

namespace dm {

template <typename Key, typename Hash = std::hash<Key>>
class LruTracker {
 public:
  // Inserts the key as MRU, or refreshes it to MRU if present.
  void touch(const Key& key) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      order_.splice(order_.end(), order_, it->second);
      return;
    }
    order_.push_back(key);
    index_.emplace(key, std::prev(order_.end()));
  }

  bool contains(const Key& key) const { return index_.count(key) > 0; }

  // Removes and returns the least-recently-used key, or nullopt if empty.
  std::optional<Key> evict_lru() {
    if (order_.empty()) return std::nullopt;
    Key victim = order_.front();
    order_.pop_front();
    index_.erase(victim);
    return victim;
  }

  // Peek at the LRU key without removing it.
  std::optional<Key> peek_lru() const {
    if (order_.empty()) return std::nullopt;
    return order_.front();
  }

  bool erase(const Key& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return false;
    order_.erase(it->second);
    index_.erase(it);
    return true;
  }

  std::size_t size() const noexcept { return index_.size(); }
  bool empty() const noexcept { return index_.empty(); }

  void clear() {
    order_.clear();
    index_.clear();
  }

  // LRU-to-MRU iteration (read-only).
  auto begin() const { return order_.begin(); }
  auto end() const { return order_.end(); }

 private:
  std::list<Key> order_;  // front = LRU, back = MRU
  std::unordered_map<Key, typename std::list<Key>::iterator, Hash> index_;
};

}  // namespace dm
