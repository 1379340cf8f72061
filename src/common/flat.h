// Flat (sorted-vector) set and map containers for protocol round state.
//
// The FDS and formation agents accumulate small per-round collections —
// heartbeat senders heard, digests received, claims overheard — that are
// filled, queried, and cleared once per execution. Node-based std::set/
// std::map pay one heap allocation per element per round; these flat
// containers keep one contiguous buffer that clear() retains, so steady-state
// rounds allocate nothing. Iteration order is ascending by key, matching the
// std::set/std::map ordering the detection rules and digest emission relied
// on — swapping the containers cannot reorder any message content or event.
//
// Deliberately minimal: only the operations the protocol layers use.
// Insertion is O(size) worst case (memmove), which beats node allocation for
// the cluster-sized (~tens of elements) collections involved.

#pragma once

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <utility>
#include <vector>

#include "common/expect.h"

namespace cfds {

/// Sorted-unique vector with a set-like interface.
template <typename T>
class FlatSet {
 public:
  using const_iterator = typename std::vector<T>::const_iterator;
  using value_type = T;

  FlatSet() = default;
  FlatSet(std::initializer_list<T> init) { assign(init.begin(), init.end()); }

  FlatSet& operator=(std::initializer_list<T> init) {
    assign(init.begin(), init.end());
    return *this;
  }

  /// Inserts `value`; returns true if it was not already present.
  bool insert(const T& value) {
    const auto it = std::lower_bound(items_.begin(), items_.end(), value);
    if (it != items_.end() && *it == value) return false;
    items_.insert(it, value);
    return true;
  }

  /// Replaces the contents with the (possibly unsorted, possibly duplicated)
  /// range [first, last). Reuses the existing buffer.
  template <typename It>
  void assign(It first, It last) {
    items_.assign(first, last);
    std::sort(items_.begin(), items_.end());
    items_.erase(std::unique(items_.begin(), items_.end()), items_.end());
  }

  [[nodiscard]] bool contains(const T& value) const {
    return std::binary_search(items_.begin(), items_.end(), value);
  }

  /// Removes `value`; returns true if it was present.
  bool erase(const T& value) {
    const auto it = std::lower_bound(items_.begin(), items_.end(), value);
    if (it == items_.end() || *it != value) return false;
    items_.erase(it);
    return true;
  }

  /// Drops all elements but keeps the allocated buffer for the next round.
  void clear() { items_.clear(); }

  /// Pre-sizes the backing buffer (std::vector::reserve semantics).
  void reserve(std::size_t n) { items_.reserve(n); }
  [[nodiscard]] std::size_t capacity() const { return items_.capacity(); }

  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] const_iterator begin() const { return items_.begin(); }
  [[nodiscard]] const_iterator end() const { return items_.end(); }

  friend bool operator==(const FlatSet&, const FlatSet&) = default;

 private:
  std::vector<T> items_;
};

/// Sorted-by-key vector of pairs with a map-like interface.
template <typename K, typename V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  /// Returns the value for `key`, default-constructing it if absent.
  V& operator[](const K& key) {
    const auto it = lower_bound(key);
    if (it != items_.end() && it->first == key) return it->second;
    return items_.insert(it, value_type{key, V{}})->second;
  }

  /// Inserts {key, value} unless `key` is present (then its value is kept);
  /// returns true if it inserted.
  bool insert(const K& key, const V& value) {
    const auto it = lower_bound(key);
    if (it != items_.end() && it->first == key) return false;
    items_.insert(it, value_type{key, value});
    return true;
  }

  [[nodiscard]] const V& at(const K& key) const {
    const auto it = find(key);
    CFDS_EXPECT(it != end(), "FlatMap::at: key not present");
    return it->second;
  }

  [[nodiscard]] bool contains(const K& key) const {
    const auto it = lower_bound(key);
    return it != items_.end() && it->first == key;
  }

  [[nodiscard]] iterator find(const K& key) {
    const auto it = lower_bound(key);
    return it != items_.end() && it->first == key ? it : items_.end();
  }
  [[nodiscard]] const_iterator find(const K& key) const {
    const auto it = lower_bound(key);
    return it != items_.end() && it->first == key ? it : items_.end();
  }

  /// Removes the entry for `key`; returns true if it was present.
  bool erase(const K& key) {
    const auto it = lower_bound(key);
    if (it == items_.end() || it->first != key) return false;
    items_.erase(it);
    return true;
  }

  /// Removes every entry `pred` holds for, in one pass that keeps the rest
  /// in order.
  template <typename Pred>
  void erase_if(Pred pred) {
    auto kept = items_.begin();
    for (auto it = items_.begin(); it != items_.end(); ++it) {
      if (pred(*it)) continue;
      if (kept != it) *kept = std::move(*it);
      ++kept;
    }
    items_.erase(kept, items_.end());
  }

  /// Drops all entries but keeps the entry buffer for the next round.
  void clear() { items_.clear(); }

  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] iterator begin() { return items_.begin(); }
  [[nodiscard]] iterator end() { return items_.end(); }
  [[nodiscard]] const_iterator begin() const { return items_.begin(); }
  [[nodiscard]] const_iterator end() const { return items_.end(); }

 private:
  [[nodiscard]] iterator lower_bound(const K& key) {
    return std::lower_bound(
        items_.begin(), items_.end(), key,
        [](const value_type& item, const K& k) { return item.first < k; });
  }
  [[nodiscard]] const_iterator lower_bound(const K& key) const {
    return std::lower_bound(
        items_.begin(), items_.end(), key,
        [](const value_type& item, const K& k) { return item.first < k; });
  }

  std::vector<value_type> items_;
};

}  // namespace cfds
