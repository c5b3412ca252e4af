// A flat hash map from a signed integer id (NodeId, FlowId) to a small
// value, for the lookups on the per-hop path: a node's port by
// neighbour, a host's agents by flow, a PDQ controller's list index by
// flow.
//
// Open addressing in one power-of-two array of (key, value) entries:
// a multiplicative (Fibonacci) hash takes the top bits of key * 2^64/phi
// as the home slot, collisions probe linearly (wrapping past the end),
// and erase shifts later entries of the probe run back instead of
// leaving tombstones, so a lookup stops at the first empty slot. The
// invalid id -1 marks an empty slot and can never be stored. Against
// std::unordered_map this drops the prime-modulo bucket step and the
// pointer chase to a heap node per entry.
//
// Iteration order is the table order, which depends on the insertion
// history; callers that iterate (the auditor) must not depend on it.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace pdq::net {

template <typename Key, typename Value>
class IdMap {
  static_assert(std::is_integral_v<Key> && std::is_signed_v<Key>,
                "IdMap keys are signed integer ids");

 public:
  static constexpr Key kEmpty = -1;

  std::size_t size() const { return size_; }
  /// Number of slots in the table (0 before the first insert).
  std::size_t capacity() const { return table_.size(); }

  /// The slot `key` probes first (test hook, like
  /// std::unordered_map::bucket). Precondition: capacity() > 0.
  std::size_t bucket(Key key) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  Value* find(Key key) {
    if (size_ == 0 || key == kEmpty) return nullptr;
    for (std::size_t i = bucket(key);; i = (i + 1) & mask_) {
      Entry& e = table_[i];
      if (e.key == key) return &e.value;
      if (e.key == kEmpty) return nullptr;
    }
  }
  const Value* find(Key key) const {
    return const_cast<IdMap*>(this)->find(key);
  }

  /// The value for `key`, value-initialized and inserted when absent.
  Value& operator[](Key key) {
    assert(key != kEmpty);
    if (Value* v = find(key)) return *v;
    // The load stays at or below one half.
    if (2 * (size_ + 1) > table_.size()) rehash(table_.size() * 2);
    std::size_t i = bucket(key);
    while (table_[i].key != kEmpty) i = (i + 1) & mask_;
    table_[i] = Entry{key, Value{}};
    ++size_;
    return table_[i].value;
  }

  /// Removes `key`; returns whether it was present.
  bool erase(Key key) {
    if (size_ == 0 || key == kEmpty) return false;
    std::size_t hole = bucket(key);
    while (table_[hole].key != key) {
      if (table_[hole].key == kEmpty) return false;
      hole = (hole + 1) & mask_;
    }
    // Backward-shift: move each later entry of the probe run into the
    // hole unless that would put it before its home slot.
    for (std::size_t j = (hole + 1) & mask_; table_[j].key != kEmpty;
         j = (j + 1) & mask_) {
      const std::size_t probe_len = (j - bucket(table_[j].key)) & mask_;
      if (probe_len >= ((j - hole) & mask_)) {
        table_[hole] = table_[j];
        hole = j;
      }
    }
    table_[hole].key = kEmpty;
    --size_;
    return true;
  }

  /// Empties the map; the table keeps its size.
  void clear() {
    for (Entry& e : table_) e.key = kEmpty;
    size_ = 0;
  }

  /// Calls fn(key, value) for every entry, in table order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& e : table_) {
      if (e.key != kEmpty) fn(e.key, e.value);
    }
  }

 private:
  struct Entry {
    Key key = kEmpty;
    Value value{};
  };

  static constexpr std::size_t kMinCapacity = 8;

  void rehash(std::size_t capacity) {
    if (capacity < kMinCapacity) capacity = kMinCapacity;
    std::vector<Entry> old(capacity);
    old.swap(table_);
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
    for (const Entry& e : old) {
      if (e.key == kEmpty) continue;
      std::size_t i = bucket(e.key);
      while (table_[i].key != kEmpty) i = (i + 1) & mask_;
      table_[i] = e;
    }
  }

  std::vector<Entry> table_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace pdq::net
