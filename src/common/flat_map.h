#ifndef LDIV_COMMON_FLAT_MAP_H_
#define LDIV_COMMON_FLAT_MAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"

namespace ldv {

/// splitmix64 finalizer: full-avalanche mixing of a 64-bit key. Hot-path
/// keys (packed point ids, signature hashes) are highly structured, so
/// they must be scrambled before masking into a power-of-two table.
inline std::uint64_t MixU64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a over 32-bit values: start from kFnvOffsetBasis and fold each
/// value in with FnvFold. The signature hashes of QI rows are built this
/// way, column by column or row by row, and masked through MixU64.
inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

inline std::uint64_t FnvFold(std::uint64_t hash, std::uint32_t value) {
  return (hash ^ value) * kFnvPrime;
}

/// Open-addressing hash map from 64-bit keys to small trivially-copyable
/// values, built for the packed-point and packed-cell accumulation loops of
/// the KL estimators and for QI-signature indexing. Compared with
/// std::unordered_map it stores everything in three flat arrays (keys,
/// values, one occupancy byte per slot), probes linearly, and never
/// allocates per node -- a lookup touches one or two cache lines instead of
/// chasing a bucket list. Clear() keeps the capacity so a map owned by a
/// Workspace is allocation-free across solves.
///
/// Keys are arbitrary 64-bit values (0 and ~0 included); occupancy is
/// tracked in a separate byte array rather than via a reserved sentinel key.
/// There is no erase: the hot paths only ever build and probe.
template <typename V>
class FlatMap {
 public:
  FlatMap() = default;

  /// A map pre-sized for `expected` insertions.
  explicit FlatMap(std::size_t expected) { Reserve(expected); }

  /// Number of keys present.
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Number of slots currently allocated.
  std::size_t capacity() const { return keys_.size(); }

  /// Grows the backing arrays so `expected` insertions fit without rehash.
  void Reserve(std::size_t expected) {
    std::size_t needed = SlotsFor(expected);
    if (needed > keys_.size()) Rehash(needed);
  }

  /// Forgets every key but keeps the allocated capacity.
  void Clear() {
    if (size_ == 0) return;
    std::fill(used_.begin(), used_.end(), std::uint8_t{0});
    size_ = 0;
  }

  /// Pointer to the value of `key`, or nullptr when absent.
  V* Find(std::uint64_t key) {
    if (keys_.empty()) return nullptr;
    std::size_t i = Mix(key) & mask_;
    while (used_[i]) {
      if (keys_[i] == key) return &vals_[i];
      i = (i + 1) & mask_;
    }
    return nullptr;
  }
  const V* Find(std::uint64_t key) const {
    return const_cast<FlatMap*>(this)->Find(key);
  }

  /// Inserts (key, value) if the key is absent. Returns the slot's value
  /// pointer and whether an insertion happened (mirroring try_emplace).
  std::pair<V*, bool> TryEmplace(std::uint64_t key, V value) {
    if (ShouldGrow()) Rehash(keys_.empty() ? kMinSlots : keys_.size() * 2);
    std::size_t i = Mix(key) & mask_;
    while (used_[i]) {
      if (keys_[i] == key) return {&vals_[i], false};
      i = (i + 1) & mask_;
    }
    used_[i] = 1;
    keys_[i] = key;
    vals_[i] = value;
    ++size_;
    return {&vals_[i], true};
  }

  /// The value of `key`, default-inserted when absent.
  V& operator[](std::uint64_t key) { return *TryEmplace(key, V{}).first; }

  /// Calls `fn(key, value)` for every entry, in slot order (deterministic
  /// for a given insertion sequence and capacity).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (used_[i]) fn(keys_[i], vals_[i]);
    }
  }

 private:
  static constexpr std::size_t kMinSlots = 16;

  // Slots are kept at most 7/8 full; capacity is always a power of two.
  static std::size_t SlotsFor(std::size_t entries) {
    std::size_t slots = kMinSlots;
    while (slots - slots / 8 < entries) slots <<= 1;
    return slots;
  }

  bool ShouldGrow() const {
    return keys_.empty() || size_ + 1 > keys_.size() - keys_.size() / 8;
  }

  static std::uint64_t Mix(std::uint64_t x) { return MixU64(x); }

  void Rehash(std::size_t new_slots) {
    LDIV_CHECK((new_slots & (new_slots - 1)) == 0);
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<V> old_vals = std::move(vals_);
    std::vector<std::uint8_t> old_used = std::move(used_);
    keys_.assign(new_slots, 0);
    vals_.assign(new_slots, V{});
    used_.assign(new_slots, 0);
    mask_ = new_slots - 1;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (!old_used[i]) continue;
      std::size_t j = Mix(old_keys[i]) & mask_;
      while (used_[j]) j = (j + 1) & mask_;
      used_[j] = 1;
      keys_[j] = old_keys[i];
      vals_[j] = old_vals[i];
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<V> vals_;
  std::vector<std::uint8_t> used_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// Companion set of 64-bit keys with the same layout and probing scheme.
class FlatSet {
 public:
  FlatSet() = default;
  explicit FlatSet(std::size_t expected) : map_(expected) {}

  std::size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void Reserve(std::size_t expected) { map_.Reserve(expected); }
  void Clear() { map_.Clear(); }

  /// Inserts `key`; returns true iff it was absent.
  bool Insert(std::uint64_t key) { return map_.TryEmplace(key, 0).second; }

  bool Contains(std::uint64_t key) const { return map_.Find(key) != nullptr; }

 private:
  FlatMap<std::uint8_t> map_;
};

}  // namespace ldv

#endif  // LDIV_COMMON_FLAT_MAP_H_
