#ifndef ESR_COMMON_FLAT_MAP_H_
#define ESR_COMMON_FLAT_MAP_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

namespace esr {

/// Open-addressing hash map with linear probing, tuned for the simulator's
/// hot paths (transaction charge/observe tracking, lock tables, the
/// transaction registry). Differences from std::unordered_map that matter
/// here:
///
///  - One contiguous slot array (capacity is a power of two); a lookup is
///    a mask, one cache line touch, and a short linear probe — no bucket
///    pointer chase, no per-node allocation.
///  - Erase uses backward-shift deletion, so there are no tombstones and
///    probe chains never grow stale. Erase moves *other* elements in the
///    same probe cluster, which is stricter than unordered_map: never
///    hold a reference to any element across an Erase, and values must
///    tolerate being moved (insertion may also move them on growth).
///  - Reserve() pre-sizes to the expected working set; with a correct hint
///    the map never rehashes mid-run (the simulator sizes from
///    ObjectStoreOptions / MPL hints).
///
/// Key must be cheap to copy and hashable via std::hash (or the Hash
/// parameter). Value must be movable but need not be default-constructible
/// (operator[] additionally requires default construction). Not
/// thread-safe; callers latch.
template <typename Key, typename T, typename Hash = std::hash<Key>>
class FlatMap {
 public:
  FlatMap() = default;

  /// Pre-sizes so that `expected` elements fit without rehashing (load
  /// factor is kept at or below 7/8).
  void Reserve(size_t expected) {
    size_t needed = 16;
    while (needed - needed / 8 < expected) needed <<= 1;
    if (needed > slots_.size()) Rehash(needed);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return slots_.size(); }

  void Clear() {
    if (size_ == 0) return;
    for (Slot& s : slots_) s.value.reset();
    size_ = 0;
  }

  /// Returns the value for `key`, default-constructing it if absent.
  T& operator[](const Key& key) {
    MaybeGrow();
    Slot& slot = slots_[ProbeFor(key)];
    if (!slot.value.has_value()) {
      slot.key = key;
      slot.value.emplace();
      ++size_;
    }
    return *slot.value;
  }

  /// Inserts `value` under `key` if absent; returns (pointer, inserted).
  std::pair<T*, bool> TryEmplace(const Key& key, T value) {
    MaybeGrow();
    Slot& slot = slots_[ProbeFor(key)];
    if (slot.value.has_value()) return {&*slot.value, false};
    slot.key = key;
    slot.value.emplace(std::move(value));
    ++size_;
    return {&*slot.value, true};
  }

  /// Returns the value for `key`, or nullptr if absent.
  T* Find(const Key& key) {
    if (slots_.empty()) return nullptr;
    Slot& slot = slots_[ProbeFor(key)];
    return slot.value.has_value() ? &*slot.value : nullptr;
  }
  const T* Find(const Key& key) const {
    return const_cast<FlatMap*>(this)->Find(key);
  }

  bool Contains(const Key& key) const { return Find(key) != nullptr; }

  /// Removes `key` if present; returns whether anything was removed.
  /// Backward-shift deletion: elements later in the same probe cluster
  /// are moved, invalidating references to them.
  bool Erase(const Key& key) {
    if (slots_.empty()) return false;
    size_t hole = ProbeFor(key);
    if (!slots_[hole].value.has_value()) return false;
    const size_t mask = slots_.size() - 1;
    size_t next = (hole + 1) & mask;
    while (slots_[next].value.has_value()) {
      const size_t home = Hash{}(slots_[next].key) & mask;
      // Shift `next` into the hole unless its home lies strictly between
      // the hole and `next` in circular probe order (then it is already
      // as close to home as it can get).
      const bool in_place = ((next - home) & mask) < ((next - hole) & mask);
      if (!in_place) {
        slots_[hole].key = slots_[next].key;
        slots_[hole].value = std::move(slots_[next].value);
        hole = next;
      }
      next = (next + 1) & mask;
    }
    slots_[hole].value.reset();
    --size_;
    return true;
  }

  /// Calls fn(key, value) for every element, in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (Slot& s : slots_) {
      if (s.value.has_value()) fn(s.key, *s.value);
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.value.has_value()) fn(s.key, *s.value);
    }
  }

 private:
  struct Slot {
    Key key{};
    std::optional<T> value;
  };

  // The user hash is used raw — for libstdc++ integer keys that is the
  // identity, which is deliberate: the simulator keys these maps by
  // *dense* ObjectIds/TxnIds, and identity placement gives single-probe
  // lookups and inserts (~3x unordered_map on the txn-churn shape, as
  // recorded in bench/baseline/SPEED.md; a Fibonacci finalizer was tried
  // and cost 2.5x there). The flip side, measured by the adversarial
  // lock-dense kernel recorded there (0.17x unordered_map):
  // backward-shift erase scans the whole probe cluster, so hundreds of
  // simultaneously *live* consecutive keys would degrade erase badly.
  // Live sets here are bounded by MPL x ops-per-txn (~120, clusters no
  // longer than the ~20-object hot set), so the dense regime stays the
  // fast one. Revisit if a caller ever keeps 100s of adjacent keys live.
  //
  // Index of the slot holding `key`, or of the empty slot where it would go.
  size_t ProbeFor(const Key& key) const {
    const size_t mask = slots_.size() - 1;
    size_t i = Hash{}(key) & mask;
    while (slots_[i].value.has_value() && !(slots_[i].key == key)) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void MaybeGrow() {
    if (slots_.empty()) {
      Rehash(16);
    } else if (size_ + 1 > slots_.size() - slots_.size() / 8) {
      Rehash(slots_.size() * 2);
    }
  }

  void Rehash(size_t new_capacity) {
    assert((new_capacity & (new_capacity - 1)) == 0);
    std::vector<Slot> old = std::move(slots_);
    slots_ = std::vector<Slot>(new_capacity);
    const size_t mask = new_capacity - 1;
    for (Slot& s : old) {
      if (!s.value.has_value()) continue;
      size_t i = Hash{}(s.key) & mask;
      while (slots_[i].value.has_value()) i = (i + 1) & mask;
      slots_[i].key = s.key;
      slots_[i].value = std::move(s.value);
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace esr

#endif  // ESR_COMMON_FLAT_MAP_H_
