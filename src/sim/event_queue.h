#ifndef ESR_SIM_EVENT_QUEUE_H_
#define ESR_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace esr {

/// Virtual time in microseconds since simulation start.
using SimTime = int64_t;

inline constexpr SimTime kMicrosPerMilli = 1000;
inline constexpr SimTime kMicrosPerSecond = 1'000'000;

/// Deterministic discrete-event simulation kernel: a priority queue of
/// (time, callback) events and a virtual clock. Ties are broken in
/// scheduling order (FIFO), so runs are exactly reproducible.
///
/// The hot path is allocation-free in steady state. Callbacks are stored
/// in pooled slots with a small inline buffer (no std::function, no
/// per-event heap allocation for ordinary lambda captures); callables
/// larger than the inline buffer spill to a per-slot heap block that is
/// recycled together with the slot, so even the oversize path stops
/// allocating once the pool is warm. The priority queue orders small POD
/// (time, seq, slot) triples — sift operations move 24 bytes, not a fat
/// type-erased functor. Slots live in fixed-size chunks, so a stored
/// callable never moves once constructed (safe for self-referential
/// captures) and slot indices stay valid across pool growth.
class EventQueue {
 public:
  EventQueue() = default;
  ~EventQueue();

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Current virtual time.
  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute virtual time `at` (clamped to now).
  /// Re-entrant: callbacks may schedule further events, including at the
  /// running event's own timestamp (they run after every event already
  /// queued for that timestamp, preserving the FIFO tie-break).
  /// Move-only callables are accepted.
  template <typename Fn>
  void ScheduleAt(SimTime at, Fn&& fn) {
    using Callback = std::decay_t<Fn>;
    static_assert(std::is_invocable_v<Callback&>,
                  "EventQueue callbacks take no arguments");
    const uint32_t index = AcquireSlot();
    Slot& slot = SlotAt(index);
    void* storage;
    if constexpr (sizeof(Callback) <= kInlineCallbackBytes &&
                  alignof(Callback) <= alignof(std::max_align_t)) {
      storage = slot.inline_storage;
    } else {
      storage = OversizeStorage(slot, sizeof(Callback), alignof(Callback));
    }
    slot.callable = ::new (storage) Callback(std::forward<Fn>(fn));
    // Fused call+destructor keeps the hot path at one indirect call per
    // event; `destroy` alone is only for events still pending at queue
    // destruction.
    slot.run = [](void* callable) {
      Callback* cb = static_cast<Callback*>(callable);
      (*cb)();
      cb->~Callback();
    };
    slot.destroy = [](void* callable) { static_cast<Callback*>(callable)->~Callback(); };
    PushEntry(at, index);
  }

  /// Schedules `fn` after a relative delay.
  template <typename Fn>
  void ScheduleAfter(SimTime delay, Fn&& fn) {
    ScheduleAt(now_ + delay, std::forward<Fn>(fn));
  }

  /// Runs the earliest event; false when the queue is empty.
  bool RunOne();

  /// Runs events until virtual time exceeds `until` or the queue drains.
  void RunUntil(SimTime until);

  /// Drains the queue completely (bounded by `max_events` as a runaway
  /// guard; 0 means unbounded).
  void RunAll(uint64_t max_events = 0);

  size_t pending() const { return heap_.size(); }
  uint64_t executed() const { return executed_; }

 private:
  /// Inline capture budget. Covers every simulator callback (the largest,
  /// the client's [this, Timestamp, SimTime] BEGIN leg, is 32 bytes) and
  /// a small-buffer std::function; larger callables take the recycled
  /// oversize path.
  static constexpr size_t kInlineCallbackBytes = 64;
  /// Slots per pool chunk. Chunked storage keeps slot addresses stable
  /// while the pool grows (callables must never be memcpy'd).
  static constexpr uint32_t kSlotsPerChunk = 256;
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  using InvokeFn = void (*)(void* callable);
  using DestroyFn = void (*)(void* callable);

  /// One pooled callback holder. `callable` points into `inline_storage`
  /// or into the owned `heap_block` (oversize callables). The heap block
  /// is kept when the slot returns to the free list and reused by the
  /// next oversize callable that fits it.
  struct Slot {
    /// Invokes then destroys the callable (the RunOne path).
    InvokeFn run = nullptr;
    /// Destroys without invoking (pending events at queue destruction).
    DestroyFn destroy = nullptr;
    void* callable = nullptr;
    void* heap_block = nullptr;
    size_t heap_bytes = 0;
    size_t heap_align = 0;
    uint32_t next_free = kNoSlot;
    alignas(std::max_align_t) unsigned char inline_storage[kInlineCallbackBytes];
  };

  /// What the priority queue actually orders: 24 bytes of POD. The heap
  /// is a hand-rolled binary heap with Floyd's pop refinement and a
  /// two-levels-ahead sift-down prefetch (see SiftDown) — the depth-64+
  /// churn shapes are sift-bound, not allocation-bound. (at, seq) is a
  /// total order (seq is unique), so pop order — and therefore
  /// determinism — is independent of the heap's internal layout.
  struct HeapEntry {
    SimTime at;
    uint64_t seq;
    uint32_t slot;
  };
  /// "a runs before b": min time first, FIFO (sequence-number) tie-break
  /// — the determinism contract.
  static bool Earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  Slot& SlotAt(uint32_t index) {
    return chunks_[index / kSlotsPerChunk][index % kSlotsPerChunk];
  }

  /// Pops a slot from the free list, growing the pool by one chunk when
  /// every existing slot is live.
  uint32_t AcquireSlot();
  /// Returns a slot (callable already destroyed) to the free list.
  void ReleaseSlot(uint32_t index);
  /// Storage for a callable larger than the inline buffer: reuses the
  /// slot's existing heap block when it fits, else (re)allocates.
  void* OversizeStorage(Slot& slot, size_t bytes, size_t align);
  /// Clamps `at` to now, assigns the FIFO sequence number, and pushes the
  /// (time, seq, slot) triple.
  void PushEntry(SimTime at, uint32_t slot_index);
  /// Inserts `entry` (conceptually at `hole`) by walking toward the root.
  void SiftUp(size_t hole, HeapEntry entry);
  /// Re-seats `entry` (conceptually at the root) by walking toward the
  /// leaves, pulling up the earlier child at each level.
  void SiftDown(HeapEntry entry);

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  uint32_t allocated_slots_ = 0;
  uint32_t free_head_ = kNoSlot;
  std::vector<HeapEntry> heap_;
};

}  // namespace esr

#endif  // ESR_SIM_EVENT_QUEUE_H_
