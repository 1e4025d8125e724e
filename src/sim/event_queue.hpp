// Pending-event set: one binary min-heap ordered by (time, sequence).
// The heap array holds each event's key inline next to its record, and
// every record knows its heap slot, so a pending event can be moved in
// place (reschedule) with one sift and no tombstone. Cancellation is
// tombstone-based O(1); dead records are dropped when they reach the top.
#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "sim/event.hpp"
#include "sim/time.hpp"

namespace utilrisk::sim {

/// An event removed from the queue, ready to dispatch.
struct PoppedEvent {
  SimTime time = 0.0;
  EventSequence seq = 0;
  EventAction action;
};

/// Min-queue of pending events. Not thread-safe: the kernel is
/// single-threaded by design (deterministic replay is a core requirement
/// for the experiment cache; see DESIGN.md §4). Parallelism lives one
/// layer up, in exp/parallel.hpp, with one kernel per worker.
///
/// Records live in a slab pool owned by the queue and are recycled after
/// they fire, so the steady-state hot path performs no per-event heap
/// allocation.
class EventQueue {
 public:
  EventQueue();
  ~EventQueue();

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Inserts an event. `time` must be finite.
  EventHandle push(SimTime time, EventAction action);

  /// Reserves `n` consecutive sequence numbers and returns the first;
  /// later pushes number after the block. A block lets a caller keep
  /// events out of the queue until they are due while they keep the
  /// (time, seq) keys n consecutive pushes would have given them.
  EventSequence reserve_sequences(std::size_t n) {
    const EventSequence first = next_sequence_;
    next_sequence_ += n;
    return first;
  }

  /// Inserts an event under a sequence number taken from
  /// reserve_sequences(). `time` must be finite. Each reserved number
  /// may be pushed once.
  void push_reserved(SimTime time, EventSequence seq, EventAction action);

  /// Moves the pending event behind `handle` to `time` (finite), reusing
  /// its record and action. The event takes the next sequence number, as
  /// a cancel followed by a push would, so it fires in exactly the order
  /// that pair would produce — without the tombstone or the new record.
  /// Returns false, and changes nothing, when the handle has fired, been
  /// cancelled, gone stale, or belongs to another (possibly dead) queue.
  bool reschedule(const EventHandle& handle, SimTime time);

  /// True if no live (uncancelled) events remain.
  [[nodiscard]] bool empty() const { return *live_ == 0; }

  /// Number of live events.
  [[nodiscard]] std::size_t size() const { return *live_; }

  /// Timestamp of the earliest live event; kTimeNever when empty.
  [[nodiscard]] SimTime next_time() const;

  /// Removes and returns the earliest live event, or nullopt when empty.
  /// Tombstoned entries encountered on the way are discarded.
  std::optional<PoppedEvent> pop();

 private:
  /// Heap slot: the record's (time, seq) key is stored inline, so sifts
  /// compare keys without dereferencing records.
  struct HeapEntry {
    SimTime time = 0.0;
    EventSequence seq = 0;
    detail::EventRecord* rec = nullptr;
  };

  void recycle(detail::EventRecord* rec);
  [[nodiscard]] detail::EventRecord* acquire();
  /// Places a validated event with key (time, seq) in the heap; returns
  /// its record.
  detail::EventRecord* insert(SimTime time, EventSequence seq,
                              EventAction action);
  /// Removes the front entry, refilling the slot from the back.
  void heap_pop_front();
  /// Writes `entry` to slot `i` and records the slot in the record.
  void heap_place(std::size_t i, const HeapEntry& entry);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void drop_dead_top();

  std::deque<detail::EventRecord> pool_;        ///< stable slab storage
  std::vector<detail::EventRecord*> free_;      ///< recycled slots
  /// Binary min-heap on (time, seq); each entry's record knows its slot.
  std::vector<HeapEntry> heap_;
  /// Live-event counter, shared (weakly) with handles: expiry doubles as
  /// the "queue still alive" token for handles that outlive the queue.
  std::shared_ptr<std::size_t> live_;
  EventSequence next_sequence_ = 0;
};

}  // namespace utilrisk::sim
