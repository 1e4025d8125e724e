// Pending-event set: one binary min-heap ordered by (time, sequence).
// The heap array holds each event's key inline next to its record, and
// every record knows its heap slot, so a pending event can be moved in
// place (reschedule) with one sift and no tombstone. A popped event's
// record stays parked until its PoppedEvent dies, so its action can re-arm
// the event in place as well. Cancellation is tombstone-based O(1); dead
// records are dropped when they reach the top.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/event.hpp"
#include "sim/time.hpp"

namespace utilrisk::sim {

class EventQueue;

/// An event removed from the queue, ready to dispatch. Its record stays
/// parked until this object dies: while it lives, EventQueue::reschedule
/// on the event's handle re-arms the record in place (its action comes
/// back to it when this object dies); without a re-arm the record is then
/// recycled. Must not outlive its queue. Dispatch is not re-entrant: a
/// re-armed event must not be popped again while this object lives (it
/// would come out without its action). If the record is recycled before
/// this object dies — say the re-armed event was cancelled and a later
/// pop dropped it — its death leaves the record alone.
class PoppedEvent {
 public:
  SimTime time = 0.0;
  EventSequence seq = 0;
  EventAction action;

  PoppedEvent(PoppedEvent&& other) noexcept
      : time(other.time),
        seq(other.seq),
        action(std::move(other.action)),
        queue_(std::exchange(other.queue_, nullptr)),
        record_(other.record_),
        generation_(other.generation_) {}
  PoppedEvent(const PoppedEvent&) = delete;
  PoppedEvent& operator=(const PoppedEvent&) = delete;
  PoppedEvent& operator=(PoppedEvent&&) = delete;
  ~PoppedEvent();

 private:
  friend class EventQueue;
  PoppedEvent(SimTime t, EventSequence s, EventAction a, EventQueue* queue,
              detail::EventRecord* record)
      : time(t), seq(s), action(std::move(a)), queue_(queue),
        record_(record), generation_(record->generation) {}

  EventQueue* queue_ = nullptr;
  detail::EventRecord* record_ = nullptr;
  /// The record's generation at the pop; a mismatch means the record was
  /// recycled since, so it is no longer this event's.
  std::uint64_t generation_ = 0;
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
  /// A popped event whose PoppedEvent still lives (its action is running)
  /// re-arms the same way: its parked record goes back into the heap under
  /// the next sequence number, the key the push it replaces would take.
  /// Returns false, and changes nothing, when the handle has fired (and
  /// its PoppedEvent died), been cancelled, gone stale, or belongs to
  /// another (possibly dead) queue.
  bool reschedule(const EventHandle& handle, SimTime time);

  /// True if no live (uncancelled) events remain.
  [[nodiscard]] bool empty() const { return *live_ == 0; }

  /// Number of live events.
  [[nodiscard]] std::size_t size() const { return *live_; }

  /// Timestamp of the earliest live event; kTimeNever when empty.
  [[nodiscard]] SimTime next_time() const;

  /// Removes and returns the earliest live event, or nullopt when empty.
  /// Tombstoned entries encountered on the way are discarded. The event's
  /// record stays parked until the returned PoppedEvent dies.
  std::optional<PoppedEvent> pop();

 private:
  friend class PoppedEvent;
  /// Heap slot: the record's (time, seq) key is stored inline, so sifts
  /// compare keys without dereferencing records.
  struct HeapEntry {
    SimTime time = 0.0;
    EventSequence seq = 0;
    detail::EventRecord* rec = nullptr;
  };

  void recycle(detail::EventRecord* rec) noexcept;
  /// Ends a popped event's dispatch: a re-armed record takes `action`
  /// back (unless it was cancelled since), any other is recycled. Does
  /// nothing when the record's generation is no longer `generation`.
  void unpark(detail::EventRecord* rec, std::uint64_t generation,
              EventAction& action) noexcept;
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
  /// Recycled slots; its capacity covers the whole pool, so recycling
  /// never allocates (unpark runs in a destructor).
  std::vector<detail::EventRecord*> free_;
  /// Binary min-heap on (time, seq); each entry's record knows its slot.
  std::vector<HeapEntry> heap_;
  /// Live-event counter, shared (weakly) with handles: expiry doubles as
  /// the "queue still alive" token for handles that outlive the queue.
  std::shared_ptr<std::size_t> live_;
  EventSequence next_sequence_ = 0;
};

}  // namespace utilrisk::sim
