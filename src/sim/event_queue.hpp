// Pending-event set with two interchangeable structures behind one API:
// a binary heap ordered by (time, sequence) for small event sets, and a
// Brown-style calendar queue for large ones (10k-100k-node clusters keep
// tens of thousands of completion events pending; the heap's O(log n)
// sift chains dominate the kernel there). Both structures pop the unique
// global minimum under the same (time, sequence) total order, so the
// dispatch sequence — and therefore every replay digest — is identical
// regardless of which structure is active or when the switch happens.
// Cancellation stays tombstone-based O(1) in both modes; a pending event
// can also be moved in place (reschedule), which leaves no tombstone.
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
/// allocation. The structure starts as a binary heap and migrates to a
/// calendar queue once the live count crosses kCalendarEnter (back to the
/// heap below kCalendarExit); the calendar keeps ~1 live event per bucket
/// via power-of-two resizing, making push/pop O(1) amortised.
class EventQueue {
 public:
  /// Live-event count above which the queue migrates to calendar mode.
  static constexpr std::size_t kCalendarEnter = 512;
  /// Live-event count below which calendar mode migrates back to the heap.
  static constexpr std::size_t kCalendarExit = 128;

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
    const EventSequence first = next_seq_;
    next_seq_ += n;
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

  /// Drops every pending event.
  void clear();

  /// True while the calendar structure is active (diagnostics/tests).
  [[nodiscard]] bool calendar_active() const { return calendar_mode_; }

  /// Pins the queue to the binary heap regardless of size (benchmarks use
  /// this to measure the pre-calendar baseline; tests use it to compare
  /// structures). Call before the first push.
  void force_heap_mode() { heap_pinned_ = true; }

 private:
  /// Heap slot: the record's (time, seq) key is stored inline, so sifts
  /// compare keys without dereferencing records.
  struct HeapEntry {
    SimTime time = 0.0;
    EventSequence seq = 0;
    detail::EventRecord* rec = nullptr;
  };

  // -- shared slab plumbing --
  void recycle(detail::EventRecord* rec);
  [[nodiscard]] detail::EventRecord* acquire();
  /// Places a validated event with key (time, seq) in the active
  /// structure; returns its record.
  detail::EventRecord* insert(SimTime time, EventSequence seq,
                              EventAction action);

  // -- heap mode --
  /// Removes the front entry, refilling the slot from the back.
  void heap_pop_front();
  /// Writes `entry` to slot `i` and records the slot in the record.
  void heap_place(std::size_t i, const HeapEntry& entry);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void drop_dead_top();

  // -- calendar mode --
  void enter_calendar();
  void exit_calendar();
  /// Re-buckets every resident record for `live` live events (tombstones
  /// are recycled on the way).
  void rebuild_calendar(std::size_t live);
  /// Sizes the ring for the records gathered in scratch_ and re-inserts
  /// them. Bucket vectors are reused across rebuilds (cleared, not freed),
  /// so steady-state growth performs no per-bucket allocation churn.
  void distribute_scratch();
  /// Inserts into the ring; returns the record's bucket length afterwards
  /// (calendar_place watches it to detect a stale bucket width).
  std::size_t calendar_insert(detail::EventRecord* rec);
  /// calendar_insert plus the ring-growth and width-adaptation checks a
  /// push or a move runs afterwards.
  void calendar_place(detail::EventRecord* rec);
  /// Removes a resident record from its bucket by binary search on the
  /// bucket's descending (time, seq) order; drops the cached minimum if
  /// it pointed there.
  void calendar_erase(detail::EventRecord* rec);
  /// Earliest live record, or nullptr; prunes tombstones and caches the
  /// result (valid until it is popped, cancelled, moved, or out-pushed).
  [[nodiscard]] detail::EventRecord* calendar_min();
  /// Removes `rec` (the cached minimum) from its bucket.
  void calendar_remove_min(detail::EventRecord* rec);
  /// Absolute bucket number for `time`; ring slot = value & bucket_mask_.
  [[nodiscard]] std::size_t bucket_of(SimTime time) const;

  std::deque<detail::EventRecord> pool_;        ///< stable slab storage
  std::vector<detail::EventRecord*> free_;      ///< recycled slots
  /// Binary min-heap on (time, seq); each entry's record knows its slot.
  std::vector<HeapEntry> heap_;
  /// Live-event counter, shared (weakly) with handles: expiry doubles as
  /// the "queue still alive" token for handles that outlive the queue.
  std::shared_ptr<std::size_t> live_;
  EventSequence next_seq_ = 0;

  bool calendar_mode_ = false;
  bool heap_pinned_ = false;
  /// Ring of buckets, each sorted descending by (time, seq) so the bucket
  /// minimum pops from the back in O(1). The vector may be larger than the
  /// active ring (bucket_mask_ + 1): rebuilds keep previously-allocated
  /// bucket storage around for reuse; slots past the ring are empty.
  std::vector<std::vector<detail::EventRecord*>> buckets_;
  std::size_t bucket_mask_ = 0;   ///< active ring size - 1 (power of two)
  double bucket_width_ = 1.0;
  double inv_bucket_width_ = 1.0;  ///< 1 / bucket_width_ (mul beats div)
  /// Rebuild staging area (reused capacity).
  std::vector<detail::EventRecord*> scratch_;
  /// Width-adaptation state: when an insert finds its bucket longer than
  /// kBucketOverflow, the pending window has drifted away from the width
  /// the last rebuild measured (e.g. a wide prefill narrowing into a tight
  /// steady-state band) and the ring is rebuilt with a fresh width. The
  /// cooldown doubles whenever such a rebuild fails to halve the width —
  /// genuinely clustered time distributions (ties, one far outlier) would
  /// otherwise rebuild-storm at O(live) a pop.
  std::size_t pushes_since_rebuild_ = 0;
  std::size_t length_cooldown_ = 32;
  std::size_t resident_ = 0;      ///< records in buckets (incl. tombstones)
  /// Scan position: the dequeue search starts at the bucket covering
  /// `pos_time_` and walks one "year" (bucket ring) forward.
  double pos_time_ = 0.0;
  /// Cached minimum (validated by generation + cancelled flag on read).
  detail::EventRecord* cached_min_ = nullptr;
  std::uint64_t cached_min_generation_ = 0;
  std::size_t cached_min_bucket_ = 0;
};

}  // namespace utilrisk::sim
