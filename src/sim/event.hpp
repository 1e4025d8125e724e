// Event record used by the discrete-event kernel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "sim/time.hpp"

namespace utilrisk::sim {

/// Action executed when an event fires. Runs with the simulator clock
/// already advanced to the event's timestamp.
using EventAction = std::function<void()>;

/// Monotonically increasing sequence number; breaks ties between events
/// scheduled for the same instant so execution order is deterministic
/// (FIFO in scheduling order).
using EventSequence = std::uint64_t;

namespace detail {

/// Pending-event record, owned exclusively by the queue's slab pool.
/// Cancellation is O(1): the record is tombstoned in place and skipped
/// when it reaches the front. Slots are recycled after pop; `generation`
/// is bumped on every recycle so a stale EventHandle can tell its event
/// already fired. Single-threaded by kernel contract.
struct EventRecord {
  SimTime time = 0.0;
  EventSequence seq = 0;
  EventAction action;
  bool cancelled = false;
  /// Slot in the queue's heap array, so a move (EventQueue::reschedule)
  /// sifts from here without a search. 32 bits sit in the padding after
  /// `cancelled`, keeping the record at 64 bytes.
  std::uint32_t heap_pos = 0;
  std::uint64_t generation = 0;
};

}  // namespace detail

/// Opaque handle to a scheduled event, usable to cancel it before it fires
/// or to move it (EventQueue::reschedule). Default-constructed handles are
/// inert. Handles do not keep the event alive past execution; cancelling
/// an already-fired event is a no-op.
///
/// Validity is checked in two layers: a queue-lifetime token (so a handle
/// outliving its queue degrades to inert instead of dangling) and the
/// record's generation counter (so a recycled slot is never mistaken for
/// the original event).
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not fired yet. Returns true if this call
  /// performed the cancellation.
  bool cancel() {
    auto live = live_.lock();
    if (!live) return false;
    if (record_ == nullptr || record_->generation != generation_ ||
        record_->cancelled) {
      return false;
    }
    record_->cancelled = true;
    record_->action = nullptr;  // release captured state eagerly
    --*live;
    return true;
  }

  /// True if the handle still refers to a live (pending, uncancelled) event.
  [[nodiscard]] bool pending() const {
    auto live = live_.lock();
    return live && record_ != nullptr &&
           record_->generation == generation_ && !record_->cancelled;
  }

  /// Scheduled firing time, or kTimeNever if no longer pending.
  [[nodiscard]] SimTime time() const {
    return pending() ? record_->time : kTimeNever;
  }

 private:
  friend class EventQueue;
  EventHandle(std::weak_ptr<std::size_t> live, detail::EventRecord* record,
              std::uint64_t generation)
      : live_(std::move(live)), record_(record), generation_(generation) {}

  /// The owning queue's live-event counter; expires with the queue, which
  /// also guards `record_` (the slab dies with the queue).
  std::weak_ptr<std::size_t> live_;
  detail::EventRecord* record_ = nullptr;
  std::uint64_t generation_ = 0;
};

}  // namespace utilrisk::sim
