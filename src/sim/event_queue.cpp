#include "sim/event_queue.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace utilrisk::sim {

namespace {
/// The (time, seq) total order on heap entries.
template <typename Entry>
bool before(const Entry& a, const Entry& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

void check_pushable(SimTime time, const EventAction& action) {
  if (!std::isfinite(time)) {
    throw std::invalid_argument("EventQueue::push: non-finite event time");
  }
  if (!action) {
    throw std::invalid_argument("EventQueue::push: empty action");
  }
}
}  // namespace

EventQueue::EventQueue() : live_(std::make_shared<std::size_t>(0)) {}

EventQueue::~EventQueue() = default;
// Handles hold only a weak_ptr to live_ plus a generation stamp, so the
// queue (and its record slab) can die with handles outstanding: their
// weak_ptr expires and they degrade to inert.

PoppedEvent::~PoppedEvent() {
  if (queue_ != nullptr) queue_->unpark(record_, generation_, action);
}

detail::EventRecord* EventQueue::acquire() {
  if (!free_.empty()) {
    detail::EventRecord* rec = free_.back();
    free_.pop_back();
    return rec;
  }
  if (free_.capacity() <= pool_.size()) free_.reserve(2 * pool_.size() + 16);
  return &pool_.emplace_back();
}

void EventQueue::recycle(detail::EventRecord* rec) noexcept {
  ++rec->generation;  // invalidate outstanding handles to this slot
  rec->action = nullptr;
  rec->cancelled = false;
  rec->parked = false;
  free_.push_back(rec);  // within capacity: see acquire()
}

void EventQueue::unpark(detail::EventRecord* rec, std::uint64_t generation,
                        EventAction& action) noexcept {
  if (rec->generation != generation) return;  // recycled: another event's
  if (rec->parked) {
    recycle(rec);
  } else if (!rec->cancelled) {
    rec->action = std::move(action);
  }
  // Re-armed, then cancelled: the tombstone is dropped when it surfaces,
  // and the action dies with its PoppedEvent.
}

EventHandle EventQueue::push(SimTime time, EventAction action) {
  check_pushable(time, action);
  detail::EventRecord* rec = insert(time, next_sequence_++, std::move(action));
  return EventHandle{std::weak_ptr<std::size_t>(live_), rec, rec->generation};
}

void EventQueue::push_reserved(SimTime time, EventSequence seq,
                               EventAction action) {
  check_pushable(time, action);
  assert(seq < next_sequence_);
  insert(time, seq, std::move(action));
}

detail::EventRecord* EventQueue::insert(SimTime time, EventSequence seq,
                                        EventAction action) {
  detail::EventRecord* rec = acquire();
  rec->time = time;
  rec->seq = seq;
  rec->action = std::move(action);
  rec->cancelled = false;
  ++*live_;
  heap_.push_back(HeapEntry{time, seq, rec});
  sift_up(heap_.size() - 1);
  return rec;
}

bool EventQueue::reschedule(const EventHandle& handle, SimTime time) {
  if (!std::isfinite(time)) {
    throw std::invalid_argument(
        "EventQueue::reschedule: non-finite event time");
  }
  // Owner equivalence with live_ proves the handle came from this queue
  // (a dead queue's control block stays allocated while handles hold it,
  // so its address cannot be reused by a live one).
  if (handle.live_.owner_before(live_) || live_.owner_before(handle.live_)) {
    return false;
  }
  detail::EventRecord* rec = handle.record_;
  if (rec == nullptr || rec->generation != handle.generation_ ||
      rec->cancelled) {
    return false;
  }
  if (rec->parked) {
    // Re-arm: the dispatching event's record goes back into the heap at
    // the back, and the move below sifts it into place.
    heap_.push_back(HeapEntry{time, 0, rec});
    rec->heap_pos = static_cast<std::uint32_t>(heap_.size() - 1);
    rec->parked = false;
    ++*live_;
  }
  rec->time = time;
  rec->seq = next_sequence_++;
  const std::size_t pos = rec->heap_pos;
  heap_[pos].time = time;
  heap_[pos].seq = rec->seq;
  if (pos > 0 && before(heap_[pos], heap_[(pos - 1) / 2])) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
  return true;
}

void EventQueue::drop_dead_top() {
  while (!heap_.empty() && heap_.front().rec->cancelled) {
    detail::EventRecord* dead = heap_.front().rec;
    heap_pop_front();
    recycle(dead);
  }
}

SimTime EventQueue::next_time() const {
  if (*live_ == 0) return kTimeNever;
  if (!heap_.front().rec->cancelled) return heap_.front().time;
  // Front is a tombstone (purged on the next pop); scan for the earliest
  // live record. Rare path: only hit between a cancel of the head event
  // and the next pop.
  SimTime best = kTimeNever;
  for (const HeapEntry& entry : heap_) {
    if (!entry.rec->cancelled && entry.time < best) best = entry.time;
  }
  return best;
}

std::optional<PoppedEvent> EventQueue::pop() {
  drop_dead_top();
  if (heap_.empty()) {
    assert(*live_ == 0);
    return std::nullopt;
  }
  detail::EventRecord* top = heap_.front().rec;
  heap_pop_front();
  assert(!top->cancelled);
  // Empty only if a nested dispatch popped an event whose own action is
  // still running: dispatch is not re-entrant.
  assert(top->action);
  assert(*live_ > 0);
  --*live_;
  top->parked = true;
  PoppedEvent popped(top->time, top->seq, std::move(top->action), this, top);
  drop_dead_top();
  return popped;
}

void EventQueue::heap_place(std::size_t i, const HeapEntry& entry) {
  heap_[i] = entry;
  entry.rec->heap_pos = static_cast<std::uint32_t>(i);
}

void EventQueue::heap_pop_front() {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (heap_.empty()) return;
  heap_place(0, last);
  sift_down(0);
}

// Both sifts carry the moving entry in a hole and write each displaced
// entry once, keeping every record's heap_pos current.
void EventQueue::sift_up(std::size_t i) {
  const HeapEntry moving = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(moving, heap_[parent])) break;
    heap_place(i, heap_[parent]);
    i = parent;
  }
  heap_place(i, moving);
}

void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const HeapEntry moving = heap_[i];
  for (;;) {
    const std::size_t left = 2 * i + 1;
    if (left >= n) break;
    const std::size_t right = left + 1;
    const std::size_t child =
        right < n && before(heap_[right], heap_[left]) ? right : left;
    if (!before(heap_[child], moving)) break;
    heap_place(i, heap_[child]);
    i = child;
  }
  heap_place(i, moving);
}

}  // namespace utilrisk::sim
