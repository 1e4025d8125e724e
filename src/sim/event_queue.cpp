#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace utilrisk::sim {

namespace {
/// Bucket length that flags a stale calendar width (see push()).
constexpr std::size_t kBucketOverflow = 32;
constexpr std::size_t kMinLengthCooldown = 32;
constexpr std::size_t kMaxLengthCooldown = std::size_t{1} << 20;

/// The (time, seq) total order, for records and heap entries alike.
template <typename A, typename B>
bool before(const A& a, const B& b) {
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

detail::EventRecord* EventQueue::acquire() {
  if (!free_.empty()) {
    detail::EventRecord* rec = free_.back();
    free_.pop_back();
    return rec;
  }
  return &pool_.emplace_back();
}

void EventQueue::recycle(detail::EventRecord* rec) {
  ++rec->generation;  // invalidate outstanding handles to this slot
  rec->action = nullptr;
  rec->cancelled = false;
  free_.push_back(rec);
}

EventHandle EventQueue::push(SimTime time, EventAction action) {
  check_pushable(time, action);
  detail::EventRecord* rec = insert(time, next_seq_++, std::move(action));
  return EventHandle{std::weak_ptr<std::size_t>(live_), rec, rec->generation};
}

void EventQueue::push_reserved(SimTime time, EventSequence seq,
                               EventAction action) {
  check_pushable(time, action);
  assert(seq < next_seq_);
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
  if (calendar_mode_) {
    calendar_place(rec);
  } else {
    heap_.push_back(HeapEntry{time, seq, rec});
    sift_up(heap_.size() - 1);
    if (!heap_pinned_ && *live_ >= kCalendarEnter) enter_calendar();
  }
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
  if (calendar_mode_) calendar_erase(rec);  // found by its old key
  rec->time = time;
  rec->seq = next_seq_++;
  if (calendar_mode_) {
    calendar_place(rec);
    return true;
  }
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
  if (calendar_mode_) {
    // Logically const: calendar_min only prunes tombstones and refreshes
    // the cached minimum; the live event set is untouched.
    detail::EventRecord* rec = const_cast<EventQueue*>(this)->calendar_min();
    return rec != nullptr ? rec->time : kTimeNever;
  }
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
  if (calendar_mode_) {
    detail::EventRecord* rec = calendar_min();
    if (rec == nullptr) {
      assert(*live_ == 0);
      // Mass-cancellation drained the queue without pops: fall back to the
      // (empty) heap so resident tombstones are reclaimed.
      exit_calendar();
      return std::nullopt;
    }
    calendar_remove_min(rec);
    assert(*live_ > 0);
    --*live_;
    PoppedEvent popped{rec->time, rec->seq, std::move(rec->action)};
    recycle(rec);
    if (*live_ < kCalendarExit) {
      exit_calendar();
    } else if (resident_ > 4 * *live_ + 64) {
      // Cancellation-heavy phase: sweep tombstones before they dominate.
      rebuild_calendar(*live_);
    }
    return popped;
  }
  drop_dead_top();
  if (heap_.empty()) {
    assert(*live_ == 0);
    return std::nullopt;
  }
  detail::EventRecord* top = heap_.front().rec;
  heap_pop_front();
  assert(!top->cancelled);
  assert(*live_ > 0);
  --*live_;
  PoppedEvent popped{top->time, top->seq, std::move(top->action)};
  recycle(top);
  drop_dead_top();
  return popped;
}

void EventQueue::clear() {
  for (const HeapEntry& entry : heap_) recycle(entry.rec);
  heap_.clear();
  for (auto& bucket : buckets_) {
    for (detail::EventRecord* rec : bucket) recycle(rec);
  }
  buckets_.clear();
  bucket_mask_ = 0;
  resident_ = 0;
  cached_min_ = nullptr;
  calendar_mode_ = false;
  *live_ = 0;
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

// ---------------------------------------------------------------------------
// Calendar mode. The invariants that make it digest-safe:
//  * both structures hold the same live set, and both pop the unique
//    minimum under the (time, seq) total order, so the dispatch sequence
//    is independent of which structure is active;
//  * pos_time_ <= every live event's time (pops set it to the popped
//    time, earlier pushes and moves rewind it, cancellations only raise
//    the min);
//  * each bucket is sorted descending, so its minimum — after trailing
//    tombstones are pruned — is back() and pops in O(1);
//  * bucket_of is monotone non-decreasing in time, and the dequeue scan
//    accepts a bucket minimum only when bucket_of(its time) equals the
//    absolute bucket being scanned — so correctness never depends on the
//    exact arithmetic of the time->bucket map, only on both sides using
//    the same map (which lets bucket_of multiply by the cached reciprocal
//    instead of dividing).
// ---------------------------------------------------------------------------

std::size_t EventQueue::bucket_of(SimTime time) const {
  if (time <= 0.0) return 0;
  double q = time * inv_bucket_width_;
  // Deterministic clamp keeping the cast in range; events past it collapse
  // into one far-future bucket and are found by the direct-search fallback.
  if (q > 4.0e18) q = 4.0e18;
  return static_cast<std::size_t>(q);
}

void EventQueue::enter_calendar() {
  scratch_.clear();
  scratch_.reserve(heap_.size());
  for (const HeapEntry& entry : heap_) {
    if (entry.rec->cancelled) {
      recycle(entry.rec);
    } else {
      scratch_.push_back(entry.rec);
    }
  }
  heap_.clear();
  calendar_mode_ = true;
  distribute_scratch();
}

void EventQueue::exit_calendar() {
  heap_.clear();
  heap_.reserve(*live_);
  for (auto& bucket : buckets_) {
    for (detail::EventRecord* rec : bucket) {
      if (rec->cancelled) {
        recycle(rec);
      } else {
        rec->heap_pos = static_cast<std::uint32_t>(heap_.size());
        heap_.push_back(HeapEntry{rec->time, rec->seq, rec});
      }
    }
    bucket.clear();  // keep capacity for the next calendar episode
  }
  bucket_mask_ = 0;
  resident_ = 0;
  cached_min_ = nullptr;
  calendar_mode_ = false;
  // Floyd bottom-up heapify: O(n), reuses the pop-path sift.
  for (std::size_t i = heap_.size() / 2; i-- > 0;) sift_down(i);
}

void EventQueue::rebuild_calendar(std::size_t live) {
  scratch_.clear();
  scratch_.reserve(live);
  for (auto& bucket : buckets_) {
    for (detail::EventRecord* rec : bucket) {
      if (rec->cancelled) {
        recycle(rec);
      } else {
        scratch_.push_back(rec);
      }
    }
    bucket.clear();
  }
  distribute_scratch();
}

void EventQueue::distribute_scratch() {
  const std::size_t nbuckets =
      std::bit_ceil(std::max<std::size_t>(scratch_.size(), 1));
  // Grow the bucket vector but never shrink it: slots past the active ring
  // stay empty, and their heap storage is reused when the ring grows back.
  if (buckets_.size() < nbuckets) buckets_.resize(nbuckets);
  bucket_mask_ = nbuckets - 1;
  resident_ = 0;
  cached_min_ = nullptr;
  pushes_since_rebuild_ = 0;
  if (scratch_.empty()) {
    bucket_width_ = 1.0;
    inv_bucket_width_ = 1.0;
    return;
  }
  SimTime lo = scratch_.front()->time;
  SimTime hi = lo;
  for (const detail::EventRecord* rec : scratch_) {
    lo = std::min(lo, rec->time);
    hi = std::max(hi, rec->time);
  }
  // Width = average inter-event gap, so one ring cycle ("year") spans the
  // whole pending window with ~1 live event per bucket. The floor keeps
  // time/width castable even when all events share one timestamp.
  double width = (hi - lo) / static_cast<double>(scratch_.size());
  const double width_floor = (std::abs(hi) + 1.0) * 1e-12;
  if (!std::isfinite(width) || width < width_floor) width = width_floor;
  bucket_width_ = width;
  inv_bucket_width_ = 1.0 / width;
  pos_time_ = lo;
  for (detail::EventRecord* rec : scratch_) calendar_insert(rec);
  scratch_.clear();
}

std::size_t EventQueue::calendar_insert(detail::EventRecord* rec) {
  const std::size_t idx = bucket_of(rec->time) & bucket_mask_;
  auto& bucket = buckets_[idx];
  // Descending (time, seq): a typical (later-than-everything) push lands
  // near the front, the bucket minimum stays at back().
  auto it = std::upper_bound(
      bucket.begin(), bucket.end(), rec,
      [](const detail::EventRecord* a, const detail::EventRecord* b) {
        return before(*b, *a);
      });
  bucket.insert(it, rec);
  ++resident_;
  if (rec->time < pos_time_) pos_time_ = rec->time;
  if (cached_min_ != nullptr) {
    if (cached_min_->generation != cached_min_generation_ ||
        cached_min_->cancelled) {
      cached_min_ = nullptr;
    } else if (before(*rec, *cached_min_)) {
      // New global minimum: smaller than everything live, so it just went
      // to the very back of its bucket.
      cached_min_ = rec;
      cached_min_generation_ = rec->generation;
      cached_min_bucket_ = idx;
    }
  }
  return bucket.size();
}

void EventQueue::calendar_place(detail::EventRecord* rec) {
  const std::size_t bucket_len = calendar_insert(rec);
  ++pushes_since_rebuild_;
  if (*live_ > 2 * (bucket_mask_ + 1)) {
    // Keep occupancy near one live event per bucket: grow the ring once
    // the live count outgrows it twofold.
    rebuild_calendar(*live_);
  } else if (bucket_len > kBucketOverflow &&
             pushes_since_rebuild_ >= length_cooldown_) {
    // Stale width: the live window no longer matches the span the last
    // rebuild measured. Re-measure — and back off exponentially when
    // re-measuring doesn't actually spread the events (clustered times).
    const double old_width = bucket_width_;
    rebuild_calendar(*live_);
    if (bucket_width_ > 0.5 * old_width) {
      if (length_cooldown_ < kMaxLengthCooldown) length_cooldown_ *= 2;
    } else {
      length_cooldown_ = kMinLengthCooldown;
    }
  }
}

void EventQueue::calendar_erase(detail::EventRecord* rec) {
  auto& bucket = buckets_[bucket_of(rec->time) & bucket_mask_];
  // (time, seq) is unique across records, tombstones included, so the
  // first entry not above rec in the descending order is rec itself.
  const auto it = std::lower_bound(
      bucket.begin(), bucket.end(), rec,
      [](const detail::EventRecord* a, const detail::EventRecord* b) {
        return before(*b, *a);
      });
  assert(it != bucket.end() && *it == rec);
  bucket.erase(it);
  --resident_;
  if (cached_min_ == rec) cached_min_ = nullptr;
}

detail::EventRecord* EventQueue::calendar_min() {
  if (cached_min_ != nullptr &&
      cached_min_->generation == cached_min_generation_ &&
      !cached_min_->cancelled) {
    return cached_min_;
  }
  cached_min_ = nullptr;
  if (*live_ == 0) return nullptr;
  const std::size_t nbuckets = bucket_mask_ + 1;
  const std::size_t start = bucket_of(pos_time_);
  // One ring cycle: the first bucket whose (tombstone-pruned) minimum is
  // an in-year event holds the global minimum. "In-year" is tested with
  // bucket_of itself — the exact map inserts used — so any monotone map
  // is correct: pos_time_ <= every live time means every live record's
  // absolute bucket is >= start, within [start, start + nbuckets) only
  // abs_bucket itself lands in this ring slot, and a record in a strictly
  // later absolute bucket cannot be earlier than one in this bucket.
  for (std::size_t step = 0; step < nbuckets; ++step) {
    const std::size_t abs_bucket = start + step;
    auto& bucket = buckets_[abs_bucket & bucket_mask_];
    while (!bucket.empty() && bucket.back()->cancelled) {
      recycle(bucket.back());
      bucket.pop_back();
      --resident_;
    }
    if (bucket.empty()) continue;
    detail::EventRecord* back = bucket.back();
    if (bucket_of(back->time) == abs_bucket) {
      pos_time_ = back->time;
      cached_min_ = back;
      cached_min_generation_ = back->generation;
      cached_min_bucket_ = abs_bucket & bucket_mask_;
      return back;
    }
  }
  // Whole cycle empty: the live events sit past the current year. Direct
  // search across bucket minima, then jump the scan position to the hit.
  detail::EventRecord* best = nullptr;
  std::size_t best_bucket = 0;
  for (std::size_t i = 0; i < nbuckets; ++i) {
    auto& bucket = buckets_[i];
    while (!bucket.empty() && bucket.back()->cancelled) {
      recycle(bucket.back());
      bucket.pop_back();
      --resident_;
    }
    if (bucket.empty()) continue;
    detail::EventRecord* cand = bucket.back();
    if (best == nullptr || before(*cand, *best)) {
      best = cand;
      best_bucket = i;
    }
  }
  assert(best != nullptr);
  pos_time_ = best->time;
  cached_min_ = best;
  cached_min_generation_ = best->generation;
  cached_min_bucket_ = best_bucket;
  return best;
}

void EventQueue::calendar_remove_min(detail::EventRecord* rec) {
  auto& bucket = buckets_[cached_min_bucket_];
  // Everything sorted after the live minimum is smaller, hence tombstoned.
  while (!bucket.empty() && bucket.back()->cancelled) {
    recycle(bucket.back());
    bucket.pop_back();
    --resident_;
  }
  assert(!bucket.empty() && bucket.back() == rec);
  bucket.pop_back();
  --resident_;
  pos_time_ = rec->time;
  cached_min_ = nullptr;
}

}  // namespace utilrisk::sim
