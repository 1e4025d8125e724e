#include "sim/simulator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "obs/metrics.hpp"

namespace utilrisk::sim {

void Simulator::set_metrics(obs::MetricsRegistry* registry) {
  scheduled_metric_ =
      obs::counter_or_null(registry, "sim.events_scheduled");
  dispatched_metric_ =
      obs::counter_or_null(registry, "sim.events_dispatched");
  queue_depth_metric_ = obs::gauge_or_null(registry, "sim.queue_depth");
  events_per_sec_metric_ =
      obs::gauge_or_null(registry, "sim.events_per_sec");
}

EventHandle Simulator::schedule_at(SimTime time, EventAction action) {
  if (time < now_ - kTimeEpsilon) {
    throw SchedulingError("Simulator::schedule_at: event in the past (t=" +
                          std::to_string(time) +
                          ", now=" + std::to_string(now_) + ")");
  }
  // Snap barely-in-the-past times (floating point slop from rate
  // integration) to "now" so they still fire.
  if (time < now_) time = now_;
  auto handle = queue_.push(time, std::move(action));
  note_scheduled();
  return handle;
}

EventHandle Simulator::schedule_in(SimTime delay, EventAction action) {
  delay = clamp_nonnegative(delay);
  if (delay < 0.0) {
    throw SchedulingError("Simulator::schedule_in: negative delay " +
                          std::to_string(delay));
  }
  return schedule_at(now_ + delay, std::move(action));
}

void Simulator::check_batch(std::span<const SimTime> times) const {
  for (const SimTime time : times) {
    if (time < now_ - kTimeEpsilon) {
      throw SchedulingError(
          "Simulator::schedule_batch: event in the past (t=" +
          std::to_string(time) + ", now=" + std::to_string(now_) + ")");
    }
    if (!std::isfinite(time)) {
      throw std::invalid_argument(
          "Simulator::schedule_batch: non-finite event time");
    }
  }
}

void Simulator::schedule_batch(std::span<const SimTime> times,
                               std::function<void(std::size_t)> fire) {
  if (!fire) {
    throw std::invalid_argument("Simulator::schedule_batch: empty callback");
  }
  check_batch(times);
  if (times.empty()) return;
  Batch* batch = nullptr;
  if (free_batches_.empty()) {
    batch = &batches_.emplace_back();
  } else {
    batch = free_batches_.back();
    free_batches_.pop_back();
  }
  batch->elements.clear();
  batch->elements.reserve(times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    batch->elements.push_back({std::max(times[i], now_), i});
  }
  std::sort(batch->elements.begin(), batch->elements.end(),
            [](const Batch::Element& a, const Batch::Element& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.index < b.index;
            });
  batch->next = 0;
  batch->first_seq = queue_.reserve_sequences(times.size());
  batch->fire = std::move(fire);
  push_batch_element(*batch);
}

void Simulator::push_batch_element(Batch& batch) {
  const Batch::Element& element = batch.elements[batch.next];
  queue_.push_reserved(element.time, batch.first_seq + element.index,
                       [this, &batch] { fire_batch_element(batch); });
  note_scheduled();
}

void Simulator::fire_batch_element(Batch& batch) {
  const std::size_t index = batch.elements[batch.next].index;
  ++batch.next;
  if (batch.next < batch.elements.size()) {
    push_batch_element(batch);
    batch.fire(index);
    return;
  }
  // Last element: release the slot before firing, so the callback may
  // schedule a batch of its own into it.
  const std::function<void(std::size_t)> fire = std::move(batch.fire);
  batch.fire = nullptr;
  free_batches_.push_back(&batch);
  fire(index);
}

bool Simulator::reschedule_in(const EventHandle& handle, SimTime delay) {
  delay = clamp_nonnegative(delay);
  if (delay < 0.0) {
    throw SchedulingError("Simulator::reschedule_in: negative delay " +
                          std::to_string(delay));
  }
  // now_ + delay >= now_ for delay >= 0: schedule_at's past-time checks
  // can never fire here.
  if (!queue_.reschedule(handle, now_ + delay)) return false;
  note_scheduled();
  return true;
}

void Simulator::note_scheduled() {
  if (scheduled_metric_ != nullptr) scheduled_metric_->inc();
  if (queue_depth_metric_ != nullptr) {
    queue_depth_metric_->set(static_cast<double>(queue_.size()));
  }
}

bool Simulator::step() {
  // The event's record stays parked until `event` dies — when the action
  // returns or throws — so the action may re-arm its own event
  // (reschedule_in on its handle) instead of scheduling a new one. The
  // action runs from `event`, not from the record, so self-cancellation
  // during dispatch is harmless.
  auto event = queue_.pop();
  if (!event) return false;
  now_ = event->time;
  ++dispatched_;
  if (dispatched_metric_ != nullptr) dispatched_metric_->inc();
  if (queue_depth_metric_ != nullptr) {
    queue_depth_metric_->set(static_cast<double>(queue_.size()));
  }
  event->action();
  return true;
}

std::uint64_t Simulator::run(SimTime horizon) {
  stop_requested_ = false;
  // Wall timing only when the throughput gauge is wired up: the clock
  // reads bracket the whole run, so the un-instrumented hot loop is
  // untouched either way.
  const bool timed = events_per_sec_metric_ != nullptr;
  const auto wall_start =
      timed ? std::chrono::steady_clock::now()
            : std::chrono::steady_clock::time_point{};
  std::uint64_t n = 0;
  for (;;) {
    if (stop_requested_) break;
    const SimTime next = queue_.next_time();
    if (next == kTimeNever) break;
    if (next > horizon) {
      now_ = std::max(now_, horizon);
      break;
    }
    if (!step()) break;
    ++n;
  }
  if (timed && n > 0) {
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
    if (wall > 0.0) {
      events_per_sec_metric_->set(static_cast<double>(n) / wall);
    }
  }
  return n;
}

}  // namespace utilrisk::sim
