// Single-threaded discrete-event simulation kernel.
//
// This is the GridSim substitute (DESIGN.md §3): a deterministic event loop
// with a virtual clock. Entities schedule closures at future instants; the
// kernel dispatches them in (time, scheduling-order) order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/event.hpp"
#include "sim/event_queue.hpp"
#include "sim/logger.hpp"
#include "sim/time.hpp"

namespace utilrisk::obs {
class MetricsRegistry;
class Counter;
class Gauge;
}  // namespace utilrisk::obs

namespace utilrisk::sim {

/// Thrown when an entity schedules an event in the past.
class SchedulingError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Deterministic discrete-event simulator.
///
/// Usage:
///   Simulator simk;
///   simk.schedule_at(10.0, [&]{ ... });
///   simk.run();
///
/// Invariants:
///  - the clock never moves backwards;
///  - events at the same instant fire in the order they were scheduled;
///  - run() returns when the event set is exhausted, `stop()` is called,
///    or the optional horizon is reached.
class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time (seconds since epoch).
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `action` at absolute time `time` (>= now()).
  EventHandle schedule_at(SimTime time, EventAction action);

  /// Schedules `action` after `delay` seconds (>= 0).
  EventHandle schedule_in(SimTime delay, EventAction action);

  /// Schedules one event per element of `times`: element i fires at
  /// max(times[i], now()) and calls `fire(i)`. The call reserves a block
  /// of sequence numbers S..S+n-1 and element i fires under S + i — the
  /// keys n consecutive schedule_at calls would give — so the dispatch
  /// order is theirs, ties included. Only the unfired element with the
  /// smallest (time, i) is pending; as it fires, the kernel pushes the
  /// batch's next element, then calls `fire(i)`. Each push counts in
  /// `sim.events_scheduled`. Every time is checked first (see
  /// check_batch); on a throw nothing is scheduled and no sequence
  /// number is used.
  void schedule_batch(std::span<const SimTime> times,
                      std::function<void(std::size_t)> fire);

  /// Throws what schedule_batch would throw for `times` and schedules
  /// nothing: SchedulingError for a time before now() - kTimeEpsilon,
  /// std::invalid_argument for a non-finite one (first offender wins).
  void check_batch(std::span<const SimTime> times) const;

  /// Moves the pending event behind `handle` to fire `delay` seconds
  /// (>= 0) from now, reusing its record and action. Fires in the same
  /// order as cancelling it and scheduling its action anew, and counts in
  /// `sim.events_scheduled` like that schedule would. Called from inside
  /// the event's own action, it re-arms the firing event in place: the
  /// event fires again under the next sequence number, exactly as a fresh
  /// schedule of its action would, and counts as that schedule. Returns
  /// false, and schedules nothing, when the handle has fired (outside its
  /// own action), been cancelled, gone stale, or belongs to another
  /// simulator (live or dead).
  bool reschedule_in(const EventHandle& handle, SimTime delay);

  /// Runs until the event set drains, stop() is called, or — if `horizon`
  /// is finite — the next event would fire after `horizon` (the clock is
  /// then advanced to `horizon`, or left alone if it is already past it).
  /// Returns the number of events dispatched by this call.
  std::uint64_t run(SimTime horizon = kTimeNever);

  /// Dispatches at most one event. Returns false when no live event remains.
  /// Not re-entrant: an action must not call step() or run() on its own
  /// simulator. An action that throws leaves the kernel consistent: the
  /// exception propagates, the event counts as dispatched, and the next
  /// run() carries on with the events still pending.
  bool step();

  /// Requests the current run() to return after the in-flight event.
  void stop() { stop_requested_ = true; }

  /// Total events dispatched over the simulator's lifetime.
  [[nodiscard]] std::uint64_t events_dispatched() const {
    return dispatched_;
  }

  /// Number of live pending events. An unfinished batch counts once: only
  /// its next element is in the queue.
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  /// Timestamp of the next pending event (kTimeNever when none).
  [[nodiscard]] SimTime next_event_time() const { return queue_.next_time(); }

  /// Per-simulator trace logger.
  [[nodiscard]] Logger& logger() { return logger_; }
  [[nodiscard]] const Logger& logger() const { return logger_; }

  /// Attaches (or detaches, with nullptr) a metrics registry. The kernel
  /// resolves its instruments once here — `sim.events_scheduled`,
  /// `sim.events_dispatched`, `sim.queue_depth`, `sim.events_per_sec` —
  /// so the per-event cost is a null check when metrics are absent or
  /// disabled. The throughput gauge is updated once per run() call (events
  /// dispatched / wall seconds); the wall clock is only read when the
  /// gauge is resolved, so un-instrumented runs never touch it.
  void set_metrics(obs::MetricsRegistry* registry);

 private:
  /// A schedule_batch call's elements and the one that is pending.
  struct Batch {
    struct Element {
      SimTime time = 0.0;  ///< already snapped to the scheduling instant
      std::size_t index = 0;
    };
    std::vector<Element> elements;  ///< firing order: (time, index)
    std::size_t next = 0;           ///< position of the pending element
    EventSequence first_seq = 0;    ///< element i fires under first_seq + i
    std::function<void(std::size_t)> fire;
  };

  /// Counts a schedule (or a move) in the kernel's metrics.
  void note_scheduled();
  /// Queues `batch`'s next element under its reserved sequence number.
  void push_batch_element(Batch& batch);
  /// The pending element's action: queue the next element, then fire.
  void fire_batch_element(Batch& batch);

  EventQueue queue_;
  /// Stable batch storage: a pending element's action holds a pointer
  /// into it. Finished slots are recycled through free_batches_.
  std::deque<Batch> batches_;
  std::vector<Batch*> free_batches_;
  SimTime now_ = 0.0;
  std::uint64_t dispatched_ = 0;
  bool stop_requested_ = false;
  Logger logger_;
  obs::Counter* scheduled_metric_ = nullptr;
  obs::Counter* dispatched_metric_ = nullptr;
  obs::Gauge* queue_depth_metric_ = nullptr;
  obs::Gauge* events_per_sec_metric_ = nullptr;
};

}  // namespace utilrisk::sim
