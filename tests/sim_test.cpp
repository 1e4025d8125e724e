// Unit tests for the discrete-event kernel: event ordering, cancellation,
// clock semantics, RNG determinism and distribution sanity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/distributions.hpp"
#include "sim/entity.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace utilrisk::sim {
namespace {

// ---------------------------------------------------------------- EventQueue

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.push(3.0, [&] { order.push_back(3); });
  queue.push(1.0, [&] { order.push_back(1); });
  queue.push(2.0, [&] { order.push_back(2); });
  while (auto rec = queue.pop()) rec->action();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SameTimeFifoBySchedulingOrder) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.push(5.0, [&order, i] { order.push_back(i); });
  }
  while (auto rec = queue.pop()) rec->action();
  std::vector<int> expected(10);
  for (int i = 0; i < 10; ++i) expected[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(order, expected);
}

TEST(EventQueueTest, SizeTracksLiveEvents) {
  EventQueue queue;
  auto h1 = queue.push(1.0, [] {});
  auto h2 = queue.push(2.0, [] {});
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_TRUE(h1.cancel());
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_FALSE(h1.cancel()) << "double cancel must be a no-op";
  EXPECT_TRUE(h2.pending());
  queue.pop();
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, CancelledEventsAreSkipped) {
  EventQueue queue;
  std::vector<int> order;
  auto h = queue.push(1.0, [&] { order.push_back(1); });
  queue.push(2.0, [&] { order.push_back(2); });
  h.cancel();
  while (auto rec = queue.pop()) rec->action();
  EXPECT_EQ(order, (std::vector<int>{2}));
}

TEST(EventQueueTest, NextTimeSkipsCancelledHead) {
  EventQueue queue;
  auto h = queue.push(1.0, [] {});
  queue.push(7.0, [] {});
  EXPECT_DOUBLE_EQ(queue.next_time(), 1.0);
  h.cancel();
  EXPECT_DOUBLE_EQ(queue.next_time(), 7.0);
}

TEST(EventQueueTest, RejectsNonFiniteTimeAndEmptyAction) {
  EventQueue queue;
  EXPECT_THROW(queue.push(kTimeNever, [] {}), std::invalid_argument);
  EXPECT_THROW(queue.push(1.0, EventAction{}), std::invalid_argument);
}

TEST(EventQueueTest, HandleOutlivesQueueSafely) {
  EventHandle handle;
  {
    EventQueue queue;
    handle = queue.push(1.0, [] {});
  }
  EXPECT_FALSE(handle.pending());
  EXPECT_FALSE(handle.cancel());
}

TEST(EventQueueTest, StaleHandleIgnoresRecycledSlot) {
  // After an event is popped its slot returns to the free list; a later
  // push reuses it with a bumped generation, so the old handle must see
  // neither the new event's time nor be able to cancel it.
  EventQueue queue;
  auto stale = queue.push(1.0, [] {});
  auto rec = queue.pop();
  ASSERT_TRUE(rec.has_value());
  auto fresh = queue.push(9.0, [] {});
  EXPECT_FALSE(stale.pending());
  EXPECT_FALSE(stale.cancel()) << "stale handle must not cancel the reused slot";
  EXPECT_TRUE(fresh.pending());
  EXPECT_DOUBLE_EQ(queue.next_time(), 9.0);
}

TEST(EventQueueTest, RescheduleMovesInPlaceWithTheNextSequence) {
  EventQueue queue;
  std::vector<int> order;
  auto moved = queue.push(1.0, [&] { order.push_back(1); });
  queue.push(5.0, [&] { order.push_back(2); });
  ASSERT_TRUE(queue.reschedule(moved, 5.0));
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_TRUE(moved.pending());
  EXPECT_DOUBLE_EQ(moved.time(), 5.0);
  EXPECT_THROW(queue.reschedule(moved, kTimeNever), std::invalid_argument);
  while (auto rec = queue.pop()) rec->action();
  // Tied at t=5: the move took a later sequence number than the push.
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_FALSE(queue.reschedule(moved, 7.0)) << "fired";
}

TEST(EventQueueTest, StressManyRandomEvents) {
  EventQueue queue;
  Rng rng(7);
  std::vector<double> times;
  for (int i = 0; i < 2000; ++i) {
    const double t = rng.uniform(0.0, 1000.0);
    queue.push(t, [] {});
  }
  double prev = -1.0;
  while (auto rec = queue.pop()) {
    EXPECT_GE(rec->time, prev);
    prev = rec->time;
  }
}

// ----------------------------------------------------------------- Simulator

TEST(SimulatorTest, RunsToQuiescence) {
  Simulator simk;
  int fired = 0;
  simk.schedule_at(10.0, [&] { ++fired; });
  simk.schedule_at(20.0, [&] { ++fired; });
  EXPECT_EQ(simk.run(), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(simk.now(), 20.0);
}

TEST(SimulatorTest, ClockAdvancesMonotonically) {
  Simulator simk;
  std::vector<double> observed;
  for (double t : {5.0, 1.0, 3.0, 1.0}) {
    simk.schedule_at(t, [&simk, &observed] { observed.push_back(simk.now()); });
  }
  simk.run();
  EXPECT_TRUE(std::is_sorted(observed.begin(), observed.end()));
  EXPECT_EQ(observed.size(), 4u);
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator simk;
  int chain = 0;
  std::function<void()> next = [&] {
    if (++chain < 5) simk.schedule_in(1.0, next);
  };
  simk.schedule_at(0.0, next);
  simk.run();
  EXPECT_EQ(chain, 5);
  EXPECT_DOUBLE_EQ(simk.now(), 4.0);
}

TEST(SimulatorTest, RejectsSchedulingInThePast) {
  Simulator simk;
  simk.schedule_at(10.0, [&] {
    EXPECT_THROW(simk.schedule_at(5.0, [] {}), SchedulingError);
  });
  simk.run();
}

TEST(SimulatorTest, HorizonStopsAndAdvancesClock) {
  Simulator simk;
  int fired = 0;
  simk.schedule_at(10.0, [&] { ++fired; });
  simk.schedule_at(100.0, [&] { ++fired; });
  EXPECT_EQ(simk.run(50.0), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(simk.now(), 50.0);
  EXPECT_EQ(simk.pending_events(), 1u);
  simk.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EarlierHorizonNeverRewindsTheClock) {
  Simulator simk;
  simk.schedule_at(10.0, [] {});
  EXPECT_EQ(simk.run(5.0), 0u);
  EXPECT_DOUBLE_EQ(simk.now(), 5.0);
  EXPECT_EQ(simk.run(2.0), 0u);
  EXPECT_DOUBLE_EQ(simk.now(), 5.0) << "the clock never moves backwards";
  EXPECT_THROW(simk.schedule_at(3.0, [] {}), SchedulingError);
}

TEST(SimulatorTest, StopRequestHaltsRun) {
  Simulator simk;
  int fired = 0;
  simk.schedule_at(1.0, [&] {
    ++fired;
    simk.stop();
  });
  simk.schedule_at(2.0, [&] { ++fired; });
  simk.run();
  EXPECT_EQ(fired, 1);
  simk.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, CancelPreventsDispatch) {
  Simulator simk;
  int fired = 0;
  auto handle = simk.schedule_at(1.0, [&] { ++fired; });
  simk.schedule_at(0.5, [&] { handle.cancel(); });
  simk.run();
  EXPECT_EQ(fired, 0);
}

TEST(SimulatorTest, RescheduleFiresLikeCancelPlusSchedule) {
  obs::MetricsRegistry metrics(true);
  Simulator simk;
  simk.set_metrics(&metrics);
  std::vector<int> order;
  EventHandle moved = simk.schedule_at(1.0, [&] { order.push_back(1); });
  simk.schedule_at(4.0, [&] { order.push_back(2); });
  simk.schedule_at(0.5, [&] { EXPECT_TRUE(simk.reschedule_in(moved, 3.5)); });
  EXPECT_EQ(simk.run(), 3u);
  // The move lands on t=4 behind the event scheduled there first.
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_DOUBLE_EQ(simk.now(), 4.0);
  EXPECT_EQ(metrics.counter("sim.events_scheduled").value(), 4u)
      << "a move counts as the schedule it replaces";
}

TEST(SimulatorTest, RescheduleRefusesHandlesThatAreNotPending) {
  obs::MetricsRegistry metrics(true);
  Simulator simk;
  simk.set_metrics(&metrics);
  int fired = 0;
  const EventHandle done = simk.schedule_at(1.0, [&] { ++fired; });
  simk.run();
  EXPECT_FALSE(simk.reschedule_in(done, 1.0)) << "fired";
  EventHandle cancelled = simk.schedule_at(2.0, [&] { ++fired; });
  // `cancelled` reused `done`'s record slot: `done` is now stale.
  EXPECT_FALSE(simk.reschedule_in(done, 1.0)) << "stale";
  ASSERT_TRUE(cancelled.cancel());
  EXPECT_FALSE(simk.reschedule_in(cancelled, 1.0)) << "cancelled";
  const EventHandle live = simk.schedule_at(10.0, [&] { ++fired; });
  EventHandle orphan;
  {
    Simulator gone;
    orphan = gone.schedule_at(1.0, [] {});
  }
  EXPECT_FALSE(simk.reschedule_in(orphan, 1.0)) << "outlived its queue";
  Simulator other;
  const EventHandle foreign = other.schedule_at(1.0, [] {});
  EXPECT_FALSE(simk.reschedule_in(foreign, 1.0)) << "another simulator";
  EXPECT_DOUBLE_EQ(foreign.time(), 1.0);

  EXPECT_EQ(metrics.counter("sim.events_scheduled").value(), 3u)
      << "refused moves schedule nothing";
  EXPECT_EQ(simk.pending_events(), 1u);
  EXPECT_DOUBLE_EQ(simk.next_event_time(), 10.0);
  EXPECT_DOUBLE_EQ(live.time(), 10.0);
  simk.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, NegativeDelaySlackSnapsToNow) {
  Simulator simk;
  int fired = 0;
  simk.schedule_at(1.0, [&] {
    // Tiny negative delays from floating-point cancellation must not throw.
    simk.schedule_in(-1e-9, [&] { ++fired; });
  });
  simk.run();
  EXPECT_EQ(fired, 1);
}

// ------------------------------------------------------------------ Batches

/// One dispatched event: the instant it fired and what it was.
using Dispatch = std::pair<SimTime, long>;

/// Schedules `times` as one batch or, as the reference, one schedule_at
/// per element in index order. Element i logs `base + i`; every third
/// element also schedules a follow-up at its own instant, logged negated.
void schedule_group(Simulator& simk, bool batched,
                    const std::vector<SimTime>& times, long base,
                    std::vector<Dispatch>& log) {
  const auto fire = [&simk, &log, base](std::size_t i) {
    const long tag = base + static_cast<long>(i);
    log.emplace_back(simk.now(), tag);
    if (i % 3 == 0) {
      simk.schedule_at(simk.now(), [&simk, &log, tag] {
        log.emplace_back(simk.now(), -tag);
      });
    }
  };
  if (batched) {
    simk.schedule_batch(times, fire);
    return;
  }
  for (std::size_t i = 0; i < times.size(); ++i) {
    simk.schedule_at(times[i], [fire, i] { fire(i); });
  }
}

/// Times on a coarse grid (so they tie with each other and with the
/// fillers), in random order.
std::vector<SimTime> grid_times(Rng& rng, std::size_t n, SimTime offset) {
  std::vector<SimTime> times(n);
  for (SimTime& t : times) {
    t = offset + 10.0 * static_cast<double>(rng.uniform_int(0, 60));
  }
  return times;
}

/// Runs the batch script: `fillers` plain events spread over the run, two
/// overlapping top-level groups, and a group scheduled from inside an
/// event at t=250 whose times reach kTimeEpsilon into the past. Returns
/// the dispatch log; `events` receives the dispatched count.
std::vector<Dispatch> run_batch_script(std::uint64_t seed, bool batched,
                                       std::size_t fillers,
                                       std::uint64_t& events) {
  Rng rng(seed);
  Simulator simk;
  std::vector<Dispatch> log;
  for (std::size_t k = 0; k < fillers; ++k) {
    const long tag = 1'000'000 + static_cast<long>(k);
    simk.schedule_at(static_cast<double>(rng.uniform_int(0, 650)),
                     [&simk, &log, tag] { log.emplace_back(simk.now(), tag); });
  }
  schedule_group(simk, batched, grid_times(rng, 200, 0.0), 0, log);
  std::vector<SimTime> nested_offsets = grid_times(rng, 60, 0.0);
  nested_offsets[0] = -kTimeEpsilon;
  nested_offsets[1] = -0.5 * kTimeEpsilon;
  nested_offsets[2] = 0.0;
  nested_offsets[3] = -kTimeEpsilon;
  simk.schedule_at(250.0, [&, nested_offsets] {
    log.emplace_back(simk.now(), 900'000);
    std::vector<SimTime> times;
    for (const SimTime offset : nested_offsets) {
      times.push_back(simk.now() + offset);
    }
    schedule_group(simk, batched, times, 20'000, log);
  });
  schedule_group(simk, batched, grid_times(rng, 150, 5.0), 10'000, log);
  simk.run();
  events = simk.events_dispatched();
  return log;
}

TEST(SimulatorTest, BatchFiresLikeOneScheduleAtPerElement) {
  // 812 fillers keep the heap hundreds of events deep for most of the run.
  for (const std::size_t fillers : {std::size_t{40}, std::size_t{812}}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      std::uint64_t batch_events = 0;
      std::uint64_t reference_events = 0;
      const std::vector<Dispatch> batched =
          run_batch_script(seed, true, fillers, batch_events);
      const std::vector<Dispatch> reference =
          run_batch_script(seed, false, fillers, reference_events);
      ASSERT_EQ(batched.size(), 200 + 150 + 60 + 1 + (67 + 50 + 20) + fillers);
      EXPECT_EQ(batched, reference)
          << "seed " << seed << ", " << fillers << " fillers";
      EXPECT_EQ(batch_events, reference_events);
    }
  }
}

TEST(SimulatorTest, BatchCountsAsOnePendingEvent) {
  obs::MetricsRegistry metrics(true);
  Simulator simk;
  simk.set_metrics(&metrics);
  std::vector<std::size_t> fired;
  const std::vector<SimTime> times = {30.0, 10.0, 20.0};
  simk.schedule_batch(times, [&](std::size_t i) { fired.push_back(i); });
  EXPECT_EQ(simk.pending_events(), 1u);
  EXPECT_DOUBLE_EQ(simk.next_event_time(), 10.0);
  EXPECT_EQ(metrics.counter("sim.events_scheduled").value(), 1u);
  ASSERT_TRUE(simk.step());
  EXPECT_EQ(simk.pending_events(), 1u);
  EXPECT_DOUBLE_EQ(metrics.gauge("sim.queue_depth").value(), 1.0);
  EXPECT_EQ(simk.run(), 2u);
  EXPECT_EQ(fired, (std::vector<std::size_t>{1, 2, 0}));
  EXPECT_EQ(simk.pending_events(), 0u);
  EXPECT_EQ(metrics.counter("sim.events_scheduled").value(), 3u)
      << "each element counts as it is pushed";
}

TEST(SimulatorTest, RefusedBatchSchedulesNothing) {
  const auto script = [](bool with_bad_batches) {
    obs::MetricsRegistry metrics(true);
    Simulator simk;
    simk.set_metrics(&metrics);
    std::vector<Dispatch> log;
    simk.schedule_at(10.0, [] {});
    simk.run();
    simk.schedule_at(20.0, [&] { log.emplace_back(simk.now(), 1); });
    if (with_bad_batches) {
      const auto fire = [&](std::size_t i) {
        log.emplace_back(simk.now(), static_cast<long>(100 + i));
      };
      const std::vector<SimTime> past = {30.0, 5.0, 40.0};
      EXPECT_THROW(simk.schedule_batch(past, fire), SchedulingError);
      EXPECT_THROW(simk.check_batch(past), SchedulingError);
      const std::vector<SimTime> not_finite = {30.0, std::nan(""), 20.0};
      EXPECT_THROW(simk.schedule_batch(not_finite, fire),
                   std::invalid_argument);
      const std::vector<SimTime> never = {kTimeNever};
      EXPECT_THROW(simk.schedule_batch(never, fire), std::invalid_argument);
      EXPECT_THROW(simk.schedule_batch({}, nullptr), std::invalid_argument);
      EXPECT_EQ(simk.pending_events(), 1u);
      EXPECT_EQ(metrics.counter("sim.events_scheduled").value(), 2u);
    }
    simk.schedule_at(20.0, [&] { log.emplace_back(simk.now(), 2); });
    simk.run();
    return log;
  };
  const std::vector<Dispatch> refused = script(true);
  EXPECT_EQ(refused, script(false));
  EXPECT_EQ(refused, (std::vector<Dispatch>{{20.0, 1}, {20.0, 2}}));
}

// ----------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, Uniform01InRange) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeWithoutBias) {
  Rng rng(11);
  std::vector<int> counts(6, 0);
  constexpr int kDraws = 60000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[rng.uniform_int(0, 5)];
  }
  for (int count : counts) {
    EXPECT_NEAR(count, kDraws / 6, kDraws / 60);
  }
}

TEST(RngTest, UniformIntRejectsInvertedRange) {
  Rng rng(1);
  EXPECT_THROW((void)rng.uniform_int(5, 1), std::invalid_argument);
}

TEST(RngTest, SplitStreamsAreIndependentOfParentConsumption) {
  Rng parent1(77);
  Rng parent2(77);
  Rng child1 = parent1.split();
  Rng child2 = parent2.split();
  // Children seeded identically regardless of later parent draws.
  (void)parent1();
  EXPECT_EQ(child1(), child2());
}

// --------------------------------------------------------------- Entity/Log

TEST(EntityTest, SchedulingSugarBindsToSimulator) {
  class Pinger : public Entity {
   public:
    explicit Pinger(Simulator& simk) : Entity(simk, "pinger") {}
    void ping_at(SimTime t) {
      at(t, [this] { last_ping = now(); });
    }
    void ping_after(SimTime d) {
      after(d, [this] { last_ping = now(); });
    }
    SimTime last_ping = -1.0;
  };
  Simulator simk;
  Pinger pinger(simk);
  EXPECT_EQ(pinger.name(), "pinger");
  pinger.ping_at(5.0);
  simk.run();
  EXPECT_DOUBLE_EQ(pinger.last_ping, 5.0);
  pinger.ping_after(3.0);
  simk.run();
  EXPECT_DOUBLE_EQ(pinger.last_ping, 8.0);
}

TEST(LoggerTest, LevelsGateOutput) {
  Logger log;
  std::ostringstream sink;
  log.set_sink(&sink);
  log.set_level(LogLevel::Info);
  EXPECT_TRUE(log.enabled(LogLevel::Error));
  EXPECT_TRUE(log.enabled(LogLevel::Info));
  EXPECT_FALSE(log.enabled(LogLevel::Debug));

  UTILRISK_LOG_TO(log, LogLevel::Info, 1.5, "unit", "hello " << 42);
  UTILRISK_LOG_TO(log, LogLevel::Debug, 2.0, "unit", "suppressed");

  const std::string text = sink.str();
  EXPECT_NE(text.find("[INF] t=1.5 unit: hello 42"), std::string::npos)
      << text;
  EXPECT_EQ(text.find("suppressed"), std::string::npos);
}

TEST(LoggerTest, SimulatorOwnsItsLogger) {
  Simulator a;
  Simulator b;
  std::ostringstream sink_a;
  a.logger().set_sink(&sink_a);
  a.logger().set_level(LogLevel::Debug);
  // b stays at the default (Off); levelling a must not affect b.
  EXPECT_FALSE(b.logger().enabled(LogLevel::Error));
  UTILRISK_LOG_TO(a.logger(), LogLevel::Debug, 0.0, "kernel", "visible");
  UTILRISK_LOG_TO(b.logger(), LogLevel::Debug, 0.0, "kernel", "silent");
  EXPECT_NE(sink_a.str().find("visible"), std::string::npos);
  EXPECT_EQ(sink_a.str().find("silent"), std::string::npos);
}

TEST(LoggerTest, ParseLogLevelRoundTrips) {
  EXPECT_EQ(parse_log_level("off"), LogLevel::Off);
  EXPECT_EQ(parse_log_level("error"), LogLevel::Error);
  EXPECT_EQ(parse_log_level("info"), LogLevel::Info);
  EXPECT_EQ(parse_log_level("debug"), LogLevel::Debug);
  EXPECT_THROW(parse_log_level("verbose"), std::invalid_argument);
  EXPECT_STREQ(to_string(LogLevel::Debug), "debug");
}

// --------------------------------------------------------------- RunningStats

TEST(RunningStatsTest, MatchesClosedForm) {
  RunningStats stats;
  for (double x : {1.0, 2.0, 3.0, 4.0}) stats.add(x);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.5);
  EXPECT_DOUBLE_EQ(stats.variance(), 1.25);  // population variance
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 4.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 10.0);
  EXPECT_EQ(stats.count(), 4u);
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats stats;
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

// ------------------------------------------------------------- Distributions

TEST(DistributionsTest, ExponentialMeanConverges) {
  Rng rng(5);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(sample_exponential(rng, 100.0));
  EXPECT_NEAR(stats.mean(), 100.0, 2.0);
}

TEST(DistributionsTest, NormalMeanAndStddevConverge) {
  Rng rng(6);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(sample_normal(rng, 10.0, 3.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.1);
}

TEST(DistributionsTest, TruncatedNormalRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 5000; ++i) {
    const double x = sample_truncated_normal(rng, 0.0, 10.0, -1.0, 1.0);
    ASSERT_GE(x, -1.0);
    ASSERT_LE(x, 1.0);
  }
}

TEST(DistributionsTest, LognormalMatchesTargetMoments) {
  Rng rng(10);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) {
    stats.add(sample_lognormal_mean_cv(rng, 50.0, 1.0));
  }
  EXPECT_NEAR(stats.mean(), 50.0, 1.5);
  EXPECT_NEAR(stats.stddev() / stats.mean(), 1.0, 0.1);
}

TEST(DistributionsTest, DiscreteFollowsWeights) {
  Rng rng(12);
  const std::vector<double> weights = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) ++counts[sample_discrete(rng, weights)];
  EXPECT_NEAR(counts[0], kDraws * 0.1, kDraws * 0.02);
  EXPECT_NEAR(counts[1], kDraws * 0.3, kDraws * 0.02);
  EXPECT_NEAR(counts[2], kDraws * 0.6, kDraws * 0.02);
}

TEST(DistributionsTest, DiscreteRejectsDegenerateWeights) {
  Rng rng(1);
  EXPECT_THROW((void)sample_discrete(rng, {}), std::invalid_argument);
  EXPECT_THROW((void)sample_discrete(rng, {0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW((void)sample_discrete(rng, {-1.0, 1.0}), std::invalid_argument);
}

TEST(DistributionsTest, JobSizeWithinMachine) {
  Rng rng(14);
  for (int i = 0; i < 5000; ++i) {
    const auto size = sample_job_size(rng, 128);
    ASSERT_GE(size, 1u);
    ASSERT_LE(size, 128u);
  }
}

class ExponentialMeanSweep : public ::testing::TestWithParam<double> {};

TEST_P(ExponentialMeanSweep, MeanTracksParameter) {
  Rng rng(21);
  RunningStats stats;
  const double mean = GetParam();
  for (int i = 0; i < 30000; ++i) stats.add(sample_exponential(rng, mean));
  EXPECT_NEAR(stats.mean() / mean, 1.0, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Means, ExponentialMeanSweep,
                         ::testing::Values(0.1, 1.0, 10.0, 1969.0, 1e6));

}  // namespace
}  // namespace utilrisk::sim
