// Property tests for the O(log n) kernel indexes: every indexed structure
// (free-node bitmap, finish index, share index, event queue) is
// checked against a naive O(n) reference model under seeded random
// operation sequences. The indexes exist purely for speed — any observable
// divergence from the naive answer is a determinism bug.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "cluster/free_index.hpp"
#include "cluster/space_shared.hpp"
#include "cluster/time_shared.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace utilrisk::cluster {
namespace {

workload::Job make_job(workload::JobId id, std::uint32_t procs,
                       double runtime, double estimate = -1.0,
                       double deadline_factor = 8.0) {
  workload::Job job;
  job.id = id;
  job.procs = procs;
  job.actual_runtime = runtime;
  job.estimated_runtime = estimate < 0.0 ? runtime : estimate;
  job.deadline_duration = runtime * deadline_factor;
  return job;
}

// ------------------------------------------------------------ FreeNodeIndex

TEST(FreeNodeIndexTest, BasicInsertEraseMin) {
  FreeNodeIndex index(100);
  EXPECT_TRUE(index.empty());
  index.insert(42);
  index.insert(7);
  index.insert(99);
  EXPECT_EQ(index.size(), 3u);
  EXPECT_TRUE(index.contains(7));
  EXPECT_FALSE(index.contains(8));
  EXPECT_EQ(index.min(), 7u);
  index.erase(7);
  EXPECT_EQ(index.min(), 42u);
  EXPECT_EQ(index.pop_min(), 42u);
  EXPECT_EQ(index.pop_min(), 99u);
  EXPECT_TRUE(index.empty());
}

TEST(FreeNodeIndexTest, MultiLevelBoundaries) {
  // 100k ids exercise all three bitmap levels; the word boundaries (63/64,
  // 4095/4096) are where carry propagation between levels can go wrong.
  FreeNodeIndex index(100000);
  for (NodeId id : {0u, 63u, 64u, 4095u, 4096u, 99999u}) index.insert(id);
  EXPECT_EQ(index.min(), 0u);
  index.erase(0);
  EXPECT_EQ(index.min(), 63u);
  index.erase(63);
  EXPECT_EQ(index.min(), 64u);
  index.erase(64);
  EXPECT_EQ(index.min(), 4095u);
  index.erase(4095);
  EXPECT_EQ(index.min(), 4096u);
  index.erase(4096);
  EXPECT_EQ(index.min(), 99999u);
}

TEST(FreeNodeIndexTest, RandomOpsMatchOrderedSet) {
  FreeNodeIndex index(8192);
  std::set<NodeId> reference;
  sim::Rng rng(20260808);
  for (int step = 0; step < 20000; ++step) {
    const NodeId id = static_cast<NodeId>(rng.uniform_int(0, 8191));
    if (reference.contains(id)) {
      index.erase(id);
      reference.erase(id);
    } else {
      index.insert(id);
      reference.insert(id);
    }
    ASSERT_EQ(index.size(), reference.size());
    if (!reference.empty()) {
      ASSERT_EQ(index.min(), *reference.begin()) << "step " << step;
    }
  }
}

// ------------------------------------- SpaceSharedCluster vs naive reference

/// Naive O(n) model of the space-shared executor: an ordered free set and
/// a flat running list, with every query answered by full rescan.
struct NaiveSpaceModel {
  struct Run {
    std::uint32_t procs = 0;
    sim::SimTime estimated_finish = 0.0;
    sim::SimTime actual_finish = 0.0;
    std::vector<NodeId> nodes;
  };

  std::uint32_t total = 0;
  std::set<NodeId> free;  // up and unoccupied
  std::set<NodeId> down;
  std::map<workload::JobId, Run> running;

  explicit NaiveSpaceModel(std::uint32_t node_count) : total(node_count) {
    for (NodeId id = 0; id < node_count; ++id) free.insert(id);
  }

  void start(const workload::Job& job, sim::SimTime now) {
    Run run;
    run.procs = job.procs;
    run.estimated_finish = now + job.estimated_runtime;
    run.actual_finish = now + job.actual_runtime;
    // Deterministic placement contract: lowest free ids first.
    for (std::uint32_t i = 0; i < job.procs; ++i) {
      run.nodes.push_back(*free.begin());
      free.erase(free.begin());
    }
    running.emplace(job.id, std::move(run));
  }

  void release(const Run& run) {
    for (NodeId id : run.nodes) {
      if (!down.contains(id)) free.insert(id);
    }
  }

  void finish_due(sim::SimTime now) {
    for (auto it = running.begin(); it != running.end();) {
      if (it->second.actual_finish <= now + sim::kTimeEpsilon) {
        release(it->second);
        it = running.erase(it);
      } else {
        ++it;
      }
    }
  }

  void cancel(workload::JobId id) {
    auto it = running.find(id);
    release(it->second);
    running.erase(it);
  }

  /// Returns the job killed by taking `id` down, if any.
  std::optional<workload::JobId> node_down(NodeId id) {
    down.insert(id);
    free.erase(id);
    for (auto& [job, run] : running) {
      if (std::find(run.nodes.begin(), run.nodes.end(), id) !=
          run.nodes.end()) {
        const workload::JobId killed = job;  // `job` dies with the entry
        release(run);
        free.erase(id);  // the dead node stays out of the pool
        running.erase(killed);
        return killed;
      }
    }
    return std::nullopt;
  }

  void node_up(NodeId id) {
    down.erase(id);
    free.insert(id);
  }

  [[nodiscard]] std::uint32_t up_procs() const {
    return total - static_cast<std::uint32_t>(down.size());
  }

  /// Full-rescan EASY shadow time: sort running jobs by (estimated finish,
  /// id) and accumulate until `procs` fit.
  [[nodiscard]] sim::SimTime availability(std::uint32_t procs,
                                          sim::SimTime now) const {
    if (procs > up_procs()) return sim::kTimeNever;
    std::uint32_t available = static_cast<std::uint32_t>(free.size());
    if (procs <= available) return now;
    std::vector<std::pair<sim::SimTime, workload::JobId>> order;
    for (const auto& [job, run] : running) {
      order.emplace_back(run.estimated_finish, job);
    }
    std::sort(order.begin(), order.end());
    for (const auto& [finish, job] : order) {
      available += running.at(job).procs;
      if (available >= procs) return std::max(finish, now);
    }
    return sim::kTimeNever;
  }

  [[nodiscard]] std::uint32_t free_by(sim::SimTime when) const {
    std::uint32_t available = static_cast<std::uint32_t>(free.size());
    for (const auto& [job, run] : running) {
      if (run.estimated_finish <= when + sim::kTimeEpsilon) {
        available += run.procs;
      }
    }
    return std::min(available, total);
  }
};

TEST(SpaceSharedPropertyTest, IndexedMatchesNaiveReference) {
  constexpr std::uint32_t kNodes = 64;
  sim::Simulator simk;
  SpaceSharedCluster cluster(simk, {.node_count = kNodes});
  NaiveSpaceModel naive(kNodes);
  sim::Rng rng(0xB0B);
  workload::JobId next_id = 1;
  std::vector<workload::JobId> live;  // started and not yet known-finished

  for (int step = 0; step < 3000; ++step) {
    const double roll = rng.uniform01();
    if (roll < 0.45) {
      // Start a job if it fits.
      const auto procs = static_cast<std::uint32_t>(rng.uniform_int(1, 12));
      const double runtime = rng.uniform(5.0, 400.0);
      const double estimate = rng.uniform(2.0, 500.0);
      workload::Job job = make_job(next_id++, procs, runtime, estimate);
      if (cluster.can_start(procs)) {
        ASSERT_GE(naive.free.size(), procs);
        cluster.start(job, {});
        naive.start(job, simk.now());
        live.push_back(job.id);
      } else {
        ASSERT_LT(naive.free.size(), procs);
      }
    } else if (roll < 0.60 && !live.empty()) {
      // Cancel a random live job (it may already have finished).
      const std::size_t pick = rng.uniform_int(0, live.size() - 1);
      const workload::JobId victim = live[pick];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      const bool cancelled = cluster.cancel(victim);
      ASSERT_EQ(cancelled, naive.running.contains(victim));
      if (cancelled) naive.cancel(victim);
    } else if (roll < 0.70) {
      // Toggle a random node.
      const NodeId id = static_cast<NodeId>(rng.uniform_int(0, kNodes - 1));
      if (cluster.is_up(id)) {
        const auto kill = cluster.node_down(id);
        const auto expected = naive.node_down(id);
        ASSERT_EQ(kill.has_value(), expected.has_value()) << "node " << id;
        if (kill) {
          ASSERT_EQ(kill->job.id, *expected);
        }
      } else {
        cluster.node_up(id);
        naive.node_up(id);
      }
    } else {
      // Advance time; completions fire inside run().
      const double until = simk.now() + rng.uniform(1.0, 60.0);
      simk.run(until);
      naive.finish_due(simk.now());
    }

    // Invariants after every step.
    ASSERT_EQ(cluster.free_procs(), naive.free.size()) << "step " << step;
    ASSERT_EQ(cluster.running_count(), naive.running.size());
    ASSERT_EQ(cluster.up_procs(), naive.up_procs());
    for (std::uint32_t procs : {1u, 4u, 16u, kNodes}) {
      ASSERT_DOUBLE_EQ(cluster.estimated_availability(procs),
                       naive.availability(procs, simk.now()))
          << "step " << step << " procs " << procs;
    }
    for (double dt : {0.0, 10.0, 100.0, 1000.0}) {
      ASSERT_EQ(cluster.estimated_procs_free_by(simk.now() + dt),
                naive.free_by(simk.now() + dt))
          << "step " << step << " dt " << dt;
    }
    // running_jobs() order = (estimated finish, id), straight from the
    // finish index; verify against a full re-sort of the naive model.
    const auto jobs = cluster.running_jobs();
    std::vector<std::pair<sim::SimTime, workload::JobId>> expected;
    for (const auto& [job, run] : naive.running) {
      expected.emplace_back(run.estimated_finish, job);
    }
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(jobs.size(), expected.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      ASSERT_EQ(jobs[i].id, expected[i].second) << "step " << step;
      ASSERT_DOUBLE_EQ(jobs[i].estimated_finish, expected[i].first);
    }
  }
}

// -------------------------------------- TimeSharedCluster vs naive reference

TEST(TimeSharedPropertyTest, ShareIndexMatchesFullScan) {
  constexpr std::uint32_t kNodes = 48;
  sim::Simulator simk;
  TimeSharedCluster cluster(simk, {.node_count = kNodes});
  sim::Rng rng(0xCAFE);
  workload::JobId next_id = 1;
  std::vector<workload::JobId> live;

  // Long runtimes keep every started job resident: the reference tracks
  // share changes through start/cancel/node_down/node_up, which are the
  // paths that maintain the share index.
  for (int step = 0; step < 1500; ++step) {
    const double roll = rng.uniform01();
    if (roll < 0.5) {
      const auto procs = static_cast<std::uint32_t>(rng.uniform_int(1, 8));
      const double share = rng.uniform(0.05, 0.4);
      // Pick the `procs` least-committed up nodes with headroom, the way
      // Libra's best-fit admission does, via a full scan.
      std::vector<std::pair<double, NodeId>> eligible;
      for (NodeId id = 0; id < kNodes; ++id) {
        if (!cluster.is_up(id)) continue;
        const double committed = cluster.committed_share(id);
        if (committed + share <= 1.0 + TimeSharedCluster::kShareEpsilon) {
          eligible.emplace_back(committed, id);
        }
      }
      if (eligible.size() < procs) continue;
      std::sort(eligible.begin(), eligible.end());
      std::vector<NodeId> nodes;
      for (std::uint32_t i = 0; i < procs; ++i) {
        nodes.push_back(eligible[i].second);
      }
      workload::Job job = make_job(next_id++, procs, 1e9, 1e9);
      cluster.start(job, nodes, share, {});
      live.push_back(job.id);
    } else if (roll < 0.7 && !live.empty()) {
      const std::size_t pick = rng.uniform_int(0, live.size() - 1);
      const workload::JobId victim = live[pick];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      EXPECT_TRUE(cluster.cancel(victim));
    } else if (roll < 0.85) {
      const NodeId id = static_cast<NodeId>(rng.uniform_int(0, kNodes - 1));
      if (cluster.is_up(id)) {
        for (const FailureKill& kill : cluster.node_down(id)) {
          live.erase(std::find(live.begin(), live.end(), kill.job.id));
        }
      } else {
        cluster.node_up(id);
      }
    } else {
      simk.run(simk.now() + rng.uniform(1.0, 50.0));
    }

    // Reference order: full scan of up nodes, sorted best-fit (committed
    // desc, id asc) — exactly what the old per-admission sort produced.
    std::vector<std::pair<double, NodeId>> reference;
    for (NodeId id = 0; id < kNodes; ++id) {
      if (cluster.is_up(id)) {
        reference.emplace_back(cluster.committed_share(id), id);
      }
    }
    std::sort(reference.begin(), reference.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });

    std::vector<std::pair<double, NodeId>> visited;
    cluster.for_each_up_node_best_fit(2.0, [&](NodeId id, double committed) {
      visited.emplace_back(committed, id);
      return true;
    });
    ASSERT_EQ(visited.size(), reference.size()) << "step " << step;
    for (std::size_t i = 0; i < visited.size(); ++i) {
      ASSERT_EQ(visited[i].second, reference[i].second) << "step " << step;
      ASSERT_DOUBLE_EQ(visited[i].first, reference[i].first);
    }

    // Bounded visit skips exactly the nodes above the bound.
    const double bound = rng.uniform(0.0, 1.0);
    std::vector<NodeId> bounded;
    cluster.for_each_up_node_best_fit(bound, [&](NodeId id, double) {
      bounded.push_back(id);
      return true;
    });
    std::vector<NodeId> bounded_expected;
    for (const auto& [committed, id] : reference) {
      if (committed <= bound) bounded_expected.push_back(id);
    }
    ASSERT_EQ(bounded, bounded_expected) << "step " << step;
  }
}

TEST(TimeSharedPropertyTest, RejectsDuplicateNodeIds) {
  sim::Simulator simk;
  TimeSharedCluster cluster(simk, {.node_count = 8});
  const workload::Job job = make_job(1, 3, 100.0);
  EXPECT_THROW(cluster.start(job, {2, 5, 2}, 0.5, {}), std::logic_error);
  // The throw happened before any state mutation (validate-then-commit):
  // the same nodes remain fully available.
  for (NodeId id : {2u, 5u}) EXPECT_DOUBLE_EQ(cluster.committed_share(id), 0.0);
  cluster.start(job, {2, 5, 7}, 0.5, {});
  EXPECT_EQ(cluster.running_count(), 1u);
}

}  // namespace
}  // namespace utilrisk::cluster

// ------------------------------------------ EventQueue vs naive (time, seq)

namespace utilrisk::sim {
namespace {

/// An event's key in the naive model: the (time, seq) total order.
using Key = std::pair<SimTime, EventSequence>;

/// One event as scheduled in both queues, plus its key while the naive
/// model holds it pending (every push and every successful move takes the
/// next sequence number in each queue, so the model can predict it).
struct TrackedEvent {
  EventHandle moving;
  EventHandle reference;
  std::optional<Key> key;
};

/// A seeded operation stream. Event times are drawn from [lo, hi], and a
/// share `outlier_probability` of them is multiplied by 1e6. An operation
/// is a push with probability `push_share` (a pop once every push is
/// made, so the queue drains); the rest split 2:3:5 between cancel, move
/// and pop.
struct PopStreamInput {
  std::uint64_t seed = 0;
  int pushes = 0;
  double lo = 0.0;
  double hi = 0.0;
  double outlier_probability = 0.0;
  double push_share = 0.5;
  /// The test fails unless the queues reach this many live events.
  std::size_t min_peak_live = 0;
};

/// Drives two queues through one operation sequence — one moving events
/// in place with reschedule(), a reference that replaces every move with
/// cancel + push — and after every operation checks both against a naive
/// model of the pending (time, seq) keys: pop() returns the model's
/// minimum (time AND sequence number: the full total order), next_time()
/// its minimum time and size() its count. Moves go to random times, to
/// exactly the current minimum's time, and to just below it; a third of
/// them move the current minimum itself.
void expect_pops_match_model(const PopStreamInput& input) {
  EventQueue moving_queue;
  EventQueue reference_queue;
  std::map<Key, std::size_t> model;  // pending key -> index into events
  Rng rng(input.seed);

  std::vector<TrackedEvent> events;
  EventSequence next_seq = 0;
  int pushed = 0;
  std::size_t peak_live = 0;
  const double rest = 1.0 - input.push_share;
  const double cancel_below = input.push_share + 0.2 * rest;
  const double move_below = input.push_share + 0.5 * rest;
  while (pushed < input.pushes || !model.empty()) {
    const double roll = rng.uniform01();
    if (roll < input.push_share && pushed < input.pushes) {
      double t = rng.uniform(input.lo, input.hi);
      if (input.outlier_probability > 0.0 &&
          rng.bernoulli(input.outlier_probability)) {
        t *= 1e6;
      }
      const Key key{t, next_seq++};
      model.emplace(key, events.size());
      events.push_back(TrackedEvent{moving_queue.push(t, [] {}),
                                    reference_queue.push(t, [] {}), key});
      ++pushed;
    } else if (roll >= input.push_share && roll < cancel_below &&
               !events.empty()) {
      // Cancel the same random event, pending or not, in both queues.
      TrackedEvent& e = events[rng.uniform_int(0, events.size() - 1)];
      ASSERT_EQ(e.moving.cancel(), e.key.has_value());
      ASSERT_EQ(e.reference.cancel(), e.key.has_value());
      if (e.key) {
        model.erase(*e.key);
        e.key.reset();
      }
    } else if (roll >= cancel_below && roll < move_below &&
               !events.empty()) {
      std::size_t pick = rng.uniform_int(0, events.size() - 1);
      if (rng.bernoulli(1.0 / 3.0) && !model.empty()) {
        pick = model.begin()->second;
      }
      const SimTime min_time =
          model.empty() ? kTimeNever : model.begin()->first.first;
      double t = rng.uniform(input.lo, input.hi);
      const std::uint64_t target = rng.uniform_int(0, 2);
      if (min_time != kTimeNever && target == 1) {
        t = min_time;  // ties the minimum: must pop after it (later seq)
      } else if (min_time != kTimeNever && target == 2) {
        t = min_time - rng.uniform(0.0, 0.01 * (input.hi - input.lo));
      }
      TrackedEvent& e = events[pick];
      const bool pending = e.key.has_value();
      ASSERT_EQ(moving_queue.reschedule(e.moving, t), pending);
      ASSERT_EQ(e.reference.cancel(), pending);
      if (pending) {
        e.reference = reference_queue.push(t, [] {});
        model.erase(*e.key);
        e.key = Key{t, next_seq++};
        model.emplace(*e.key, pick);
        ASSERT_EQ(e.moving.time(), t);
      }
    } else {
      const auto a = moving_queue.pop();
      const auto b = reference_queue.pop();
      ASSERT_EQ(a.has_value(), !model.empty());
      ASSERT_EQ(b.has_value(), !model.empty());
      if (a) {
        const auto [key, index] = *model.begin();
        ASSERT_EQ(a->time, key.first);
        ASSERT_EQ(a->seq, key.second);
        ASSERT_EQ(b->time, key.first);
        ASSERT_EQ(b->seq, key.second);
        events[index].key.reset();
        model.erase(model.begin());
      }
    }
    const SimTime model_min =
        model.empty() ? kTimeNever : model.begin()->first.first;
    ASSERT_EQ(moving_queue.size(), model.size());
    ASSERT_EQ(reference_queue.size(), model.size());
    ASSERT_EQ(moving_queue.next_time(), model_min);
    ASSERT_EQ(reference_queue.next_time(), model_min);
    peak_live = std::max(peak_live, model.size());
  }
  EXPECT_FALSE(moving_queue.pop().has_value());
  EXPECT_FALSE(reference_queue.pop().has_value());
  EXPECT_GE(peak_live, input.min_peak_live)
      << "the queue never got that deep; raise the push count";
}

TEST(EventQueuePropertyTest, UniformTimesMatchNaiveModel) {
  expect_pops_match_model({.seed = 1, .pushes = 4000, .lo = 0.0,
                           .hi = 1000.0});
}

TEST(EventQueuePropertyTest, ClusteredTimesWithOutliersMatchNaiveModel) {
  // A tight cluster with rare million-fold outliers far behind it.
  expect_pops_match_model({.seed = 2, .pushes = 3000, .lo = 0.0, .hi = 1.0,
                           .outlier_probability = 0.01});
}

TEST(EventQueuePropertyTest, IdenticalTimesPopInSequenceOrder) {
  // Every push and move lands on t=42, so the model's minimum is the
  // least sequence number: the queue must pop in scheduling order, a
  // moved event behind every event already at that time.
  expect_pops_match_model({.seed = 3, .pushes = 2000, .lo = 42.0,
                           .hi = 42.0});
}

TEST(EventQueuePropertyTest, DeepQueueMatchesNaiveModel) {
  // Mostly pushes: the heap grows past 20,000 live events (the
  // 102,400-node kernel-scaling runs reach 74,011) before it drains, so
  // moves of the minimum sift down a deep heap.
  expect_pops_match_model({.seed = 4, .pushes = 30000, .lo = 0.0,
                           .hi = 1000.0, .push_share = 0.8,
                           .min_peak_live = 20000});
}

}  // namespace
}  // namespace utilrisk::sim
