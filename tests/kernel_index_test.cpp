// Property tests for the O(log n) kernel indexes: every indexed structure
// (free-node bitmap, finish index, share index, event queue) is
// checked against a naive O(n) reference model under seeded random
// operation sequences. The indexes exist purely for speed — any observable
// divergence from the naive answer is a determinism bug.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "cluster/free_index.hpp"
#include "cluster/space_shared.hpp"
#include "cluster/time_shared.hpp"
#include "policy/libra.hpp"
#include "service/computing_service.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "workload/scaled.hpp"
#include "workload/workload.hpp"

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

/// One seeded operation stream against the space-shared executor.
struct SpaceStreamInput {
  std::uint32_t nodes = 64;
  std::uint64_t seed = 0;
  int steps = 3000;
  /// Shares of steps that start a job (if it fits), cancel one and
  /// toggle a node; the rest advance the clock.
  double start_share = 0.45;
  double cancel_share = 0.15;
  double toggle_share = 0.10;
  std::uint32_t max_procs = 12;
  double runtime_lo = 5.0;
  double runtime_hi = 400.0;
  /// Estimates are drawn from [2, 500] and clock advances from [1, 60].
  /// With a grid, estimates are the multiples 1..estimate_slots of
  /// `estimate_grid` and advances the multiples 1..3 of `advance_grid`,
  /// so jobs start on grid instants and their estimated finishes tie.
  double estimate_grid = 0.0;
  std::uint64_t estimate_slots = 10;
  double advance_grid = 0.0;
  /// Queries are checked after every `check_every`-th step (and the last).
  int check_every = 1;
  /// Job ids in a scrambled order instead of ascending with start order,
  /// so a job can start after a job with a higher id and the same
  /// estimated finish, as backfilling starts them.
  bool scrambled_ids = false;
};

/// Drives a SpaceSharedCluster and the naive model through one stream of
/// starts, cancels, node toggles and clock advances, and compares every
/// query the EASY policies ask — availability, procs free by a time, the
/// (estimated finish, id) running order — against full rescans.
void expect_cluster_matches_naive(const SpaceStreamInput& input) {
  const std::uint32_t kNodes = input.nodes;
  sim::Simulator simk;
  SpaceSharedCluster cluster(simk, {.node_count = kNodes});
  NaiveSpaceModel naive(kNodes);
  sim::Rng rng(input.seed);
  workload::JobId next_id = 1;
  std::vector<workload::JobId> live;  // started and not yet known-finished
  const bool grid = input.estimate_grid > 0.0;
  const double cancel_below = input.start_share + input.cancel_share;
  const double toggle_below = cancel_below + input.toggle_share;
  std::size_t peak_running = 0;
  std::size_t ties = 0;  // adjacent equal estimated finishes seen

  for (int step = 0; step < input.steps; ++step) {
    const double roll = rng.uniform01();
    if (roll < input.start_share) {
      // Start a job if it fits.
      const auto procs =
          static_cast<std::uint32_t>(rng.uniform_int(1, input.max_procs));
      const double runtime = rng.uniform(input.runtime_lo, input.runtime_hi);
      const double estimate =
          grid ? input.estimate_grid * static_cast<double>(rng.uniform_int(
                                               1, input.estimate_slots))
               : rng.uniform(2.0, 500.0);
      // An odd multiplier is a bijection on 32 bits: ids stay unique.
      const workload::JobId id =
          input.scrambled_ids ? next_id++ * 0x9E3779B1u : next_id++;
      workload::Job job = make_job(id, procs, runtime, estimate);
      if (cluster.can_start(procs)) {
        ASSERT_GE(naive.free.size(), procs);
        cluster.start(job, {});
        naive.start(job, simk.now());
        live.push_back(job.id);
      } else {
        ASSERT_LT(naive.free.size(), procs);
      }
    } else if (roll < cancel_below && !live.empty()) {
      // Cancel a random live job (it may already have finished).
      const std::size_t pick = rng.uniform_int(0, live.size() - 1);
      const workload::JobId victim = live[pick];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      const bool cancelled = cluster.cancel(victim);
      ASSERT_EQ(cancelled, naive.running.contains(victim));
      if (cancelled) naive.cancel(victim);
    } else if (roll < toggle_below) {
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
      const double advance =
          grid ? input.advance_grid *
                     static_cast<double>(rng.uniform_int(1, 3))
               : rng.uniform(1.0, 60.0);
      simk.run(simk.now() + advance);
      naive.finish_due(simk.now());
    }
    peak_running = std::max(peak_running, naive.running.size());
    if (step % input.check_every != 0 && step + 1 != input.steps) continue;

    // Invariants after the step.
    ASSERT_EQ(cluster.free_procs(), naive.free.size()) << "step " << step;
    ASSERT_EQ(cluster.running_count(), naive.running.size());
    ASSERT_EQ(cluster.up_procs(), naive.up_procs());
    for (std::uint32_t procs : {1u, 4u, 16u, kNodes / 2, kNodes}) {
      ASSERT_DOUBLE_EQ(cluster.estimated_availability(procs),
                       naive.availability(procs, simk.now()))
          << "step " << step << " procs " << procs;
    }
    for (double dt : {0.0, 10.0, 100.0, 1000.0, 10000.0}) {
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
    for (std::size_t i = 1; i < jobs.size(); ++i) {
      if (jobs[i].estimated_finish == jobs[i - 1].estimated_finish) ++ties;
    }
  }
  EXPECT_GT(peak_running, 0u);
  if (grid) {
    EXPECT_GT(ties, 0u) << "the grid stream must tie estimated finishes";
  }
  if (input.nodes >= 1024) {
    EXPECT_GE(peak_running, input.nodes / 2)
        << "the wide stream must keep thousands of jobs running";
  }
}

TEST(SpaceSharedPropertyTest, IndexedMatchesNaiveReference) {
  expect_cluster_matches_naive({.nodes = 64, .seed = 0xB0B});
}

TEST(SpaceSharedPropertyTest, IndexedMatchesNaiveReferenceOnTiedFinishes) {
  // Estimates and start instants on a coarse grid: many running jobs
  // share an estimated finish, so the id half of the key orders them,
  // and ids do not ascend with start order.
  expect_cluster_matches_naive({.nodes = 64,
                                .seed = 0x7135,
                                .estimate_grid = 50.0,
                                .advance_grid = 10.0,
                                .scrambled_ids = true});
}

TEST(SpaceSharedPropertyTest, IndexedMatchesNaiveReferenceWhenWide) {
  // Thousands of 1-processor jobs running at once: inserts and erases
  // land in the middle of a long finish index, not just at its ends.
  expect_cluster_matches_naive({.nodes = 4096,
                                .seed = 0x5EED,
                                .steps = 8000,
                                .start_share = 0.70,
                                .cancel_share = 0.10,
                                .toggle_share = 0.05,
                                .max_procs = 1,
                                .runtime_lo = 20000.0,
                                .runtime_hi = 40000.0,
                                .estimate_grid = 600.0,
                                .estimate_slots = 100,
                                .advance_grid = 10.0,
                                .check_every = 30,
                                .scrambled_ids = true});
}

// ------------------------------------------------ ShareIndex vs naive model

constexpr std::uint32_t kB = ShareIndex::kBlockCapacity;

/// Best-fit order, written out independently of the index's comparator.
bool best_fit_before(const std::pair<double, NodeId>& a,
                     const std::pair<double, NodeId>& b) {
  if (a.first != b.first) return a.first > b.first;
  return a.second < b.second;
}

/// Checks the block layout: every block non-empty, within capacity and
/// sorted, the blocks in key order, every node's slot pointing at its own
/// entry with its model share, and at most 4n/B + 1 blocks.
void expect_layout_valid(const ShareIndex& index,
                         const std::map<NodeId, double>& model,
                         std::uint32_t node_count) {
  ASSERT_LE(index.block_count() * kB, 4 * model.size() + kB)
      << index.block_count() << " blocks for " << model.size() << " entries";
  std::size_t entries = 0;
  std::optional<std::pair<double, NodeId>> previous;
  for (std::size_t rank = 0; rank < index.block_count(); ++rank) {
    const auto block = index.block(rank);
    ASSERT_FALSE(block.empty()) << "block " << rank;
    ASSERT_LE(block.size(), kB);
    for (const ShareIndex::Entry& entry : block) {
      const std::pair<double, NodeId> key{entry.committed, entry.id};
      if (previous) {
        ASSERT_TRUE(best_fit_before(*previous, key))
            << "out of order in block " << rank;
      }
      previous = key;
    }
    entries += block.size();
  }
  ASSERT_EQ(entries, model.size());
  for (NodeId id = 0; id < node_count; ++id) {
    const auto found = model.find(id);
    ASSERT_EQ(index.contains(id), found != model.end()) << "node " << id;
    if (found == model.end()) continue;
    const ShareIndex::Position pos = index.position(id);
    ASSERT_LT(pos.rank, index.block_count());
    const auto block = index.block(pos.rank);
    ASSERT_LT(pos.slot, block.size());
    ASSERT_EQ(block[pos.slot].id, id);
    ASSERT_EQ(block[pos.slot].committed, found->second);
  }
}

/// A walk from `bound` must equal the model's entries sorted best-fit and
/// filtered to committed <= bound; a walk stopped after five visits must
/// equal that list's first five.
void expect_walk_matches(const ShareIndex& index,
                         const std::vector<std::pair<double, NodeId>>& sorted,
                         double bound) {
  std::vector<std::pair<double, NodeId>> expected;
  for (const auto& entry : sorted) {
    if (entry.first <= bound) expected.push_back(entry);
  }
  std::vector<std::pair<double, NodeId>> visited;
  index.for_each_from(bound, [&](NodeId id, double committed) {
    visited.emplace_back(committed, id);
    return true;
  });
  ASSERT_EQ(visited, expected) << "bound " << bound;
  std::vector<std::pair<double, NodeId>> stopped;
  index.for_each_from(bound, [&](NodeId id, double committed) {
    stopped.emplace_back(committed, id);
    return stopped.size() < 5;
  });
  expected.resize(std::min<std::size_t>(expected.size(), 5));
  ASSERT_EQ(stopped, expected) << "bound " << bound;
}

/// Seeded re-keys, removals and inserts on an index of `node_count`
/// nodes. Shares are mostly ties ({0, 0.125, 0.25, 0.5}), some 1e-12
/// apart from those, the rest uniform. The middle third of the run mostly
/// removes, the rest mostly re-keys, so blocks both fill and drain.
void expect_share_index_matches_model(std::uint32_t node_count,
                                      std::uint64_t seed, int steps) {
  ShareIndex index(node_count);
  std::map<NodeId, double> model;
  for (NodeId id = 0; id < node_count; ++id) model.emplace(id, 0.0);
  sim::Rng rng(seed);
  constexpr double kTies[] = {0.0, 0.125, 0.25, 0.5};
  const auto draw_share = [&rng, &kTies] {
    const double roll = rng.uniform01();
    const double tie = kTies[rng.uniform_int(0, 3)];
    if (roll < 0.6) return tie;
    if (roll < 0.8) {
      return tie + 1e-12 * static_cast<double>(rng.uniform_int(0, 3));
    }
    return rng.uniform(0.0, 1.0);
  };
  bool grew = false;
  bool shrank = false;
  for (int step = 0; step < steps; ++step) {
    const std::size_t blocks_before = index.block_count();
    const NodeId id = static_cast<NodeId>(rng.uniform_int(0, node_count - 1));
    const bool draining = step >= steps / 3 && step < 2 * steps / 3;
    if (!model.contains(id)) {
      const double share = draw_share();
      index.insert(id, share);
      model.emplace(id, share);
    } else if (rng.bernoulli(draining ? 0.7 : 0.2)) {
      index.erase(id);
      model.erase(id);
    } else {
      const double share = draw_share();
      index.update(id, share);
      model[id] = share;
    }
    grew = grew || index.block_count() > blocks_before;
    shrank = shrank || index.block_count() < blocks_before;

    ASSERT_NO_FATAL_FAILURE(expect_layout_valid(index, model, node_count))
        << "step " << step;
    std::vector<std::pair<double, NodeId>> sorted;
    for (const auto& [node, committed] : model) {
      sorted.emplace_back(committed, node);
    }
    std::sort(sorted.begin(), sorted.end(), best_fit_before);
    std::vector<double> bounds = {rng.uniform(0.0, 1.0), 2.0, -1.0};
    if (!sorted.empty()) {
      const double key = sorted[rng.uniform_int(0, sorted.size() - 1)].first;
      bounds.push_back(key);
      bounds.push_back(key - 1e-12);
    }
    for (const double bound : bounds) {
      ASSERT_NO_FATAL_FAILURE(expect_walk_matches(index, sorted, bound))
          << "step " << step;
    }
  }
  if (node_count > 3 * kB) {
    EXPECT_TRUE(grew) << "no block was split";
    EXPECT_TRUE(shrank) << "no block was merged or dropped";
  }
}

TEST(ShareIndexPropertyTest, OneNode) {
  expect_share_index_matches_model(1, 11, 400);
}

TEST(ShareIndexPropertyTest, OneBelowABlock) {
  expect_share_index_matches_model(kB - 1, 12, 2000);
}

TEST(ShareIndexPropertyTest, OneBlock) {
  expect_share_index_matches_model(kB, 13, 2000);
}

TEST(ShareIndexPropertyTest, OneAboveABlock) {
  expect_share_index_matches_model(kB + 1, 14, 2000);
}

TEST(ShareIndexPropertyTest, ThreeBlocksAndFive) {
  expect_share_index_matches_model(3 * kB + 5, 15, 3000);
}

TEST(ShareIndexPropertyTest, FortyBlocks) {
  expect_share_index_matches_model(40 * kB, 16, 1200);
}

// -------------------------------------- TimeSharedCluster vs naive reference

/// Drives a `node_count`-node executor through seeded starts (placed by a
/// full best-fit scan), cancels, node failures and repairs, and time
/// advances, and after every step checks its best-fit walk against a full
/// scan of the up nodes. `runtime(rng)` gives each job's runtime.
template <typename Runtime>
void expect_share_walk_matches_full_scan(std::uint32_t node_count,
                                         std::uint64_t seed,
                                         Runtime&& runtime) {
  sim::Simulator simk;
  TimeSharedCluster cluster(simk, {.node_count = node_count});
  sim::Rng rng(seed);
  workload::JobId next_id = 1;
  std::vector<workload::JobId> live;
  const auto finished = [&live](workload::JobId id, sim::SimTime) {
    live.erase(std::find(live.begin(), live.end(), id));
  };

  for (int step = 0; step < 1500; ++step) {
    const double roll = rng.uniform01();
    if (roll < 0.5) {
      const auto procs = static_cast<std::uint32_t>(rng.uniform_int(1, 8));
      const double share = rng.uniform(0.05, 0.4);
      // Pick the `procs` least-committed up nodes with headroom, the way
      // Libra's best-fit admission does, via a full scan.
      std::vector<std::pair<double, NodeId>> eligible;
      for (NodeId id = 0; id < node_count; ++id) {
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
      const double job_runtime = runtime(rng);
      workload::Job job =
          make_job(next_id++, procs, job_runtime, job_runtime);
      cluster.start(job, nodes, share, finished);
      live.push_back(job.id);
    } else if (roll < 0.7 && !live.empty()) {
      const std::size_t pick = rng.uniform_int(0, live.size() - 1);
      const workload::JobId victim = live[pick];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      EXPECT_TRUE(cluster.cancel(victim));
    } else if (roll < 0.85) {
      const NodeId id = static_cast<NodeId>(rng.uniform_int(0, node_count - 1));
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
    for (NodeId id = 0; id < node_count; ++id) {
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

TEST(TimeSharedPropertyTest, ShareIndexMatchesFullScan) {
  // Long runtimes keep every started job resident: the reference tracks
  // share changes through start/cancel/node_down/node_up, which are the
  // paths that maintain the share index.
  expect_share_walk_matches_full_scan(48, 0xCAFE,
                                      [](sim::Rng&) { return 1e9; });
}

TEST(TimeSharedPropertyTest, ShareIndexMatchesFullScanAcrossBlocks) {
  // Over three blocks of nodes, with runtimes short enough that tasks
  // complete between steps: completions re-key the index too.
  expect_share_walk_matches_full_scan(
      3 * ShareIndex::kBlockCapacity + 13, 0xF00D,
      [](sim::Rng& rng) { return rng.uniform(5.0, 120.0); });
}

/// Drives a `node_count`-node executor through seeded starts on randomly
/// drawn nodes — so first tasks arrive out of id order — completions,
/// cancels, node failures and repairs, and at random steps compares
/// busy_proc_seconds() with == against a fold over every node id in
/// ascending order: the walk must visit exactly the right nodes in the
/// right order, or the floating-point sum moves.
void expect_busy_walk_matches_full_fold(std::uint32_t node_count,
                                        std::uint64_t seed) {
  sim::Simulator simk;
  TimeSharedCluster cluster(simk, {.node_count = node_count});
  sim::Rng rng(seed);
  workload::JobId next_id = 1;
  std::vector<workload::JobId> live;
  const auto finished = [&live](workload::JobId id, sim::SimTime) {
    live.erase(std::find(live.begin(), live.end(), id));
  };
  const auto full_fold = [&] {
    double total = 0.0;
    for (NodeId id = 0; id < node_count; ++id) {
      const TimeSharedCluster::NodeBusy busy = cluster.node_busy(id);
      total += busy.integrated;
      if (busy.since > 0.0) total += busy.since;
    }
    return total;
  };

  std::size_t checks = 0;
  for (int step = 0; step < 2000; ++step) {
    const double roll = rng.uniform01();
    if (roll < 0.45) {
      const auto procs = static_cast<std::uint32_t>(rng.uniform_int(1, 8));
      const double share = rng.uniform(0.05, 0.5);
      std::vector<NodeId> nodes;
      for (int draw = 0; draw < 64 && nodes.size() < procs; ++draw) {
        const auto id =
            static_cast<NodeId>(rng.uniform_int(0, node_count - 1));
        if (cluster.is_up(id) &&
            cluster.committed_share(id) + share <=
                1.0 + TimeSharedCluster::kShareEpsilon &&
            std::find(nodes.begin(), nodes.end(), id) == nodes.end()) {
          nodes.push_back(id);
        }
      }
      if (nodes.size() < procs) continue;
      const double runtime = rng.uniform(5.0, 400.0);
      cluster.start(make_job(next_id, procs, runtime), nodes, share,
                    finished);
      live.push_back(next_id++);
    } else if (roll < 0.6 && !live.empty()) {
      const std::size_t pick = rng.uniform_int(0, live.size() - 1);
      const workload::JobId victim = live[pick];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      EXPECT_TRUE(cluster.cancel(victim));
    } else if (roll < 0.7) {
      const auto id =
          static_cast<NodeId>(rng.uniform_int(0, node_count - 1));
      if (cluster.is_up(id)) {
        for (const FailureKill& kill : cluster.node_down(id)) {
          live.erase(std::find(live.begin(), live.end(), kill.job.id));
        }
      } else {
        cluster.node_up(id);
      }
    } else {
      simk.run(simk.now() + rng.uniform(1.0, 60.0));
    }
    // Several first tasks may land between two walks.
    if (rng.uniform01() < 0.25) {
      ASSERT_EQ(cluster.busy_proc_seconds(), full_fold()) << "step " << step;
      ++checks;
    }
  }
  ASSERT_EQ(cluster.busy_proc_seconds(), full_fold());
  EXPECT_GT(checks, 100u);
  EXPECT_GT(cluster.busy_proc_seconds(), 0.0);
}

TEST(TimeSharedPropertyTest, BusyWalkEqualsAFoldOverEveryNode) {
  expect_busy_walk_matches_full_fold(128, 0xB05E);
}

TEST(TimeSharedPropertyTest, BusyWalkEqualsAFoldOverEveryNodeWhenWide) {
  expect_busy_walk_matches_full_fold(4096, 0x5EED);
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

// --------------------------------- indexed Libra vs full-scan Libra, 1,024 nodes

/// Libra with the node selection the share index replaced: scan every
/// node, keep the eligible ones, sort them best-fit (committed share desc,
/// id asc) and take the first job.procs. Bid model only: no quote step.
class FullScanLibraPolicy : public policy::LibraPolicy {
 public:
  using LibraPolicy::LibraPolicy;

  void on_submit(const workload::Job& job) override {
    const std::optional<double> share = required_share(job);
    std::vector<std::pair<double, NodeId>> eligible;
    if (share && job.procs <= cluster().node_count()) {
      for (NodeId node = 0; node < cluster().node_count(); ++node) {
        if (node_eligible(node, job, *share)) {
          eligible.emplace_back(cluster().committed_share(node), node);
        }
      }
    }
    if (!share || eligible.size() < job.procs) {
      host().notify_rejected(job);
      return;
    }
    std::sort(eligible.begin(), eligible.end(), best_fit_before);
    std::vector<NodeId> nodes;
    for (std::uint32_t i = 0; i < job.procs; ++i) {
      nodes.push_back(eligible[i].second);
    }
    host().notify_accepted(job, job.budget);
    host().notify_started(job);
    cluster().start(job, nodes, *share,
                    [this, job](workload::JobId, sim::SimTime finish) {
                      host().notify_finished(job, finish);
                    });
  }
};

/// bench_kernel_scaling's 1,024-node scenario.
[[nodiscard]] std::vector<workload::Job> scaled_trace_1024() {
  const workload::WorkloadBuilder builder(
      workload::scaled_sdsc_config(1024, 5000));
  return builder.build(workload::QosConfig{}, 0.25, 100.0);
}

[[nodiscard]] policy::PolicyContext scaled_context_1024() {
  policy::PolicyContext context;
  context.machine.node_count = 1024;
  context.model = economy::EconomicModel::BidBased;
  return context;
}

TEST(LibraSelectionTest, IndexedEqualsFullScanOnTheScaledTrace) {
  // At this width the index spans many blocks, so a real trace drives its
  // splits, merges and cross-block moves.
  const auto jobs = scaled_trace_1024();
  const policy::PolicyContext context = scaled_context_1024();
  const auto indexed = service::simulate(
      jobs, service::factory_for(policy::PolicyKind::Libra), context);
  const service::PolicyFactory full_scan =
      [](const policy::PolicyContext& ctx, policy::PolicyHost& host) {
        return std::make_unique<FullScanLibraPolicy>(ctx, host);
      };
  const auto scanned = service::simulate(jobs, full_scan, context);
  EXPECT_EQ(indexed.digest, scanned.digest);
  EXPECT_EQ(indexed.digest, "3faa4b3aa174b0b5");
  EXPECT_EQ(indexed.events_dispatched, scanned.events_dispatched);
}

TEST(LibraSelectionTest, FcfsBfDigestOnTheScaledTraceIsPinned) {
  // The space-shared side of the same scenario, pinned beside Libra's.
  const auto report = service::simulate(
      scaled_trace_1024(), service::factory_for(policy::PolicyKind::FcfsBf),
      scaled_context_1024());
  EXPECT_EQ(report.digest, "bf08ddb117d1715f");
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
/// and pop. A third of the popped events re-arm themselves from their own
/// action.
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
/// them move the current minimum itself. A popped event of the moving
/// queue runs its action, which may re-arm the event through its own
/// handle while it is parked; the reference pushes a new event instead.
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
  /// A time drawn like a move's target: random, the current minimum's
  /// time, or just below it.
  const auto draw_target = [&] {
    const SimTime min_time =
        model.empty() ? kTimeNever : model.begin()->first.first;
    double t = rng.uniform(input.lo, input.hi);
    const std::uint64_t target = rng.uniform_int(0, 2);
    if (min_time != kTimeNever && target == 1) {
      t = min_time;  // ties the minimum: must pop after it (later seq)
    } else if (min_time != kTimeNever && target == 2) {
      t = min_time - rng.uniform(0.0, 0.01 * (input.hi - input.lo));
    }
    return t;
  };
  // Set while a popped event's action runs: the time it re-arms to.
  std::optional<SimTime> rearm_to;
  while (pushed < input.pushes || !model.empty()) {
    const double roll = rng.uniform01();
    if (roll < input.push_share && pushed < input.pushes) {
      double t = rng.uniform(input.lo, input.hi);
      if (input.outlier_probability > 0.0 &&
          rng.bernoulli(input.outlier_probability)) {
        t *= 1e6;
      }
      const Key key{t, next_seq++};
      const std::size_t index = events.size();
      model.emplace(key, index);
      events.push_back(TrackedEvent{
          moving_queue.push(t,
                            [&, index] {
                              if (rearm_to) {
                                ASSERT_TRUE(moving_queue.reschedule(
                                    events[index].moving, *rearm_to));
                              }
                            }),
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
      const double t = draw_target();
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
        TrackedEvent& e = events[index];
        e.key.reset();
        model.erase(model.begin());
        // Until it re-arms, the dispatching event reads as fired.
        ASSERT_FALSE(e.moving.pending());
        ASSERT_EQ(e.moving.time(), kTimeNever);
        ASSERT_FALSE(e.moving.cancel());
        if (rng.bernoulli(1.0 / 3.0)) rearm_to = draw_target();
        a->action();
        if (rearm_to) {
          ASSERT_TRUE(e.moving.pending());
          ASSERT_EQ(e.moving.time(), *rearm_to);
          e.reference = reference_queue.push(*rearm_to, [] {});
          e.key = Key{*rearm_to, next_seq++};
          model.emplace(*e.key, index);
          rearm_to.reset();
        }
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
