// Tests for the cluster executors: space-shared allocation and EASY
// availability estimation; time-shared proportional-share integration,
// work conservation and completion semantics.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "cluster/space_shared.hpp"
#include "cluster/time_shared.hpp"
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

// ---------------------------------------------------------- Space-shared

TEST(SpaceSharedTest, RunsJobForExactlyItsRuntime) {
  sim::Simulator simk;
  SpaceSharedCluster cluster(simk, {.node_count = 8});
  double finish = -1.0;
  cluster.start(make_job(1, 4, 100.0),
                [&](workload::JobId, sim::SimTime t) { finish = t; });
  EXPECT_EQ(cluster.free_procs(), 4u);
  simk.run();
  EXPECT_DOUBLE_EQ(finish, 100.0);
  EXPECT_EQ(cluster.free_procs(), 8u);
}

TEST(SpaceSharedTest, RejectsOversizedAndDoubleStarts) {
  sim::Simulator simk;
  SpaceSharedCluster cluster(simk, {.node_count = 4});
  cluster.start(make_job(1, 3, 50.0), {});
  EXPECT_FALSE(cluster.can_start(2));
  EXPECT_THROW(cluster.start(make_job(2, 2, 50.0), {}), std::logic_error);
  EXPECT_THROW(cluster.start(make_job(1, 1, 50.0), {}), std::logic_error)
      << "same id twice";
  workload::Job zero = make_job(3, 1, 50.0);
  zero.procs = 0;
  EXPECT_THROW(cluster.start(zero, {}), std::logic_error);
}

TEST(SpaceSharedTest, TracksConcurrentJobs) {
  sim::Simulator simk;
  SpaceSharedCluster cluster(simk, {.node_count = 10});
  int finished = 0;
  auto count = [&](workload::JobId, sim::SimTime) { ++finished; };
  cluster.start(make_job(1, 3, 100.0), count);
  cluster.start(make_job(2, 3, 200.0), count);
  cluster.start(make_job(3, 4, 50.0), count);
  EXPECT_EQ(cluster.free_procs(), 0u);
  EXPECT_EQ(cluster.running_count(), 3u);
  simk.run(120.0);
  EXPECT_EQ(finished, 2) << "jobs 1 and 3 done by t=120";
  EXPECT_EQ(cluster.free_procs(), 7u);
  simk.run();
  EXPECT_EQ(finished, 3);
}

TEST(SpaceSharedTest, RunningJobsSortedByEstimatedFinish) {
  sim::Simulator simk;
  SpaceSharedCluster cluster(simk, {.node_count = 8});
  cluster.start(make_job(1, 1, 500.0, 900.0), {});
  cluster.start(make_job(2, 1, 500.0, 300.0), {});
  const auto running = cluster.running_jobs();
  ASSERT_EQ(running.size(), 2u);
  EXPECT_EQ(running[0].id, 2u);
  EXPECT_DOUBLE_EQ(running[0].estimated_finish, 300.0);
  EXPECT_DOUBLE_EQ(running[0].actual_finish, 500.0);
}

TEST(SpaceSharedTest, EstimatedAvailabilityWalksEstimates) {
  sim::Simulator simk;
  SpaceSharedCluster cluster(simk, {.node_count = 8});
  cluster.start(make_job(1, 4, 1000.0, 400.0), {});
  cluster.start(make_job(2, 4, 1000.0, 700.0), {});
  // 0 free now; 4 free (estimated) at 400, 8 at 700.
  EXPECT_DOUBLE_EQ(cluster.estimated_availability(4), 400.0);
  EXPECT_DOUBLE_EQ(cluster.estimated_availability(8), 700.0);
  EXPECT_DOUBLE_EQ(cluster.estimated_availability(0), 0.0);
  EXPECT_EQ(cluster.estimated_availability(9), sim::kTimeNever)
      << "more processors than the machine has";
}

TEST(SpaceSharedTest, OverrunJobsCountAsAvailableNow) {
  sim::Simulator simk;
  SpaceSharedCluster cluster(simk, {.node_count = 4});
  // Estimate 100 but really runs 1000: after t=100 the scheduler's best
  // guess is "free now".
  cluster.start(make_job(1, 4, 1000.0, 100.0), {});
  simk.schedule_at(500.0, [&] {
    EXPECT_DOUBLE_EQ(cluster.estimated_availability(4), 500.0);
  });
  simk.run();
}

TEST(SpaceSharedTest, BusyProcSecondsAccumulates) {
  sim::Simulator simk;
  SpaceSharedCluster cluster(simk, {.node_count = 4});
  cluster.start(make_job(1, 2, 100.0), {});
  simk.run();
  EXPECT_DOUBLE_EQ(cluster.busy_proc_seconds(simk.now()), 200.0);
}

// ----------------------------------------------------------- Time-shared

TEST(TimeSharedTest, SingleTaskRunsAtFullSpeed) {
  sim::Simulator simk;
  TimeSharedCluster cluster(simk, {.node_count = 4});
  // Share 0.25, but alone on the node: work-conserving rate is 1.
  double finish = -1.0;
  cluster.start(make_job(1, 1, 400.0), {0}, 0.25,
                [&](workload::JobId, sim::SimTime t) { finish = t; });
  simk.run();
  EXPECT_NEAR(finish, 400.0, 1e-6);
}

TEST(TimeSharedTest, TwoEqualTasksShareProportionally) {
  sim::Simulator simk;
  TimeSharedCluster cluster(simk, {.node_count = 1});
  double f1 = -1, f2 = -1;
  cluster.start(make_job(1, 1, 100.0), {0}, 0.5,
                [&](workload::JobId, sim::SimTime t) { f1 = t; });
  cluster.start(make_job(2, 1, 100.0), {0}, 0.5,
                [&](workload::JobId, sim::SimTime t) { f2 = t; });
  simk.run();
  // Both at rate 0.5 until one finishes; equal work => both at t=200.
  EXPECT_NEAR(f1, 200.0, 1e-6);
  EXPECT_NEAR(f2, 200.0, 1e-6);
}

TEST(TimeSharedTest, WorkConservingRedistribution) {
  sim::Simulator simk;
  TimeSharedCluster cluster(simk, {.node_count = 1});
  double f1 = -1, f2 = -1;
  // Job 1: 100s of work, share 0.5. Job 2: 300s of work, share 0.5.
  cluster.start(make_job(1, 1, 100.0), {0}, 0.5,
                [&](workload::JobId, sim::SimTime t) { f1 = t; });
  cluster.start(make_job(2, 1, 300.0), {0}, 0.5,
                [&](workload::JobId, sim::SimTime t) { f2 = t; });
  simk.run();
  // Phase 1: both at rate 1/2. Job 1 finishes at t=200 (100/0.5).
  // Phase 2: job 2 alone at rate 1; it has 300-100=200 left => t=400.
  EXPECT_NEAR(f1, 200.0, 1e-6);
  EXPECT_NEAR(f2, 400.0, 1e-6);
}

TEST(TimeSharedTest, UnequalSharesGiveProportionalRates) {
  sim::Simulator simk;
  TimeSharedCluster cluster(simk, {.node_count = 1});
  double f1 = -1, f2 = -1;
  // Shares 0.6 / 0.2 -> rates 0.75 / 0.25.
  cluster.start(make_job(1, 1, 300.0), {0}, 0.6,
                [&](workload::JobId, sim::SimTime t) { f1 = t; });
  cluster.start(make_job(2, 1, 300.0), {0}, 0.2,
                [&](workload::JobId, sim::SimTime t) { f2 = t; });
  simk.run();
  EXPECT_NEAR(f1, 400.0, 1e-3);  // 300 / 0.75
  // Job 2: 100 work done by t=400 (rate 0.25), then alone at rate 1:
  // finishes at 400 + 200 = 600.
  EXPECT_NEAR(f2, 600.0, 1e-3);
}

TEST(TimeSharedTest, ParallelJobFinishesWithSlowestTask) {
  sim::Simulator simk;
  TimeSharedCluster cluster(simk, {.node_count = 3});
  // Load node 0 with a competing task so the parallel job's task there
  // runs slower than its siblings.
  cluster.start(make_job(1, 1, 1000.0), {0}, 0.5, {});
  double finish = -1.0;
  cluster.start(make_job(2, 2, 100.0), {0, 1}, 0.5,
                [&](workload::JobId, sim::SimTime t) { finish = t; });
  simk.run();
  // Task on node 1 runs alone (rate 1, done at t=100); task on node 0
  // shares (rate 0.5, done at t=200). Job completes at 200.
  EXPECT_NEAR(finish, 200.0, 1e-6);
  EXPECT_EQ(cluster.running_count(), 0u);
}

TEST(TimeSharedTest, CommittedShareTracksArrivalsAndDepartures) {
  sim::Simulator simk;
  TimeSharedCluster cluster(simk, {.node_count = 2});
  cluster.start(make_job(1, 1, 100.0), {0}, 0.3, {});
  cluster.start(make_job(2, 1, 100.0), {0}, 0.4, {});
  EXPECT_NEAR(cluster.committed_share(0), 0.7, 1e-12);
  EXPECT_DOUBLE_EQ(cluster.committed_share(1), 0.0);
  simk.run();
  EXPECT_NEAR(cluster.committed_share(0), 0.0, 1e-9);
}

TEST(TimeSharedTest, EnforcesPhysicalPreconditions) {
  sim::Simulator simk;
  TimeSharedCluster cluster(simk, {.node_count = 2});
  cluster.start(make_job(1, 1, 100.0), {0}, 0.8, {});
  EXPECT_THROW(cluster.start(make_job(2, 1, 100.0), {0}, 0.3, {}),
               std::logic_error)
      << "share capacity exceeded";
  EXPECT_THROW(cluster.start(make_job(3, 2, 100.0), {1, 1}, 0.1, {}),
               std::logic_error)
      << "duplicate node";
  EXPECT_THROW(cluster.start(make_job(4, 2, 100.0), {1}, 0.1, {}),
               std::logic_error)
      << "node list size mismatch";
  EXPECT_THROW(cluster.start(make_job(5, 1, 100.0), {5}, 0.1, {}),
               std::logic_error)
      << "bad node id";
  EXPECT_THROW(cluster.start(make_job(6, 1, 100.0), {1}, 1.5, {}),
               std::logic_error)
      << "share > 1";
  EXPECT_THROW(cluster.start(make_job(1, 1, 100.0), {1}, 0.1, {}),
               std::logic_error)
      << "duplicate job id";
}

std::vector<TaskView> tasks_on(const TimeSharedCluster& cluster,
                               NodeId node) {
  std::vector<TaskView> tasks;
  cluster.for_each_task(node, [&](const TaskView& task) {
    tasks.push_back(task);
    return true;
  });
  return tasks;
}

TEST(TimeSharedTest, ForEachTaskIntegratesToNow) {
  sim::Simulator simk;
  TimeSharedCluster cluster(simk, {.node_count = 1});
  cluster.start(make_job(1, 1, 1000.0, 500.0), {0}, 0.5, {});
  simk.schedule_at(300.0, [&] {
    const std::vector<TaskView> tasks = tasks_on(cluster, 0);
    ASSERT_EQ(tasks.size(), 1u);
    EXPECT_NEAR(tasks[0].done_work, 300.0, 1e-9)
        << "alone on the node => rate 1";
    EXPECT_FALSE(tasks[0].overran_estimate());
  });
  simk.schedule_at(600.0, [&] {
    const std::vector<TaskView> tasks = tasks_on(cluster, 0);
    ASSERT_EQ(tasks.size(), 1u);
    EXPECT_TRUE(tasks[0].overran_estimate())
        << "600s done > 500s estimated";
  });
  simk.run();
  EXPECT_THROW(tasks_on(cluster, 1), std::out_of_range);
}

TEST(TimeSharedTest, ForEachTaskStopsWhenTheVisitorSaysSo) {
  sim::Simulator simk;
  TimeSharedCluster cluster(simk, {.node_count = 1});
  cluster.start(make_job(1, 1, 100.0), {0}, 0.25, {});
  cluster.start(make_job(2, 1, 100.0), {0}, 0.25, {});
  std::vector<workload::JobId> seen;
  cluster.for_each_task(0, [&](const TaskView& task) {
    seen.push_back(task.job);
    return false;
  });
  EXPECT_EQ(seen, (std::vector<workload::JobId>{1}));
}

TEST(TimeSharedTest, BusyProcSecondsIsWorkConserving) {
  sim::Simulator simk;
  TimeSharedCluster cluster(simk, {.node_count = 2});
  cluster.start(make_job(1, 1, 50.0), {0}, 0.5, {});
  cluster.start(make_job(2, 1, 50.0), {0}, 0.5, {});
  simk.run();
  // Node 0 busy from 0 to 100 (both tasks at rate .5, 100 proc-seconds).
  EXPECT_NEAR(cluster.busy_proc_seconds(), 100.0, 1e-6);
}

// Property sweep: with total share <= 1 and accurate estimates, every job
// admitted with share = estimate/deadline finishes within its deadline.
class ProportionalShareDeadlineSweep
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProportionalShareDeadlineSweep, AdmittedJobsMeetDeadlines) {
  sim::Simulator simk;
  TimeSharedCluster cluster(simk, {.node_count = 4});
  sim::Rng rng(GetParam());
  struct Expectation {
    double deadline;
    double finish = -1.0;
  };
  std::vector<std::shared_ptr<Expectation>> expectations;

  for (std::uint32_t i = 1; i <= 60; ++i) {
    const double submit = rng.uniform(0.0, 2000.0);
    simk.schedule_at(submit, [&cluster, &rng, &expectations, &simk, i] {
      workload::Job job = make_job(i, 1, rng.uniform(50.0, 500.0), -1.0,
                                   rng.uniform(1.5, 10.0));
      job.submit_time = simk.now();
      const double share = job.estimated_runtime / job.deadline_duration;
      // Libra admission rule on node (i % 4).
      const NodeId node = i % 4;
      if (cluster.committed_share(node) + share >
          1.0 + TimeSharedCluster::kShareEpsilon) {
        return;  // rejected
      }
      auto expectation = std::make_shared<Expectation>();
      expectation->deadline = job.absolute_deadline();
      expectations.push_back(expectation);
      cluster.start(job, {node}, share,
                    [expectation](workload::JobId, sim::SimTime t) {
                      expectation->finish = t;
                    });
    });
  }
  simk.run();
  ASSERT_FALSE(expectations.empty());
  for (const auto& expectation : expectations) {
    ASSERT_GT(expectation->finish, 0.0) << "every admitted job finishes";
    EXPECT_LE(expectation->finish, expectation->deadline + 1e-6)
        << "guaranteed share implies deadline met with accurate estimates";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProportionalShareDeadlineSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Work conservation under a random arrival/cancellation mix: the
// integrator must deliver exactly the work of completed tasks plus the
// partial progress of cancelled ones — no work invented or lost.
class WorkConservationSweep : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(WorkConservationSweep, DeliveredWorkBalancesExactly) {
  sim::Simulator simk;
  TimeSharedCluster cluster(simk, {.node_count = 2});
  sim::Rng rng(GetParam());

  double completed_work = 0.0;
  std::vector<workload::JobId> cancellable;

  for (std::uint32_t i = 1; i <= 40; ++i) {
    const double submit = rng.uniform(0.0, 1000.0);
    simk.schedule_at(submit, [&, i] {
      workload::Job job = make_job(i, 1, rng.uniform(20.0, 200.0));
      const double share = rng.uniform(0.05, 0.3);
      const NodeId node = i % 2;
      if (cluster.committed_share(node) + share >
          1.0 + TimeSharedCluster::kShareEpsilon) {
        return;
      }
      cancellable.push_back(i);
      const double work = job.actual_runtime;
      cluster.start(job, {node}, share,
                    [&completed_work, work, &cancellable, i](
                        workload::JobId, sim::SimTime) {
                      completed_work += work;
                      std::erase(cancellable, i);
                    });
    });
    // Random cancellations interleaved with the arrivals.
    if (i % 7 == 0) {
      simk.schedule_at(rng.uniform(200.0, 1200.0), [&] {
        if (!cancellable.empty()) {
          cluster.cancel(cancellable.front());
          cancellable.erase(cancellable.begin());
        }
      });
    }
  }
  simk.run();
  // Cancelled tasks delivered less than their full work; completed ones
  // exactly their work. busy_proc_seconds must sit between the completed
  // total and completed + sum of cancelled runtimes.
  const double delivered = cluster.busy_proc_seconds();
  EXPECT_GE(delivered, completed_work - 1e-6);
  EXPECT_EQ(cluster.running_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkConservationSweep,
                         ::testing::Values(10, 20, 30, 40, 50));

}  // namespace
}  // namespace utilrisk::cluster
