// Tests for the service monitor: sampling cadence, rolling counters and
// CSV output.
#include <gtest/gtest.h>

#include <sstream>

#include "service/computing_service.hpp"
#include "service/monitor.hpp"
#include "workload/workload.hpp"

namespace utilrisk::service {
namespace {

workload::Job make_job(workload::JobId id, double submit, std::uint32_t procs,
                       double runtime, double deadline_factor,
                       double budget) {
  workload::Job job;
  job.id = id;
  job.submit_time = submit;
  job.procs = procs;
  job.actual_runtime = runtime;
  job.estimated_runtime = runtime;
  job.deadline_duration = runtime * deadline_factor;
  job.budget = budget;
  job.penalty_rate = 1.0;
  return job;
}

struct MonitoredRun {
  sim::Simulator simk;
  policy::PolicyContext context;
  std::unique_ptr<ComputingService> service;
  std::unique_ptr<ServiceMonitor> monitor;

  MonitoredRun(const std::vector<workload::Job>& jobs, sim::SimTime period,
               sim::SimTime horizon) {
    context.simulator = &simk;
    context.machine.node_count = 8;
    context.model = economy::EconomicModel::BidBased;
    service = std::make_unique<ComputingService>(
        simk, policy::PolicyKind::FcfsBf, context);
    monitor = std::make_unique<ServiceMonitor>(simk, *service, period,
                                               horizon);
    service->submit_all(jobs);
    simk.run();
  }
};

TEST(ServiceMonitorTest, SamplesAtTheConfiguredCadence) {
  MonitoredRun run({make_job(1, 0.0, 4, 1000.0, 5.0, 1000.0)},
                   /*period=*/100.0, /*horizon=*/1000.0);
  ASSERT_EQ(run.monitor->samples().size(), 10u);
  for (std::size_t i = 0; i < run.monitor->samples().size(); ++i) {
    EXPECT_DOUBLE_EQ(run.monitor->samples()[i].time,
                     100.0 * static_cast<double>(i + 1));
  }
}

TEST(ServiceMonitorTest, TracksLifecycleTransitions) {
  std::vector<workload::Job> jobs = {
      make_job(1, 0.0, 8, 500.0, 5.0, 1000.0),
      make_job(2, 10.0, 8, 500.0, 5.0, 1000.0),
  };
  MonitoredRun run(jobs, 250.0, 1500.0);
  const auto& samples = run.monitor->samples();
  // The service quiesces at t=1000 (job 2 finishes); the monitor takes
  // its final sample at t=1000 and stands down instead of ticking on to
  // the 1500 horizon.
  ASSERT_EQ(samples.size(), 4u);

  // t=250: job 1 running, job 2 still queued — both unsettled.
  EXPECT_EQ(samples[0].submitted, 2u);
  EXPECT_EQ(samples[0].in_flight, 2u);
  EXPECT_EQ(samples[0].accepted, 0u);
  EXPECT_EQ(samples[0].fulfilled, 0u);

  // t=750: job 1 done (t=500), job 2 running (500..1000).
  EXPECT_EQ(samples[2].fulfilled, 1u);
  EXPECT_EQ(samples[2].in_flight, 1u);

  // t=1000 (final sample, at quiescence): both done.
  EXPECT_EQ(samples[3].fulfilled, 2u);
  EXPECT_EQ(samples[3].in_flight, 0u);
  EXPECT_DOUBLE_EQ(samples[3].utility_to_date, 2000.0);
  EXPECT_GT(samples[3].utilization, 0.0);
  EXPECT_LE(samples[3].utilization, 1.0);
  EXPECT_FALSE(run.monitor->armed());
}

TEST(ServiceMonitorTest, UtilityAndObjectivesAreRolling) {
  std::vector<workload::Job> jobs = {
      make_job(1, 0.0, 8, 400.0, 5.0, 700.0),
      make_job(2, 1.0, 8, 400.0, 5.0, 900.0),
  };
  MonitoredRun run(jobs, 450.0, 1350.0);
  const auto& samples = run.monitor->samples();
  ASSERT_GE(samples.size(), 2u);
  EXPECT_DOUBLE_EQ(samples[0].utility_to_date, 700.0) << "job 1 settled";
  EXPECT_DOUBLE_EQ(samples[1].utility_to_date, 1600.0);
  EXPECT_GT(samples[1].objectives.sla, 0.0);
}

TEST(ServiceMonitorTest, CsvHasHeaderAndOneRowPerSample) {
  MonitoredRun run({make_job(1, 0.0, 2, 300.0, 5.0, 500.0)}, 100.0, 500.0);
  std::ostringstream out;
  run.monitor->write_csv(out);
  std::istringstream in(out.str());
  std::string line;
  std::size_t rows = 0;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("utilization"), std::string::npos);
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, run.monitor->samples().size());
}

TEST(ServiceMonitorTest, StandsDownWhenTheEventSetDrainsEarly) {
  // One short job, generous horizon: the run quiesces at t=300, and the
  // monitor must not keep the queue alive for another 97 ticks.
  MonitoredRun run({make_job(1, 0.0, 2, 300.0, 5.0, 500.0)},
                   /*period=*/100.0, /*horizon=*/10000.0);
  EXPECT_EQ(run.monitor->samples().size(), 3u);
  EXPECT_DOUBLE_EQ(run.simk.now(), 300.0);
  EXPECT_EQ(run.simk.pending_events(), 0u);
  EXPECT_FALSE(run.monitor->armed());
}

TEST(ServiceMonitorTest, KeepsSamplingAcrossAnArrivalGap) {
  // Job 1 finishes at t=300 and job 2 arrives at t=1000. In between, the
  // only other pending event is the arrival batch's next element: it must
  // count as pending, or the monitor would stand down at t=300.
  MonitoredRun run({make_job(1, 0.0, 2, 300.0, 5.0, 500.0),
                    make_job(2, 1000.0, 2, 300.0, 5.0, 500.0)},
                   /*period=*/100.0, /*horizon=*/10000.0);
  const auto& samples = run.monitor->samples();
  ASSERT_EQ(samples.size(), 13u);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_DOUBLE_EQ(samples[i].time, 100.0 * static_cast<double>(i + 1));
  }
  // t=500, inside the gap: job 1 settled, job 2 not yet submitted.
  EXPECT_EQ(samples[4].submitted, 1u);
  EXPECT_EQ(samples[4].fulfilled, 1u);
  EXPECT_EQ(samples[4].in_flight, 0u);
  EXPECT_EQ(samples.back().fulfilled, 2u);
  EXPECT_DOUBLE_EQ(run.simk.now(), 1300.0);
  EXPECT_EQ(run.simk.pending_events(), 0u);
  EXPECT_FALSE(run.monitor->armed());
}

TEST(ServiceMonitorTest, StopCancelsThePendingTick) {
  sim::Simulator simk;
  policy::PolicyContext context;
  context.simulator = &simk;
  ComputingService service(simk, policy::PolicyKind::FcfsBf, context);
  ServiceMonitor monitor(simk, service, 50.0, 1000.0);
  EXPECT_TRUE(monitor.armed());
  EXPECT_EQ(simk.pending_events(), 1u);
  monitor.stop();
  EXPECT_FALSE(monitor.armed());
  EXPECT_EQ(simk.pending_events(), 0u);
  simk.run();  // nothing left: returns immediately at t=0
  EXPECT_DOUBLE_EQ(simk.now(), 0.0);
  EXPECT_TRUE(monitor.samples().empty());
}

TEST(ServiceMonitorTest, ValidatesParameters) {
  sim::Simulator simk;
  policy::PolicyContext context;
  context.simulator = &simk;
  ComputingService service(simk, policy::PolicyKind::Libra, context);
  EXPECT_THROW(ServiceMonitor(simk, service, 0.0, 100.0),
               std::invalid_argument);
  EXPECT_THROW(ServiceMonitor(simk, service, 10.0, -1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace utilrisk::service
