// Tests for the commercial computing service layer: SLA lifecycle
// accounting, utility settlement under both economic models, and the
// one-shot simulate() runner.
#include <gtest/gtest.h>

#include <cctype>
#include <stdexcept>
#include <vector>

#include "service/computing_service.hpp"
#include "workload/workload.hpp"

namespace utilrisk::service {
namespace {

workload::Job make_job(workload::JobId id, double submit, std::uint32_t procs,
                       double runtime, double deadline_factor,
                       double budget, double penalty_rate = 1.0) {
  workload::Job job;
  job.id = id;
  job.submit_time = submit;
  job.procs = procs;
  job.actual_runtime = runtime;
  job.estimated_runtime = runtime;
  job.deadline_duration = runtime * deadline_factor;
  job.budget = budget;
  job.penalty_rate = penalty_rate;
  return job;
}

// --------------------------------------------------------- MetricsCollector

TEST(MetricsCollectorTest, LifecycleProducesObjectiveInputs) {
  MetricsCollector metrics;
  const workload::Job a = make_job(1, 0.0, 1, 100.0, 5.0, 1000.0);
  const workload::Job b = make_job(2, 10.0, 1, 100.0, 5.0, 500.0);
  const workload::Job c = make_job(3, 20.0, 1, 100.0, 5.0, 700.0);

  metrics.record_submitted(a, 0.0);
  metrics.record_submitted(b, 10.0);
  metrics.record_submitted(c, 20.0);

  metrics.record_rejected(3, 20.0);

  metrics.record_accepted(1, 0.0, 100.0);
  metrics.record_started(1, 30.0);
  metrics.record_finished(1, 130.0, 100.0);  // within deadline 500

  metrics.record_accepted(2, 10.0, 80.0);
  metrics.record_started(2, 10.0);
  metrics.record_finished(2, 600.0, 80.0);  // deadline 510: violated

  const core::ObjectiveInputs in = metrics.objective_inputs();
  EXPECT_EQ(in.submitted, 3u);
  EXPECT_EQ(in.accepted, 2u);
  EXPECT_EQ(in.fulfilled, 1u);
  EXPECT_DOUBLE_EQ(in.wait_sum_fulfilled, 30.0);
  EXPECT_DOUBLE_EQ(in.total_budget, 2200.0);
  EXPECT_DOUBLE_EQ(in.total_utility, 180.0);
  EXPECT_EQ(metrics.unfinished_count(), 0u);

  EXPECT_EQ(metrics.record(1).outcome, workload::JobOutcome::FulfilledSLA);
  EXPECT_EQ(metrics.record(2).outcome, workload::JobOutcome::ViolatedSLA);
  EXPECT_EQ(metrics.record(3).outcome, workload::JobOutcome::Rejected);
  EXPECT_DOUBLE_EQ(metrics.record(2).deadline_delay(), 90.0);
}

TEST(MetricsCollectorTest, GuardsAgainstProtocolViolations) {
  MetricsCollector metrics;
  const workload::Job a = make_job(1, 0.0, 1, 100.0, 5.0, 1000.0);
  metrics.record_submitted(a, 0.0);
  EXPECT_THROW(metrics.record_submitted(a, 1.0), std::logic_error);
  EXPECT_THROW(metrics.record_accepted(9, 0.0, 0.0), std::logic_error);
  EXPECT_THROW(metrics.record_finished(9, 0.0, 0.0), std::logic_error);
  EXPECT_THROW((void)metrics.record(9), std::out_of_range);
}

TEST(MetricsCollectorTest, UnfinishedTracksAcceptedNotFinished) {
  MetricsCollector metrics;
  const workload::Job a = make_job(1, 0.0, 1, 100.0, 5.0, 1000.0);
  metrics.record_submitted(a, 0.0);
  metrics.record_accepted(1, 0.0, 10.0);
  EXPECT_EQ(metrics.unfinished_count(), 1u);
  metrics.record_finished(1, 50.0, 10.0);
  EXPECT_EQ(metrics.unfinished_count(), 0u);
}

TEST(MetricsCollectorTest, RecordsVisitInAscendingIdWhateverTheArrival) {
  MetricsCollector metrics;
  // Fulfilled with the given wait. The waits make the double sum depend on
  // its order: id order adds 1 to 2^53 (lost to rounding) and then 2;
  // arrival order adds 2, then 1 (rounded up to 2^53 + 4).
  const auto fulfil = [&metrics](workload::JobId id, double wait) {
    workload::Job job = make_job(id, 0.0, 1, 1.0, 1.0, 10.0);
    job.deadline_duration = 1e17;
    metrics.record_submitted(job, 0.0);
    metrics.record_accepted(id, 0.0, 1.0);
    metrics.record_started(id, wait);
    metrics.record_finished(id, wait + 1.0, 1.0);
  };
  const double big = 9007199254740992.0;  // 2^53
  fulfil(5, 0.0);
  fulfil(2, big);
  fulfil(9, 2.0);
  fulfil(7, 1.0);
  std::vector<workload::JobId> visited;
  metrics.for_each_record([&visited](const SlaRecord& record) {
    visited.push_back(record.job.id);
  });
  EXPECT_EQ(visited, (std::vector<workload::JobId>{2, 5, 7, 9}));
  const double id_order = ((big + 0.0) + 1.0) + 2.0;
  const double arrival_order = ((0.0 + big) + 2.0) + 1.0;
  ASSERT_NE(id_order, arrival_order);
  EXPECT_EQ(metrics.objective_inputs().wait_sum_fulfilled, id_order);
  EXPECT_EQ(metrics.objective_inputs().fulfilled, 4u);
}

TEST(MetricsCollectorTest, RecordReferencesSurviveLaterSubmissions) {
  MetricsCollector metrics;
  metrics.record_submitted(make_job(2, 7.0, 1, 100.0, 5.0, 1000.0), 7.0);
  const SlaRecord& record = metrics.record(2);
  for (workload::JobId id = 100; id < 10'100; ++id) {
    metrics.record_submitted(make_job(id, 8.0, 1, 100.0, 5.0, 1000.0), 8.0);
  }
  EXPECT_EQ(&metrics.record(2), &record);
  EXPECT_EQ(record.job.id, 2u);
  EXPECT_DOUBLE_EQ(record.submit_time, 7.0);
  EXPECT_EQ(metrics.submitted_count(), 10'001u);
  EXPECT_THROW(
      metrics.record_submitted(make_job(2, 9.0, 1, 100.0, 5.0, 1000.0), 9.0),
      std::logic_error);
  EXPECT_THROW((void)metrics.record(3), std::out_of_range);
}

// --------------------------------------------------------- ComputingService

TEST(ServiceTest, SubmitAllIsAllOrNothing) {
  sim::Simulator simk;
  policy::PolicyContext context;
  context.simulator = &simk;
  context.model = economy::EconomicModel::BidBased;
  context.failure.mtbf_seconds = 5000.0;
  ComputingService service(simk, policy::PolicyKind::FcfsBf, context);
  simk.schedule_at(50.0, [] {});
  simk.run();
  ASSERT_DOUBLE_EQ(simk.now(), 50.0);
  const std::size_t pending = simk.pending_events();

  // Job 2 is dated before now(): the whole batch is refused before any
  // job is counted, scheduled or the failure injector armed.
  EXPECT_THROW(service.submit_all({make_job(1, 60.0, 1, 100.0, 5.0, 500.0),
                                   make_job(2, 10.0, 1, 100.0, 5.0, 500.0),
                                   make_job(3, 70.0, 1, 100.0, 5.0, 500.0)}),
               sim::SchedulingError);
  EXPECT_EQ(simk.pending_events(), pending);

  service.submit_all({make_job(4, 60.0, 1, 100.0, 5.0, 500.0),
                      make_job(5, 70.0, 1, 100.0, 5.0, 500.0)});
  simk.run(1e7);
  EXPECT_EQ(simk.pending_events(), 0u) << "the injector disarmed";
  EXPECT_EQ(service.metrics().submitted_count(), 2u);
  EXPECT_EQ(service.metrics().unfinished_count(), 0u);
  EXPECT_NE(service.metrics().record(4).outcome,
            workload::JobOutcome::Unfinished);
  EXPECT_NE(service.metrics().record(5).outcome,
            workload::JobOutcome::Unfinished);
}

// ------------------------------------------------------------- simulate()

TEST(SimulateTest, CommodityUtilityIsTheQuote) {
  // One job under FCFS-BF: quote = estimate * $1/s, earned in full even
  // though nothing is late.
  const auto report = simulate({make_job(1, 0.0, 2, 100.0, 5.0, 1000.0)},
                               policy::PolicyKind::FcfsBf,
                               economy::EconomicModel::CommodityMarket);
  EXPECT_EQ(report.inputs.fulfilled, 1u);
  EXPECT_DOUBLE_EQ(report.inputs.total_utility, 100.0);
  EXPECT_DOUBLE_EQ(report.objectives.profitability, 10.0);
}

TEST(SimulateTest, CommodityChargesQuoteEvenWhenLate) {
  // With accurate estimates the generous admission control would never
  // start a doomed job, so the late job must be an under-estimator: the
  // scheduler believes 40 s (fits the deadline), reality is 100 s.
  std::vector<workload::Job> jobs = {
      make_job(1, 0.0, 4, 1000.0, 50.0, 10000.0),
      make_job(2, 1.0, 4, 100.0, 50.0, 10000.0),
  };
  jobs[1].estimated_runtime = 40.0;
  jobs[1].deadline_duration = 1050.0;  // absolute 1051; starts at 1000
  const auto report =
      simulate(jobs, policy::PolicyKind::FcfsBf,
               economy::EconomicModel::CommodityMarket,
               {.node_count = 4});
  EXPECT_EQ(report.inputs.accepted, 2u);
  EXPECT_EQ(report.inputs.fulfilled, 1u) << "job 2 finishes at 1100 > 1051";
  // Quotes use estimates: 1000 + 40; the violated SLA still pays in full
  // (no penalty in the commodity model, §5.1).
  EXPECT_DOUBLE_EQ(report.inputs.total_utility, 1040.0);
}

TEST(SimulateTest, BidUtilityPaysBidOnTimeAndPenalisesDelay) {
  // Job 2 under-estimates (40 s believed, 100 s real): admitted at t=1000
  // because 1040 <= deadline 1046, but really finishes at 1100 — delay
  // (1100 - 1) - 1045 = 54 s at $2/s.
  std::vector<workload::Job> jobs = {
      make_job(1, 0.0, 4, 1000.0, 50.0, 5000.0, 2.0),
      make_job(2, 1.0, 4, 100.0, 50.0, 3000.0, 2.0),
  };
  jobs[1].estimated_runtime = 40.0;
  jobs[1].deadline_duration = 1045.0;
  const auto report = simulate(jobs, policy::PolicyKind::FcfsBf,
                               economy::EconomicModel::BidBased,
                               {.node_count = 4});
  EXPECT_EQ(report.inputs.fulfilled, 1u);
  EXPECT_NEAR(report.inputs.total_utility, 5000.0 + 3000.0 - 54.0 * 2.0,
              1e-6);
}

TEST(SimulateTest, RecordsAreInSubmissionOrder) {
  std::vector<workload::Job> jobs;
  for (workload::JobId id = 1; id <= 20; ++id) {
    jobs.push_back(make_job(id, id * 10.0, 1, 50.0, 5.0, 100.0));
  }
  const auto report = simulate(jobs, policy::PolicyKind::Libra,
                               economy::EconomicModel::BidBased);
  ASSERT_EQ(report.records.size(), 20u);
  for (std::size_t i = 0; i < report.records.size(); ++i) {
    EXPECT_EQ(report.records[i].job.id, i + 1);
  }
}

TEST(SimulateTest, DeterministicAcrossRuns) {
  workload::SyntheticSdscConfig trace;
  trace.job_count = 300;
  const workload::WorkloadBuilder builder(trace);
  const auto jobs = builder.build(workload::QosConfig{}, 0.25, 100.0);
  const auto a = simulate(jobs, policy::PolicyKind::LibraRiskD,
                          economy::EconomicModel::BidBased);
  const auto b = simulate(jobs, policy::PolicyKind::LibraRiskD,
                          economy::EconomicModel::BidBased);
  EXPECT_EQ(a.inputs.accepted, b.inputs.accepted);
  EXPECT_EQ(a.inputs.fulfilled, b.inputs.fulfilled);
  EXPECT_DOUBLE_EQ(a.inputs.total_utility, b.inputs.total_utility);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
}

// Integration sweep: invariants that must hold for every policy x model on
// a non-trivial workload.
struct PolicyModelCase {
  policy::PolicyKind kind;
  economy::EconomicModel model;
};

class PolicyModelInvariants
    : public ::testing::TestWithParam<PolicyModelCase> {};

TEST_P(PolicyModelInvariants, CountsAndMoneyAreConsistent) {
  const auto [kind, model] = GetParam();
  workload::SyntheticSdscConfig trace;
  trace.job_count = 400;
  const workload::WorkloadBuilder builder(trace);
  const auto jobs = builder.build(workload::QosConfig{}, 0.25, 100.0);

  const auto report = simulate(jobs, kind, model);

  EXPECT_EQ(report.inputs.submitted, 400u);
  EXPECT_LE(report.inputs.fulfilled, report.inputs.accepted);
  EXPECT_LE(report.inputs.accepted, report.inputs.submitted);
  EXPECT_GE(report.objectives.wait, 0.0);
  EXPECT_GE(report.objectives.sla, 0.0);
  EXPECT_LE(report.objectives.sla, 100.0);
  EXPECT_LE(report.objectives.reliability, 100.0);

  std::size_t rejected = 0;
  for (const SlaRecord& record : report.records) {
    switch (record.outcome) {
      case workload::JobOutcome::Rejected:
        ++rejected;
        EXPECT_DOUBLE_EQ(record.utility, 0.0);
        break;
      case workload::JobOutcome::FulfilledSLA:
        EXPECT_LE(record.finish_time, record.job.submit_time +
                                          record.job.deadline_duration +
                                          sim::kTimeEpsilon);
        EXPECT_GE(record.start_time, record.submit_time - sim::kTimeEpsilon);
        if (model == economy::EconomicModel::BidBased) {
          EXPECT_NEAR(record.utility, record.job.budget, 1e-9)
              << "on-time bid job earns the full bid";
        }
        break;
      case workload::JobOutcome::ViolatedSLA:
        EXPECT_GT(record.finish_time, record.job.submit_time +
                                          record.job.deadline_duration);
        if (model == economy::EconomicModel::BidBased) {
          EXPECT_LT(record.utility, record.job.budget);
        }
        break;
      case workload::JobOutcome::TerminatedSLA:
        ADD_FAILURE() << "job " << record.job.id
                      << " terminated without the ablation flag";
        break;
      case workload::JobOutcome::FailedOutage:
        ADD_FAILURE() << "job " << record.job.id
                      << " failed by outage with injection disabled";
        break;
      case workload::JobOutcome::Unfinished:
        ADD_FAILURE() << "job " << record.job.id << " never finished";
        break;
    }
    if (model == economy::EconomicModel::CommodityMarket &&
        record.accepted()) {
      EXPECT_LE(record.utility, record.job.budget + 1e-9)
          << "commodity charge is capped by the budget check";
    }
  }
  EXPECT_EQ(rejected, report.inputs.submitted - report.inputs.accepted);
}

INSTANTIATE_TEST_SUITE_P(
    TableV, PolicyModelInvariants,
    ::testing::Values(
        PolicyModelCase{policy::PolicyKind::FcfsBf,
                        economy::EconomicModel::CommodityMarket},
        PolicyModelCase{policy::PolicyKind::SjfBf,
                        economy::EconomicModel::CommodityMarket},
        PolicyModelCase{policy::PolicyKind::EdfBf,
                        economy::EconomicModel::CommodityMarket},
        PolicyModelCase{policy::PolicyKind::Libra,
                        economy::EconomicModel::CommodityMarket},
        PolicyModelCase{policy::PolicyKind::LibraDollar,
                        economy::EconomicModel::CommodityMarket},
        PolicyModelCase{policy::PolicyKind::FcfsBf,
                        economy::EconomicModel::BidBased},
        PolicyModelCase{policy::PolicyKind::EdfBf,
                        economy::EconomicModel::BidBased},
        PolicyModelCase{policy::PolicyKind::FirstReward,
                        economy::EconomicModel::BidBased},
        PolicyModelCase{policy::PolicyKind::Libra,
                        economy::EconomicModel::BidBased},
        PolicyModelCase{policy::PolicyKind::LibraRiskD,
                        economy::EconomicModel::BidBased}),
    [](const ::testing::TestParamInfo<PolicyModelCase>& info) {
      std::string name = std::string(policy::to_string(info.param.kind)) +
                         "_" + economy::to_string(info.param.model);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// Behavioural cross-checks from the paper's §6 narrative on a mid-size
// workload with the trace's own (inaccurate) estimates.
TEST(PaperNarrativeTest, LibraFamilyHasZeroWait) {
  workload::SyntheticSdscConfig trace;
  trace.job_count = 400;
  const workload::WorkloadBuilder builder(trace);
  const auto jobs = builder.build(workload::QosConfig{}, 0.25, 100.0);
  for (auto kind : {policy::PolicyKind::Libra, policy::PolicyKind::LibraDollar,
                    policy::PolicyKind::LibraRiskD}) {
    const auto report =
        simulate(jobs, kind, economy::EconomicModel::CommodityMarket);
    EXPECT_DOUBLE_EQ(report.objectives.wait, 0.0)
        << policy::to_string(kind)
        << " examines jobs at submission and starts them immediately";
  }
}

TEST(PaperNarrativeTest, LibraRiskDHandlesInaccurateEstimatesBetter) {
  workload::SyntheticSdscConfig trace;
  trace.job_count = 1500;
  const workload::WorkloadBuilder builder(trace);
  const auto jobs = builder.build(workload::QosConfig{}, 0.25, 100.0);
  const auto libra =
      simulate(jobs, policy::PolicyKind::Libra,
               economy::EconomicModel::BidBased);
  const auto riskd =
      simulate(jobs, policy::PolicyKind::LibraRiskD,
               economy::EconomicModel::BidBased);
  EXPECT_GE(riskd.objectives.reliability, libra.objectives.reliability)
      << "zero-risk node selection absorbs under-estimates";
  EXPECT_GT(riskd.objectives.profitability, libra.objectives.profitability)
      << "fewer penalty payouts under inaccurate estimates";
}

TEST(PaperNarrativeTest, FirstRewardIsRiskAverse) {
  workload::SyntheticSdscConfig trace;
  trace.job_count = 800;
  const workload::WorkloadBuilder builder(trace);
  const auto jobs = builder.build(workload::QosConfig{}, 0.25, 100.0);
  const auto first_reward = simulate(jobs, policy::PolicyKind::FirstReward,
                                     economy::EconomicModel::BidBased);
  const auto edf = simulate(jobs, policy::PolicyKind::EdfBf,
                            economy::EconomicModel::BidBased);
  EXPECT_LT(first_reward.objectives.sla, edf.objectives.sla)
      << "unbounded penalties make FirstReward accept far fewer jobs";
}

TEST(PaperNarrativeTest, GenerousAdmissionKeepsBackfillReliabilityNearIdeal) {
  workload::SyntheticSdscConfig trace;
  trace.job_count = 800;
  const workload::WorkloadBuilder builder(trace);
  // Set A: accurate estimates -> reliability is exactly 100%.
  const auto jobs = builder.build(workload::QosConfig{}, 0.25, 0.0);
  for (auto kind : {policy::PolicyKind::FcfsBf, policy::PolicyKind::EdfBf,
                    policy::PolicyKind::SjfBf}) {
    const auto report =
        simulate(jobs, kind, economy::EconomicModel::CommodityMarket);
    EXPECT_DOUBLE_EQ(report.objectives.reliability, 100.0)
        << policy::to_string(kind);
  }
}

}  // namespace
}  // namespace utilrisk::service
