#include "service/computing_service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "economy/penalty.hpp"
#include "obs/metrics.hpp"
#include "sim/logger.hpp"
#include "verify/invariants.hpp"
#include "verify/run_digest.hpp"

namespace utilrisk::service {

namespace {
/// A hair past the deadline, so a job completing exactly on time settles
/// as fulfilled before any kill/abandon event fires.
constexpr sim::SimTime kKillSlack = 1e-3;
/// Residual runtime floor for a checkpoint-restarted attempt (a restart
/// exactly at a checkpoint boundary still costs a moment of recovery).
constexpr double kMinRestartRuntime = 1e-3;
}  // namespace

PolicyFactory factory_for(policy::PolicyKind kind) {
  return [kind](const policy::PolicyContext& context,
                policy::PolicyHost& host) {
    return policy::make_policy(kind, context, host);
  };
}

ComputingService::ComputingService(sim::Simulator& simulator,
                                   policy::PolicyKind kind,
                                   const policy::PolicyContext& context)
    : ComputingService(simulator, factory_for(kind), context) {}

ComputingService::ComputingService(sim::Simulator& simulator,
                                   const PolicyFactory& factory,
                                   const policy::PolicyContext& context)
    : Entity(simulator, "computing-service"),
      model_(context.model),
      policy_(factory(context, *this)) {
  if (context.simulator != &simulator) {
    throw std::invalid_argument(
        "ComputingService: context simulator mismatch");
  }
  if (!policy_) {
    throw std::invalid_argument("ComputingService: factory returned null");
  }
  context.machine.validate();
  if (obs::MetricsRegistry* reg = context.metrics) {
    submitted_metric_ = obs::counter_or_null(reg, "service.jobs_submitted");
    accepted_metric_ = obs::counter_or_null(reg, "service.sla_accepted");
    rejected_metric_ = obs::counter_or_null(reg, "service.sla_rejected");
    started_metric_ = obs::counter_or_null(reg, "service.jobs_started");
    fulfilled_metric_ = obs::counter_or_null(reg, "service.sla_fulfilled");
    violated_metric_ = obs::counter_or_null(reg, "service.sla_violated");
    terminated_metric_ = obs::counter_or_null(reg, "service.sla_terminated");
    retries_metric_ = obs::counter_or_null(reg, "service.retries");
    outages_metric_ = obs::counter_or_null(reg, "service.outages");
    failed_outage_metric_ =
        obs::counter_or_null(reg, "service.jobs_failed_outage");
    decision_ns_metric_ = obs::gauge_or_null(reg, "cluster.decision_ns");
  }
  if (context.failure.enabled()) {
    context.failure.validate();
    context.recovery.validate();
    injector_ = std::make_unique<cluster::FailureInjector>(
        simulator, context.machine, context.failure);
    injector_->set_callbacks(
        [this](cluster::NodeId id) { policy_->on_node_down(id); },
        [this](cluster::NodeId id) { policy_->on_node_up(id); });
  }
}

void ComputingService::submit_all(std::vector<workload::Job> jobs) {
  std::vector<sim::SimTime> times;
  times.reserve(jobs.size());
  for (const workload::Job& job : jobs) times.push_back(job.submit_time);
  // Check before counting: a batch that throws half-way would leave
  // expected_jobs_ out of reach and the armed injector never disarming.
  simulator().check_batch(times);
  expected_jobs_ += jobs.size();
  // Arm only while settlements are outstanding: an injector with no jobs
  // to fail would keep the event queue alive forever. Arming first keeps
  // its events' sequence numbers ahead of the arrivals'.
  if (injector_ && terminal_jobs_ < expected_jobs_) injector_->arm();
  simulator().schedule_batch(
      times, [this, jobs = std::move(jobs)](std::size_t i) {
        const workload::Job& job = jobs[i];
        metrics_.record_submitted(job, now());
        if (submitted_metric_ != nullptr) submitted_metric_->inc();
        UTILRISK_ELOG(sim::LogLevel::Debug,
                      "submit job " << job.id << " procs=" << job.procs
                                    << " est=" << job.estimated_runtime
                                    << " deadline=" << job.deadline_duration);
        run_admission(job);
      });
}

void ComputingService::run_admission(const workload::Job& job) {
  if (decision_ns_metric_ == nullptr) {
    policy_->on_submit(job);
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  policy_->on_submit(job);
  const double ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  decision_ns_total_ += ns;
  ++decision_count_;
  decision_ns_metric_->set(decision_ns_total_ /
                           static_cast<double>(decision_count_));
}

void ComputingService::notify_accepted(const workload::Job& job,
                                       economy::Money quoted_cost) {
  metrics_.record_accepted(job.id, now(), quoted_cost);
  if (accepted_metric_ != nullptr) accepted_metric_->inc();
  const workload::JobId id = job.id;
  if (policy_->context().terminate_at_deadline) {
    at(std::max(now(), job.absolute_deadline() + kKillSlack), [this, id] {
      if (metrics_.record(id).outcome != workload::JobOutcome::Unfinished) {
        return;  // settled on time (or already terminated)
      }
      if (policy_->terminate(id)) {
        // The user pays nothing for work that never completed, and the
        // provider stops accruing penalties: termination caps the bid
        // model's otherwise unbounded downside at zero revenue.
        metrics_.record_terminated(id, now(), 0.0);
        if (terminated_metric_ != nullptr) terminated_metric_->inc();
        note_terminal();
      }
    });
  } else if (injector_) {
    // Outage liveness guard: policies that accept at submission
    // (FirstReward, LibraReserve) can leave a job queued forever when
    // failures shrink capacity below its width. Once its deadline passes
    // without the job ever starting, abandon it as an outage casualty.
    at(std::max(now(), job.absolute_deadline() + kKillSlack), [this, id] {
      const SlaRecord& record = metrics_.record(id);
      if (record.outcome != workload::JobOutcome::Unfinished ||
          record.started) {
        return;  // settled, or running (it will finish on its own)
      }
      if (policy_->terminate(id)) settle_outage(id);
    });
  }
}

void ComputingService::notify_rejected(const workload::Job& job) {
  if (retry_attempts_.contains(job.id)) {
    // A resubmitted attempt the policy would not take back: the original
    // acceptance stands, so the job is lost to the outage — not flipped
    // to Rejected (m = accepted + rejected must keep holding).
    settle_outage(job.id);
    return;
  }
  metrics_.record_rejected(job.id, now());
  if (rejected_metric_ != nullptr) rejected_metric_->inc();
  note_terminal();
}

void ComputingService::notify_started(const workload::Job& job) {
  metrics_.record_started(job.id, now());
  if (started_metric_ != nullptr) started_metric_->inc();
}

void ComputingService::notify_finished(const workload::Job& job,
                                       sim::SimTime finish_time) {
  economy::Money utility = 0.0;
  if (model_ == economy::EconomicModel::CommodityMarket) {
    // No penalty: the service keeps charging the quoted price even when
    // the deadline slipped (§5.1).
    utility = metrics_.record(job.id).quoted_cost;
  } else {
    utility = economy::bid_utility(job, finish_time);
  }
  metrics_.record_finished(job.id, finish_time, utility);
  // record_finished decides fulfilled-vs-violated from the deadline.
  const bool fulfilled =
      metrics_.record(job.id).outcome == workload::JobOutcome::FulfilledSLA;
  if (fulfilled && fulfilled_metric_ != nullptr) fulfilled_metric_->inc();
  if (!fulfilled && violated_metric_ != nullptr) violated_metric_->inc();
  note_terminal();
}

void ComputingService::notify_failed(const workload::Job& job,
                                     double completed_work) {
  metrics_.record_outage(job.id, now());
  if (outages_metric_ != nullptr) outages_metric_->inc();
  UTILRISK_ELOG(sim::LogLevel::Debug, "job " << job.id << " killed by outage, completed "
                      << completed_work << "s");
  handle_failed_attempt(job, completed_work);
}

void ComputingService::handle_failed_attempt(const workload::Job& attempt,
                                             double completed_work) {
  const cluster::RecoveryParams& recovery = policy_->context().recovery;
  std::uint32_t& attempts = retry_attempts_[attempt.id];
  const sim::SimTime deadline = attempt.absolute_deadline();
  if (attempts < recovery.retry_limit) {
    const sim::SimTime resubmit = now() + recovery.backoff_for(attempts);
    if (resubmit < deadline - sim::kTimeEpsilon) {
      ++attempts;
      // Checkpoint credit: progress rounds down to the last checkpoint
      // boundary (tau = 0 keeps nothing, the restart redoes everything).
      const double kept = std::min(recovery.checkpointed(completed_work),
                                   attempt.actual_runtime);
      workload::Job retry = attempt;
      retry.submit_time = resubmit;
      // Same absolute deadline: crashing does not renegotiate the SLA.
      retry.deadline_duration = deadline - resubmit;
      retry.actual_runtime =
          std::max(attempt.actual_runtime - kept, kMinRestartRuntime);
      retry.estimated_runtime =
          std::max(attempt.estimated_runtime - kept, 1.0);
      if (retries_metric_ != nullptr) retries_metric_->inc();
      UTILRISK_ELOG(sim::LogLevel::Debug, "retry " << attempts << " of job " << attempt.id
                            << " at t=" << resubmit);
      at(resubmit, [this, retry] { run_admission(retry); });
      return;
    }
  }
  settle_outage(attempt.id);
}

void ComputingService::settle_outage(workload::JobId id) {
  const SlaRecord& record = metrics_.record(id);
  economy::Money utility = 0.0;
  if (model_ == economy::EconomicModel::BidBased) {
    // No delivery, no revenue; but retries kept the SLA open past its
    // deadline, and the provider owes the penalty for that delay — the
    // cost that makes outages bite the bid model's profitability.
    const double delay =
        std::max(0.0, now() - record.job.absolute_deadline());
    utility = -record.job.penalty_rate * delay;
  }
  metrics_.record_failed(id, now(), utility);
  if (failed_outage_metric_ != nullptr) failed_outage_metric_->inc();
  note_terminal();
}

void ComputingService::note_terminal() {
  ++terminal_jobs_;
  if (injector_ && terminal_jobs_ >= expected_jobs_) injector_->disarm();
}

SimulationReport simulate(const std::vector<workload::Job>& jobs,
                          policy::PolicyKind kind,
                          economy::EconomicModel model,
                          const cluster::MachineConfig& machine,
                          const economy::PricingParams& pricing,
                          const policy::FirstRewardParams& first_reward) {
  machine.validate();
  return simulate(jobs, factory_for(kind), model, machine, pricing,
                  first_reward);
}

SimulationReport simulate(const std::vector<workload::Job>& jobs,
                          const PolicyFactory& factory,
                          economy::EconomicModel model,
                          const cluster::MachineConfig& machine,
                          const economy::PricingParams& pricing,
                          const policy::FirstRewardParams& first_reward) {
  machine.validate();
  policy::PolicyContext context;
  context.machine = machine;
  context.model = model;
  context.pricing = pricing;
  context.first_reward = first_reward;
  return simulate(jobs, factory, context);
}

SimulationReport simulate(const std::vector<workload::Job>& jobs,
                          const PolicyFactory& factory,
                          policy::PolicyContext context) {
  context.machine.validate();
  sim::Simulator simulator;
  context.simulator = &simulator;
  simulator.logger().set_level(context.log_level);
  simulator.set_metrics(context.metrics);
  obs::Histogram* wall_hist = obs::histogram_or_null(
      context.metrics, "service.run_wall_seconds",
      obs::default_time_buckets());
  const cluster::MachineConfig machine = context.machine;

  ComputingService svc(simulator, factory, context);
  svc.submit_all(jobs);
  const auto wall_start = std::chrono::steady_clock::now();
  simulator.run();
  if (wall_hist != nullptr) {
    wall_hist->observe(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - wall_start)
                           .count());
  }

  if (svc.metrics().unfinished_count() != 0) {
    // A stuck job is a kernel or policy bug, not a workload condition;
    // name the culprits so the bug is debuggable from the message alone.
    std::ostringstream msg;
    msg << "simulate: " << svc.metrics().unfinished_count()
        << " accepted job(s) left unfinished after quiescence [policy="
        << svc.active_policy().name()
        << ", pending events=" << simulator.pending_events()
        << ", t=" << simulator.now() << "]; stuck:";
    std::size_t listed = 0;
    svc.metrics().for_each_record([&](const SlaRecord& record) {
      if (record.outcome != workload::JobOutcome::Unfinished) return;
      if (listed < 10) {
        msg << " job " << record.job.id
            << (record.started ? " (running" : " (queued")
            << ", outages=" << record.outage_count << ")";
      } else if (listed == 10) {
        msg << " ...";
      }
      ++listed;
    });
    throw std::runtime_error(msg.str());
  }

  SimulationReport report;
  report.inputs = svc.metrics().objective_inputs();
  report.objectives = core::compute_objectives(report.inputs);
  report.records.reserve(svc.metrics().submitted_count());
  svc.metrics().for_each_record(
      [&](const SlaRecord& record) { report.records.push_back(record); });
  report.events_dispatched = simulator.events_dispatched();
  report.end_time = simulator.now();
  if (report.end_time > 0.0 && machine.node_count > 0) {
    report.utilization =
        svc.active_policy().delivered_proc_seconds() /
        (static_cast<double>(machine.node_count) * report.end_time);
  }
  report.ledger_entries = svc.metrics().ledger().entries();
  report.ledger_total_utility = svc.metrics().ledger().total_utility();
  report.ledger_total_budget = svc.metrics().ledger().total_budget();
  report.digest = verify::run_digest(report).hex();
#ifndef NDEBUG
  // Debug builds audit every run; Release relies on the dedicated verify
  // ctest and the replay harness so the hot path stays unchanged.
  verify::enforce_invariants(report, machine.node_count);
#endif
  return report;
}

}  // namespace utilrisk::service
