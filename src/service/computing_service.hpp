// The commercial computing service: receives SLAs, delegates admission and
// scheduling to a resource-management policy, settles utilities under the
// active economic model, and feeds the metrics collector.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "cluster/failure.hpp"
#include "economy/accounting.hpp"
#include "policy/factory.hpp"
#include "policy/policy.hpp"
#include "service/metrics_collector.hpp"
#include "sim/entity.hpp"

namespace utilrisk::obs {
class Counter;
class Gauge;
}  // namespace utilrisk::obs

namespace utilrisk::service {

/// Creates a policy bound to a host — the injection point for custom
/// policies in simulate() and ComputingService.
using PolicyFactory = std::function<std::unique_ptr<policy::Policy>(
    const policy::PolicyContext&, policy::PolicyHost&)>;

/// Adapts a Table V PolicyKind to a PolicyFactory.
[[nodiscard]] PolicyFactory factory_for(policy::PolicyKind kind);

class ComputingService : public sim::Entity, public policy::PolicyHost {
 public:
  ComputingService(sim::Simulator& simulator, policy::PolicyKind kind,
                   const policy::PolicyContext& context);

  ComputingService(sim::Simulator& simulator, const PolicyFactory& factory,
                   const policy::PolicyContext& context);

  /// Schedules the jobs' arrivals as one kernel batch (jobs need not be
  /// sorted; each fires at its own submit_time, which must be >= the
  /// current simulation time). All or nothing: a past submit time throws
  /// sim::SchedulingError before anything is counted or scheduled.
  void submit_all(std::vector<workload::Job> jobs);

  [[nodiscard]] const MetricsCollector& metrics() const { return metrics_; }
  [[nodiscard]] const policy::Policy& active_policy() const {
    return *policy_;
  }
  [[nodiscard]] economy::EconomicModel model() const { return model_; }

  /// The fault injector, or nullptr when failure injection is disabled
  /// (context.failure.mtbf_seconds not finite-positive).
  [[nodiscard]] const cluster::FailureInjector* failure_injector() const {
    return injector_.get();
  }

  // --- PolicyHost -------------------------------------------------------
  void notify_accepted(const workload::Job& job,
                       economy::Money quoted_cost) override;
  void notify_rejected(const workload::Job& job) override;
  void notify_started(const workload::Job& job) override;
  void notify_finished(const workload::Job& job,
                       sim::SimTime finish_time) override;
  void notify_failed(const workload::Job& job,
                     double completed_work) override;

 private:
  /// Bounded retry with exponential backoff; falls through to
  /// settle_outage when the budget or the deadline is exhausted.
  void handle_failed_attempt(const workload::Job& attempt,
                             double completed_work);
  /// Settles a job permanently lost to outages (FailedOutage).
  void settle_outage(workload::JobId id);
  /// One job reached a terminal outcome; disarms the injector once all
  /// submitted jobs are settled so the run can drain.
  void note_terminal();
  /// Runs the policy's admission decision for `job`, timing it when the
  /// `cluster.decision_ns` gauge is wired up (the gauge carries the
  /// running mean nanoseconds per decision).
  void run_admission(const workload::Job& job);

  economy::EconomicModel model_;
  MetricsCollector metrics_;
  std::unique_ptr<policy::Policy> policy_;
  std::unique_ptr<cluster::FailureInjector> injector_;
  /// Resubmissions consumed per job (present only for jobs that absorbed
  /// at least one outage — also how notify_rejected tells a retry attempt
  /// from a fresh submission).
  std::map<workload::JobId, std::uint32_t> retry_attempts_;
  std::size_t expected_jobs_ = 0;
  std::size_t terminal_jobs_ = 0;
  // service.* instruments, resolved once from context.metrics in the
  // constructor; all null when no (enabled) registry was injected.
  obs::Counter* submitted_metric_ = nullptr;
  obs::Counter* accepted_metric_ = nullptr;
  obs::Counter* rejected_metric_ = nullptr;
  obs::Counter* started_metric_ = nullptr;
  obs::Counter* fulfilled_metric_ = nullptr;
  obs::Counter* violated_metric_ = nullptr;
  obs::Counter* terminated_metric_ = nullptr;
  obs::Counter* retries_metric_ = nullptr;
  obs::Counter* outages_metric_ = nullptr;
  obs::Counter* failed_outage_metric_ = nullptr;
  /// Mean wall nanoseconds per admission decision (policy on_submit),
  /// over submissions and retry resubmissions alike. Null when metrics
  /// are absent — then decisions are not timed at all.
  obs::Gauge* decision_ns_metric_ = nullptr;
  std::uint64_t decision_count_ = 0;
  double decision_ns_total_ = 0.0;
};

/// Outcome of a complete simulation run.
struct SimulationReport {
  core::ObjectiveInputs inputs;
  core::ObjectiveValues objectives;
  std::vector<SlaRecord> records;  ///< per-job, submission order
  std::uint64_t events_dispatched = 0;
  sim::SimTime end_time = 0.0;
  /// Delivered work / (machine width * simulated span): the realised
  /// machine utilisation (the SDSC SP2 subset the paper simulates ran at
  /// 83.2 %).
  double utilization = 0.0;
  /// Settlement ledger snapshot: one entry per settled SLA, settlement
  /// order. Backs the money-conservation invariants and the digest's
  /// order-independent money-flow component.
  std::vector<economy::LedgerEntry> ledger_entries;
  economy::Money ledger_total_utility = 0.0;
  economy::Money ledger_total_budget = 0.0;
  /// Canonical run digest (verify::run_digest), 16 lowercase hex chars.
  /// A pure function of the fields above; bit-stable across platforms,
  /// build types and worker counts.
  std::string digest;
};

/// Convenience one-shot runner: builds a simulator + service, submits all
/// jobs, runs to quiescence and reduces the metrics. Throws
/// std::runtime_error if any accepted job never finished (a kernel or
/// policy bug, not a workload condition).
[[nodiscard]] SimulationReport simulate(
    const std::vector<workload::Job>& jobs, policy::PolicyKind kind,
    economy::EconomicModel model,
    const cluster::MachineConfig& machine = {},
    const economy::PricingParams& pricing = {},
    const policy::FirstRewardParams& first_reward = {});

/// Same runner for custom policies (anything constructible from a
/// PolicyContext + PolicyHost).
[[nodiscard]] SimulationReport simulate(
    const std::vector<workload::Job>& jobs, const PolicyFactory& factory,
    economy::EconomicModel model,
    const cluster::MachineConfig& machine = {},
    const economy::PricingParams& pricing = {},
    const policy::FirstRewardParams& first_reward = {});

/// Fully explicit variant: every context knob (including
/// terminate_at_deadline) under caller control. `context.simulator` is
/// overwritten with the runner's own simulator.
[[nodiscard]] SimulationReport simulate(
    const std::vector<workload::Job>& jobs, const PolicyFactory& factory,
    policy::PolicyContext context);

}  // namespace utilrisk::service
