#include "service/metrics_collector.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

namespace utilrisk::service {

SlaRecord& MetricsCollector::must_find(workload::JobId id, const char* what) {
  const auto it = slots_.find(id);
  if (it == slots_.end()) {
    throw std::logic_error(std::string("MetricsCollector::") + what +
                           ": unknown job " + std::to_string(id));
  }
  return records_[it->second];
}

std::vector<std::size_t> MetricsCollector::slots_by_id() const {
  std::vector<std::size_t> slots(records_.size());
  std::iota(slots.begin(), slots.end(), std::size_t{0});
  std::sort(slots.begin(), slots.end(), [this](std::size_t a, std::size_t b) {
    return records_[a].job.id < records_[b].job.id;
  });
  return slots;
}

void MetricsCollector::set_outcome(SlaRecord& record,
                                   workload::JobOutcome outcome) {
  if (record.outcome == workload::JobOutcome::FulfilledSLA) {
    rolling_wait_sum_ -= record.wait_time();
  }
  --outcome_counts_[static_cast<std::size_t>(record.outcome)];
  record.outcome = outcome;
  ++outcome_counts_[static_cast<std::size_t>(outcome)];
  if (outcome == workload::JobOutcome::FulfilledSLA) {
    rolling_wait_sum_ += record.wait_time();
  }
}

void MetricsCollector::record_submitted(const workload::Job& job,
                                        sim::SimTime when) {
  if (!slots_.try_emplace(job.id, records_.size()).second) {
    throw std::logic_error("MetricsCollector: duplicate submission of job " +
                           std::to_string(job.id));
  }
  if (!records_.empty() && job.id < records_.back().job.id) {
    ids_ascending_ = false;
  }
  SlaRecord& record = records_.emplace_back();
  record.job = job;
  record.submit_time = when;
  ++outcome_counts_[static_cast<std::size_t>(record.outcome)];
  ledger_.record_submitted(job);
}

void MetricsCollector::record_accepted(workload::JobId id, sim::SimTime when,
                                       economy::Money quoted_cost) {
  SlaRecord& record = must_find(id, "record_accepted");
  record.decision_time = when;
  record.quoted_cost = quoted_cost;
  set_outcome(record, workload::JobOutcome::Unfinished);  // running/queued
}

void MetricsCollector::record_rejected(workload::JobId id, sim::SimTime when) {
  SlaRecord& record = must_find(id, "record_rejected");
  record.decision_time = when;
  set_outcome(record, workload::JobOutcome::Rejected);
}

void MetricsCollector::record_started(workload::JobId id, sim::SimTime when) {
  SlaRecord& record = must_find(id, "record_started");
  // Retried attempts keep the first start (wait measures first dispatch).
  if (!record.started && record.outage_count == 0) {
    record.start_time = when;
  }
  record.started = true;
}

void MetricsCollector::record_finished(workload::JobId id, sim::SimTime when,
                                       economy::Money utility) {
  SlaRecord& record = must_find(id, "record_finished");
  record.finish_time = when;
  record.utility = utility;
  const bool on_time =
      when <= record.submit_time + record.job.deadline_duration +
                  sim::kTimeEpsilon;
  set_outcome(record, on_time ? workload::JobOutcome::FulfilledSLA
                              : workload::JobOutcome::ViolatedSLA);
  ledger_.record_utility(id, utility);
}

void MetricsCollector::record_terminated(workload::JobId id,
                                         sim::SimTime when,
                                         economy::Money utility) {
  SlaRecord& record = must_find(id, "record_terminated");
  if (record.outcome == workload::JobOutcome::Rejected) {
    throw std::logic_error("MetricsCollector: terminating a rejected job");
  }
  record.finish_time = when;
  record.utility = utility;
  set_outcome(record, workload::JobOutcome::TerminatedSLA);
  ledger_.record_utility(id, utility);
}

void MetricsCollector::record_outage(workload::JobId id,
                                     sim::SimTime /*when*/) {
  SlaRecord& record = must_find(id, "record_outage");
  if (record.outcome == workload::JobOutcome::Rejected) {
    throw std::logic_error("MetricsCollector: outage on a rejected job");
  }
  ++record.outage_count;
  record.started = false;
}

void MetricsCollector::record_failed(workload::JobId id, sim::SimTime when,
                                     economy::Money utility) {
  SlaRecord& record = must_find(id, "record_failed");
  if (record.outcome == workload::JobOutcome::Rejected) {
    throw std::logic_error("MetricsCollector: failing a rejected job");
  }
  record.finish_time = when;
  record.utility = utility;
  set_outcome(record, workload::JobOutcome::FailedOutage);
  ledger_.record_utility(id, utility);
}

const SlaRecord& MetricsCollector::record(workload::JobId id) const {
  const auto it = slots_.find(id);
  if (it == slots_.end()) {
    throw std::out_of_range("MetricsCollector::record: unknown job " +
                            std::to_string(id));
  }
  return records_[it->second];
}

core::ObjectiveInputs MetricsCollector::objective_inputs() const {
  core::ObjectiveInputs inputs;
  inputs.total_budget = ledger_.total_budget();
  inputs.total_utility = ledger_.total_utility();
  for_each_record([&inputs](const SlaRecord& record) {
    ++inputs.submitted;
    if (record.accepted()) ++inputs.accepted;
    if (record.fulfilled()) {
      ++inputs.fulfilled;
      inputs.wait_sum_fulfilled += record.wait_time();
    }
  });
  return inputs;
}

core::ObjectiveInputs MetricsCollector::rolling_objective_inputs() const {
  core::ObjectiveInputs inputs;
  inputs.total_budget = ledger_.total_budget();
  inputs.total_utility = ledger_.total_utility();
  inputs.submitted = records_.size();
  inputs.accepted =
      records_.size() - outcome_count(workload::JobOutcome::Rejected);
  inputs.fulfilled = outcome_count(workload::JobOutcome::FulfilledSLA);
  inputs.wait_sum_fulfilled = rolling_wait_sum_;
  return inputs;
}

std::size_t MetricsCollector::unfinished_count() const {
  return outcome_count(workload::JobOutcome::Unfinished);
}

}  // namespace utilrisk::service
