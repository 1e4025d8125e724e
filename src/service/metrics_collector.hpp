// Aggregates SLA records into the paper's objective inputs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "core/objectives.hpp"
#include "economy/accounting.hpp"
#include "service/sla.hpp"

namespace utilrisk::service {

/// Collects per-job SLA records during a run and reduces them to the
/// ObjectiveInputs consumed by the risk analysis.
///
/// Records are stored flat in arrival order (a deque, so references stay
/// valid as records are added) and found through an id -> slot hash
/// index. The index is only ever probed, never iterated, so no hash order
/// reaches a report; every ordered walk goes through for_each_record.
class MetricsCollector {
 public:
  void record_submitted(const workload::Job& job, sim::SimTime when);
  void record_accepted(workload::JobId id, sim::SimTime when,
                       economy::Money quoted_cost);
  void record_rejected(workload::JobId id, sim::SimTime when);
  void record_started(workload::JobId id, sim::SimTime when);
  /// `utility` is the realised utility under the active economic model.
  void record_finished(workload::JobId id, sim::SimTime when,
                       economy::Money utility);

  /// Job killed at its deadline (preemption ablation): counts as an
  /// accepted, unfulfilled SLA with the given settlement (usually 0 — the
  /// user pays nothing for work that never completed).
  void record_terminated(workload::JobId id, sim::SimTime when,
                         economy::Money utility);

  /// An attempt of the job was killed by a node outage (the job itself may
  /// still be retried): bumps outage_count and clears the started flag.
  void record_outage(workload::JobId id, sim::SimTime when);

  /// Job lost for good to outages (retry budget exhausted or deadline
  /// unreachable): accepted, unfulfilled, settled at `utility` (usually
  /// negative in the bid model — the provider owes the penalty).
  void record_failed(workload::JobId id, sim::SimTime when,
                     economy::Money utility);

  /// The record of job `id`; throws std::out_of_range for an unknown id.
  /// The reference stays valid for the collector's lifetime.
  [[nodiscard]] const SlaRecord& record(workload::JobId id) const;

  /// Calls `visit(const SlaRecord&)` on every record in ascending job id.
  /// Ids that arrived ascending (trace order, serve's per-key counter)
  /// are walked as stored; otherwise the slots are sorted by id first.
  template <typename Visit>
  void for_each_record(Visit&& visit) const {
    if (ids_ascending_) {
      for (const SlaRecord& record : records_) visit(record);
      return;
    }
    for (const std::size_t slot : slots_by_id()) visit(records_[slot]);
  }

  [[nodiscard]] const economy::Ledger& ledger() const { return ledger_; }

  /// Canonical objective inputs: the wait sum is accumulated walking the
  /// records in ascending job-id order (for_each_record), which is the
  /// order the digested report has always used. O(records).
  [[nodiscard]] core::ObjectiveInputs objective_inputs() const;

  /// O(1) objective inputs for periodic samplers: counts come from the
  /// incrementally-maintained outcome counters (exact integers, identical
  /// to the canonical walk) and the wait sum from a rolling accumulator
  /// updated at each fulfilment (finish order, so the double may differ
  /// from the canonical id-order sum in the last ulp). Dashboards only —
  /// anything digested must use objective_inputs().
  [[nodiscard]] core::ObjectiveInputs rolling_objective_inputs() const;

  /// Number of records currently carrying `outcome`. O(1), maintained
  /// incrementally at every outcome transition.
  [[nodiscard]] std::uint64_t outcome_count(workload::JobOutcome outcome) const {
    return outcome_counts_[static_cast<std::size_t>(outcome)];
  }

  /// Total records (== submissions). O(1).
  [[nodiscard]] std::uint64_t submitted_count() const {
    return records_.size();
  }

  /// Jobs accepted but not finished (non-zero only if a run was cut off
  /// before draining; the harness treats this as an error). O(1).
  [[nodiscard]] std::size_t unfinished_count() const;

 private:
  SlaRecord& must_find(workload::JobId id, const char* what);
  /// Every slot, sorted by its record's job id.
  [[nodiscard]] std::vector<std::size_t> slots_by_id() const;
  /// Moves `record` to `outcome`, keeping the per-outcome counters and the
  /// rolling fulfilled-wait sum in step.
  void set_outcome(SlaRecord& record, workload::JobOutcome outcome);

  std::deque<SlaRecord> records_;  ///< arrival order
  std::unordered_map<workload::JobId, std::size_t> slots_;  ///< id -> slot
  /// True while every record's id exceeds the one stored before it.
  bool ids_ascending_ = true;
  economy::Ledger ledger_;
  /// One bucket per JobOutcome value; every record is in exactly one.
  std::array<std::uint64_t, 6> outcome_counts_{};
  /// Sum of wait_time() over currently-fulfilled records, accumulated in
  /// fulfilment order (see rolling_objective_inputs()).
  double rolling_wait_sum_ = 0.0;
};

}  // namespace utilrisk::service
