// Job model: what a user submits to the commercial computing service.
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.hpp"

namespace utilrisk::workload {

using JobId = std::uint32_t;

/// Urgency class per the paper's §5.3 QoS methodology (after Irwin et al.):
/// high-urgency jobs have tight deadlines, large budgets and penalty rates;
/// low-urgency jobs the opposite.
enum class Urgency : std::uint8_t { Low = 0, High = 1 };

[[nodiscard]] inline const char* to_string(Urgency u) {
  return u == Urgency::High ? "high" : "low";
}

/// A parallel, rigid, non-preemptible job plus its SLA terms.
///
/// Times are in seconds. `actual_runtime` is the wall-clock the job needs on
/// `procs` dedicated processors; policies never see it directly — they see
/// `estimated_runtime` (the user-provided estimate, already adjusted by the
/// experiment's inaccuracy knob).
struct Job {
  JobId id = 0;

  /// Absolute submission time (simulation epoch).
  sim::SimTime submit_time = 0.0;

  /// True wall-clock runtime on dedicated processors (hidden from policies).
  double actual_runtime = 0.0;

  /// User-supplied runtime estimate visible to schedulers.
  double estimated_runtime = 0.0;

  /// Required number of processors (rigid allocation).
  std::uint32_t procs = 1;

  /// Owning tenant/user id (stamped by multi-tenant generators such as
  /// `zipf`; 0 = unattributed single-tenant traffic). Folded into the
  /// canonical run digest when attributed (verify::kRunDigestSchemaVersion
  /// v2); legacy workloads leave it zero, so their digests are unchanged.
  /// The sharded serving path also routes by it (serve/shard.hpp).
  std::uint32_t tenant = 0;

  // --- SLA / QoS terms (paper §5.3) -------------------------------------

  /// Deadline as a duration from submission: the job must finish by
  /// submit_time + deadline_duration for its SLA to be fulfilled (eqn 10
  /// uses d_i relative to submission).
  double deadline_duration = 0.0;

  /// Maximum amount the user pays for on-time completion ($).
  double budget = 0.0;

  /// Linear penalty rate ($/s of delay past the deadline) in the bid-based
  /// model (Fig. 2); unused in the commodity market model.
  double penalty_rate = 0.0;

  Urgency urgency = Urgency::Low;

  /// Absolute deadline.
  [[nodiscard]] sim::SimTime absolute_deadline() const {
    return submit_time + deadline_duration;
  }

  /// Deadline factor d/tr used by the workload generator knobs.
  [[nodiscard]] double deadline_factor() const {
    return actual_runtime > 0.0 ? deadline_duration / actual_runtime : 0.0;
  }

  /// Total processor-seconds of real work.
  [[nodiscard]] double work() const {
    return actual_runtime * static_cast<double>(procs);
  }
};

/// Outcome of one job's SLA lifecycle, recorded by the service.
enum class JobOutcome : std::uint8_t {
  Rejected,        ///< admission control refused the SLA
  FulfilledSLA,    ///< accepted and finished within deadline
  ViolatedSLA,     ///< accepted but finished after deadline
  TerminatedSLA,   ///< accepted but killed at the deadline (preemption
                   ///< ablation; the paper's policies never terminate)
  FailedOutage,    ///< accepted but lost to a node failure after the
                   ///< bounded-retry budget was exhausted
  Unfinished,      ///< accepted but still running when the horizon closed
};

[[nodiscard]] inline const char* to_string(JobOutcome o) {
  switch (o) {
    case JobOutcome::Rejected: return "rejected";
    case JobOutcome::FulfilledSLA: return "fulfilled";
    case JobOutcome::ViolatedSLA: return "violated";
    case JobOutcome::TerminatedSLA: return "terminated";
    case JobOutcome::FailedOutage: return "failed-outage";
    case JobOutcome::Unfinished: return "unfinished";
  }
  return "?";
}

}  // namespace utilrisk::workload
