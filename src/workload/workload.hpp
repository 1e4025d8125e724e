// Workload assembly: trace + QoS + experiment knobs (arrival delay factor,
// runtime-estimate inaccuracy) -> the job stream fed to a simulation run.
#pragma once

#include <vector>

#include "workload/job.hpp"
#include "workload/qos.hpp"
#include "workload/synthetic_sdsc.hpp"

namespace utilrisk::workload {

/// Scales inter-arrival times by `factor` (paper §5.3: "arrival delay
/// factor"; 0.1 turns a 600 s gap into 60 s — lower factor = heavier
/// load). Submission order and the first submit time are preserved.
/// factor must be > 0.
void apply_arrival_delay_factor(std::vector<Job>& jobs, double factor);

/// Sets each job's visible estimate to
///   actual + (inaccuracy_percent/100) * (trace_estimate - actual)
/// where `trace_estimate` is the estimate currently stored on the job.
/// 0 % -> perfectly accurate estimates (Set A); 100 % -> the trace's own
/// estimates (Set B). `jobs` is modified in place; callers that need the
/// original estimates keep a pristine copy (WorkloadBuilder does).
void apply_estimate_inaccuracy(std::vector<Job>& jobs,
                               double inaccuracy_percent);

/// One-stop builder used by the experiment harness: generates (or adopts)
/// a base trace once, then stamps out per-scenario variants without
/// re-sampling the trace (so scenarios differ only in the knob under
/// study).
class WorkloadBuilder {
 public:
  /// Builds on a synthetic SDSC SP2 base trace (generate_synthetic_sdsc,
  /// the same function the `sdsc` workload method calls).
  explicit WorkloadBuilder(const SyntheticSdscConfig& trace_config);

  /// Builds on an externally generated or loaded trace (any workload
  /// method's generate_jobs, or the real SWF file).
  explicit WorkloadBuilder(std::vector<Job> base_trace);

  /// Materialises a run's job stream:
  ///   1. copy the base trace,
  ///   2. scale arrivals by `arrival_delay_factor`,
  ///   3. assign QoS terms per `qos` (deterministic in qos.seed),
  ///   4. blend estimates per `inaccuracy_percent`.
  [[nodiscard]] std::vector<Job> build(const QosConfig& qos,
                                       double arrival_delay_factor,
                                       double inaccuracy_percent) const;

  [[nodiscard]] const std::vector<Job>& base_trace() const { return base_; }

 private:
  std::vector<Job> base_;
};

}  // namespace utilrisk::workload
