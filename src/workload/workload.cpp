#include "workload/workload.hpp"

#include <stdexcept>
#include <utility>

namespace utilrisk::workload {

void apply_arrival_delay_factor(std::vector<Job>& jobs, double factor) {
  if (factor <= 0.0) {
    throw std::invalid_argument(
        "apply_arrival_delay_factor: factor must be > 0");
  }
  if (jobs.size() < 2) return;
  const double base = jobs.front().submit_time;
  double prev_original = base;
  double prev_scaled = base;
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    const double gap = jobs[i].submit_time - prev_original;
    if (gap < 0.0) {
      throw std::invalid_argument(
          "apply_arrival_delay_factor: jobs not in submission order");
    }
    prev_original = jobs[i].submit_time;
    prev_scaled += gap * factor;
    jobs[i].submit_time = prev_scaled;
  }
}

void apply_estimate_inaccuracy(std::vector<Job>& jobs,
                               double inaccuracy_percent) {
  if (inaccuracy_percent < 0.0 || inaccuracy_percent > 100.0) {
    throw std::invalid_argument(
        "apply_estimate_inaccuracy: percent outside [0,100]");
  }
  const double blend = inaccuracy_percent / 100.0;
  for (auto& job : jobs) {
    job.estimated_runtime =
        job.actual_runtime +
        blend * (job.estimated_runtime - job.actual_runtime);
  }
}

WorkloadBuilder::WorkloadBuilder(const SyntheticSdscConfig& trace_config)
    : base_(generate_synthetic_sdsc(trace_config)) {}

WorkloadBuilder::WorkloadBuilder(std::vector<Job> base_trace)
    : base_(std::move(base_trace)) {}

std::vector<Job> WorkloadBuilder::build(const QosConfig& qos,
                                        double arrival_delay_factor,
                                        double inaccuracy_percent) const {
  std::vector<Job> jobs = base_;
  apply_arrival_delay_factor(jobs, arrival_delay_factor);
  assign_qos(jobs, qos);
  apply_estimate_inaccuracy(jobs, inaccuracy_percent);
  return jobs;
}

}  // namespace utilrisk::workload
