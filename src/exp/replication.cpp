#include "exp/replication.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "exp/parallel.hpp"
#include "service/computing_service.hpp"
#include "workload/workload.hpp"

namespace utilrisk::exp {

ReplicationSummary summarize_replicates(
    std::vector<core::ObjectiveValues> replicates) {
  if (replicates.size() < 2) {
    throw std::invalid_argument(
        "summarize_replicates: need at least 2 replicates");
  }
  ReplicationSummary summary;
  const double n = static_cast<double>(replicates.size());
  for (core::Objective objective : core::kAllObjectives) {
    const auto o = static_cast<std::size_t>(objective);
    double sum = 0.0;
    for (const core::ObjectiveValues& values : replicates) {
      sum += values.get(objective);
    }
    const double mean = sum / n;
    double sq = 0.0;
    for (const core::ObjectiveValues& values : replicates) {
      const double d = values.get(objective) - mean;
      sq += d * d;
    }
    ObjectiveEstimate& estimate = summary.objectives[o];
    estimate.mean = mean;
    estimate.stddev = std::sqrt(sq / (n - 1.0));
    // Normal approximation; fine for the coarse "do intervals overlap"
    // comparisons we make (replicate counts are small, so this slightly
    // understates the width — callers wanting rigour can use the raw
    // replicates).
    estimate.ci95_half = 1.96 * estimate.stddev / std::sqrt(n);
  }
  summary.replicates = std::move(replicates);
  return summary;
}

ReplicationSummary replicate(const ReplicationConfig& config) {
  if (config.seeds.size() < 2) {
    throw std::invalid_argument("replicate: need at least 2 seeds");
  }
  // Each replicate builds its own trace, workload and simulator from its
  // seed alone (no shared RNG streams), so the seeds fan out across the
  // pool; results land at their seed's index, so the summary does not
  // depend on the worker count.
  std::vector<core::ObjectiveValues> replicates(config.seeds.size());
  const auto run_seed = [&config, &replicates](std::size_t /*worker*/,
                                               std::size_t i) {
    const std::uint64_t seed = config.seeds[i];
    workload::SyntheticSdscConfig trace = config.trace;
    trace.seed = seed;
    workload::QosConfig qos;
    qos.high_urgency_percent = config.settings.high_urgency_percent;
    qos.deadline = config.settings.deadline;
    qos.budget = config.settings.budget;
    qos.penalty = config.settings.penalty;
    qos.seed = seed * 31 + 7;
    const workload::WorkloadBuilder builder(trace);
    const auto jobs =
        builder.build(qos, config.settings.arrival_delay_factor,
                      config.settings.inaccuracy_percent);
    policy::PolicyContext context;
    context.model = config.model;
    context.failure = config.settings.failure;
    context.recovery = config.settings.recovery;
    const auto report = service::simulate(
        jobs, service::factory_for(config.policy), context);
    replicates[i] = report.objectives;
  };
  const std::size_t workers =
      config.workers == 0 ? default_worker_count() : config.workers;
  ThreadPool pool(std::min(workers, config.seeds.size()));
  parallel_for_index(pool, config.seeds.size(), run_seed);
  return summarize_replicates(std::move(replicates));
}

}  // namespace utilrisk::exp
