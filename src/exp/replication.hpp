// Multi-seed replication: independent trace/QoS seeds turn one simulation
// into an estimate with a confidence interval, so policy comparisons can
// be made statistically rather than off a single draw (the robustness
// benches use this; the paper reports single-trace numbers).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/objectives.hpp"
#include "economy/money.hpp"
#include "exp/scenario.hpp"
#include "policy/factory.hpp"
#include "workload/synthetic_sdsc.hpp"

namespace utilrisk::exp {

/// Mean / spread / normal-approximation 95 % confidence half-width of one
/// objective across replications.
struct ObjectiveEstimate {
  double mean = 0.0;
  double stddev = 0.0;  ///< sample standard deviation (n - 1)
  double ci95_half = 0.0;

  [[nodiscard]] double lower() const { return mean - ci95_half; }
  [[nodiscard]] double upper() const { return mean + ci95_half; }
  /// True if the intervals of two estimates do not overlap — a
  /// conservative "significantly different" check.
  [[nodiscard]] bool significantly_above(const ObjectiveEstimate& other) const {
    return lower() > other.upper();
  }
};

/// Estimates for all four objectives plus bookkeeping.
struct ReplicationSummary {
  std::array<ObjectiveEstimate, 4> objectives;  ///< by core::Objective index
  std::vector<core::ObjectiveValues> replicates;

  [[nodiscard]] const ObjectiveEstimate& of(core::Objective objective) const {
    return objectives[static_cast<std::size_t>(objective)];
  }
};

struct ReplicationConfig {
  policy::PolicyKind policy = policy::PolicyKind::Libra;
  economy::EconomicModel model = economy::EconomicModel::BidBased;
  /// Base trace configuration; the seed field is overridden per replicate.
  workload::SyntheticSdscConfig trace;
  /// Knobs (defaults are the Table VI defaults; inaccuracy as configured).
  RunSettings settings;
  /// Independent seeds, one replicate each (>= 2 for an interval).
  std::vector<std::uint64_t> seeds = {42, 1001, 2002, 3003, 4004};
  /// Worker threads fanning the seeds out (exp/parallel.hpp); 0 resolves
  /// to REPRO_JOBS_PAR / hardware_concurrency().
  std::size_t workers = 0;
};

/// Runs one simulation per seed (trace seed = s, QoS seed = s * 31 + 7)
/// and reduces. Replicates are fully independent (each builds its own
/// trace, builder and simulator), so they fan out across config.workers
/// threads; the replicate order — and thus the summary — is the same at
/// every worker count. Throws std::invalid_argument on fewer than 2 seeds.
[[nodiscard]] ReplicationSummary replicate(const ReplicationConfig& config);

/// Reduces externally collected replicate values (exposed for tests and
/// for callers that parallelise the runs themselves).
[[nodiscard]] ReplicationSummary summarize_replicates(
    std::vector<core::ObjectiveValues> replicates);

}  // namespace utilrisk::exp
