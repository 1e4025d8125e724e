// The experiment runner: executes the Table VI sweep for one economic
// model and one experiment set (A or B) and reduces it to the separate
// risk analysis per (scenario, policy, objective) from which every figure
// of §6 is assembled.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "cluster/node.hpp"
#include "core/normalization.hpp"
#include "core/objectives.hpp"
#include "core/separate_risk.hpp"
#include "economy/money.hpp"
#include "exp/result_store.hpp"
#include "exp/scenario.hpp"
#include "policy/factory.hpp"
#include "workload/workload.hpp"

namespace utilrisk::obs {
class MetricsRegistry;
}  // namespace utilrisk::obs

namespace utilrisk::service {
struct SimulationReport;
}  // namespace utilrisk::service

namespace utilrisk::exp {

/// The two experiment sets (§5.4): identical except for the default
/// runtime-estimate inaccuracy.
enum class ExperimentSet {
  A,  ///< 0 % inaccuracy: accurate estimates
  B,  ///< 100 % inaccuracy: the trace's own (mostly over-) estimates
};

[[nodiscard]] const char* to_string(ExperimentSet set);

/// Full configuration of one sweep.
struct ExperimentConfig {
  economy::EconomicModel model = economy::EconomicModel::CommodityMarket;
  ExperimentSet set = ExperimentSet::A;
  workload::SyntheticSdscConfig trace;  ///< base trace (seeded)
  /// Workload-generator spec ("name:key=value,...") for the base trace;
  /// empty (default) = the synthetic SDSC config above. `trace.job_count`
  /// and `trace.seed` are injected as spec defaults so experiment-level
  /// sizing/seeding applies uniformly across methods (an explicit spec
  /// key wins).
  std::string workload;
  cluster::MachineConfig machine;
  economy::PricingParams pricing;
  policy::FirstRewardParams first_reward;
  core::NormalizationConfig normalization;
  std::uint64_t qos_seed = 4242;

  /// Defaults with the set's inaccuracy applied.
  [[nodiscard]] RunSettings default_settings() const;

  /// The base-trace builder this config describes: the `workload` spec
  /// when set, else the synthetic SDSC config (the same
  /// generate_synthetic_sdsc the `sdsc` method calls). Every consumer of
  /// the base trace — serial runner, parallel workers, golden-replay
  /// harness — goes through here so they cannot drift.
  [[nodiscard]] workload::WorkloadBuilder make_builder() const;

  /// Canonical cache key of one run under this config.
  [[nodiscard]] std::string run_key(policy::PolicyKind policy,
                                    const RunSettings& settings) const;
};

/// All separate-risk results of a sweep. Indices: [scenario][policy].
struct SweepResult {
  std::vector<std::string> scenario_names;
  std::vector<policy::PolicyKind> policies;
  /// Raw objective values: raw[s][o][p][v] with o indexed by Objective.
  std::vector<std::array<std::vector<std::vector<double>>, 4>> raw;
  /// Separate risk per scenario/policy/objective (eqns 5-6 over the six
  /// normalised values).
  std::vector<std::vector<std::array<core::RiskPoint, 4>>> separate;

  [[nodiscard]] std::size_t scenario_count() const {
    return scenario_names.size();
  }
  [[nodiscard]] std::size_t policy_count() const { return policies.size(); }
};

/// Dumps every raw objective value of a sweep as CSV
/// (scenario,value_index,policy,objective,raw_value) for external
/// analysis.
void write_sweep_csv(std::ostream& out, const SweepResult& sweep);

/// Exact (bit-level, no tolerance) equality of two sweeps — the parallel
/// executor's contract is bit-identity with the serial path, so nothing
/// weaker than == on every double is acceptable here.
[[nodiscard]] bool bit_identical(const SweepResult& a, const SweepResult& b);

/// Diagnostics of one executed (cache-missing) simulation run.
struct RunTiming {
  std::string key;           ///< the run's cache key
  double wall_seconds = 0.0;
  std::uint64_t events = 0;  ///< kernel events dispatched
};

/// Timing/dedup counters of a sweep, accumulated across sweeps of one
/// runner. Shared by the serial and parallel executors.
struct SweepStats {
  std::size_t simulations = 0;   ///< runs actually executed (cache misses)
  std::uint64_t events = 0;      ///< kernel events across those runs
  double wall_seconds = 0.0;     ///< wall clock of the execution region
  std::size_t cache_hits = 0;    ///< matrix cells served by the store
  std::size_t deduped = 0;       ///< cells coalesced onto an in-flight run
  std::vector<RunTiming> runs;   ///< per executed run, deterministic order

  void accumulate(const SweepStats& other);
};

/// One uncached simulation under `config`: builds the run's job stream
/// from `builder` (parallel workers own one each so the single-threaded
/// kernel is untouched), simulates, and returns the objectives. If
/// `events_out` is non-null it receives the events dispatched. A non-null
/// `metrics` registry is injected into the run (kernel `sim.*` and
/// `service.*` instruments). Exposed so the serial and parallel paths
/// share one definition of "a run".
[[nodiscard]] core::ObjectiveValues simulate_run(
    const ExperimentConfig& config, const workload::WorkloadBuilder& builder,
    policy::PolicyKind policy, const RunSettings& settings,
    std::uint64_t* events_out = nullptr,
    obs::MetricsRegistry* metrics = nullptr);

/// The same run, returning the full report (per-job SLA records, ledger
/// snapshot, canonical digest) instead of just the objectives — the
/// substrate of simulate_run and of the replay/golden-digest harness
/// (verify/golden.hpp).
[[nodiscard]] service::SimulationReport simulate_run_report(
    const ExperimentConfig& config, const workload::WorkloadBuilder& builder,
    policy::PolicyKind policy, const RunSettings& settings,
    obs::MetricsRegistry* metrics = nullptr);

/// Normalises scenario `s`'s raw values and reduces them to separate risk
/// (eqns 5-6), writing result.separate[s]. One definition shared by the
/// serial and parallel paths keeps them bit-identical by construction.
void reduce_scenario(SweepResult& result, std::size_t s,
                     const core::NormalizationConfig& normalization);

class ExperimentRunner {
 public:
  /// `store` (optional) memoises runs across runners and processes.
  /// `workers` > 1 fans sweep cells out across a thread pool
  /// (exp/parallel.hpp) with bit-identical results; 0 resolves to
  /// REPRO_JOBS_PAR / hardware_concurrency(), 1 forces the serial path.
  explicit ExperimentRunner(ExperimentConfig config,
                            ResultStore* store = nullptr,
                            std::size_t workers = 0);

  /// Raw objective values of a single run (cached).
  [[nodiscard]] core::ObjectiveValues run_one(policy::PolicyKind policy,
                                              const RunSettings& settings);

  /// Full Table VI sweep over `policies` (default: the Table V set for the
  /// configured economic model).
  [[nodiscard]] SweepResult run_sweep();
  [[nodiscard]] SweepResult run_sweep(
      const std::vector<policy::PolicyKind>& policies);

  /// Arbitrary scenario list over explicit defaults — the substrate of
  /// run_sweep, exposed so extension scenarios (the MTBF robustness
  /// sweep) reuse the raw-collection/normalise/reduce machinery without
  /// joining the Table VI set.
  [[nodiscard]] SweepResult run_scenarios(
      const std::vector<Scenario>& scenarios, const RunSettings& defaults,
      const std::vector<policy::PolicyKind>& policies);

  [[nodiscard]] const ExperimentConfig& config() const { return config_; }
  [[nodiscard]] const workload::WorkloadBuilder& workloads() const {
    return builder_;
  }

  /// Total simulations actually executed (cache misses).
  [[nodiscard]] std::size_t simulations_run() const {
    return stats_.simulations;
  }

  /// Worker threads used by run_sweep/run_scenarios (1 = serial).
  [[nodiscard]] std::size_t worker_count() const { return workers_; }

  /// Per-run wall-clock and events-processed counters, accumulated across
  /// run_one/run_sweep/run_scenarios calls.
  [[nodiscard]] const SweepStats& stats() const { return stats_; }

 private:
  ExperimentConfig config_;
  workload::WorkloadBuilder builder_;
  ResultStore* store_;
  ResultStore local_store_;  ///< used when no shared store is given
  std::size_t workers_;
  SweepStats stats_;
};

}  // namespace utilrisk::exp
