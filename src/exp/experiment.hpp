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
#include "exp/parallel.hpp"
#include "exp/result_store.hpp"
#include "exp/scenario.hpp"
#include "policy/factory.hpp"
#include "workload/workload.hpp"

namespace utilrisk::obs {
class MetricsRegistry;
class ProgressReporter;
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
  /// the base trace — the sweep executor and the golden-replay harness —
  /// goes through here so they cannot drift.
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

/// Exact (bit-level, no tolerance) equality of two sweeps — the
/// executor's contract is bit-identity at every worker count, so nothing
/// weaker than == on every double is acceptable here.
[[nodiscard]] bool bit_identical(const SweepResult& a, const SweepResult& b);

/// One distinct run of a run matrix.
struct MatrixRun {
  std::string key;  ///< ExperimentConfig::run_key of the run
  policy::PolicyKind policy{};
  RunSettings settings;
};

/// A (scenario, policy, value) run matrix after deduplication by run key.
struct RunMatrix {
  /// The distinct runs, in the matrix order of their first cell.
  std::vector<MatrixRun> runs;
  /// For each cell in matrix order (scenario, then policy, then value),
  /// the index into `runs` of the run it reads.
  std::vector<std::size_t> cells;
};

/// Lists the distinct runs of `scenarios` x `policies` x each scenario's
/// values over `defaults` — the one enumeration of the matrix that the
/// sweep executor and the golden-digest harness share.
[[nodiscard]] RunMatrix enumerate_runs(
    const ExperimentConfig& config, const std::vector<Scenario>& scenarios,
    const RunSettings& defaults,
    const std::vector<policy::PolicyKind>& policies);

/// Diagnostics of one executed (cache-missing) simulation run.
struct RunTiming {
  std::string key;           ///< the run's cache key
  double wall_seconds = 0.0;
  std::uint64_t events = 0;  ///< kernel events dispatched
};

/// Timing/dedup counters of a sweep, accumulated across sweeps of one
/// runner. Every matrix cell is counted exactly once:
/// cells = simulations + deduped + cache_hits, at any worker count.
struct SweepStats {
  std::size_t simulations = 0;   ///< runs actually executed (cache misses)
  std::uint64_t events = 0;      ///< kernel events across those runs
  double wall_seconds = 0.0;     ///< wall clock of the execution region
  std::size_t cache_hits = 0;    ///< cells whose run the store held
  std::size_t deduped = 0;       ///< further cells reading a simulated run
  std::vector<RunTiming> runs;   ///< per executed run, deterministic order
};

/// One uncached simulation under `config`, returning the full report
/// (per-job SLA records, ledger snapshot, canonical digest): builds the
/// run's job stream from `builder`, simulates, and reports. `builder` is
/// only read (build() copies its base trace), so concurrent runs share
/// one. A non-null `metrics` registry is injected into the run (kernel
/// `sim.*` and `service.*` instruments). The substrate of the sweep
/// executor and of the replay/golden-digest harness (verify/golden.hpp).
[[nodiscard]] service::SimulationReport simulate_run_report(
    const ExperimentConfig& config, const workload::WorkloadBuilder& builder,
    policy::PolicyKind policy, const RunSettings& settings,
    obs::MetricsRegistry* metrics = nullptr);

/// The run-matrix executor. A sweep enumerates its matrix
/// (enumerate_runs), serves the runs the store holds, simulates each
/// miss once across a persistent ThreadPool (exp/parallel.hpp) in which
/// every worker reads the runner's one base-trace builder, then reduces
/// in matrix order. Results are bit-identical at every worker count.
class ExperimentRunner {
 public:
  /// `store` (optional) memoises runs across runners and processes.
  /// `workers` sizes the pool; 0 resolves to REPRO_JOBS_PAR /
  /// hardware_concurrency().
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

  /// Total simulations actually executed (cache misses).
  [[nodiscard]] std::size_t simulations_run() const {
    return stats_.simulations;
  }

  /// Pool threads that execute the runs.
  [[nodiscard]] std::size_t worker_count() const {
    return pool_.worker_count();
  }

  /// Per-run wall-clock and events-processed counters, accumulated across
  /// run_one/run_sweep/run_scenarios calls.
  [[nodiscard]] const SweepStats& stats() const { return stats_; }

  /// Attach observability to subsequent runs; nullptr detaches, and the
  /// runner never owns the objects. The registry receives the `exp.*`
  /// executor instruments and is injected into every executed run
  /// (`sim.*` / `service.*`); the reporter prints completed/total/ETA
  /// lines while runs execute.
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }
  void set_progress(obs::ProgressReporter* progress) {
    progress_ = progress;
  }

 private:
  /// The objective values of every run of `matrix`: store hits served,
  /// misses simulated once each across the pool and stored.
  std::vector<core::ObjectiveValues> execute(const RunMatrix& matrix);

  ExperimentConfig config_;
  workload::WorkloadBuilder builder_;
  ResultStore* store_;
  ResultStore local_store_;  ///< used when no shared store is given
  SweepStats stats_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::ProgressReporter* progress_ = nullptr;
  ThreadPool pool_;  ///< last member: joins before the store dies
};

/// The runner's former name, still used by bench/e2e/sweep.cpp.
using ParallelRunner = ExperimentRunner;

}  // namespace utilrisk::exp
