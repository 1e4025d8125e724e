#include "exp/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "service/computing_service.hpp"
#include "workload/generator.hpp"

namespace utilrisk::exp {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Normalises scenario `s`'s raw values per objective across policies,
/// then reduces them to separate risk (eqns 5-6) per policy, writing
/// result.separate[s].
void reduce_scenario(SweepResult& result, std::size_t s,
                     const core::NormalizationConfig& normalization) {
  const std::size_t policies = result.policies.size();
  result.separate[s].resize(policies);
  for (core::Objective objective : core::kAllObjectives) {
    const auto o = static_cast<std::size_t>(objective);
    const auto normalized =
        core::normalize_objective(objective, result.raw[s][o], normalization);
    for (std::size_t p = 0; p < policies; ++p) {
      result.separate[s][p][o] = core::separate_risk(normalized[p]);
    }
  }
}

}  // namespace

const char* to_string(ExperimentSet set) {
  return set == ExperimentSet::A ? "A" : "B";
}

RunSettings ExperimentConfig::default_settings() const {
  RunSettings settings;
  settings.inaccuracy_percent = set == ExperimentSet::A ? 0.0 : 100.0;
  return settings;
}

workload::WorkloadBuilder ExperimentConfig::make_builder() const {
  if (workload.empty()) return workload::WorkloadBuilder(trace);
  return workload::WorkloadBuilder(workload::generate_jobs(
      workload::GeneratorSpec::parse(workload), trace.job_count, trace.seed));
}

// Cache-key audit note (kept current; last reviewed for `serve --shards`):
// every knob that changes a run's outcome MUST appear in this key or in
// settings.key_fragment() — PR 4 fixed exactly that class of collision for
// the --fail-* recovery knobs. Serve-only knobs (--shards, --queue-capacity,
// journal options, ...) are deliberately absent: the serving path never
// reads or writes the sweep ResultStore, and shard count cannot change
// decisions anyway (engine-level per-tenant isolation; serve/shard.hpp).
// The shard-count collision guard for *journals* — the store the serve
// path does persist — is the `shards.meta` check in serve/shard.cpp.
std::string ExperimentConfig::run_key(policy::PolicyKind policy,
                                      const RunSettings& settings) const {
  std::ostringstream oss;
  oss << "model=" << economy::to_string(model)
      << ";policy=" << policy::to_string(policy)
      << ";jobs=" << trace.job_count << ";tseed=" << trace.seed
      << ";qseed=" << qos_seed << ";nodes=" << machine.node_count
      << ";price=" << pricing.base_price << ',' << pricing.libra_gamma << ','
      << pricing.libra_delta << ',' << pricing.libra_dollar_alpha << ','
      << pricing.libra_dollar_beta << ";fr=" << first_reward.alpha << ','
      << first_reward.discount_rate_per_hour << ','
      << first_reward.slack_threshold;
  // Only when set (legacy keys must stay byte-identical).
  if (!workload.empty()) oss << ";wload=" << workload;
  oss << ';' << settings.key_fragment();
  return oss.str();
}

void write_sweep_csv(std::ostream& out, const SweepResult& sweep) {
  out << "scenario,value_index,policy,objective,raw_value\n";
  for (std::size_t s = 0; s < sweep.scenario_count(); ++s) {
    for (core::Objective objective : core::kAllObjectives) {
      const auto o = static_cast<std::size_t>(objective);
      for (std::size_t p = 0; p < sweep.policy_count(); ++p) {
        for (std::size_t v = 0; v < sweep.raw[s][o][p].size(); ++v) {
          out << sweep.scenario_names[s] << ',' << v << ','
              << policy::to_string(sweep.policies[p]) << ','
              << core::to_string(objective) << ',' << sweep.raw[s][o][p][v]
              << '\n';
        }
      }
    }
  }
}

bool bit_identical(const SweepResult& a, const SweepResult& b) {
  if (a.scenario_names != b.scenario_names || a.policies != b.policies ||
      a.raw.size() != b.raw.size() ||
      a.separate.size() != b.separate.size()) {
    return false;
  }
  for (std::size_t s = 0; s < a.raw.size(); ++s) {
    for (std::size_t o = 0; o < a.raw[s].size(); ++o) {
      if (a.raw[s][o] != b.raw[s][o]) return false;  // exact, per double
    }
    if (a.separate[s].size() != b.separate[s].size()) return false;
    for (std::size_t p = 0; p < a.separate[s].size(); ++p) {
      for (std::size_t o = 0; o < a.separate[s][p].size(); ++o) {
        if (a.separate[s][p][o].performance !=
                b.separate[s][p][o].performance ||
            a.separate[s][p][o].volatility !=
                b.separate[s][p][o].volatility) {
          return false;
        }
      }
    }
  }
  return true;
}

service::SimulationReport simulate_run_report(
    const ExperimentConfig& config, const workload::WorkloadBuilder& builder,
    policy::PolicyKind policy, const RunSettings& settings,
    obs::MetricsRegistry* metrics) {
  workload::QosConfig qos;
  qos.high_urgency_percent = settings.high_urgency_percent;
  qos.deadline = settings.deadline;
  qos.budget = settings.budget;
  qos.penalty = settings.penalty;
  qos.base_price = config.pricing.base_price;
  qos.seed = config.qos_seed;

  // A per-run workload spec (scenario sweeps over generator knobs)
  // replaces the shared base trace for this run only.
  std::optional<workload::WorkloadBuilder> per_run;
  if (!settings.workload.empty()) {
    per_run.emplace(workload::generate_jobs(
        workload::GeneratorSpec::parse(settings.workload),
        config.trace.job_count, config.trace.seed));
  }
  const workload::WorkloadBuilder& active = per_run ? *per_run : builder;

  const std::vector<workload::Job> jobs = active.build(
      qos, settings.arrival_delay_factor, settings.inaccuracy_percent);

  policy::PolicyContext context;
  context.machine = config.machine;
  context.model = config.model;
  context.pricing = config.pricing;
  context.first_reward = config.first_reward;
  context.failure = settings.failure;
  context.recovery = settings.recovery;
  context.metrics = metrics;

  return service::simulate(jobs, service::factory_for(policy), context);
}

RunMatrix enumerate_runs(const ExperimentConfig& config,
                         const std::vector<Scenario>& scenarios,
                         const RunSettings& defaults,
                         const std::vector<policy::PolicyKind>& policies) {
  RunMatrix matrix;
  std::unordered_map<std::string, std::size_t> by_key;
  for (const Scenario& scenario : scenarios) {
    for (policy::PolicyKind policy : policies) {
      for (std::size_t v = 0; v < scenario.values.size(); ++v) {
        RunSettings settings = scenario.settings_for(defaults, v);
        std::string key = config.run_key(policy, settings);
        const auto [it, first] = by_key.try_emplace(key, matrix.runs.size());
        if (first) {
          matrix.runs.push_back({std::move(key), policy, std::move(settings)});
        }
        matrix.cells.push_back(it->second);
      }
    }
  }
  return matrix;
}

ExperimentRunner::ExperimentRunner(ExperimentConfig config, ResultStore* store,
                                   std::size_t workers)
    : config_(std::move(config)),
      builder_(config_.make_builder()),
      store_(store != nullptr ? store : &local_store_),
      pool_(workers == 0 ? default_worker_count() : workers) {}

std::vector<core::ObjectiveValues> ExperimentRunner::execute(
    const RunMatrix& matrix) {
  std::vector<core::ObjectiveValues> values(matrix.runs.size());
  std::vector<bool> stored(matrix.runs.size(), false);
  std::vector<std::size_t> misses;
  for (std::size_t r = 0; r < matrix.runs.size(); ++r) {
    if (auto cached = store_->lookup(matrix.runs[r].key)) {
      values[r] = *cached;
      stored[r] = true;
    } else {
      misses.push_back(r);
    }
  }
  std::size_t cache_hits = 0;
  for (std::size_t run : matrix.cells) {
    if (stored[run]) ++cache_hits;
  }
  const std::size_t deduped = matrix.cells.size() - cache_hits - misses.size();

  // Executor instruments (all null when no enabled registry is attached):
  // the histograms are shared across workers, the run counter is per
  // worker so load imbalance shows in the snapshot.
  obs::Histogram* run_wall_hist = obs::histogram_or_null(
      metrics_, "exp.run_wall_seconds", obs::default_time_buckets());
  obs::Histogram* queue_wait_hist = obs::histogram_or_null(
      metrics_, "exp.task_queue_wait_seconds", obs::default_time_buckets());
  if (obs::Counter* c = obs::counter_or_null(metrics_, "exp.cache_hits")) {
    c->inc(cache_hits);
  }
  if (obs::Counter* c = obs::counter_or_null(metrics_, "exp.deduped")) {
    c->inc(deduped);
  }
  if (obs::Counter* c = obs::counter_or_null(metrics_, "exp.cache_misses")) {
    c->inc(misses.size());
  }
  std::vector<obs::Counter*> worker_runs(
      std::min(pool_.worker_count(), misses.size()));
  for (std::size_t w = 0; w < worker_runs.size(); ++w) {
    worker_runs[w] = obs::counter_or_null(
        metrics_, "exp.worker." + std::to_string(w) + ".runs");
  }

  std::vector<RunTiming> timings(misses.size());
  const auto region_start = std::chrono::steady_clock::now();
  const auto simulate_miss = [&](std::size_t worker, std::size_t i) {
    const MatrixRun& run = matrix.runs[misses[i]];
    const auto start = std::chrono::steady_clock::now();
    if (queue_wait_hist != nullptr) {
      // Time the run waited before a worker picked it up, measured from
      // the fan-out instant.
      queue_wait_hist->observe(
          std::chrono::duration<double>(start - region_start).count());
    }
    const service::SimulationReport report = simulate_run_report(
        config_, builder_, run.policy, run.settings, metrics_);
    values[misses[i]] = report.objectives;
    timings[i] = {run.key, seconds_since(start), report.events_dispatched};
    store_->insert(run.key, report.objectives);
    if (run_wall_hist != nullptr) {
      run_wall_hist->observe(timings[i].wall_seconds);
    }
    if (worker_runs[worker] != nullptr) worker_runs[worker]->inc();
    if (progress_ != nullptr) progress_->note_done();
  };
  if (!misses.empty()) {
    if (progress_ != nullptr) {
      progress_->begin(misses.size(), pool_.worker_count(),
                       [this] { return pool_.active_count(); });
    }
    try {
      parallel_for_index(pool_, misses.size(), simulate_miss);
    } catch (...) {
      // The reporter thread samples the pool; stop it before unwinding.
      if (progress_ != nullptr) progress_->end();
      throw;
    }
    if (progress_ != nullptr) progress_->end();
  }
  stats_.simulations += misses.size();
  stats_.cache_hits += cache_hits;
  stats_.deduped += deduped;
  stats_.wall_seconds += seconds_since(region_start);
  for (RunTiming& timing : timings) {
    stats_.events += timing.events;
    stats_.runs.push_back(std::move(timing));
  }
  return values;
}

core::ObjectiveValues ExperimentRunner::run_one(policy::PolicyKind policy,
                                                const RunSettings& settings) {
  RunMatrix matrix;
  matrix.runs.push_back({config_.run_key(policy, settings), policy, settings});
  matrix.cells.push_back(0);
  return execute(matrix).front();
}

SweepResult ExperimentRunner::run_sweep() {
  return run_sweep(policy::policies_for_model(config_.model));
}

SweepResult ExperimentRunner::run_sweep(
    const std::vector<policy::PolicyKind>& policies) {
  return run_scenarios(all_scenarios(), config_.default_settings(),
                       policies);
}

SweepResult ExperimentRunner::run_scenarios(
    const std::vector<Scenario>& scenarios, const RunSettings& defaults,
    const std::vector<policy::PolicyKind>& policies) {
  const RunMatrix matrix =
      enumerate_runs(config_, scenarios, defaults, policies);
  const std::vector<core::ObjectiveValues> values = execute(matrix);

  // Scatter each cell's run into raw[s][o][p][v] and reduce, in the
  // matrix order enumerate_runs walked.
  SweepResult result;
  result.policies = policies;
  result.scenario_names.reserve(scenarios.size());
  result.raw.resize(scenarios.size());
  result.separate.resize(scenarios.size());
  std::size_t cell = 0;
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    const Scenario& scenario = scenarios[s];
    result.scenario_names.push_back(scenario.name);
    for (auto& per_objective : result.raw[s]) {
      per_objective.assign(policies.size(),
                           std::vector<double>(scenario.values.size(), 0.0));
    }
    for (std::size_t p = 0; p < policies.size(); ++p) {
      for (std::size_t v = 0; v < scenario.values.size(); ++v) {
        const core::ObjectiveValues& run = values[matrix.cells[cell++]];
        for (core::Objective objective : core::kAllObjectives) {
          result.raw[s][static_cast<std::size_t>(objective)][p][v] =
              run.get(objective);
        }
      }
    }
    reduce_scenario(result, s, config_.normalization);
  }
  return result;
}

}  // namespace utilrisk::exp
