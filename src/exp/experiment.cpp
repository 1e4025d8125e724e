#include "exp/experiment.hpp"

#include <chrono>
#include <optional>
#include <ostream>
#include <sstream>

#include "exp/parallel.hpp"
#include "service/computing_service.hpp"
#include "workload/generator.hpp"

namespace utilrisk::exp {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
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

void SweepStats::accumulate(const SweepStats& other) {
  simulations += other.simulations;
  events += other.events;
  wall_seconds += other.wall_seconds;
  cache_hits += other.cache_hits;
  deduped += other.deduped;
  runs.insert(runs.end(), other.runs.begin(), other.runs.end());
}

core::ObjectiveValues simulate_run(const ExperimentConfig& config,
                                   const workload::WorkloadBuilder& builder,
                                   policy::PolicyKind policy,
                                   const RunSettings& settings,
                                   std::uint64_t* events_out,
                                   obs::MetricsRegistry* metrics) {
  const service::SimulationReport report =
      simulate_run_report(config, builder, policy, settings, metrics);
  if (events_out != nullptr) *events_out += report.events_dispatched;
  return report.objectives;
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

void reduce_scenario(SweepResult& result, std::size_t s,
                     const core::NormalizationConfig& normalization) {
  // Normalise per objective across policies, then reduce to separate
  // risk (eqns 5-6) per policy.
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

ExperimentRunner::ExperimentRunner(ExperimentConfig config, ResultStore* store,
                                   std::size_t workers)
    : config_(std::move(config)),
      builder_(config_.make_builder()),
      store_(store != nullptr ? store : &local_store_),
      workers_(workers == 0 ? default_worker_count() : workers) {}

core::ObjectiveValues ExperimentRunner::run_one(policy::PolicyKind policy,
                                                const RunSettings& settings) {
  const std::string key = config_.run_key(policy, settings);
  if (auto cached = store_->lookup(key)) {
    ++stats_.cache_hits;
    return *cached;
  }

  const auto start = std::chrono::steady_clock::now();
  std::uint64_t events = 0;
  const core::ObjectiveValues values =
      simulate_run(config_, builder_, policy, settings, &events);
  const double elapsed = seconds_since(start);
  ++stats_.simulations;
  stats_.events += events;
  stats_.wall_seconds += elapsed;
  stats_.runs.push_back({key, elapsed, events});
  store_->insert(key, values);
  return values;
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
  if (workers_ > 1) {
    SweepStats stats;
    SweepResult result = run_scenarios_parallel(
        config_, *store_, scenarios, defaults, policies, workers_, &stats);
    stats_.accumulate(stats);
    return result;
  }

  SweepResult result;
  result.policies = policies;
  result.scenario_names.reserve(scenarios.size());
  result.raw.resize(scenarios.size());
  result.separate.resize(scenarios.size());

  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    const Scenario& scenario = scenarios[s];
    result.scenario_names.push_back(scenario.name);

    // Collect raw values: raw[o][p][v].
    for (auto& per_objective : result.raw[s]) {
      per_objective.assign(policies.size(),
                           std::vector<double>(scenario.values.size(), 0.0));
    }
    for (std::size_t p = 0; p < policies.size(); ++p) {
      for (std::size_t v = 0; v < scenario.values.size(); ++v) {
        const RunSettings settings = scenario.settings_for(defaults, v);
        const core::ObjectiveValues values = run_one(policies[p], settings);
        for (core::Objective objective : core::kAllObjectives) {
          result.raw[s][static_cast<std::size_t>(objective)][p][v] =
              values.get(objective);
        }
      }
    }

    reduce_scenario(result, s, config_.normalization);
  }
  return result;
}

}  // namespace utilrisk::exp
