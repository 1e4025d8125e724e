// Tests for the experiment harness: Table VI scenarios, the result store,
// sweep assembly and figure construction.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "exp/experiment.hpp"
#include "exp/figures.hpp"
#include "exp/result_store.hpp"
#include "exp/scenario.hpp"

namespace utilrisk::exp {
namespace {

// ------------------------------------------------------------- Scenarios

TEST(ScenarioTest, TwelveScenariosWithSixValuesEach) {
  const auto& scenarios = all_scenarios();
  EXPECT_EQ(scenarios.size(), 12u);
  for (const Scenario& scenario : scenarios) {
    EXPECT_EQ(scenario.values.size(), kValuesPerScenario) << scenario.name;
  }
}

TEST(ScenarioTest, LookupByName) {
  EXPECT_EQ(scenario_by_name("workload").values.front(), 0.02);
  EXPECT_THROW((void)scenario_by_name("phase of the moon"),
               std::invalid_argument);
}

TEST(ScenarioTest, EachScenarioPerturbsExactlyItsOwnKnob) {
  const RunSettings defaults;
  const std::string default_key = defaults.key_fragment();
  for (const Scenario& scenario : all_scenarios()) {
    SCOPED_TRACE(scenario.name);
    // Every scenario value yields a settings object whose key differs from
    // the default in at most the scenario's knob: mutating back to the
    // default value must reproduce the default key.
    for (std::size_t v = 0; v < scenario.values.size(); ++v) {
      RunSettings settings = scenario.settings_for(defaults, v);
      // The key changes iff the applied value differs from the default.
      const bool key_changed = settings.key_fragment() != default_key;
      RunSettings reverted = defaults;
      EXPECT_EQ(reverted.key_fragment(), default_key);
      if (!key_changed) continue;  // value happened to equal the default
    }
    // Index bounds are enforced.
    EXPECT_THROW((void)scenario.settings_for(defaults, 99),
                 std::out_of_range);
  }
}

TEST(ScenarioTest, DefaultValueAppearsInEachScenario) {
  // The dedup savings of the result store depend on every scenario
  // containing the default value of its knob.
  const RunSettings defaults;
  std::size_t scenarios_containing_default = 0;
  for (const Scenario& scenario : all_scenarios()) {
    for (std::size_t v = 0; v < scenario.values.size(); ++v) {
      if (scenario.settings_for(defaults, v).key_fragment() ==
          defaults.key_fragment()) {
        ++scenarios_containing_default;
        break;
      }
    }
  }
  // All but the inaccuracy scenario under Set B defaults... with Set A
  // defaults (inaccuracy 0) every scenario's value list contains the
  // default of its knob.
  EXPECT_GE(scenarios_containing_default, 11u);
}

TEST(ScenarioTest, SetBDefaultsDifferOnlyInInaccuracy) {
  ExperimentConfig config;
  config.set = ExperimentSet::A;
  const RunSettings a = config.default_settings();
  config.set = ExperimentSet::B;
  const RunSettings b = config.default_settings();
  EXPECT_DOUBLE_EQ(a.inaccuracy_percent, 0.0);
  EXPECT_DOUBLE_EQ(b.inaccuracy_percent, 100.0);
  EXPECT_DOUBLE_EQ(a.high_urgency_percent, b.high_urgency_percent);
  EXPECT_DOUBLE_EQ(a.arrival_delay_factor, b.arrival_delay_factor);
}

// ------------------------------------------------------------ ResultStore

TEST(ResultStoreTest, InMemoryLookupAndIdempotentInsert) {
  ResultStore store;
  EXPECT_FALSE(store.lookup("k").has_value());
  store.insert("k", {.wait = 1.0, .sla = 2.0, .reliability = 3.0,
                     .profitability = 4.0});
  store.insert("k", {.wait = 9.0, .sla = 9.0, .reliability = 9.0,
                     .profitability = 9.0});  // ignored
  const auto v = store.lookup("k");
  ASSERT_TRUE(v.has_value());
  EXPECT_DOUBLE_EQ(v->wait, 1.0);
  EXPECT_DOUBLE_EQ(v->profitability, 4.0);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.hits(), 1u);
  EXPECT_EQ(store.misses(), 1u);
}

TEST(ResultStoreTest, PersistsAcrossInstances) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "utilrisk_store_test.csv")
          .string();
  std::remove(path.c_str());
  {
    ResultStore store(path);
    store.insert("alpha", {.wait = 12.5, .sla = 50.0, .reliability = 75.0,
                           .profitability = -3.25});
    store.insert("beta", {.wait = 0.0, .sla = 100.0, .reliability = 100.0,
                          .profitability = 42.0});
  }
  ResultStore reloaded(path);
  EXPECT_EQ(reloaded.size(), 2u);
  const auto alpha = reloaded.lookup("alpha");
  ASSERT_TRUE(alpha.has_value());
  EXPECT_DOUBLE_EQ(alpha->wait, 12.5);
  EXPECT_DOUBLE_EQ(alpha->profitability, -3.25)
      << "negative utilities round-trip";
  std::remove(path.c_str());
}

TEST(ResultStoreTest, IgnoresCorruptCacheLines) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "utilrisk_corrupt_test.csv")
          .string();
  {
    std::ofstream out(path);
    out << ResultStore::kSchemaHeader << "\n"
        << "good\t1.0 2.0 3.0 4.0\n"
        << "no separator line\n"
        << "short\t1.0 2.0\n"
        << "also_good\t9.0 8.0 7.0 6.0\n";
  }
  ResultStore store(path);
  EXPECT_EQ(store.size(), 2u) << "malformed rows skipped, not fatal";
  EXPECT_EQ(store.malformed_lines_skipped(), 2u);
  EXPECT_EQ(store.conflicting_lines_dropped(), 0u);
  ASSERT_TRUE(store.lookup("good").has_value());
  EXPECT_DOUBLE_EQ(store.lookup("also_good")->wait, 9.0);
  EXPECT_FALSE(store.lookup("short").has_value());
  std::remove(path.c_str());
}

TEST(ResultStoreTest, DiscardsStaleUnversionedCache) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "utilrisk_stale_test.csv")
          .string();
  {
    // A pre-schema file: its keys predate the failure knobs, so any entry
    // could silently alias a different run. All of it must go.
    std::ofstream out(path);
    out << "old_key\t1.0 2.0 3.0 4.0\n";
  }
  ResultStore store(path);
  EXPECT_TRUE(store.stale_cache_discarded());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.lookup("old_key").has_value());
  store.insert("fresh", {.wait = 5.0, .sla = 6.0, .reliability = 7.0,
                         .profitability = 8.0});

  // The rewritten file carries the schema header and reloads cleanly.
  {
    std::ifstream in(path);
    std::string first_line;
    ASSERT_TRUE(std::getline(in, first_line));
    EXPECT_EQ(first_line, ResultStore::kSchemaHeader);
  }
  ResultStore reloaded(path);
  EXPECT_FALSE(reloaded.stale_cache_discarded());
  EXPECT_EQ(reloaded.size(), 1u);
  EXPECT_DOUBLE_EQ(reloaded.lookup("fresh")->wait, 5.0);
  std::remove(path.c_str());
}

TEST(ResultStoreTest, ConflictingDuplicateKeysAreDroppedEntirely) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "utilrisk_conflict_test.csv")
          .string();
  {
    std::ofstream out(path);
    out << ResultStore::kSchemaHeader << "\n"
        << "disputed\t1.0 2.0 3.0 4.0\n"
        << "clean\t5.0 6.0 7.0 8.0\n"
        << "disputed\t9.0 9.0 9.0 9.0\n";  // same key, different values
  }
  ResultStore store(path);
  // Neither copy of the disputed key can be trusted: drop both and let the
  // runner re-simulate.
  EXPECT_FALSE(store.lookup("disputed").has_value());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.conflicting_lines_dropped(), 2u);
  EXPECT_GE(store.malformed_lines_skipped(), 2u);
  EXPECT_DOUBLE_EQ(store.lookup("clean")->sla, 6.0);

  // The compacted file no longer contains the disputed key at all.
  ResultStore reloaded(path);
  EXPECT_EQ(reloaded.size(), 1u);
  EXPECT_EQ(reloaded.conflicting_lines_dropped(), 0u);
  std::remove(path.c_str());
}

TEST(ResultStoreTest, IdenticalDuplicateKeysAreBenign) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "utilrisk_dup_test.csv")
          .string();
  {
    std::ofstream out(path);
    out << ResultStore::kSchemaHeader << "\n"
        << "twice\t1.5 2.5 3.5 4.5\n"
        << "twice\t1.5 2.5 3.5 4.5\n";
  }
  ResultStore store(path);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.conflicting_lines_dropped(), 0u);
  EXPECT_EQ(store.malformed_lines_skipped(), 0u);
  EXPECT_DOUBLE_EQ(store.lookup("twice")->profitability, 4.5);
  std::remove(path.c_str());
}

TEST(ResultStoreTest, RejectsKeysWithSeparators) {
  ResultStore store;
  EXPECT_THROW(store.insert("bad\tkey", {}), std::invalid_argument);
  EXPECT_THROW(store.insert("bad\nkey", {}), std::invalid_argument);
}

// ------------------------------------------------------ ExperimentRunner

ExperimentConfig small_config(economy::EconomicModel model,
                              ExperimentSet set) {
  ExperimentConfig config;
  config.model = model;
  config.set = set;
  config.trace.job_count = 150;  // keep the test sweep quick
  return config;
}

TEST(ExperimentRunnerTest, RunOneIsCached) {
  ExperimentRunner runner(
      small_config(economy::EconomicModel::BidBased, ExperimentSet::B));
  const RunSettings defaults = runner.config().default_settings();
  const auto first = runner.run_one(policy::PolicyKind::Libra, defaults);
  EXPECT_EQ(runner.simulations_run(), 1u);
  const auto second = runner.run_one(policy::PolicyKind::Libra, defaults);
  EXPECT_EQ(runner.simulations_run(), 1u) << "second call served from cache";
  EXPECT_DOUBLE_EQ(first.sla, second.sla);
}

TEST(ExperimentRunnerTest, RunKeyDistinguishesEverything) {
  const ExperimentConfig config =
      small_config(economy::EconomicModel::BidBased, ExperimentSet::B);
  const RunSettings defaults = config.default_settings();
  RunSettings other = defaults;
  other.arrival_delay_factor = 0.5;
  EXPECT_NE(config.run_key(policy::PolicyKind::Libra, defaults),
            config.run_key(policy::PolicyKind::Libra, other));
  EXPECT_NE(config.run_key(policy::PolicyKind::Libra, defaults),
            config.run_key(policy::PolicyKind::EdfBf, defaults));
  ExperimentConfig commodity = config;
  commodity.model = economy::EconomicModel::CommodityMarket;
  EXPECT_NE(config.run_key(policy::PolicyKind::Libra, defaults),
            commodity.run_key(policy::PolicyKind::Libra, defaults));
}

TEST(ExperimentRunnerTest, RunKeyCoversFailureAndRecoveryKnobs) {
  // Regression: the key once omitted the --fail-*/recovery parameters, so
  // a failure-injected run could collide with (and be served from) the
  // clean-run cache entry.
  const ExperimentConfig config =
      small_config(economy::EconomicModel::BidBased, ExperimentSet::B);
  const RunSettings defaults = config.default_settings();
  const std::string base_key =
      config.run_key(policy::PolicyKind::Libra, defaults);

  RunSettings failing = defaults;
  failing.failure.mtbf_seconds = 43200.0;
  EXPECT_NE(config.run_key(policy::PolicyKind::Libra, failing), base_key);

  RunSettings recovering = defaults;
  recovering.recovery.retry_limit = defaults.recovery.retry_limit + 1;
  EXPECT_NE(config.run_key(policy::PolicyKind::Libra, recovering), base_key);
}

TEST(ExperimentRunnerTest, SweepShapeAndDedup) {
  ExperimentRunner runner(
      small_config(economy::EconomicModel::BidBased, ExperimentSet::A));
  const std::vector<policy::PolicyKind> policies = {
      policy::PolicyKind::Libra, policy::PolicyKind::LibraRiskD};
  const SweepResult sweep = runner.run_sweep(policies);

  EXPECT_EQ(sweep.scenario_count(), 12u);
  EXPECT_EQ(sweep.policy_count(), 2u);
  ASSERT_EQ(sweep.raw.size(), 12u);
  ASSERT_EQ(sweep.separate.size(), 12u);
  for (std::size_t s = 0; s < 12; ++s) {
    for (const auto& per_objective : sweep.raw[s]) {
      ASSERT_EQ(per_objective.size(), 2u);
      ASSERT_EQ(per_objective[0].size(), kValuesPerScenario);
    }
    ASSERT_EQ(sweep.separate[s].size(), 2u);
  }
  // 12 scenarios x 6 values = 72 settings per policy; every scenario's
  // value list contains the knob's default, so the all-defaults run recurs
  // 12 times -> 72 - 12 + 1 = 61 unique settings.
  EXPECT_EQ(runner.simulations_run(), 2u * 61u);
}

TEST(ExperimentRunnerTest, SeparateRiskPointsAreWithinBounds) {
  ExperimentRunner runner(
      small_config(economy::EconomicModel::CommodityMarket,
                   ExperimentSet::B));
  const SweepResult sweep = runner.run_sweep(
      {policy::PolicyKind::FcfsBf, policy::PolicyKind::Libra});
  for (std::size_t s = 0; s < sweep.scenario_count(); ++s) {
    for (std::size_t p = 0; p < sweep.policy_count(); ++p) {
      for (const core::RiskPoint& point : sweep.separate[s][p]) {
        EXPECT_GE(point.performance, 0.0);
        EXPECT_LE(point.performance, 1.0);
        EXPECT_GE(point.volatility, 0.0);
        EXPECT_LE(point.volatility, 0.5 + 1e-9);
      }
    }
  }
}

TEST(ExperimentRunnerTest, SharedStoreSkipsRepeatedSweeps) {
  ResultStore store;
  const auto config =
      small_config(economy::EconomicModel::BidBased, ExperimentSet::A);
  ExperimentRunner first(config, &store);
  (void)first.run_sweep({policy::PolicyKind::Libra});
  EXPECT_EQ(first.simulations_run(), 61u);
  ExperimentRunner second(config, &store);
  (void)second.run_sweep({policy::PolicyKind::Libra});
  EXPECT_EQ(second.simulations_run(), 0u) << "fully served from the store";
}

// ---------------------------------------------------------------- Figures

class FigureTest : public ::testing::Test {
 protected:
  static const SweepResult& sweep() {
    static const SweepResult result = [] {
      ExperimentRunner runner(
          small_config(economy::EconomicModel::BidBased, ExperimentSet::B));
      return runner.run_sweep(
          {policy::PolicyKind::Libra, policy::PolicyKind::FcfsBf});
    }();
    return result;
  }
};

TEST_F(FigureTest, SeparatePlotHasOnePointPerScenario) {
  const core::RiskPlot plot =
      separate_plot(sweep(), core::Objective::Sla, "SLA");
  ASSERT_EQ(plot.series.size(), 2u);
  EXPECT_EQ(plot.series[0].policy, "Libra");
  EXPECT_EQ(plot.series[0].points.size(), 12u);
  EXPECT_EQ(plot.scenarios.size(), 12u);
}

TEST_F(FigureTest, IntegratedPlotAveragesSeparatePoints) {
  const std::vector<core::Objective> combo = {core::Objective::Sla,
                                              core::Objective::Reliability};
  const core::RiskPlot plot = integrated_plot(sweep(), combo, "combo");
  for (std::size_t p = 0; p < plot.series.size(); ++p) {
    for (std::size_t s = 0; s < plot.series[p].points.size(); ++s) {
      const auto& sla =
          sweep().separate[s][p][static_cast<std::size_t>(
              core::Objective::Sla)];
      const auto& rel = sweep().separate[s][p][static_cast<std::size_t>(
          core::Objective::Reliability)];
      EXPECT_NEAR(plot.series[p].points[s].performance,
                  (sla.performance + rel.performance) / 2.0, 1e-12);
      EXPECT_NEAR(plot.series[p].points[s].volatility,
                  (sla.volatility + rel.volatility) / 2.0, 1e-12);
    }
  }
}

TEST_F(FigureTest, IntegratedPlotHonoursCustomWeights) {
  const std::vector<core::Objective> combo = {core::Objective::Sla,
                                              core::Objective::Reliability};
  const core::RiskPlot plot =
      integrated_plot(sweep(), combo, "weighted", {1.0, 0.0});
  const auto& sla_only =
      separate_plot(sweep(), core::Objective::Sla, "SLA");
  for (std::size_t p = 0; p < plot.series.size(); ++p) {
    for (std::size_t s = 0; s < plot.series[p].points.size(); ++s) {
      EXPECT_NEAR(plot.series[p].points[s].performance,
                  sla_only.series[p].points[s].performance, 1e-12);
    }
  }
}

TEST_F(FigureTest, ThreeObjectiveCombinationsAreLeaveOneOut) {
  const auto combos = three_objective_combinations();
  ASSERT_EQ(combos.size(), 4u);
  for (const auto& combo : combos) {
    EXPECT_EQ(combo.size(), 3u);
  }
  EXPECT_EQ(combination_label(combos[0]), "SLA+reliability+profitability");
  EXPECT_EQ(combination_label(combos[3]), "wait+SLA+reliability");
}

TEST_F(FigureTest, IntegratedPlotRejectsEmptyCombo) {
  EXPECT_THROW((void)integrated_plot(sweep(), {}, "empty"),
               std::invalid_argument);
}

}  // namespace
}  // namespace utilrisk::exp

// -------------------------------------------------------------- Replication

#include <cmath>

#include "exp/replication.hpp"
#include "service/computing_service.hpp"

namespace utilrisk {
namespace replication_tests {

using exp::ObjectiveEstimate;
using exp::ReplicationConfig;
using exp::ReplicationSummary;

TEST(ReplicationTest, SummaryMatchesClosedForm) {
  std::vector<core::ObjectiveValues> replicates = {
      {.wait = 10.0, .sla = 50.0, .reliability = 80.0, .profitability = 20.0},
      {.wait = 20.0, .sla = 60.0, .reliability = 90.0, .profitability = 30.0},
      {.wait = 30.0, .sla = 70.0, .reliability = 100.0,
       .profitability = 40.0},
  };
  const ReplicationSummary summary =
      exp::summarize_replicates(std::move(replicates));
  const ObjectiveEstimate& wait = summary.of(core::Objective::Wait);
  EXPECT_DOUBLE_EQ(wait.mean, 20.0);
  EXPECT_DOUBLE_EQ(wait.stddev, 10.0);  // sample stddev of {10,20,30}
  EXPECT_NEAR(wait.ci95_half, 1.96 * 10.0 / std::sqrt(3.0), 1e-12);
  EXPECT_DOUBLE_EQ(summary.of(core::Objective::Sla).mean, 60.0);
}

TEST(ReplicationTest, NeedsAtLeastTwoReplicates) {
  EXPECT_THROW((void)exp::summarize_replicates({{}}), std::invalid_argument);
  ReplicationConfig config;
  config.seeds = {1};
  EXPECT_THROW((void)exp::replicate(config), std::invalid_argument);
}

TEST(ReplicationTest, SignificanceIsIntervalSeparation) {
  ObjectiveEstimate high{.mean = 80.0, .stddev = 1.0, .ci95_half = 2.0};
  ObjectiveEstimate low{.mean = 70.0, .stddev = 1.0, .ci95_half = 2.0};
  EXPECT_TRUE(high.significantly_above(low));
  ObjectiveEstimate overlapping{.mean = 75.0, .stddev = 2.0,
                                .ci95_half = 4.0};
  // [71, 79] overlaps low's [68, 72]: not significant.
  EXPECT_FALSE(overlapping.significantly_above(low));
}

TEST(ReplicationTest, EndToEndAcrossSeeds) {
  ReplicationConfig config;
  config.policy = policy::PolicyKind::LibraRiskD;
  config.model = economy::EconomicModel::BidBased;
  config.trace.job_count = 200;
  config.settings.inaccuracy_percent = 100.0;
  config.seeds = {1, 2, 3};
  const ReplicationSummary summary = exp::replicate(config);
  EXPECT_EQ(summary.replicates.size(), 3u);
  EXPECT_GT(summary.of(core::Objective::Sla).mean, 0.0);
  EXPECT_GT(summary.of(core::Objective::Sla).stddev, 0.0)
      << "independent seeds give different workloads";
  EXPECT_DOUBLE_EQ(summary.of(core::Objective::Wait).mean, 0.0)
      << "Libra family has zero wait regardless of the seed";
}

TEST(ReplicationTest, ReplicatesRunOnTheConfiguredMachine) {
  ReplicationConfig config;
  config.policy = policy::PolicyKind::FcfsBf;
  config.model = economy::EconomicModel::CommodityMarket;
  config.trace.job_count = 300;
  config.seeds = {42, 10015};
  config.workers = 1;
  const ReplicationSummary defaults = exp::replicate(config);
  config.machine.node_count = 128;
  const ReplicationSummary narrow = exp::replicate(config);
  config.machine.node_count = 1024;
  const ReplicationSummary wide = exp::replicate(config);

  // 128 nodes is the default machine, and each replicate is the run
  // simulate_run_report makes of its seed on it.
  ASSERT_EQ(narrow.replicates.size(), 2u);
  for (std::size_t i = 0; i < config.seeds.size(); ++i) {
    exp::ExperimentConfig run;
    run.model = config.model;
    run.trace = config.trace;
    run.trace.seed = config.seeds[i];
    run.qos_seed = config.seeds[i] * 31 + 7;
    const core::ObjectiveValues direct =
        exp::simulate_run_report(run, run.make_builder(), config.policy,
                                 config.settings)
            .objectives;
    for (core::Objective objective : core::kAllObjectives) {
      EXPECT_EQ(narrow.replicates[i].get(objective), direct.get(objective));
      EXPECT_EQ(defaults.replicates[i].get(objective),
                direct.get(objective));
    }
  }
  // Eight times the processors: more jobs start on arrival and wait less.
  EXPECT_LT(wide.of(core::Objective::Wait).mean,
            narrow.of(core::Objective::Wait).mean);
  EXPECT_NE(wide.of(core::Objective::Sla).mean,
            narrow.of(core::Objective::Sla).mean);
}

}  // namespace replication_tests
}  // namespace utilrisk
