// Tests for the a-priori risk advisor (core/advisor.hpp) and its exp-layer
// adapter.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "core/advisor.hpp"
#include "core/report.hpp"
#include "exp/experiment.hpp"
#include "exp/figures.hpp"

namespace utilrisk::core {
namespace {

/// Two synthetic policies over three scenarios:
///  - "steady": performance 0.6 everywhere, volatility 0 (all objectives).
///  - "spiky": performance 0.8, volatility 0.4 (all objectives).
AdvisorInput two_policy_input() {
  AdvisorInput input;
  input.policies = {"steady", "spiky"};
  const std::array<RiskPoint, 4> steady = {
      RiskPoint{0.6, 0.0}, RiskPoint{0.6, 0.0}, RiskPoint{0.6, 0.0},
      RiskPoint{0.6, 0.0}};
  const std::array<RiskPoint, 4> spiky = {
      RiskPoint{0.8, 0.4}, RiskPoint{0.8, 0.4}, RiskPoint{0.8, 0.4},
      RiskPoint{0.8, 0.4}};
  input.points = {{steady, steady, steady}, {spiky, spiky, spiky}};
  return input;
}

TEST(AdvisorTest, RiskAversionFlipsTheRecommendation) {
  const AdvisorInput input = two_policy_input();

  AdvisorConfig tolerant;
  tolerant.risk_aversion = 0.0;
  EXPECT_EQ(advise(input, tolerant).ranked.front().policy, "spiky")
      << "without risk aversion, raw performance wins";

  AdvisorConfig averse;
  averse.risk_aversion = 1.0;
  EXPECT_EQ(advise(input, averse).ranked.front().policy, "steady")
      << "0.8 - 1.0*0.4 = 0.4 < 0.6 - 0";
}

TEST(AdvisorTest, ScoreIsMeanMinusLambdaSigma) {
  const AdvisorInput input = two_policy_input();
  AdvisorConfig config;
  config.risk_aversion = 0.5;
  const AdvisorReport report = advise(input, config);
  for (const PolicyAdvice& advice : report.ranked) {
    EXPECT_NEAR(advice.score,
                advice.mean_performance - 0.5 * advice.mean_volatility,
                1e-12);
  }
}

TEST(AdvisorTest, RankTiesBreakOnVolatilityThenName) {
  // calm and busy tie on score; able ties calm on score and volatility.
  const RankKey calm{0.5, 0.125, "calm"};
  const RankKey busy{0.5, 0.25, "busy"};
  const RankKey able{0.5, 0.125, "able"};
  const RankKey risky_best{0.75, 1.0, "zeta"};
  EXPECT_TRUE(ranks_ahead(calm, busy)) << "equal score: lower volatility";
  EXPECT_FALSE(ranks_ahead(busy, calm));
  EXPECT_TRUE(ranks_ahead(able, calm)) << "equal score and volatility: name";
  EXPECT_FALSE(ranks_ahead(calm, able));
  EXPECT_FALSE(ranks_ahead(calm, calm)) << "the order is strict";
  EXPECT_TRUE(ranks_ahead(risky_best, able)) << "score comes first";
  EXPECT_EQ(risk_adjusted_score(0.75, 0.5, 0.5), 0.5);

  // Two identical policies tie on both, so advise() orders them by name.
  AdvisorInput twins = two_policy_input();
  twins.policies = {"twin-b", "twin-a"};
  twins.points.back() = twins.points.front();
  const AdvisorReport report = advise(twins, AdvisorConfig{});
  EXPECT_EQ(report.ranked.front().policy, "twin-a");
  EXPECT_EQ(report.ranked.back().policy, "twin-b");
}

TEST(AdvisorTest, ObjectiveWeightsSelectTheRelevantObjective) {
  AdvisorInput input;
  input.policies = {"wait-hero", "profit-hero"};
  // wait-hero: ideal wait, poor profitability; profit-hero: the reverse.
  const std::array<RiskPoint, 4> wait_hero = {
      RiskPoint{1.0, 0.0},   // wait
      RiskPoint{0.5, 0.1},   // SLA
      RiskPoint{0.5, 0.1},   // reliability
      RiskPoint{0.1, 0.0}};  // profitability
  const std::array<RiskPoint, 4> profit_hero = {
      RiskPoint{0.1, 0.0}, RiskPoint{0.5, 0.1}, RiskPoint{0.5, 0.1},
      RiskPoint{1.0, 0.0}};
  input.points = {{wait_hero, wait_hero}, {profit_hero, profit_hero}};

  AdvisorConfig wait_only;
  wait_only.objective_weights = {1.0, 0.0, 0.0, 0.0};
  EXPECT_EQ(advise(input, wait_only).ranked.front().policy, "wait-hero");

  AdvisorConfig profit_only;
  profit_only.objective_weights = {0.0, 0.0, 0.0, 1.0};
  EXPECT_EQ(advise(input, profit_only).ranked.front().policy, "profit-hero");

  const AdvisorReport balanced = advise(input, AdvisorConfig{});
  EXPECT_EQ(balanced.best_per_objective[static_cast<std::size_t>(
                Objective::Wait)],
            "wait-hero");
  EXPECT_EQ(balanced.best_per_objective[static_cast<std::size_t>(
                Objective::Profitability)],
            "profit-hero");
}

TEST(AdvisorTest, MostConsistentIsLowestMeanVolatility) {
  const AdvisorReport report = advise(two_policy_input(), AdvisorConfig{});
  EXPECT_EQ(report.most_consistent, "steady");
}

TEST(AdvisorTest, SummaryNamesTheWinner) {
  const AdvisorReport report = advise(two_policy_input(), AdvisorConfig{});
  EXPECT_NE(report.summary.find("Recommended policy"), std::string::npos);
  EXPECT_NE(report.summary.find(report.ranked.front().policy),
            std::string::npos);
}

TEST(AdvisorTest, ValidatesInputAndConfig) {
  AdvisorInput empty;
  EXPECT_THROW((void)advise(empty, {}), std::invalid_argument);

  AdvisorInput ragged = two_policy_input();
  ragged.points[1].pop_back();
  EXPECT_THROW((void)advise(ragged, {}), std::invalid_argument);

  AdvisorConfig bad_weights;
  bad_weights.objective_weights = {0.5, 0.5, 0.5, 0.5};
  EXPECT_THROW((void)advise(two_policy_input(), bad_weights),
               std::invalid_argument);

  AdvisorConfig negative;
  negative.risk_aversion = -1.0;
  EXPECT_THROW((void)advise(two_policy_input(), negative),
               std::invalid_argument);
}

TEST(AdvisorTest, EndToEndFromASweep) {
  exp::ExperimentConfig config;
  config.model = economy::EconomicModel::BidBased;
  config.set = exp::ExperimentSet::B;
  config.trace.job_count = 150;
  exp::ExperimentRunner runner(config);
  const auto sweep = runner.run_sweep(
      {policy::PolicyKind::Libra, policy::PolicyKind::LibraRiskD,
       policy::PolicyKind::FirstReward});
  const AdvisorInput input = exp::advisor_input(sweep);
  ASSERT_EQ(input.policies.size(), 3u);
  ASSERT_EQ(input.points.size(), 3u);
  ASSERT_EQ(input.points[0].size(), 12u);

  const AdvisorReport report = advise(input, AdvisorConfig{});
  EXPECT_EQ(report.ranked.size(), 3u);
  // Scores are bounded by construction.
  for (const PolicyAdvice& advice : report.ranked) {
    EXPECT_GE(advice.mean_performance, 0.0);
    EXPECT_LE(advice.mean_performance, 1.0);
    EXPECT_GE(advice.mean_volatility, 0.0);
  }
  // Ranking is by descending score.
  for (std::size_t i = 1; i < report.ranked.size(); ++i) {
    EXPECT_GE(report.ranked[i - 1].score, report.ranked[i].score);
  }
}

TEST(WeightSensitivityTest, FindsTheCrossover) {
  AdvisorInput input;
  input.policies = {"wait-hero", "profit-hero"};
  const std::array<RiskPoint, 4> wait_hero = {
      RiskPoint{1.0, 0.0}, RiskPoint{0.5, 0.0}, RiskPoint{0.5, 0.0},
      RiskPoint{0.1, 0.0}};
  const std::array<RiskPoint, 4> profit_hero = {
      RiskPoint{0.1, 0.0}, RiskPoint{0.5, 0.0}, RiskPoint{0.5, 0.0},
      RiskPoint{1.0, 0.0}};
  input.points = {{wait_hero, wait_hero}, {profit_hero, profit_hero}};

  const auto sweep =
      weight_sensitivity(input, Objective::Profitability, 11);
  ASSERT_EQ(sweep.size(), 11u);
  EXPECT_DOUBLE_EQ(sweep.front().weight, 0.0);
  EXPECT_DOUBLE_EQ(sweep.back().weight, 1.0);
  EXPECT_EQ(sweep.front().winner, "wait-hero")
      << "at weight 0 the profitability gap is invisible";
  EXPECT_EQ(sweep.back().winner, "profit-hero");
  // Exactly one crossover for two policies with linear scores.
  std::size_t flips = 0;
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    if (sweep[i].winner != sweep[i - 1].winner) ++flips;
  }
  EXPECT_EQ(flips, 1u);
}

TEST(WeightSensitivityTest, ScoresAreMonotoneForTheFocusSpecialist) {
  AdvisorInput input = two_policy_input();
  const auto sweep = weight_sensitivity(input, Objective::Sla, 5);
  for (const auto& point : sweep) {
    EXPECT_FALSE(point.winner.empty());
    EXPECT_GE(point.score, 0.0);
  }
  EXPECT_THROW((void)weight_sensitivity(input, Objective::Sla, 1),
               std::invalid_argument);
}

TEST(AdvisorConfigTest, ValidateRejectsNaNAndNegativeWeights) {
  AdvisorConfig config;
  config.objective_weights = {std::nan(""), 0.25, 0.25, 0.5};
  EXPECT_THROW(config.validate(), std::invalid_argument)
      << "NaN must not slip through as a weight";
  config.objective_weights = {-0.25, 0.5, 0.5, 0.25};
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.objective_weights = {0.25, 0.25, 0.25, 0.25};
  EXPECT_NO_THROW(config.validate());
}

TEST(AdvisorConfigTest, ValidateRejectsNonUnitSumInsteadOfRenormalizing) {
  AdvisorConfig config;
  config.objective_weights = {0.5, 0.5, 0.5, 0.5};
  try {
    config.validate();
    FAIL() << "a sum of 2 must be rejected, not silently renormalized";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("not renormalizing"),
              std::string::npos)
        << "the error must say the config refuses to renormalize: "
        << e.what();
  }
  // A benign rounding residue is fine.
  config.objective_weights = {0.1, 0.2, 0.3, 0.4};
  EXPECT_NO_THROW(config.validate());
}

TEST(AdvisorConfigTest, ValidateRejectsBadRiskAversion) {
  AdvisorConfig config;
  config.risk_aversion = -0.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.risk_aversion = std::nan("");
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.risk_aversion = 0.0;
  EXPECT_NO_THROW(config.validate()) << "risk-neutral is a valid stance";
}

TEST(AdvisorConfigTest, AdviseValidatesItsConfig) {
  AdvisorInput input = two_policy_input();
  AdvisorConfig config;
  config.objective_weights = {1.0, 1.0, 1.0, 1.0};
  EXPECT_THROW((void)advise(input, config), std::invalid_argument);
}

TEST(AdvisorConfigTest, ParseWeightsIsStrict) {
  const auto weights = AdvisorConfig::parse_weights("0.1,0.2,0.3,0.4");
  EXPECT_DOUBLE_EQ(weights[0], 0.1);
  EXPECT_DOUBLE_EQ(weights[3], 0.4);
  EXPECT_THROW((void)AdvisorConfig::parse_weights("0.5,0.5"),
               std::invalid_argument)
      << "exactly four weights";
  EXPECT_THROW((void)AdvisorConfig::parse_weights("0.25,0.25,0.25,0.25,0"),
               std::invalid_argument);
  EXPECT_THROW((void)AdvisorConfig::parse_weights("0.25,x,0.25,0.25"),
               std::invalid_argument)
      << "a non-numeric token is a structured error";
  EXPECT_THROW((void)AdvisorConfig::parse_weights("0.25,,0.25,0.25"),
               std::invalid_argument);
  EXPECT_THROW((void)AdvisorConfig::parse_weights(""),
               std::invalid_argument);
}

TEST(AdvisorInputTest, ValidateRejectsNonFiniteRiskPoints) {
  AdvisorInput input = two_policy_input();
  input.points[0][1][2].performance = std::nan("");
  EXPECT_THROW(input.validate(), std::invalid_argument);
  input = two_policy_input();
  input.points[1][0][0].volatility = -0.1;
  EXPECT_THROW(input.validate(), std::invalid_argument)
      << "a negative sigma is a measurement bug, not a preference";
}

TEST(ReportTest, GnuplotScriptReferencesDataAndPolicies) {
  AdvisorInput input = two_policy_input();
  RiskPlot plot;
  plot.title = "script test";
  plot.series = {{"steady", {{0.6, 0.0}, {0.7, 0.1}}},
                 {"spiky", {{0.8, 0.4}, {0.9, 0.3}}}};
  std::ostringstream out;
  write_gnuplot_script(out, plot, "data.dat", "out.png");
  const std::string script = out.str();
  EXPECT_NE(script.find("set output 'out.png'"), std::string::npos);
  EXPECT_NE(script.find("'data.dat' index 0"), std::string::npos);
  EXPECT_NE(script.find("'data.dat' index 1"), std::string::npos);
  EXPECT_NE(script.find("title 'steady'"), std::string::npos);
  EXPECT_NE(script.find("title 'spiky'"), std::string::npos);
  EXPECT_NE(script.find("with lines dt 2"), std::string::npos)
      << "trend lines rendered for policies with valid fits";
}

}  // namespace
}  // namespace utilrisk::core
