#include "core/advisor.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "core/integrated_risk.hpp"

namespace utilrisk::core {

void AdvisorInput::validate() const {
  if (policies.empty()) {
    throw std::invalid_argument("AdvisorInput: no policies");
  }
  if (points.size() != policies.size()) {
    throw std::invalid_argument("AdvisorInput: points/policies mismatch");
  }
  const std::size_t scenarios = points.front().size();
  if (scenarios == 0) {
    throw std::invalid_argument("AdvisorInput: no scenarios");
  }
  for (std::size_t p = 0; p < points.size(); ++p) {
    if (points[p].size() != scenarios) {
      throw std::invalid_argument("AdvisorInput: ragged scenario matrix");
    }
    for (const auto& per_objective : points[p]) {
      for (const RiskPoint& point : per_objective) {
        if (!std::isfinite(point.performance) ||
            !std::isfinite(point.volatility)) {
          throw std::invalid_argument("AdvisorInput: non-finite risk point "
                                      "for policy '" + policies[p] + "'");
        }
        if (point.volatility < 0.0) {
          throw std::invalid_argument("AdvisorInput: negative volatility "
                                      "for policy '" + policies[p] + "'");
        }
      }
    }
  }
}

void AdvisorConfig::validate() const {
  double weight_sum = 0.0;
  for (std::size_t o = 0; o < objective_weights.size(); ++o) {
    const double w = objective_weights[o];
    // NaN fails the range test (every comparison with NaN is false, so
    // the negated form catches it); infinities fail it outright.
    if (!(w >= 0.0 && w <= 1.0)) {
      throw std::invalid_argument(
          "advisor config: weight for " +
          std::string(to_string(kAllObjectives[o])) +
          " must be a finite number in [0,1]");
    }
    weight_sum += w;
  }
  if (std::fabs(weight_sum - 1.0) > 1e-9) {
    throw std::invalid_argument(
        "advisor config: weights must sum to 1 (got " +
        std::to_string(weight_sum) + "); not renormalizing");
  }
  if (!(risk_aversion >= 0.0) || !std::isfinite(risk_aversion)) {
    throw std::invalid_argument(
        "advisor config: risk aversion must be a finite number >= 0");
  }
}

std::array<double, 4> AdvisorConfig::parse_weights(std::string_view csv) {
  std::array<double, 4> weights{};
  std::size_t index = 0;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = csv.find(',', start);
    const std::string_view token = csv.substr(
        start, comma == std::string_view::npos ? std::string_view::npos
                                               : comma - start);
    if (index >= weights.size()) {
      throw std::invalid_argument(
          "advisor config: expected exactly 4 comma-separated weights");
    }
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc{} || ptr != token.data() + token.size() ||
        token.empty()) {
      throw std::invalid_argument("advisor config: weight '" +
                                  std::string(token) + "' is not a number");
    }
    weights[index++] = value;
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  if (index != weights.size()) {
    throw std::invalid_argument(
        "advisor config: expected exactly 4 comma-separated weights");
  }
  return weights;
}

namespace {

/// Integrated series of one policy under the weights.
PolicySeries integrate_series(const AdvisorInput& input, std::size_t p,
                              const std::array<double, 4>& weights) {
  PolicySeries series;
  series.policy = input.policies[p];
  series.points.reserve(input.points[p].size());
  const std::vector<double> w(weights.begin(), weights.end());
  for (const auto& per_objective : input.points[p]) {
    const std::vector<RiskPoint> separate(per_objective.begin(),
                                          per_objective.end());
    series.points.push_back(integrated_risk(separate, w));
  }
  return series;
}

/// Single-objective series of one policy.
PolicySeries objective_series(const AdvisorInput& input, std::size_t p,
                              Objective objective) {
  PolicySeries series;
  series.policy = input.policies[p];
  for (const auto& per_objective : input.points[p]) {
    series.points.push_back(
        per_objective[static_cast<std::size_t>(objective)]);
  }
  return series;
}

}  // namespace

AdvisorReport advise(const AdvisorInput& input, const AdvisorConfig& config) {
  input.validate();
  config.validate();

  AdvisorReport report;
  report.ranked.reserve(input.policies.size());
  for (std::size_t p = 0; p < input.policies.size(); ++p) {
    const PolicySeries series =
        integrate_series(input, p, config.objective_weights);
    PolicyAdvice advice;
    advice.policy = input.policies[p];
    double perf = 0.0;
    double vol = 0.0;
    for (const RiskPoint& point : series.points) {
      perf += point.performance;
      vol += point.volatility;
    }
    const double n = static_cast<double>(series.points.size());
    advice.mean_performance = perf / n;
    advice.mean_volatility = vol / n;
    advice.score = risk_adjusted_score(
        advice.mean_performance, advice.mean_volatility, config.risk_aversion);
    advice.stats = compute_rank_stats(series);
    report.ranked.push_back(std::move(advice));
  }
  std::sort(report.ranked.begin(), report.ranked.end(),
            [](const PolicyAdvice& a, const PolicyAdvice& b) {
              return ranks_ahead({a.score, a.mean_volatility, a.policy},
                                 {b.score, b.mean_volatility, b.policy});
            });

  // Per-objective winners via the paper's best-performance ranking.
  for (Objective objective : kAllObjectives) {
    std::vector<PolicySeries> series;
    series.reserve(input.policies.size());
    for (std::size_t p = 0; p < input.policies.size(); ++p) {
      series.push_back(objective_series(input, p, objective));
    }
    const auto ranked = rank_policies(series, RankBy::BestPerformance);
    report.best_per_objective[static_cast<std::size_t>(objective)] =
        ranked.front().policy;
  }

  // Most consistent = lowest mean volatility in the weighted combination.
  report.most_consistent =
      std::min_element(report.ranked.begin(), report.ranked.end(),
                       [](const PolicyAdvice& a, const PolicyAdvice& b) {
                         if (a.mean_volatility != b.mean_volatility) {
                           return a.mean_volatility < b.mean_volatility;
                         }
                         return a.policy < b.policy;
                       })
          ->policy;

  std::ostringstream summary;
  const PolicyAdvice& best = report.ranked.front();
  summary << "Recommended policy: " << best.policy << " (risk-adjusted score "
          << best.score << " = performance " << best.mean_performance
          << " - " << config.risk_aversion << " x volatility "
          << best.mean_volatility << " across "
          << input.points.front().size() << " scenarios).";
  if (report.most_consistent != best.policy) {
    summary << " Most consistent alternative: " << report.most_consistent
            << '.';
  }
  for (Objective objective : kAllObjectives) {
    const auto& winner =
        report.best_per_objective[static_cast<std::size_t>(objective)];
    if (winner != best.policy) {
      summary << " If only " << to_string(objective) << " matters: "
              << winner << '.';
    }
  }
  report.summary = summary.str();
  return report;
}

std::vector<WeightSweepPoint> weight_sensitivity(const AdvisorInput& input,
                                                 Objective focus,
                                                 std::size_t steps,
                                                 const AdvisorConfig& config) {
  if (steps < 2) {
    throw std::invalid_argument("weight_sensitivity: steps < 2");
  }
  const auto focus_index = static_cast<std::size_t>(focus);
  // Proportions of the non-focus objectives in the base config.
  double rest_total = 0.0;
  for (std::size_t o = 0; o < 4; ++o) {
    if (o != focus_index) rest_total += config.objective_weights[o];
  }

  std::vector<WeightSweepPoint> points;
  points.reserve(steps);
  for (std::size_t i = 0; i < steps; ++i) {
    const double w =
        static_cast<double>(i) / static_cast<double>(steps - 1);
    AdvisorConfig step_config = config;
    step_config.objective_weights[focus_index] = w;
    for (std::size_t o = 0; o < 4; ++o) {
      if (o == focus_index) continue;
      const double proportion =
          rest_total > 0.0 ? config.objective_weights[o] / rest_total
                           : 1.0 / 3.0;
      step_config.objective_weights[o] = (1.0 - w) * proportion;
    }
    const AdvisorReport report = advise(input, step_config);
    points.push_back({w, report.ranked.front().policy,
                      report.ranked.front().score});
  }
  return points;
}

}  // namespace utilrisk::core
