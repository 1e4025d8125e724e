// A-priori risk analysis: policy recommendation from a-posteriori results.
//
// The paper's conclusion proposes that the evaluation results "which
// constitute an a posteriori risk analysis of policies can later be used
// to generate an a priori risk analysis of policies by identifying
// possible risks for future utility computing situations." This module is
// that step: given the separate-risk points of every (policy, scenario,
// objective) measured once, it scores policies for a *future* operating
// point described by objective weights and a risk-aversion level, without
// re-running any simulation.
#pragma once

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "core/objectives.hpp"
#include "core/ranking.hpp"
#include "core/separate_risk.hpp"

namespace utilrisk::core {

/// Measured a-posteriori data: one entry per policy, with
/// points[scenario][objective] from the separate risk analysis.
struct AdvisorInput {
  std::vector<std::string> policies;
  /// points[policy][scenario][objective index]
  std::vector<std::vector<std::array<RiskPoint, 4>>> points;

  void validate() const;
};

/// The provider's future operating preferences.
struct AdvisorConfig {
  /// Objective weights in kAllObjectives order (wait, SLA, reliability,
  /// profitability); must sum to 1. Equal by default, per the paper's
  /// experiments.
  std::array<double, 4> objective_weights = {0.25, 0.25, 0.25, 0.25};
  /// 0 = score on expected performance only; 1 = subtract one full unit of
  /// volatility per unit of risk. The classic mean-minus-lambda-sigma
  /// risk-adjusted score.
  double risk_aversion = 0.5;

  /// Rejects malformed preferences with a structured std::invalid_argument
  /// (never silently renormalises): every weight must be finite and in
  /// [0, 1], the weights must sum to 1 within 1e-9, and risk_aversion must
  /// be finite and >= 0. NaN fails every check by construction.
  void validate() const;

  /// Parses "w,x,y,z" into objective weights (kAllObjectives order) with
  /// the same structured errors: exactly four comma-separated finite
  /// numbers, no trailing garbage. Does NOT check the sum — callers
  /// compose the result into a config and call validate().
  [[nodiscard]] static std::array<double, 4> parse_weights(
      std::string_view csv);
};

/// The risk-adjusted score every advisor ranks by: performance less
/// `risk_aversion` units of volatility (mean - lambda * sigma).
[[nodiscard]] inline double risk_adjusted_score(double performance,
                                                double volatility,
                                                double risk_aversion) {
  return performance - risk_aversion * volatility;
}

/// What a ranking orders one policy by.
struct RankKey {
  double score = 0.0;
  double volatility = 0.0;
  std::string_view policy;
};

/// The ranking order, best first: score descending, then volatility
/// ascending, then policy name ascending — a strict total order over
/// distinct names, so every ranking is deterministic.
[[nodiscard]] inline bool ranks_ahead(const RankKey& a, const RankKey& b) {
  if (a.score != b.score) return a.score > b.score;
  if (a.volatility != b.volatility) return a.volatility < b.volatility;
  return a.policy < b.policy;
}

/// Scored policy under the configured preferences.
struct PolicyAdvice {
  std::string policy;
  /// mean performance - risk_aversion * mean volatility, over all
  /// scenarios, of the weighted objective combination.
  double score = 0.0;
  double mean_performance = 0.0;
  double mean_volatility = 0.0;
  /// Aggregates of the integrated points (Table II semantics).
  PolicyRankStats stats;
};

struct AdvisorReport {
  /// Best first, in ranks_ahead order.
  std::vector<PolicyAdvice> ranked;
  /// Winner of each single objective (by the paper's best-performance
  /// ranking applied per objective).
  std::array<std::string, 4> best_per_objective;
  /// Policy with the lowest mean volatility in the weighted combination.
  std::string most_consistent;
  /// Human-readable rationale.
  std::string summary;
};

/// Scores every policy for the given preferences. Throws
/// std::invalid_argument on malformed input (ragged matrices, weights not
/// summing to 1, negative risk aversion).
[[nodiscard]] AdvisorReport advise(const AdvisorInput& input,
                                   const AdvisorConfig& config = {});

/// One step of a weight sweep: the focus objective's weight and the
/// winning policy at that weight.
struct WeightSweepPoint {
  double weight = 0.0;
  std::string winner;
  double score = 0.0;
};

/// §4.2 sensitivity analysis: sweeps the focus objective's weight from 0
/// to 1 in `steps` equal increments (the remaining weight is split over
/// the other three objectives in the proportions of `config`'s weights),
/// recording the risk-adjusted winner at each step. The points where the
/// winner changes are the crossover weights a provider should know before
/// committing to a policy. Requires steps >= 2.
[[nodiscard]] std::vector<WeightSweepPoint> weight_sensitivity(
    const AdvisorInput& input, Objective focus, std::size_t steps = 11,
    const AdvisorConfig& config = {});

}  // namespace utilrisk::core
