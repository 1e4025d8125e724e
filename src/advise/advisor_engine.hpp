// Online a-priori risk advisor: the serving path's observe -> analyze ->
// act loop (docs/ADVISOR.md).
//
// The offline advisor (core/advisor.hpp) scores policies against a
// finished sweep; this engine scores them against the *live* workload mix
// an AdmissionEngine is currently admitting. Per routing key it keeps
//
//  - a rolling window of the last W admitted jobs (the observed mix),
//  - streaming Welford estimators of the four paper objectives as the
//    live service realises them (estimator.hpp),
//  - per-candidate-policy estimators fed by *shadow evaluations*: at
//    deterministic switch points the window is replayed through every
//    candidate policy on a scratch simulator (service::simulate), the
//    resulting objectives are normalised across the candidates
//    (core/normalization.hpp) and pushed into that candidate's
//    estimators. The mean - lambda * sigma machinery (core risk points +
//    integrated_risk) then ranks the candidates for the configured
//    objective weights.
//
// Determinism contract: everything here is a pure function of the
// sequence of (job, objective-sample) observations for one key — no
// wall clock, no entropy, no cross-key coupling. Switch points fire
// every `advise_every` decided requests *of that key's own stream*, so
// the decision (and any resulting policy switch) reproduces identically
// under replay, under resharding and under request interleaving — the
// same invariant the per-key isolated TenantState gives admission
// decisions (serve/engine.hpp). Protocol `advise` queries are read-only:
// they never touch the estimators, so issuing them cannot perturb the
// decision digest.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "advise/estimator.hpp"
#include "cluster/node.hpp"
#include "core/advisor.hpp"
#include "core/objectives.hpp"
#include "economy/money.hpp"
#include "policy/factory.hpp"
#include "policy/first_reward.hpp"
#include "workload/job.hpp"

namespace utilrisk::advise {

/// Knobs of the online advisor (CLI --advise-*).
struct OnlineAdvisorConfig {
  /// Scoring preferences: objective weights + risk aversion (lambda).
  core::AdvisorConfig scoring;
  /// Live policy switching at switch points ("--advise-auto"). Implies
  /// scheduled evaluations.
  bool auto_switch = false;
  /// Scheduled-evaluation cadence: every N decided requests per routing
  /// key. 0 = no scheduled evaluations (the `advise` verb still answers
  /// with an on-demand read-only evaluation).
  std::uint64_t advise_every = 0;
  /// Rolling job window length per key (observed mix; also the shadow
  /// replay length).
  std::size_t window = 64;

  /// True when switch-point evaluations run at all.
  [[nodiscard]] bool scheduled() const {
    return auto_switch || advise_every > 0;
  }
  /// The cadence actually used (auto mode defaults to 1024 when
  /// `advise_every` was left 0).
  [[nodiscard]] std::uint64_t effective_every() const {
    return advise_every > 0 ? advise_every : 1024;
  }
  /// Throws std::invalid_argument (structured, core::AdvisorConfig rules)
  /// on NaN/negative/non-unit weights, invalid risk aversion or a window
  /// shorter than 2 jobs.
  void validate() const;
};

/// Simulation context the shadow evaluations replay under — mirrors the
/// admission engine's own world so shadow objectives are comparable with
/// the live ones.
struct ShadowContext {
  economy::EconomicModel model = economy::EconomicModel::CommodityMarket;
  cluster::MachineConfig machine;
  economy::PricingParams pricing;
  policy::FirstRewardParams first_reward;
};

/// One candidate's rank entry under the mean - lambda * sigma score.
struct RankedPolicy {
  policy::PolicyKind kind = policy::PolicyKind::Libra;
  std::string policy;         ///< display name (policy::to_string)
  double score = 0.0;         ///< performance - lambda * volatility
  double performance = 0.0;   ///< mu of the weighted objective combination
  double volatility = 0.0;    ///< sigma of the weighted combination
};

/// Outcome of one scheduled switch-point evaluation.
struct Evaluation {
  std::vector<RankedPolicy> ranked;  ///< best first; deterministic order
  policy::PolicyKind recommended = policy::PolicyKind::Libra;
  /// auto_switch decided to change the key's active policy. The caller
  /// (AdmissionEngine) performs the actual service swap and folds the
  /// switch event into its decision digest and journal.
  bool switched = false;
  policy::PolicyKind from = policy::PolicyKind::Libra;
  policy::PolicyKind to = policy::PolicyKind::Libra;
  std::uint64_t at = 0;  ///< the key's decided-request count at the event
};

/// Read-only advisor state snapshot, the body of an `advise` response.
struct Snapshot {
  std::string active;              ///< the key's active policy name
  std::string recommended;         ///< best-ranked candidate
  std::uint64_t decided = 0;       ///< requests decided for this key
  std::uint64_t evaluations = 0;   ///< scheduled evaluations so far
  std::uint64_t switches = 0;      ///< live policy switches so far
  std::uint64_t samples = 0;       ///< live objective samples in window
  /// Live observed objective estimates (wait, SLA, reliability,
  /// profitability — raw objective units, not normalised).
  std::array<double, 4> estimate_mean{};
  std::array<double, 4> estimate_stddev{};
  std::vector<RankedPolicy> ranked;
  /// FNV-1a fold over (key, active, ranked names/scores): two identical
  /// request histories answer with identical digests (advise_test.cpp).
  std::uint64_t digest = 0;
};

/// Per-engine advisor: owns the per-routing-key advisor state. Not
/// thread-safe — it lives on the engine thread like the rest of the
/// decision state.
class AdvisorEngine {
 public:
  AdvisorEngine(const OnlineAdvisorConfig& config,
                const ShadowContext& context,
                policy::PolicyKind initial_policy);

  /// Books one admission outcome: the admitted job joins the key's
  /// rolling window and `live` (the key's cumulative objective values
  /// after this decision) feeds the observed estimators.
  void observe(std::uint64_t key, const workload::Job& job,
               const core::ObjectiveValues& live);

  /// True when the key's decided-request count sits on a switch-point
  /// boundary (and the window holds enough jobs to evaluate).
  [[nodiscard]] bool at_switch_point(std::uint64_t key) const;

  /// Scheduled switch-point evaluation: shadow-replays the window through
  /// every candidate, records the normalised outcomes into the
  /// candidates' estimators and ranks them. Under auto_switch the key's
  /// active policy advances to the recommendation (Evaluation::switched
  /// tells the caller to act).
  [[nodiscard]] Evaluation evaluate(std::uint64_t key);

  /// Read-only query for the `advise` protocol verb, scored under the
  /// *caller's* weights/risk aversion. Ranks from the candidates'
  /// estimator state; before any scheduled evaluation it falls back to a
  /// one-shot shadow evaluation (still read-only) when the window allows,
  /// else returns an empty ranking. Never mutates advisor state.
  [[nodiscard]] Snapshot query(std::uint64_t key,
                               const std::array<double, 4>& weights,
                               double risk_aversion) const;

  /// The candidate set (policies_for_model of the shadow context).
  [[nodiscard]] const std::vector<policy::PolicyKind>& candidates() const {
    return candidates_;
  }
  [[nodiscard]] const OnlineAdvisorConfig& config() const { return config_; }
  /// The key's current active policy (initial policy before any switch).
  [[nodiscard]] policy::PolicyKind active_policy(std::uint64_t key) const;
  /// Session totals across keys.
  [[nodiscard]] std::uint64_t total_evaluations() const {
    return total_evaluations_;
  }
  [[nodiscard]] std::uint64_t total_switches() const {
    return total_switches_;
  }

 private:
  struct KeyState {
    std::deque<workload::Job> window;
    ObjectiveEstimators observed;
    /// candidate_stats[i] tracks candidates_[i], over the normalised
    /// outcomes of the scheduled shadow evaluations.
    std::vector<ObjectiveEstimators> candidate_stats;
    std::uint64_t decided = 0;
    std::uint64_t evaluations = 0;
    std::uint64_t switches = 0;
    policy::PolicyKind active = policy::PolicyKind::Libra;
  };

  [[nodiscard]] KeyState& state_for(std::uint64_t key);
  /// Shadow-replays the key's window through every candidate; returns
  /// normalized[candidate][objective] in [0, 1]. Read-only.
  [[nodiscard]] std::vector<std::array<double, 4>> shadow_evaluate(
      const KeyState& state) const;
  /// Ranks candidates from per-candidate risk points under the given
  /// preferences, in the offline advisor's order (core::ranks_ahead).
  [[nodiscard]] std::vector<RankedPolicy> rank(
      const std::vector<std::array<core::RiskPoint, 4>>& points,
      const std::array<double, 4>& weights, double risk_aversion) const;

  OnlineAdvisorConfig config_;
  ShadowContext context_;
  policy::PolicyKind initial_policy_;
  std::vector<policy::PolicyKind> candidates_;
  std::map<std::uint64_t, KeyState> keys_;
  std::uint64_t total_evaluations_ = 0;
  std::uint64_t total_switches_ = 0;
};

}  // namespace utilrisk::advise
