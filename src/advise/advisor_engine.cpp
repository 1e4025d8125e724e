#include "advise/advisor_engine.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "core/integrated_risk.hpp"
#include "core/normalization.hpp"
#include "service/computing_service.hpp"
#include "verify/digest.hpp"

namespace utilrisk::advise {

void OnlineAdvisorConfig::validate() const {
  scoring.validate();
  if (window < 2) {
    throw std::invalid_argument("advisor: window must be >= 2 jobs");
  }
}

AdvisorEngine::AdvisorEngine(const OnlineAdvisorConfig& config,
                             const ShadowContext& context,
                             policy::PolicyKind initial_policy)
    : config_(config), context_(context), initial_policy_(initial_policy) {
  config_.validate();
  candidates_ = policy::policies_for_model(context_.model);
  // The engine's configured policy always takes part in the comparison,
  // even when it sits outside the model's usual candidate set.
  if (std::find(candidates_.begin(), candidates_.end(), initial_policy_) ==
      candidates_.end()) {
    candidates_.push_back(initial_policy_);
  }
}

AdvisorEngine::KeyState& AdvisorEngine::state_for(std::uint64_t key) {
  auto [it, inserted] = keys_.try_emplace(key);
  if (inserted) {
    KeyState& state = it->second;
    state.active = initial_policy_;
    state.observed = make_objective_estimators(config_.window);
    state.candidate_stats.reserve(candidates_.size());
    for (std::size_t c = 0; c < candidates_.size(); ++c) {
      // One sample lands per scheduled evaluation, so bounding by the job
      // window also ages out evaluations of long-gone mix phases.
      state.candidate_stats.push_back(make_objective_estimators(config_.window));
    }
  }
  return it->second;
}

void AdvisorEngine::observe(std::uint64_t key, const workload::Job& job,
                            const core::ObjectiveValues& live) {
  KeyState& state = state_for(key);
  state.window.push_back(job);
  while (state.window.size() > config_.window) state.window.pop_front();
  for (std::size_t o = 0; o < core::kAllObjectives.size(); ++o) {
    state.observed[o].push(live.get(core::kAllObjectives[o]));
  }
  ++state.decided;
}

bool AdvisorEngine::at_switch_point(std::uint64_t key) const {
  if (!config_.scheduled()) return false;
  const auto it = keys_.find(key);
  if (it == keys_.end()) return false;
  const KeyState& state = it->second;
  return state.decided > 0 &&
         state.decided % config_.effective_every() == 0 &&
         state.window.size() >= 2;
}

policy::PolicyKind AdvisorEngine::active_policy(std::uint64_t key) const {
  const auto it = keys_.find(key);
  return it == keys_.end() ? initial_policy_ : it->second.active;
}

std::vector<std::array<double, 4>> AdvisorEngine::shadow_evaluate(
    const KeyState& state) const {
  // Rebase the window onto t = 0 (deadlines are durations, so SLA terms
  // survive the shift) and renumber ids for the scratch run.
  std::vector<workload::Job> jobs(state.window.begin(), state.window.end());
  const sim::SimTime base = jobs.front().submit_time;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].submit_time -= base;
    jobs[i].id = static_cast<workload::JobId>(i + 1);
  }
  std::vector<std::array<double, 4>> raw(candidates_.size());
  for (std::size_t c = 0; c < candidates_.size(); ++c) {
    const service::SimulationReport report = service::simulate(
        jobs, candidates_[c], context_.model, context_.machine,
        context_.pricing, context_.first_reward);
    for (std::size_t o = 0; o < core::kAllObjectives.size(); ++o) {
      raw[c][o] = report.objectives.get(core::kAllObjectives[o]);
    }
  }
  // Normalise each objective across the candidate set (single scenario
  // value per candidate) — same scale the offline sweep pipeline uses.
  std::vector<std::array<double, 4>> normalized(candidates_.size());
  for (std::size_t o = 0; o < core::kAllObjectives.size(); ++o) {
    std::vector<std::vector<double>> matrix(candidates_.size());
    for (std::size_t c = 0; c < candidates_.size(); ++c) {
      matrix[c] = {raw[c][o]};
    }
    const auto norm =
        core::normalize_objective(core::kAllObjectives[o], matrix);
    for (std::size_t c = 0; c < candidates_.size(); ++c) {
      normalized[c][o] = norm[c][0];
    }
  }
  return normalized;
}

std::vector<RankedPolicy> AdvisorEngine::rank(
    const std::vector<std::array<core::RiskPoint, 4>>& points,
    const std::array<double, 4>& weights, double risk_aversion) const {
  std::vector<RankedPolicy> ranked;
  ranked.reserve(candidates_.size());
  for (std::size_t c = 0; c < candidates_.size(); ++c) {
    const core::RiskPoint integrated = core::integrated_risk(
        std::span<const core::RiskPoint>(points[c]),
        std::span<const double>(weights));
    RankedPolicy entry;
    entry.kind = candidates_[c];
    entry.policy = policy::to_string(candidates_[c]);
    entry.performance = integrated.performance;
    entry.volatility = integrated.volatility;
    entry.score = core::risk_adjusted_score(
        integrated.performance, integrated.volatility, risk_aversion);
    ranked.push_back(std::move(entry));
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const RankedPolicy& a, const RankedPolicy& b) {
              return core::ranks_ahead({a.score, a.volatility, a.policy},
                                       {b.score, b.volatility, b.policy});
            });
  return ranked;
}

Evaluation AdvisorEngine::evaluate(std::uint64_t key) {
  KeyState& state = state_for(key);
  if (state.window.size() < 2) {
    throw std::logic_error("advisor: evaluate() before the window filled");
  }
  const auto normalized = shadow_evaluate(state);
  for (std::size_t c = 0; c < candidates_.size(); ++c) {
    for (std::size_t o = 0; o < core::kAllObjectives.size(); ++o) {
      state.candidate_stats[c][o].push(normalized[c][o]);
    }
  }
  ++state.evaluations;
  ++total_evaluations_;

  std::vector<std::array<core::RiskPoint, 4>> points(candidates_.size());
  for (std::size_t c = 0; c < candidates_.size(); ++c) {
    for (std::size_t o = 0; o < core::kAllObjectives.size(); ++o) {
      points[c][o] = core::RiskPoint{state.candidate_stats[c][o].mean(),
                                     state.candidate_stats[c][o].stddev()};
    }
  }
  Evaluation evaluation;
  evaluation.ranked = rank(points, config_.scoring.objective_weights,
                           config_.scoring.risk_aversion);
  evaluation.recommended = evaluation.ranked.front().kind;
  if (config_.auto_switch && evaluation.recommended != state.active) {
    evaluation.switched = true;
    evaluation.from = state.active;
    evaluation.to = evaluation.recommended;
    evaluation.at = state.decided;
    state.active = evaluation.recommended;
    ++state.switches;
    ++total_switches_;
  }
  return evaluation;
}

Snapshot AdvisorEngine::query(std::uint64_t key,
                              const std::array<double, 4>& weights,
                              double risk_aversion) const {
  core::AdvisorConfig scoring;
  scoring.objective_weights = weights;
  scoring.risk_aversion = risk_aversion;
  scoring.validate();

  Snapshot snapshot;
  const auto it = keys_.find(key);
  const KeyState* state = it == keys_.end() ? nullptr : &it->second;
  snapshot.active =
      policy::to_string(state == nullptr ? initial_policy_ : state->active);
  if (state != nullptr) {
    snapshot.decided = state->decided;
    snapshot.evaluations = state->evaluations;
    snapshot.switches = state->switches;
    snapshot.samples = state->observed[0].count();
    for (std::size_t o = 0; o < core::kAllObjectives.size(); ++o) {
      snapshot.estimate_mean[o] = state->observed[o].mean();
      snapshot.estimate_stddev[o] = state->observed[o].stddev();
    }
    if (state->evaluations > 0) {
      // Rank from the accumulated shadow-evaluation estimators under the
      // caller's preferences.
      std::vector<std::array<core::RiskPoint, 4>> points(candidates_.size());
      for (std::size_t c = 0; c < candidates_.size(); ++c) {
        for (std::size_t o = 0; o < core::kAllObjectives.size(); ++o) {
          points[c][o] =
              core::RiskPoint{state->candidate_stats[c][o].mean(),
                              state->candidate_stats[c][o].stddev()};
        }
      }
      snapshot.ranked = rank(points, weights, risk_aversion);
    } else if (state->window.size() >= 2) {
      // No scheduled evaluation has run yet: answer with a one-shot
      // read-only shadow evaluation of the current window (sigma = 0, a
      // single sample per candidate).
      const auto normalized = shadow_evaluate(*state);
      std::vector<std::array<core::RiskPoint, 4>> points(candidates_.size());
      for (std::size_t c = 0; c < candidates_.size(); ++c) {
        for (std::size_t o = 0; o < core::kAllObjectives.size(); ++o) {
          points[c][o] = core::RiskPoint{normalized[c][o], 0.0};
        }
      }
      snapshot.ranked = rank(points, weights, risk_aversion);
    }
  }
  snapshot.recommended =
      snapshot.ranked.empty() ? snapshot.active : snapshot.ranked.front().policy;

  verify::DigestStream digest;
  digest.put_string("advise");
  digest.put_u64(key);
  digest.put_string(snapshot.active);
  digest.put_string(snapshot.recommended);
  digest.put_u64(snapshot.evaluations);
  digest.put_u64(snapshot.switches);
  for (const RankedPolicy& entry : snapshot.ranked) {
    digest.put_string(entry.policy);
    digest.put_double(entry.score);
    digest.put_double(entry.performance);
    digest.put_double(entry.volatility);
  }
  snapshot.digest = digest.value();
  return snapshot;
}

}  // namespace utilrisk::advise
