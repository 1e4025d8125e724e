// Tests for the online risk advisor (src/advise): streaming Welford
// estimators against a batch reference, exact window eviction, the
// determinism of the advisor engine's evaluations and read-only queries,
// and its verdict on a mix shift under profit-focused weights.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "advise/advisor_engine.hpp"
#include "advise/estimator.hpp"
#include "core/objectives.hpp"
#include "serve/loadgen.hpp"
#include "workload/generator.hpp"
#include "workload/qos.hpp"

namespace utilrisk::advise {
namespace {

/// SplitMix64 — a seeded sample stream without <random> (whose
/// distributions are implementation-defined).
class SampleRng {
 public:
  explicit SampleRng(std::uint64_t seed) : state_(seed) {}

  double next() {
    state_ += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    // Uniform in [0, 1000) with a heavy-ish spread so cancellation in
    // the downdate would show up.
    return static_cast<double>(z >> 11) /
           static_cast<double>(1ull << 53) * 1000.0;
  }

 private:
  std::uint64_t state_;
};

/// Batch (two-pass) mean/population-variance reference.
struct BatchStats {
  double mean = 0.0;
  double variance = 0.0;
};

BatchStats batch_reference(const std::vector<double>& samples) {
  BatchStats stats;
  if (samples.empty()) return stats;
  double sum = 0.0;
  for (double x : samples) sum += x;
  stats.mean = sum / static_cast<double>(samples.size());
  if (samples.size() < 2) return stats;
  double m2 = 0.0;
  for (double x : samples) m2 += (x - stats.mean) * (x - stats.mean);
  stats.variance = m2 / static_cast<double>(samples.size());
  return stats;
}

TEST(RollingWelfordTest, MatchesBatchReferenceUnbounded) {
  RollingWelford welford(/*capacity=*/0);
  SampleRng rng(42);
  std::vector<double> seen;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.next();
    seen.push_back(x);
    welford.push(x);
    const BatchStats reference = batch_reference(seen);
    ASSERT_NEAR(welford.mean(), reference.mean, 1e-9 * (1.0 + reference.mean))
        << "after sample " << i;
    ASSERT_NEAR(welford.variance(), reference.variance,
                1e-7 * (1.0 + reference.variance))
        << "after sample " << i;
  }
  EXPECT_EQ(welford.count(), 500u);
}

TEST(RollingWelfordTest, WindowEvictionIsExact) {
  constexpr std::size_t kWindow = 16;
  RollingWelford welford(kWindow);
  SampleRng rng(7);
  std::vector<double> seen;
  for (int i = 0; i < 300; ++i) {
    const double x = rng.next();
    seen.push_back(x);
    welford.push(x);
    const std::size_t have = std::min(seen.size(), kWindow);
    const std::vector<double> window(seen.end() - static_cast<long>(have),
                                     seen.end());
    const BatchStats reference = batch_reference(window);
    ASSERT_EQ(welford.count(), have);
    ASSERT_NEAR(welford.mean(), reference.mean, 1e-9 * (1.0 + reference.mean))
        << "after sample " << i;
    ASSERT_NEAR(welford.variance(), reference.variance,
                1e-6 * (1.0 + reference.variance))
        << "the downdate must keep the windowed variance exact, sample "
        << i;
  }
}

TEST(RollingWelfordTest, DegenerateCountsAndReset) {
  RollingWelford welford(8);
  EXPECT_TRUE(welford.empty());
  EXPECT_EQ(welford.mean(), 0.0);
  EXPECT_EQ(welford.variance(), 0.0);

  welford.push(3.5);
  EXPECT_EQ(welford.count(), 1u);
  EXPECT_DOUBLE_EQ(welford.mean(), 3.5);
  EXPECT_EQ(welford.variance(), 0.0) << "a single sample has no spread";

  welford.reset();
  EXPECT_TRUE(welford.empty());
  EXPECT_EQ(welford.capacity(), 8u);
  welford.push(1.0);
  welford.push(2.0);
  EXPECT_DOUBLE_EQ(welford.mean(), 1.5);
  EXPECT_NEAR(welford.variance(), 0.25, 1e-12);
}

TEST(RollingWelfordTest, ConstantStreamHasZeroVariance) {
  RollingWelford welford(4);
  for (int i = 0; i < 50; ++i) welford.push(123.456);
  EXPECT_DOUBLE_EQ(welford.mean(), 123.456);
  // The downdate clamps M2 at zero, so rounding noise cannot surface as
  // a (negative or tiny positive) phantom variance.
  EXPECT_EQ(welford.variance(), 0.0);
  EXPECT_EQ(welford.stddev(), 0.0);
}

TEST(EstimatorTest, ObjectiveEstimatorsShareTheWindowCapacity) {
  ObjectiveEstimators estimators = make_objective_estimators(32);
  for (RollingWelford& welford : estimators) {
    EXPECT_EQ(welford.capacity(), 32u);
    EXPECT_TRUE(welford.empty());
  }
}

// ----------------------------------------------------------- advisor engine

/// A QoS-assigned job window plus the per-decision live objective values
/// a serve engine would feed observe() — deterministic in the seed.
struct ObservedStream {
  std::vector<workload::Job> jobs;
  std::vector<core::ObjectiveValues> live;
};

/// Pairs `jobs` with a synthetic cumulative objective feed: every job
/// accepted and fulfilled, waiting a quarter of its runtime and earning
/// 80% of its budget.
ObservedStream observe_jobs(std::vector<workload::Job> jobs) {
  ObservedStream stream;
  stream.jobs = std::move(jobs);
  core::ObjectiveInputs inputs;
  for (const workload::Job& job : stream.jobs) {
    inputs.submitted += 1;
    inputs.accepted += 1;
    inputs.fulfilled += 1;
    inputs.wait_sum_fulfilled += 0.25 * job.actual_runtime;
    inputs.total_utility += 0.8 * job.budget;
    inputs.total_budget += job.budget;
    stream.live.push_back(core::compute_objectives(inputs));
  }
  return stream;
}

ObservedStream make_observed_stream(std::size_t count, std::uint64_t seed) {
  std::vector<workload::Job> jobs = workload::generate_jobs(
      "sdsc:jobs=" + std::to_string(count) + ",seed=" + std::to_string(seed));
  workload::assign_qos(jobs, workload::QosConfig{});
  return observe_jobs(std::move(jobs));
}

OnlineAdvisorConfig small_config() {
  OnlineAdvisorConfig config;
  config.advise_every = 16;
  config.window = 16;
  return config;
}

TEST(AdvisorEngineTest, SwitchPointsFireOnThePerKeyCadence) {
  AdvisorEngine engine(small_config(), ShadowContext{},
                       policy::PolicyKind::Libra);
  const ObservedStream stream = make_observed_stream(40, 3);
  for (std::size_t i = 0; i < stream.jobs.size(); ++i) {
    engine.observe(1, stream.jobs[i], stream.live[i]);
    const std::uint64_t decided = i + 1;
    EXPECT_EQ(engine.at_switch_point(1), decided % 16 == 0)
        << "decided=" << decided;
    // A different key has its own counter, untouched by key 1's stream.
    EXPECT_FALSE(engine.at_switch_point(2));
  }
}

TEST(AdvisorEngineTest, EvaluateIsDeterministicAcrossRuns) {
  const ObservedStream stream = make_observed_stream(32, 11);
  std::vector<Evaluation> evaluations[2];
  for (auto& run : evaluations) {
    AdvisorEngine engine(small_config(), ShadowContext{},
                         policy::PolicyKind::Libra);
    for (std::size_t i = 0; i < stream.jobs.size(); ++i) {
      engine.observe(5, stream.jobs[i], stream.live[i]);
      if (engine.at_switch_point(5)) run.push_back(engine.evaluate(5));
    }
  }
  ASSERT_EQ(evaluations[0].size(), 2u) << "32 observes at cadence 16";
  ASSERT_EQ(evaluations[0].size(), evaluations[1].size());
  for (std::size_t e = 0; e < evaluations[0].size(); ++e) {
    const Evaluation& a = evaluations[0][e];
    const Evaluation& b = evaluations[1][e];
    EXPECT_EQ(a.recommended, b.recommended);
    ASSERT_EQ(a.ranked.size(), b.ranked.size());
    ASSERT_FALSE(a.ranked.empty());
    for (std::size_t r = 0; r < a.ranked.size(); ++r) {
      EXPECT_EQ(a.ranked[r].policy, b.ranked[r].policy);
      // Bit-identical, not approximately equal: the decision digest
      // depends on it.
      EXPECT_EQ(a.ranked[r].score, b.ranked[r].score);
      EXPECT_EQ(a.ranked[r].volatility, b.ranked[r].volatility);
    }
  }
}

TEST(AdvisorEngineTest, RankedOrderIsScoreThenVolatilityThenName) {
  const ObservedStream stream = make_observed_stream(32, 19);
  AdvisorEngine engine(small_config(), ShadowContext{},
                       policy::PolicyKind::Libra);
  for (std::size_t i = 0; i < stream.jobs.size(); ++i) {
    engine.observe(9, stream.jobs[i], stream.live[i]);
  }
  const Evaluation evaluation = engine.evaluate(9);
  ASSERT_GE(evaluation.ranked.size(), 2u);
  for (std::size_t i = 1; i < evaluation.ranked.size(); ++i) {
    const RankedPolicy& prev = evaluation.ranked[i - 1];
    const RankedPolicy& next = evaluation.ranked[i];
    const bool ordered =
        prev.score > next.score ||
        (prev.score == next.score &&
         (prev.volatility < next.volatility ||
          (prev.volatility == next.volatility && prev.policy < next.policy)));
    EXPECT_TRUE(ordered) << "rank " << i << ": " << prev.policy << " vs "
                         << next.policy;
  }
  EXPECT_EQ(evaluation.ranked.front().policy,
            policy::to_string(evaluation.recommended));
}

TEST(AdvisorEngineTest, QueryIsReadOnlyAndDeterministic) {
  const ObservedStream stream = make_observed_stream(32, 23);
  const std::array<double, 4> weights = {0.25, 0.25, 0.25, 0.25};

  AdvisorEngine queried(small_config(), ShadowContext{},
                        policy::PolicyKind::Libra);
  AdvisorEngine control(small_config(), ShadowContext{},
                        policy::PolicyKind::Libra);
  std::uint64_t first_digest = 0;
  for (std::size_t i = 0; i < stream.jobs.size(); ++i) {
    queried.observe(4, stream.jobs[i], stream.live[i]);
    control.observe(4, stream.jobs[i], stream.live[i]);
    // Hammer the queried engine with advise reads between observations.
    const Snapshot snapshot = queried.query(4, weights, 0.5);
    EXPECT_EQ(snapshot.decided, i + 1);
    if (i + 1 == stream.jobs.size()) first_digest = snapshot.digest;
  }
  // Identical histories answer with identical digests, and the query
  // traffic must not have perturbed the evaluation.
  EXPECT_EQ(control.query(4, weights, 0.5).digest, first_digest);
  const Evaluation a = queried.evaluate(4);
  const Evaluation b = control.evaluate(4);
  ASSERT_EQ(a.ranked.size(), b.ranked.size());
  for (std::size_t r = 0; r < a.ranked.size(); ++r) {
    EXPECT_EQ(a.ranked[r].policy, b.ranked[r].policy);
    EXPECT_EQ(a.ranked[r].score, b.ranked[r].score);
  }
}

TEST(AdvisorEngineTest, QueryValidatesCallerPreferences) {
  AdvisorEngine engine(small_config(), ShadowContext{},
                       policy::PolicyKind::Libra);
  const std::array<double, 4> bad_sum = {0.5, 0.5, 0.5, 0.5};
  EXPECT_THROW((void)engine.query(1, bad_sum, 0.5), std::invalid_argument);
  const std::array<double, 4> negative = {-0.25, 0.5, 0.5, 0.25};
  EXPECT_THROW((void)engine.query(1, negative, 0.5), std::invalid_argument);
  const std::array<double, 4> ok = {0.25, 0.25, 0.25, 0.25};
  EXPECT_THROW((void)engine.query(1, ok, -1.0), std::invalid_argument);
}

TEST(AdvisorEngineTest, RecommendationBeatsStaticDefaultUnderProfitWeights) {
  // bench_serving's advise mix: 4 Zipf tenants on a heavy-runtime, dense
  // profile that shifts at t=40000, scored for an operator who weights
  // profitability. The static default, Libra, is the best all-rounder
  // under equal weights; here the advisor must rank another policy
  // strictly above it, or running the advisor buys nothing.
  serve::LoadgenConfig mix;
  mix.requests = 5000;
  mix.seed = 42;
  mix.workload =
      "zipf:tenants=4,theta=0.6,mean_runtime=14000,mean_interarrival=120";
  mix.mix_shift = "40000:zipf:tenants=4,theta=0.6";
  std::vector<workload::Job> jobs;
  for (const serve::Request& request : serve::make_request_stream(mix)) {
    const auto job_id = static_cast<workload::JobId>(jobs.size() + 1);
    jobs.push_back(serve::to_job(request, job_id, request.submit_time));
  }
  const ObservedStream stream = observe_jobs(std::move(jobs));

  const std::array<double, 4> weights = {0.05, 0.15, 0.1, 0.7};
  constexpr double kRiskAversion = 0.5;
  OnlineAdvisorConfig config;
  config.advise_every = 1024;
  config.window = 16;
  config.scoring.objective_weights = weights;
  config.scoring.risk_aversion = kRiskAversion;
  AdvisorEngine advisor(config, ShadowContext{}, policy::PolicyKind::Libra);
  for (std::size_t i = 0; i < stream.jobs.size(); ++i) {
    advisor.observe(1, stream.jobs[i], stream.live[i]);
    if (advisor.at_switch_point(1)) (void)advisor.evaluate(1);
  }
  ASSERT_EQ(advisor.active_policy(1), policy::PolicyKind::Libra)
      << "auto_switch is off: the verdict is read, not acted on";

  const Snapshot verdict = advisor.query(1, weights, kRiskAversion);
  const std::string static_policy{policy::to_string(policy::PolicyKind::Libra)};
  const auto score_of = [&verdict](const std::string& name) {
    const auto entry = std::find_if(
        verdict.ranked.begin(), verdict.ranked.end(),
        [&name](const RankedPolicy& ranked) { return ranked.policy == name; });
    EXPECT_NE(entry, verdict.ranked.end()) << name << " is not ranked";
    return entry == verdict.ranked.end() ? 0.0 : entry->score;
  };
  EXPECT_NE(verdict.recommended, static_policy);
  EXPECT_GT(score_of(verdict.recommended), score_of(static_policy))
      << "recommended " << verdict.recommended;
}

TEST(OnlineAdvisorConfigTest, ValidateRejectsBadKnobs) {
  OnlineAdvisorConfig config;
  config.window = 1;
  EXPECT_THROW(config.validate(), std::invalid_argument)
      << "a one-job window cannot carry a variance";
  config.window = 64;
  config.scoring.objective_weights = {0.5, 0.5, 0.5, 0.5};
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.scoring.objective_weights = {0.25, 0.25, 0.25, 0.25};
  EXPECT_NO_THROW(config.validate());
  EXPECT_EQ(config.effective_every(), 1024u)
      << "auto mode defaults the cadence when advise_every is 0";
  config.advise_every = 96;
  EXPECT_EQ(config.effective_every(), 96u);
}

}  // namespace
}  // namespace utilrisk::advise
