#include "workload/synthetic_sdsc.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "sim/distributions.hpp"
#include "sim/time.hpp"

namespace utilrisk::workload {

namespace {

/// Empirical power-of-two weights for k in 2^k, calibrated together with
/// the log-uniform non-power-of-two branch so the overall job-size mean
/// lands at ~17 processors on a 128-node machine (the published subset
/// figure).
const std::vector<double>& p2_exponent_weights() {
  static const std::vector<double> weights = {0.22, 0.19, 0.17, 0.14,
                                              0.11, 0.09, 0.06, 0.02};
  return weights;
}

std::uint32_t sample_sdsc_job_size(sim::Rng& rng,
                                   const SyntheticSdscConfig& cfg) {
  const int max_exp =
      static_cast<int>(std::floor(std::log2(static_cast<double>(cfg.max_procs))));
  if (rng.bernoulli(cfg.power_of_two_bias)) {
    auto weights = p2_exponent_weights();
    if (static_cast<int>(weights.size()) > max_exp + 1) {
      weights.resize(static_cast<std::size_t>(max_exp) + 1);
    }
    const auto k = sim::sample_discrete(rng, weights);
    return std::min<std::uint32_t>(cfg.max_procs, 1u << k);
  }
  // Log-uniform over [1, max_procs]: matches the small-job-dominated size
  // mix of production traces better than a flat uniform.
  const double log_max = std::log2(static_cast<double>(cfg.max_procs));
  const double size = std::exp2(rng.uniform(0.0, log_max));
  return std::clamp<std::uint32_t>(static_cast<std::uint32_t>(std::round(size)),
                                   1u, cfg.max_procs);
}

double sample_sdsc_runtime(sim::Rng& rng, const SyntheticSdscConfig& cfg) {
  // The 18 h cap truncates the lognormal's heavy tail and would pull the
  // realised mean ~5 % under target; pre-inflate to compensate.
  constexpr double kTruncationCompensation = 1.055;
  const double raw = sim::sample_lognormal_mean_cv(
      rng, cfg.mean_runtime * kTruncationCompensation, cfg.runtime_cv);
  return std::clamp(raw, cfg.min_runtime, cfg.max_runtime);
}

double sample_estimate(sim::Rng& rng, const SyntheticSdscConfig& cfg,
                       double actual) {
  if (rng.bernoulli(cfg.overestimate_fraction)) {
    if (rng.bernoulli(cfg.queue_limit_mode_fraction)) {
      // Users who simply request the queue limit (modal estimate).
      return cfg.max_runtime;
    }
    const double factor = rng.uniform(cfg.over_factor_lo, cfg.over_factor_hi);
    // Users request round values: round *up* to 5-minute granularity so
    // the estimate stays an over-estimate; the queue limit caps everything
    // (actual runtimes are already clamped below it).
    double est = std::ceil(actual * factor / 300.0) * 300.0;
    est = std::min(est, cfg.max_runtime);
    return std::max(est, actual);
  }
  const double factor = rng.uniform(cfg.under_factor_lo, cfg.under_factor_hi);
  return std::max(1.0, actual * factor);  // factor < 1 keeps it an under-estimate
}

}  // namespace

std::vector<Job> generate_synthetic_sdsc(const SyntheticSdscConfig& cfg) {
  if (cfg.job_count == 0) {
    throw std::invalid_argument("generate_synthetic_sdsc: job_count == 0");
  }
  if (cfg.max_procs == 0) {
    throw std::invalid_argument("generate_synthetic_sdsc: max_procs == 0");
  }
  if (cfg.mean_interarrival <= 0.0 || cfg.mean_runtime <= 0.0) {
    throw std::invalid_argument(
        "generate_synthetic_sdsc: means must be positive");
  }
  if (cfg.overestimate_fraction < 0.0 || cfg.overestimate_fraction > 1.0) {
    throw std::invalid_argument(
        "generate_synthetic_sdsc: overestimate_fraction outside [0,1]");
  }
  if (!(cfg.diurnal_amplitude >= 0.0 && cfg.diurnal_amplitude < 1.0)) {
    throw std::invalid_argument(
        "generate_synthetic_sdsc: diurnal_amplitude outside [0,1)");
  }

  sim::Rng rng(cfg.seed);
  // Independent streams per attribute so tweaking one knob (e.g. estimate
  // factors) does not reshuffle arrivals or runtimes.
  sim::Rng arrivals = rng.split();
  sim::Rng sizes = rng.split();
  sim::Rng runtimes = rng.split();
  sim::Rng estimates = rng.split();

  std::vector<Job> jobs;
  jobs.reserve(cfg.job_count);

  double clock = 0.0;
  for (std::uint32_t i = 0; i < cfg.job_count; ++i) {
    Job job;
    job.id = i + 1;
    job.submit_time = clock;
    job.procs = sample_sdsc_job_size(sizes, cfg);
    job.actual_runtime = sample_sdsc_runtime(runtimes, cfg);
    job.estimated_runtime = sample_estimate(estimates, cfg, job.actual_runtime);

    jobs.push_back(job);

    // Diurnal modulation: arrivals thin out at "night". Arrivals sample
    // the day-phase with density ~ 1/modulation (more jobs land where the
    // gaps are short), which biases the realised mean gap down to
    // target * sqrt(1 - A^2); pre-dividing by that factor restores
    // cfg.mean_interarrival as the long-run mean.
    const double amplitude = cfg.diurnal_amplitude;
    const double length_bias = std::sqrt(1.0 - amplitude * amplitude);
    const double phase =
        2.0 * M_PI * std::fmod(clock, sim::duration::kDay) / sim::duration::kDay;
    const double modulation = 1.0 - amplitude * std::sin(phase);
    clock += sim::sample_exponential(
                 arrivals, cfg.mean_interarrival / length_bias) *
             modulation;
  }
  return jobs;
}

}  // namespace utilrisk::workload
