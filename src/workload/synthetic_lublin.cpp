#include "workload/synthetic_lublin.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "sim/distributions.hpp"
#include "sim/time.hpp"

namespace utilrisk::workload {

namespace {

/// Empirical daily arrival-rate profile (relative weights per hour),
/// shaped after the Lublin-Feitelson day cycle: a deep night trough and a
/// broad 9:00-17:00 plateau. Normalised at use.
constexpr std::array<double, 24> kHourlyRate = {
    0.4, 0.3, 0.25, 0.2, 0.2, 0.25, 0.4, 0.7, 1.1, 1.5, 1.7, 1.8,
    1.7, 1.8, 1.8,  1.7, 1.6, 1.4,  1.1, 0.9, 0.8, 0.7, 0.6, 0.5};

double mean_hourly_rate() {
  double sum = 0.0;
  for (double r : kHourlyRate) sum += r;
  return sum / static_cast<double>(kHourlyRate.size());
}

std::uint32_t sample_lublin_size(sim::Rng& rng,
                                 const SyntheticLublinConfig& cfg) {
  if (rng.bernoulli(cfg.serial_fraction)) return 1;
  // Parallel sizes: log-uniform over [2, max_procs], with power-of-two
  // rounding for the configured fraction.
  const double log_lo = std::log2(2.0);
  const double log_hi = std::log2(static_cast<double>(cfg.max_procs));
  const double raw = std::exp2(rng.uniform(log_lo, log_hi));
  if (rng.bernoulli(cfg.power_of_two_fraction)) {
    const double rounded = std::exp2(std::round(std::log2(raw)));
    return std::clamp<std::uint32_t>(
        static_cast<std::uint32_t>(rounded), 2u, cfg.max_procs);
  }
  return std::clamp<std::uint32_t>(static_cast<std::uint32_t>(std::round(raw)),
                                   2u, cfg.max_procs);
}

double sample_lublin_runtime(sim::Rng& rng, const SyntheticLublinConfig& cfg,
                             std::uint32_t procs) {
  // Hyper-gamma: mix of a short and a long gamma mode; wide jobs skew
  // toward the long mode (the size/runtime correlation Lublin models).
  const double width =
      std::log2(static_cast<double>(procs) + 1.0) /
      std::log2(static_cast<double>(cfg.max_procs) + 1.0);
  const double p_short =
      cfg.p_short_serial + (cfg.p_short_wide - cfg.p_short_serial) * width;
  const double runtime =
      rng.bernoulli(p_short)
          ? sim::sample_gamma(rng, cfg.short_shape, cfg.short_scale)
          : sim::sample_gamma(rng, cfg.long_shape, cfg.long_scale);
  return std::clamp(runtime, cfg.min_runtime, cfg.max_runtime);
}

double sample_lublin_estimate(sim::Rng& rng,
                              const SyntheticLublinConfig& cfg,
                              double actual) {
  if (rng.bernoulli(cfg.overestimate_fraction)) {
    double est = std::ceil(
                     actual * rng.uniform(cfg.over_factor_lo,
                                          cfg.over_factor_hi) / 300.0) *
                 300.0;
    est = std::min(est, cfg.max_runtime);
    return std::max(est, actual);
  }
  return std::max(1.0,
                  actual * rng.uniform(cfg.under_factor_lo,
                                       cfg.under_factor_hi));
}

}  // namespace

std::vector<Job> generate_synthetic_lublin(
    const SyntheticLublinConfig& cfg) {
  if (cfg.job_count == 0 || cfg.max_procs == 0) {
    throw std::invalid_argument(
        "generate_synthetic_lublin: empty trace or machine");
  }
  if (cfg.mean_interarrival <= 0.0 || cfg.arrival_shape <= 0.0) {
    throw std::invalid_argument(
        "generate_synthetic_lublin: arrival parameters must be positive");
  }
  if (cfg.serial_fraction < 0.0 || cfg.serial_fraction > 1.0 ||
      cfg.overestimate_fraction < 0.0 || cfg.overestimate_fraction > 1.0) {
    throw std::invalid_argument(
        "generate_synthetic_lublin: fractions outside [0,1]");
  }

  sim::Rng rng(cfg.seed);
  sim::Rng arrivals = rng.split();
  sim::Rng sizes = rng.split();
  sim::Rng runtimes = rng.split();
  sim::Rng estimates = rng.split();

  std::vector<Job> jobs;
  jobs.reserve(cfg.job_count);

  // Gamma inter-arrivals, locally slowed down by the inverse hourly rate.
  // Unlike the sinusoidal modulation in synthetic_sdsc.cpp, this form has
  // no length bias: arrivals sample hour h with density rate_h, the gap
  // there is X * rate_mean / rate_h, and the rate-weighted mean of
  // rate_mean / rate_h is exactly 1 — so the realised long-run mean gap
  // equals E[X] = shape * scale with no correction factor.
  const double rate_mean = mean_hourly_rate();
  const double gamma_scale = cfg.mean_interarrival / cfg.arrival_shape;

  double clock = 0.0;
  for (std::uint32_t i = 0; i < cfg.job_count; ++i) {
    Job job;
    job.id = i + 1;
    job.submit_time = clock;
    job.procs = sample_lublin_size(sizes, cfg);
    job.actual_runtime = sample_lublin_runtime(runtimes, cfg, job.procs);
    job.estimated_runtime =
        sample_lublin_estimate(estimates, cfg, job.actual_runtime);
    jobs.push_back(job);

    // A huge mean can overflow the clock; the hour index below needs a
    // finite one.
    if (!std::isfinite(clock)) {
      throw std::invalid_argument(
          "generate_synthetic_lublin: arrival clock overflowed "
          "(mean_interarrival too large)");
    }
    const int hour = static_cast<int>(
        std::fmod(clock, sim::duration::kDay) / sim::duration::kHour);
    const double slowdown =
        rate_mean / kHourlyRate[static_cast<std::size_t>(hour)];
    clock += sim::sample_gamma(arrivals, cfg.arrival_shape, gamma_scale) *
             slowdown;
  }
  return jobs;
}

}  // namespace utilrisk::workload
