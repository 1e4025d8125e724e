// Tests for the workload methods (workload/generator.hpp): spec grammar,
// the method table, spec keys wired to the config fields they name,
// refusal of hostile specs, per-method determinism, and statistical
// properties of the zipf/flash/daly generators.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "exp/experiment.hpp"
#include "exp/scenario.hpp"
#include "service/computing_service.hpp"
#include "sim/rng.hpp"
#include "workload/checkpoint_restart.hpp"
#include "workload/flash_crowd.hpp"
#include "workload/generator.hpp"
#include "workload/synthetic_lublin.hpp"
#include "workload/synthetic_sdsc.hpp"
#include "workload/workload.hpp"
#include "workload/zipfian.hpp"

namespace {

using namespace utilrisk;
using workload::GeneratorSpec;
using workload::Job;

/// Exact (bitwise doubles) equality over every generated field.
void expect_identical(const std::vector<Job>& a, const std::vector<Job>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << "job " << i;
    EXPECT_EQ(a[i].submit_time, b[i].submit_time) << "job " << i;
    EXPECT_EQ(a[i].actual_runtime, b[i].actual_runtime) << "job " << i;
    EXPECT_EQ(a[i].estimated_runtime, b[i].estimated_runtime) << "job " << i;
    EXPECT_EQ(a[i].procs, b[i].procs) << "job " << i;
    EXPECT_EQ(a[i].tenant, b[i].tenant) << "job " << i;
  }
}

// ----------------------------------------------------------- spec grammar

TEST(GeneratorSpec, ParsesNameOnly) {
  const GeneratorSpec spec = GeneratorSpec::parse("sdsc");
  EXPECT_EQ(spec.method, "sdsc");
  EXPECT_TRUE(spec.params.empty());
  EXPECT_EQ(spec.to_string(), "sdsc");
}

TEST(GeneratorSpec, ParsesParamsInOrderAndRoundTrips) {
  const std::string text = "zipf:tenants=1000000,theta=0.99,seed=7";
  const GeneratorSpec spec = GeneratorSpec::parse(text);
  EXPECT_EQ(spec.method, "zipf");
  ASSERT_EQ(spec.params.size(), 3u);
  EXPECT_EQ(spec.params[0].first, "tenants");
  EXPECT_EQ(spec.params[1].second, "0.99");
  EXPECT_EQ(spec.to_string(), text);
}

TEST(GeneratorSpec, RejectsMalformedSpecs) {
  EXPECT_THROW((void)GeneratorSpec::parse(""), std::invalid_argument);
  EXPECT_THROW((void)GeneratorSpec::parse(":a=1"), std::invalid_argument);
  EXPECT_THROW((void)GeneratorSpec::parse("zipf:noequals"),
               std::invalid_argument);
  EXPECT_THROW((void)GeneratorSpec::parse("zipf:=3"), std::invalid_argument);
  EXPECT_THROW((void)GeneratorSpec::parse("zipf:a=1,a=2"),
               std::invalid_argument);
}

TEST(GeneratorSpec, TypedLookupsAndDefaults) {
  GeneratorSpec spec = GeneratorSpec::parse("zipf:theta=0.5,jobs=100");
  EXPECT_DOUBLE_EQ(spec.get_double("theta", 0.99), 0.5);
  EXPECT_DOUBLE_EQ(spec.get_double("absent", 1.5), 1.5);
  EXPECT_EQ(spec.get_u32("jobs", 7), 100u);
  EXPECT_THROW((void)spec.get_u64("theta", 0), std::invalid_argument);

  // set_default never overrides an explicit key.
  spec.set_default("jobs", "999");
  spec.set_default("seed", "31");
  EXPECT_EQ(spec.get_u32("jobs", 0), 100u);
  EXPECT_EQ(spec.get_u64("seed", 0), 31u);
}

TEST(GeneratorSpec, UnknownKeysFailLoudlyAtLoad) {
  EXPECT_THROW((void)workload::generate_jobs("sdsc:jbos=100"),
               std::invalid_argument);
  EXPECT_THROW((void)workload::generate_jobs("zipf:thetta=0.5"),
               std::invalid_argument);
  EXPECT_THROW((void)workload::generate_jobs("nosuchmethod:jobs=10"),
               std::invalid_argument);
}

TEST(GeneratorSpec, FormatDoubleRoundTrips) {
  for (const double value : {0.99, 1969.0, 1.0 / 3.0, 8671.125, 0.02}) {
    const std::string text = workload::format_double(value);
    EXPECT_EQ(std::stod(text), value) << text;
  }
}

// ---------------------------------------------------------------- registry

TEST(GeneratorRegistry, BuiltinsRegisteredInOrder) {
  const auto& methods = workload::registered_generators();
  ASSERT_GE(methods.size(), 7u);
  EXPECT_EQ(methods[0].name, "sdsc");
  EXPECT_EQ(methods[1].name, "lublin");
  EXPECT_EQ(methods[2].name, "swf");
  EXPECT_EQ(methods[3].name, "zipf");
  EXPECT_EQ(methods[4].name, "flash");
  EXPECT_EQ(methods[5].name, "mixshift");
  EXPECT_EQ(methods[6].name, "daly");
  for (const auto& method : methods) {
    EXPECT_FALSE(method.summary.empty()) << method.name;
    EXPECT_TRUE(static_cast<bool>(method.generate)) << method.name;
  }
}

// Every spec key must reach the config field it names: each key is set
// to a value no other field shares, so a method that swaps two field
// assignments generates a different trace.
TEST(GeneratorRegistry, SdscSpecKeysReachTheirConfigFields) {
  workload::SyntheticSdscConfig config;
  config.job_count = 300;
  config.max_procs = 96;
  config.mean_interarrival = 1500.25;
  config.mean_runtime = 7000.5;
  config.runtime_cv = 1.35;
  config.max_runtime = 50000.0;
  config.min_runtime = 30.0;
  config.power_of_two_bias = 0.6;
  config.mean_procs_target = 21.0;
  config.overestimate_fraction = 0.85;
  config.over_factor_lo = 1.3;
  config.over_factor_hi = 4.2;
  config.under_factor_lo = 0.45;
  config.under_factor_hi = 0.9;
  config.queue_limit_mode_fraction = 0.15;
  config.diurnal_amplitude = 0.3;
  config.seed = 20260808;
  const std::vector<Job> direct = workload::generate_synthetic_sdsc(config);
  expect_identical(
      workload::generate_jobs(
          "sdsc:jobs=300,max_procs=96,mean_interarrival=1500.25,"
          "mean_runtime=7000.5,runtime_cv=1.35,max_runtime=50000,"
          "min_runtime=30,power_of_two_bias=0.6,mean_procs_target=21,"
          "overestimate_fraction=0.85,over_factor_lo=1.3,over_factor_hi=4.2,"
          "under_factor_lo=0.45,under_factor_hi=0.9,"
          "queue_limit_mode_fraction=0.15,diurnal_amplitude=0.3,"
          "seed=20260808"),
      direct);
  expect_identical(workload::WorkloadBuilder(config).base_trace(), direct);
}

TEST(GeneratorRegistry, LublinSpecKeysReachTheirConfigFields) {
  workload::SyntheticLublinConfig config;
  config.job_count = 300;
  config.max_procs = 64;
  config.serial_fraction = 0.31;
  config.power_of_two_fraction = 0.66;
  config.mean_interarrival = 1777.5;
  config.arrival_shape = 0.8;
  config.short_shape = 2.5;
  config.short_scale = 450.0;
  config.long_shape = 1.2;
  config.long_scale = 9000.0;
  config.p_short_serial = 0.7;
  config.p_short_wide = 0.4;
  config.max_runtime = 60000.0;
  config.min_runtime = 20.0;
  config.overestimate_fraction = 0.88;
  config.over_factor_lo = 1.15;
  config.over_factor_hi = 3.5;
  config.under_factor_lo = 0.5;
  config.under_factor_hi = 0.97;
  config.seed = 77;
  expect_identical(
      workload::generate_jobs(
          "lublin:jobs=300,max_procs=64,serial_fraction=0.31,"
          "power_of_two_fraction=0.66,mean_interarrival=1777.5,"
          "arrival_shape=0.8,short_shape=2.5,short_scale=450,long_shape=1.2,"
          "long_scale=9000,p_short_serial=0.7,p_short_wide=0.4,"
          "max_runtime=60000,min_runtime=20,overestimate_fraction=0.88,"
          "over_factor_lo=1.15,over_factor_hi=3.5,under_factor_lo=0.5,"
          "under_factor_hi=0.97,seed=77"),
      workload::generate_synthetic_lublin(config));
}

// A non-finite parameter, or a mean large enough to overflow the arrival
// clock, is refused with an error naming the key or the method instead
// of crashing or yielding a trace of infinities.
TEST(GeneratorRegistry, NonFiniteAndOverflowingSpecsAreRefused) {
  const std::pair<const char*, const char*> cases[] = {
      {"lublin:mean_interarrival=nan", "mean_interarrival"},
      {"lublin:mean_interarrival=1e308", "mean_interarrival"},
      {"flash:base=lublin,base.mean_interarrival=1e308", "mean_interarrival"},
      {"mixshift:a=lublin,a.mean_interarrival=nan,t=100", "mean_interarrival"},
      {"sdsc:diurnal_amplitude=1", "diurnal_amplitude"},
      {"sdsc:diurnal_amplitude=-0.1", "diurnal_amplitude"},
      {"sdsc:mean_interarrival=inf", "mean_interarrival"},
      {"sdsc:mean_runtime=inf", "mean_runtime"},
      {"zipf:mean_interarrival=1e308", "'zipf'"},
      {"daly:mean_interarrival=1e308", "'daly'"},
  };
  for (const auto& [spec, named] : cases) {
    SCOPED_TRACE(spec);
    try {
      (void)workload::generate_jobs(GeneratorSpec::parse(spec), 20, 42);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(named), std::string::npos)
          << error.what();
    }
  }
}

// Same spec, two independent runs -> bit-identical stream, for every
// seeded method (the per-seed determinism acceptance criterion).
TEST(GeneratorRegistry, EveryMethodIsDeterministicPerSeed) {
  const std::vector<std::string> specs = {
      "sdsc:jobs=120,seed=5",
      "lublin:jobs=120,seed=5",
      "zipf:jobs=120,seed=5,tenants=10000,theta=0.9",
      "flash:jobs=120,seed=5,peak=6,start=3600,duration=3600",
      "flash:base=lublin,jobs=120,seed=5,diurnal=0.4",
      "daly:jobs=120,seed=5,interval=1800",
  };
  for (const std::string& spec : specs) {
    SCOPED_TRACE(spec);
    expect_identical(workload::generate_jobs(spec),
                     workload::generate_jobs(spec));
  }
}

TEST(GeneratorRegistry, SeedChangesTheStream) {
  const auto a = workload::generate_jobs("zipf:jobs=100,seed=1");
  const auto b = workload::generate_jobs("zipf:jobs=100,seed=2");
  ASSERT_EQ(a.size(), b.size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].actual_runtime != b[i].actual_runtime) ++differing;
  }
  EXPECT_GT(differing, a.size() / 2);
}

// ------------------------------------------------------------------- zipf

TEST(Zipfian, SamplerValidatesArguments) {
  EXPECT_THROW(workload::ZipfianSampler(0, 0.5), std::invalid_argument);
  EXPECT_THROW(workload::ZipfianSampler(10, 1.0), std::invalid_argument);
  EXPECT_THROW(workload::ZipfianSampler(10, -0.1), std::invalid_argument);
}

TEST(Zipfian, RankFrequencySlopeMatchesTheta) {
  // P(rank r) ~ (r+1)^-theta, so a log-log regression of observed
  // frequency on rank recovers -theta.
  const double theta = 0.8;
  const workload::ZipfianSampler sampler(1000, theta);
  sim::Rng rng(123);
  std::map<std::uint64_t, std::uint64_t> counts;
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) ++counts[sampler.sample(rng)];

  // Regress over the well-populated head (ranks 0..49).
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  int n = 0;
  for (std::uint64_t rank = 0; rank < 50; ++rank) {
    const auto it = counts.find(rank);
    ASSERT_NE(it, counts.end()) << "head rank " << rank << " never drawn";
    const double x = std::log(static_cast<double>(rank + 1));
    const double y = std::log(static_cast<double>(it->second));
    sx += x; sy += y; sxx += x * x; sxy += x * y;
    ++n;
  }
  const double slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
  EXPECT_NEAR(slope, -theta, 0.08);
}

TEST(Zipfian, ThetaZeroIsUniform) {
  const workload::ZipfianSampler sampler(100, 0.0);
  sim::Rng rng(7);
  std::vector<std::uint64_t> counts(100, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) ++counts[sampler.sample(rng)];
  // Every rank within 30% of the uniform expectation.
  for (std::uint64_t rank = 0; rank < 100; ++rank) {
    EXPECT_NEAR(static_cast<double>(counts[rank]), draws / 100.0,
                0.3 * draws / 100.0)
        << "rank " << rank;
  }
}

TEST(Zipfian, TenantIdsWithinBoundsAndSkewed) {
  const auto jobs = workload::generate_jobs(
      "zipf:jobs=2000,tenants=1000000,theta=0.99,seed=11");
  ASSERT_EQ(jobs.size(), 2000u);
  std::map<std::uint32_t, std::size_t> per_tenant;
  for (const Job& job : jobs) {
    ASSERT_GE(job.tenant, 1u);
    ASSERT_LE(job.tenant, 1000000u);
    ++per_tenant[job.tenant];
  }
  // Heavy skew: the hottest tenant (rank 1) dominates, yet the long tail
  // still surfaces many distinct tenants.
  EXPECT_GT(per_tenant[1], jobs.size() / 20);
  EXPECT_GT(per_tenant.size(), 100u);
  EXPECT_LT(per_tenant.size(), jobs.size());
}

TEST(Zipfian, LegacyMethodsLeaveTenantZero) {
  for (const Job& job : workload::generate_jobs("sdsc:jobs=50")) {
    EXPECT_EQ(job.tenant, 0u);
  }
}

// ------------------------------------------------------------------ flash

TEST(FlashCrowd, ValidatesKnobs) {
  workload::FlashCrowdParams params;
  params.peak = 0.5;
  EXPECT_THROW(params.validate(), std::invalid_argument);
  params = {};
  params.period = params.duration;  // repeating window must fit its period
  EXPECT_THROW(params.validate(), std::invalid_argument);
  params = {};
  params.diurnal_amplitude = 1.0;
  EXPECT_THROW(params.validate(), std::invalid_argument);
}

TEST(FlashCrowd, RateRatioInsideWindowWithinTolerance) {
  // A Poisson base stream warped by peak=8 must land ~8x the arrivals
  // per unit time inside the window.
  const double peak = 8.0;
  workload::FlashCrowdParams params;
  params.peak = peak;
  params.start = 20000.0;
  params.duration = 20000.0;

  std::vector<Job> jobs;
  sim::Rng rng(99);
  double clock = 0.0;
  for (std::uint32_t i = 0; i < 20000; ++i) {
    Job job;
    job.id = i + 1;
    job.submit_time = clock;
    jobs.push_back(job);
    clock += -std::log(1.0 - rng.uniform01()) * 10.0;  // mean gap 10 s
  }
  workload::apply_rate_modulation(jobs, params);

  std::size_t inside = 0, before = 0;
  for (const Job& job : jobs) {
    if (job.submit_time < params.start) {
      ++before;
    } else if (job.submit_time < params.start + params.duration) {
      ++inside;
    }
  }
  const double rate_before = static_cast<double>(before) / params.start;
  const double rate_inside = static_cast<double>(inside) / params.duration;
  ASSERT_GT(before, 0u);
  ASSERT_GT(inside, 0u);
  EXPECT_NEAR(rate_inside / rate_before, peak, 0.15 * peak);
}

TEST(FlashCrowd, WarpPreservesOrderAndShapes) {
  const auto base = workload::generate_jobs("sdsc:jobs=400,seed=3");
  const auto warped = workload::generate_jobs(
      "flash:jobs=400,seed=3,peak=8,start=6000,duration=6000");
  ASSERT_EQ(base.size(), warped.size());
  EXPECT_EQ(base.front().submit_time, warped.front().submit_time);
  for (std::size_t i = 0; i < base.size(); ++i) {
    // Only submit times move; runtimes/sizes/estimates are untouched.
    EXPECT_EQ(base[i].actual_runtime, warped[i].actual_runtime);
    EXPECT_EQ(base[i].estimated_runtime, warped[i].estimated_runtime);
    EXPECT_EQ(base[i].procs, warped[i].procs);
    if (i > 0) {
      EXPECT_GE(warped[i].submit_time, warped[i - 1].submit_time);
    }
  }
}

TEST(FlashCrowd, PeakOneWithoutDiurnalIsIdentity) {
  expect_identical(
      workload::generate_jobs("flash:base=lublin,jobs=200,seed=5,peak=1"),
      workload::generate_jobs("lublin:jobs=200,seed=5"));
}

TEST(FlashCrowd, ForwardsDottedBaseKeys) {
  expect_identical(
      workload::generate_jobs(
          "flash:base=zipf,base.theta=0.5,base.tenants=500,jobs=150,seed=8,"
          "peak=1"),
      workload::generate_jobs("zipf:theta=0.5,tenants=500,jobs=150,seed=8"));
}

// ------------------------------------------------------------------- daly

TEST(Daly, OptimalIntervalMatchesClosedForm) {
  const double delta = 120.0, m = 86400.0;
  const double x = delta / (2.0 * m);
  const double expected =
      std::sqrt(2.0 * delta * m) * (1.0 + std::sqrt(x) / 3.0 + x / 9.0) -
      delta;
  EXPECT_DOUBLE_EQ(workload::daly_optimal_interval(delta, m), expected);
  // Degenerate regime: dumps cost more than the work they protect.
  EXPECT_DOUBLE_EQ(workload::daly_optimal_interval(10000.0, 3600.0), 3600.0);
  EXPECT_THROW((void)workload::daly_optimal_interval(0.0, 3600.0),
               std::invalid_argument);
}

TEST(Daly, RuntimeCarriesCheckpointOverhead) {
  workload::DalyCheckpointConfig config;
  config.job_count = 300;
  config.seed = 12;
  config.checkpoint_interval = 1800.0;
  config.checkpoint_write_seconds = 120.0;
  const auto jobs = workload::generate_daly_checkpoint(config);
  ASSERT_EQ(jobs.size(), 300u);
  for (const Job& job : jobs) {
    // runtime = solve + dumps*delta with one dump per completed interval,
    // so runtime mod (interval + delta-per-interval structure) implies
    // runtime >= solve >= min_solve and the overhead is a whole multiple
    // of delta.
    EXPECT_GE(job.actual_runtime, config.min_solve);
    EXPECT_GE(job.estimated_runtime, job.actual_runtime);
  }

  // More frequent dumps (same seed => same solve draws) => more overhead.
  workload::DalyCheckpointConfig frequent = config;
  frequent.checkpoint_interval = 600.0;
  const auto dumped_more = workload::generate_daly_checkpoint(frequent);
  double total = 0.0, total_frequent = 0.0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    total += jobs[i].actual_runtime;
    total_frequent += dumped_more[i].actual_runtime;
  }
  EXPECT_GT(total_frequent, total);
}

TEST(Daly, IntervalZeroResolvesToOptimum) {
  workload::DalyCheckpointConfig config;
  EXPECT_DOUBLE_EQ(workload::resolved_checkpoint_interval(config),
                   workload::daly_optimal_interval(
                       config.checkpoint_write_seconds, config.mtti_seconds));
  config.checkpoint_interval = 777.0;
  EXPECT_DOUBLE_EQ(workload::resolved_checkpoint_interval(config), 777.0);
}

// ------------------------------------------------- experiment integration

TEST(MixShift, SpliceKeepsPhaseABeforeTAndShiftsPhaseB) {
  const double t = 40000.0;
  const std::vector<Job> phase_a =
      workload::generate_jobs("sdsc:jobs=60,seed=5");
  const std::vector<Job> phase_b =
      workload::generate_jobs("zipf:jobs=60,seed=5,tenants=16");
  const std::vector<Job> spliced = workload::generate_jobs(
      "mixshift:a=sdsc,b=zipf,b.tenants=16,t=40000,jobs=60,seed=5");

  ASSERT_EQ(spliced.size(), 60u) << "jobs caps the spliced total";
  std::size_t cut = 0;
  while (cut < phase_a.size() && phase_a[cut].submit_time < t) ++cut;
  ASSERT_GT(cut, 0u) << "the switch time must land inside phase a";
  ASSERT_LT(cut, spliced.size()) << "and leave room for phase b";
  for (std::size_t i = 0; i < spliced.size(); ++i) {
    EXPECT_EQ(spliced[i].id, static_cast<workload::JobId>(i + 1))
        << "ids renumber 1..N across the splice";
    if (i > 0) {
      EXPECT_GE(spliced[i].submit_time, spliced[i - 1].submit_time)
          << "submission order survives the splice";
    }
    if (i < cut) {
      EXPECT_EQ(spliced[i].submit_time, phase_a[i].submit_time);
      EXPECT_EQ(spliced[i].actual_runtime, phase_a[i].actual_runtime);
      EXPECT_EQ(spliced[i].tenant, phase_a[i].tenant);
    } else {
      const Job& original = phase_b[i - cut];
      EXPECT_GE(spliced[i].submit_time, t);
      EXPECT_EQ(spliced[i].submit_time, original.submit_time + t);
      EXPECT_EQ(spliced[i].actual_runtime, original.actual_runtime);
      EXPECT_EQ(spliced[i].tenant, original.tenant)
          << "phase b keeps its tenant attribution";
    }
  }
}

TEST(MixShift, DeterministicAndSeedForwardsToBothPhases) {
  const std::string spec =
      "mixshift:a=sdsc,b=lublin,t=30000,jobs=80,seed=21";
  expect_identical(workload::generate_jobs(spec),
                   workload::generate_jobs(spec));
  // An explicit per-phase seed changes only that phase's stream.
  const std::vector<Job> reseeded = workload::generate_jobs(
      "mixshift:a=sdsc,b=lublin,b.seed=99,t=30000,jobs=80,seed=21");
  const std::vector<Job> base = workload::generate_jobs(spec);
  ASSERT_EQ(base.size(), reseeded.size());
  bool diverged = false;
  for (std::size_t i = 0; i < base.size(); ++i) {
    if (base[i].submit_time < 30000.0) {
      EXPECT_EQ(base[i].actual_runtime, reseeded[i].actual_runtime)
          << "phase a is untouched by b.seed";
    } else if (base[i].actual_runtime != reseeded[i].actual_runtime) {
      diverged = true;
    }
  }
  EXPECT_TRUE(diverged) << "b.seed must actually reseed phase b";
}

TEST(MixShift, ComposesWithFlashOnEitherSide) {
  // A flash-crowd phase a inside the splice...
  const std::vector<Job> inner = workload::generate_jobs(
      "mixshift:a=flash,a.peak=4,a.start=3600,a.duration=3600,b=zipf,"
      "t=30000,jobs=50,seed=3");
  EXPECT_EQ(inner.size(), 50u);
  // ...and a mixshift as the base of an outer flash warp.
  const std::vector<Job> outer = workload::generate_jobs(
      "flash:base=mixshift,base.a=sdsc,base.b=zipf,base.t=30000,peak=4,"
      "jobs=50,seed=3");
  EXPECT_EQ(outer.size(), 50u);
}

TEST(MixShift, RejectsUnknownKeysAndBadSwitchTimes) {
  EXPECT_THROW((void)workload::generate_jobs("mixshift:bogus=1"),
               std::invalid_argument);
  EXPECT_THROW((void)workload::generate_jobs("mixshift:c.jobs=5"),
               std::invalid_argument)
      << "only a.* and b.* forward";
  EXPECT_THROW((void)workload::generate_jobs("mixshift:t=0,jobs=10"),
               std::invalid_argument);
  EXPECT_THROW((void)workload::generate_jobs("mixshift:t=-5,jobs=10"),
               std::invalid_argument);
  EXPECT_THROW((void)workload::generate_jobs("mixshift:t=nope,jobs=10"),
               std::invalid_argument);
}

TEST(ExperimentWiring, RunKeyUnchangedWithoutWorkloadSpec) {
  exp::ExperimentConfig config;
  const std::string key =
      config.run_key(policy::PolicyKind::Libra, config.default_settings());
  EXPECT_EQ(key.find("wload="), std::string::npos);
}

TEST(ExperimentWiring, RunKeyIncludesWorkloadSpecs) {
  exp::ExperimentConfig config;
  config.workload = "zipf:theta=0.9";
  exp::RunSettings settings = config.default_settings();
  const std::string base_key =
      config.run_key(policy::PolicyKind::Libra, settings);
  EXPECT_NE(base_key.find(";wload=zipf:theta=0.9"), std::string::npos);

  settings.workload = "daly:interval=900";
  const std::string per_run_key =
      config.run_key(policy::PolicyKind::Libra, settings);
  EXPECT_NE(per_run_key.find(";wload=daly:interval=900"), std::string::npos);
  EXPECT_NE(per_run_key, base_key);
}

TEST(ExperimentWiring, MakeBuilderInjectsJobsAndSeed) {
  exp::ExperimentConfig config;
  config.trace.job_count = 123;
  config.trace.seed = 55;
  config.workload = "zipf:theta=0.5";
  const workload::WorkloadBuilder builder = config.make_builder();
  EXPECT_EQ(builder.base_trace().size(), 123u);
  expect_identical(
      builder.base_trace(),
      workload::generate_jobs("zipf:theta=0.5,jobs=123,seed=55"));
}

TEST(ExperimentWiring, ExtensionScenariosResolveByName) {
  EXPECT_EQ(exp::scenario_by_name("zipf").values.size(),
            exp::kValuesPerScenario);
  EXPECT_EQ(exp::scenario_by_name("flash").values.size(),
            exp::kValuesPerScenario);
  EXPECT_EQ(exp::scenario_by_name("daly").values.size(),
            exp::kValuesPerScenario);
  EXPECT_THROW((void)exp::scenario_by_name("bogus"), std::invalid_argument);

  // The extensions must not join the Table VI set.
  for (const exp::Scenario& scenario : exp::all_scenarios()) {
    EXPECT_NE(scenario.name, "zipf");
    EXPECT_NE(scenario.name, "flash");
    EXPECT_NE(scenario.name, "daly");
  }
}

TEST(ExperimentWiring, ZipfScenarioSetsWorkloadSpec) {
  const exp::Scenario& scenario = exp::scenario_by_name("zipf");
  exp::RunSettings defaults;
  const exp::RunSettings settings = scenario.settings_for(defaults, 5);
  EXPECT_EQ(settings.workload, "zipf:theta=0.99");
}

TEST(ExperimentWiring, DalyScenarioEnablesRecoveryPath) {
  const exp::Scenario& scenario = exp::scenario_by_name("daly");
  exp::RunSettings defaults;
  const exp::RunSettings settings = scenario.settings_for(defaults, 0);
  EXPECT_EQ(settings.workload, "daly:interval=900");
  EXPECT_TRUE(settings.failure.enabled());
  EXPECT_GT(settings.recovery.retry_limit, 0u);
  EXPECT_DOUBLE_EQ(settings.recovery.checkpoint_interval, 900.0);
}

TEST(ExperimentWiring, PerRunWorkloadChangesSimulatedJobs) {
  exp::ExperimentConfig config;
  config.trace.job_count = 80;
  const workload::WorkloadBuilder builder = config.make_builder();

  exp::RunSettings defaults = config.default_settings();
  const auto base_report = exp::simulate_run_report(
      config, builder, policy::PolicyKind::Libra, defaults);

  exp::RunSettings zipf = defaults;
  zipf.workload = "zipf:theta=0.9";
  const auto zipf_report = exp::simulate_run_report(
      config, builder, policy::PolicyKind::Libra, zipf);
  EXPECT_NE(base_report.digest, zipf_report.digest);

  // And deterministically: the same spec twice gives the same digest.
  const auto zipf_again = exp::simulate_run_report(
      config, builder, policy::PolicyKind::Libra, zipf);
  EXPECT_EQ(zipf_report.digest, zipf_again.digest);
}

}  // namespace
