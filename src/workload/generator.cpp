#include "workload/generator.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <system_error>

#include "workload/checkpoint_restart.hpp"
#include "workload/flash_crowd.hpp"
#include "workload/mix_shift.hpp"
#include "workload/swf.hpp"
#include "workload/synthetic_lublin.hpp"
#include "workload/synthetic_sdsc.hpp"
#include "workload/zipfian.hpp"

namespace utilrisk::workload {

namespace {

[[noreturn]] void bad_spec(const std::string& what) {
  throw std::invalid_argument("workload spec: " + what);
}

double parse_double(const std::string& key, const std::string& value) {
  const char* begin = value.c_str();
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(begin, &end);
  if (end != begin + value.size() || value.empty() || errno == ERANGE ||
      !std::isfinite(parsed)) {
    bad_spec("parameter '" + key + "' is not a finite number: '" + value +
             "'");
  }
  return parsed;
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  std::uint64_t parsed = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), parsed);
  if (ec != std::errc{} || ptr != value.data() + value.size()) {
    bad_spec("parameter '" + key + "' is not an unsigned integer: '" + value +
             "'");
  }
  return parsed;
}

/// True when `key` is "<prefix>.<something>".
bool forwards_under(const std::string& key, const std::string& prefix) {
  return key.size() > prefix.size() + 1 &&
         key.compare(0, prefix.size(), prefix) == 0 &&
         key[prefix.size()] == '.';
}

}  // namespace

GeneratorSpec GeneratorSpec::parse(const std::string& text) {
  GeneratorSpec spec;
  const auto colon = text.find(':');
  spec.method = text.substr(0, colon);
  if (spec.method.empty()) bad_spec("empty method name in '" + text + "'");
  if (colon == std::string::npos) return spec;

  std::size_t pos = colon + 1;
  while (pos <= text.size()) {
    const auto comma = text.find(',', pos);
    const std::string item =
        text.substr(pos, comma == std::string::npos ? comma : comma - pos);
    const auto eq = item.find('=');
    if (eq == std::string::npos) {
      bad_spec("parameter '" + item + "' has no '=' in '" + text + "'");
    }
    std::string key = item.substr(0, eq);
    if (key.empty()) bad_spec("empty parameter key in '" + text + "'");
    if (spec.find(key) != nullptr) {
      bad_spec("parameter '" + key + "' repeats in '" + text + "'");
    }
    spec.params.emplace_back(std::move(key), item.substr(eq + 1));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return spec;
}

std::string GeneratorSpec::to_string() const {
  std::string out = method;
  char sep = ':';
  for (const auto& [key, value] : params) {
    out += sep;
    out += key;
    out += '=';
    out += value;
    sep = ',';
  }
  return out;
}

const std::string* GeneratorSpec::find(const std::string& key) const {
  for (const auto& [k, v] : params) {
    if (k == key) return &v;
  }
  return nullptr;
}

void GeneratorSpec::set_default(const std::string& key,
                                const std::string& value) {
  if (find(key) == nullptr) params.emplace_back(key, value);
}

double GeneratorSpec::get_double(const std::string& key,
                                 double fallback) const {
  const std::string* value = find(key);
  return value ? parse_double(key, *value) : fallback;
}

std::uint64_t GeneratorSpec::get_u64(const std::string& key,
                                     std::uint64_t fallback) const {
  const std::string* value = find(key);
  return value ? parse_u64(key, *value) : fallback;
}

std::uint32_t GeneratorSpec::get_u32(const std::string& key,
                                     std::uint32_t fallback) const {
  const std::string* value = find(key);
  if (value == nullptr) return fallback;
  const std::uint64_t wide = parse_u64(key, *value);
  if (wide > 0xFFFFFFFFULL) {
    bad_spec("parameter '" + key + "' exceeds 32 bits: '" + *value + "'");
  }
  return static_cast<std::uint32_t>(wide);
}

std::string GeneratorSpec::get_string(const std::string& key,
                                      const std::string& fallback) const {
  const std::string* value = find(key);
  return value ? *value : fallback;
}

void GeneratorSpec::require_known(
    const std::vector<std::string>& known,
    const std::vector<std::string>& dotted_prefixes) const {
  for (const auto& [key, value] : params) {
    bool ok = false;
    for (const auto& k : known) ok = ok || key == k;
    for (const auto& prefix : dotted_prefixes) {
      ok = ok || forwards_under(key, prefix);
    }
    if (!ok) {
      bad_spec("unknown parameter '" + key + "' for method '" + method + "'");
    }
  }
}

std::string format_double(double value) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc{}) bad_spec("unformattable double");
  return std::string(buf, ptr);
}

namespace {

std::vector<Job> sdsc(const GeneratorSpec& spec) {
  spec.require_known(
      {"jobs", "max_procs", "mean_interarrival", "mean_runtime", "runtime_cv",
       "max_runtime", "min_runtime", "power_of_two_bias", "mean_procs_target",
       "overestimate_fraction", "over_factor_lo", "over_factor_hi",
       "under_factor_lo", "under_factor_hi", "queue_limit_mode_fraction",
       "diurnal_amplitude", "seed"});
  SyntheticSdscConfig cfg;
  cfg.job_count = spec.get_u32("jobs", cfg.job_count);
  cfg.max_procs = spec.get_u32("max_procs", cfg.max_procs);
  cfg.mean_interarrival =
      spec.get_double("mean_interarrival", cfg.mean_interarrival);
  cfg.mean_runtime = spec.get_double("mean_runtime", cfg.mean_runtime);
  cfg.runtime_cv = spec.get_double("runtime_cv", cfg.runtime_cv);
  cfg.max_runtime = spec.get_double("max_runtime", cfg.max_runtime);
  cfg.min_runtime = spec.get_double("min_runtime", cfg.min_runtime);
  cfg.power_of_two_bias =
      spec.get_double("power_of_two_bias", cfg.power_of_two_bias);
  cfg.mean_procs_target =
      spec.get_double("mean_procs_target", cfg.mean_procs_target);
  cfg.overestimate_fraction =
      spec.get_double("overestimate_fraction", cfg.overestimate_fraction);
  cfg.over_factor_lo = spec.get_double("over_factor_lo", cfg.over_factor_lo);
  cfg.over_factor_hi = spec.get_double("over_factor_hi", cfg.over_factor_hi);
  cfg.under_factor_lo = spec.get_double("under_factor_lo", cfg.under_factor_lo);
  cfg.under_factor_hi = spec.get_double("under_factor_hi", cfg.under_factor_hi);
  cfg.queue_limit_mode_fraction = spec.get_double(
      "queue_limit_mode_fraction", cfg.queue_limit_mode_fraction);
  cfg.diurnal_amplitude =
      spec.get_double("diurnal_amplitude", cfg.diurnal_amplitude);
  cfg.seed = spec.get_u64("seed", cfg.seed);
  return generate_synthetic_sdsc(cfg);
}

std::vector<Job> lublin(const GeneratorSpec& spec) {
  spec.require_known(
      {"jobs", "max_procs", "serial_fraction", "power_of_two_fraction",
       "mean_interarrival", "arrival_shape", "short_shape", "short_scale",
       "long_shape", "long_scale", "p_short_serial", "p_short_wide",
       "max_runtime", "min_runtime", "overestimate_fraction", "over_factor_lo",
       "over_factor_hi", "under_factor_lo", "under_factor_hi", "seed"});
  SyntheticLublinConfig cfg;
  cfg.job_count = spec.get_u32("jobs", cfg.job_count);
  cfg.max_procs = spec.get_u32("max_procs", cfg.max_procs);
  cfg.serial_fraction = spec.get_double("serial_fraction", cfg.serial_fraction);
  cfg.power_of_two_fraction =
      spec.get_double("power_of_two_fraction", cfg.power_of_two_fraction);
  cfg.mean_interarrival =
      spec.get_double("mean_interarrival", cfg.mean_interarrival);
  cfg.arrival_shape = spec.get_double("arrival_shape", cfg.arrival_shape);
  cfg.short_shape = spec.get_double("short_shape", cfg.short_shape);
  cfg.short_scale = spec.get_double("short_scale", cfg.short_scale);
  cfg.long_shape = spec.get_double("long_shape", cfg.long_shape);
  cfg.long_scale = spec.get_double("long_scale", cfg.long_scale);
  cfg.p_short_serial = spec.get_double("p_short_serial", cfg.p_short_serial);
  cfg.p_short_wide = spec.get_double("p_short_wide", cfg.p_short_wide);
  cfg.max_runtime = spec.get_double("max_runtime", cfg.max_runtime);
  cfg.min_runtime = spec.get_double("min_runtime", cfg.min_runtime);
  cfg.overestimate_fraction =
      spec.get_double("overestimate_fraction", cfg.overestimate_fraction);
  cfg.over_factor_lo = spec.get_double("over_factor_lo", cfg.over_factor_lo);
  cfg.over_factor_hi = spec.get_double("over_factor_hi", cfg.over_factor_hi);
  cfg.under_factor_lo = spec.get_double("under_factor_lo", cfg.under_factor_lo);
  cfg.under_factor_hi = spec.get_double("under_factor_hi", cfg.under_factor_hi);
  cfg.seed = spec.get_u64("seed", cfg.seed);
  return generate_synthetic_lublin(cfg);
}

std::vector<Job> swf(const GeneratorSpec& spec) {
  // `seed` is accepted (the harness injects it uniformly) but a trace
  // replay has no entropy to seed.
  spec.require_known(
      {"path", "jobs", "completed_only", "drop_degenerate", "rebase", "seed"});
  const std::string path = spec.get_string("path", "");
  if (path.empty()) bad_spec("method 'swf' requires path=<file.swf>");
  SwfLoadOptions options;
  options.completed_only = spec.get_u32("completed_only", 1) != 0;
  options.drop_degenerate = spec.get_u32("drop_degenerate", 1) != 0;
  options.keep_last = spec.get_u64("jobs", 0);
  options.rebase_submit_times = spec.get_u32("rebase", 1) != 0;
  return load_swf(path, options).jobs;
}

std::vector<Job> zipf(const GeneratorSpec& spec) {
  spec.require_known(
      {"jobs", "tenants", "theta", "mean_interarrival", "max_procs",
       "power_of_two_bias", "mean_runtime", "runtime_cv", "max_runtime",
       "min_runtime", "overestimate_fraction", "over_factor_lo",
       "over_factor_hi", "under_factor_lo", "under_factor_hi", "seed"});
  ZipfianMultiTenantConfig cfg;
  cfg.job_count = spec.get_u32("jobs", cfg.job_count);
  cfg.tenant_count = spec.get_u64("tenants", cfg.tenant_count);
  cfg.theta = spec.get_double("theta", cfg.theta);
  cfg.mean_interarrival =
      spec.get_double("mean_interarrival", cfg.mean_interarrival);
  cfg.max_procs = spec.get_u32("max_procs", cfg.max_procs);
  cfg.power_of_two_bias =
      spec.get_double("power_of_two_bias", cfg.power_of_two_bias);
  cfg.mean_runtime = spec.get_double("mean_runtime", cfg.mean_runtime);
  cfg.runtime_cv = spec.get_double("runtime_cv", cfg.runtime_cv);
  cfg.max_runtime = spec.get_double("max_runtime", cfg.max_runtime);
  cfg.min_runtime = spec.get_double("min_runtime", cfg.min_runtime);
  cfg.overestimate_fraction =
      spec.get_double("overestimate_fraction", cfg.overestimate_fraction);
  cfg.over_factor_lo = spec.get_double("over_factor_lo", cfg.over_factor_lo);
  cfg.over_factor_hi = spec.get_double("over_factor_hi", cfg.over_factor_hi);
  cfg.under_factor_lo = spec.get_double("under_factor_lo", cfg.under_factor_lo);
  cfg.under_factor_hi = spec.get_double("under_factor_hi", cfg.under_factor_hi);
  cfg.seed = spec.get_u64("seed", cfg.seed);
  return generate_zipfian_multi_tenant(cfg);
}

std::vector<Job> daly(const GeneratorSpec& spec) {
  spec.require_known({"jobs", "max_procs", "power_of_two_bias",
                      "mean_interarrival", "mean_solve", "solve_cv",
                      "min_solve", "max_solve", "checkpoint_write", "interval",
                      "mtti", "pad_lo", "pad_hi", "seed"});
  DalyCheckpointConfig cfg;
  cfg.job_count = spec.get_u32("jobs", cfg.job_count);
  cfg.max_procs = spec.get_u32("max_procs", cfg.max_procs);
  cfg.power_of_two_bias =
      spec.get_double("power_of_two_bias", cfg.power_of_two_bias);
  cfg.mean_interarrival =
      spec.get_double("mean_interarrival", cfg.mean_interarrival);
  cfg.mean_solve = spec.get_double("mean_solve", cfg.mean_solve);
  cfg.solve_cv = spec.get_double("solve_cv", cfg.solve_cv);
  cfg.min_solve = spec.get_double("min_solve", cfg.min_solve);
  cfg.max_solve = spec.get_double("max_solve", cfg.max_solve);
  cfg.checkpoint_write_seconds =
      spec.get_double("checkpoint_write", cfg.checkpoint_write_seconds);
  cfg.checkpoint_interval =
      spec.get_double("interval", cfg.checkpoint_interval);
  cfg.mtti_seconds = spec.get_double("mtti", cfg.mtti_seconds);
  cfg.estimate_pad_lo = spec.get_double("pad_lo", cfg.estimate_pad_lo);
  cfg.estimate_pad_hi = spec.get_double("pad_hi", cfg.estimate_pad_hi);
  cfg.seed = spec.get_u64("seed", cfg.seed);
  return generate_daly_checkpoint(cfg);
}

/// The inner spec a composing method forwards under `prefix`: method
/// `prefix` (else `fallback`), every "prefix.K=V" as K=V, and the outer
/// jobs/seed as defaults (an explicit prefix.jobs / prefix.seed wins).
GeneratorSpec forwarded(const GeneratorSpec& outer, const std::string& prefix,
                        const std::string& fallback) {
  GeneratorSpec inner;
  inner.method = outer.get_string(prefix, fallback);
  for (const auto& [key, value] : outer.params) {
    if (forwards_under(key, prefix)) {
      inner.params.emplace_back(key.substr(prefix.size() + 1), value);
    }
  }
  for (const char* key : {"jobs", "seed"}) {
    if (const std::string* value = outer.find(key)) {
      inner.set_default(key, *value);
    }
  }
  return inner;
}

std::vector<Job> flash(const GeneratorSpec& spec) {
  spec.require_known(
      {"base", "peak", "start", "duration", "period", "diurnal", "jobs",
       "seed"},
      {"base"});
  std::vector<Job> jobs = generate_jobs(forwarded(spec, "base", "sdsc"));
  FlashCrowdParams params;
  params.peak = spec.get_double("peak", params.peak);
  params.start = spec.get_double("start", params.start);
  params.duration = spec.get_double("duration", params.duration);
  params.period = spec.get_double("period", params.period);
  params.diurnal_amplitude =
      spec.get_double("diurnal", params.diurnal_amplitude);
  apply_rate_modulation(jobs, params);
  return jobs;
}

std::vector<Job> mixshift(const GeneratorSpec& spec) {
  spec.require_known({"a", "b", "t", "jobs", "seed"}, {"a", "b"});
  // `jobs` also caps the spliced total, so the harness's job-count
  // default means what it says.
  const double at = spec.get_double("t", 6.0 * 3600.0);
  return splice_mix_shift(generate_jobs(forwarded(spec, "a", "sdsc")),
                          generate_jobs(forwarded(spec, "b", "zipf")), at,
                          spec.get_u64("jobs", 0));
}

}  // namespace

const std::vector<GeneratorMethod>& registered_generators() {
  static const std::vector<GeneratorMethod> methods = {
      {"sdsc",
       "synthetic SDSC SP2 batch trace (paper's primary workload)",
       {{"jobs", "job count (default 5000)"},
        {"max_procs", "cluster width (default 128)"},
        {"mean_interarrival", "mean inter-arrival seconds (default 1969)"},
        {"mean_runtime", "mean runtime seconds (default 8671)"},
        {"runtime_cv", "runtime coefficient of variation (default 1.8)"},
        {"diurnal_amplitude", "daily arrival swing in [0,1) (default 0.5)"},
        {"seed", "RNG seed (default 42)"}},
       sdsc},
      {"lublin",
       "Lublin-Feitelson hyper-gamma robustness workload",
       {{"jobs", "job count (default 5000)"},
        {"max_procs", "cluster width (default 128)"},
        {"serial_fraction", "fraction of serial jobs (default 0.24)"},
        {"mean_interarrival", "mean inter-arrival seconds (default 1969)"},
        {"arrival_shape", "gamma arrival shape, <1 bursty (default 0.6)"},
        {"seed", "RNG seed (default 1337)"}},
       lublin},
      {"swf",
       "replay a Standard Workload Format trace file",
       {{"path", "SWF file path (required)"},
        {"jobs", "keep only the last N jobs (default 0 = all)"},
        {"completed_only", "drop non-completed jobs, 0/1 (default 1)"},
        {"drop_degenerate", "drop zero-runtime/procs jobs, 0/1 (default 1)"},
        {"rebase", "rebase first submit to t=0, 0/1 (default 1)"},
        {"seed", "accepted for uniformity; a replay has no entropy"}},
       swf},
      {"zipf",
       "Zipfian-skewed multi-tenant service traffic (stamps tenant id)",
       {{"jobs", "job count (default 5000)"},
        {"tenants", "tenant population size (default 1000000)"},
        {"theta",
         "Zipfian skew in [0,1); 0 uniform, 0.99 YCSB (default 0.99)"},
        {"mean_interarrival", "mean inter-arrival seconds (default 300)"},
        {"mean_runtime", "mean runtime seconds (default 2400)"},
        {"seed", "RNG seed (default 42)"}},
       zipf},
      {"flash",
       "diurnal/flash-crowd rate modulation over any base method",
       {{"base", "inner method name (default sdsc); base.K=V forwards K=V"},
        {"peak", "rate multiplier inside the crowd window (default 8)"},
        {"start", "window start seconds (default 21600)"},
        {"duration", "window length seconds (default 7200)"},
        {"period", "repeat every N seconds; 0 one-shot (default 0)"},
        {"diurnal", "smooth daily swing in [0,1) (default 0)"},
        {"seed", "forwarded to the base generator"}},
       flash},
      {"mixshift",
       "switch the traffic mix from method a to method b at time t",
       {{"a", "pre-switch method name (default sdsc); a.K=V forwards K=V"},
        {"b", "post-switch method name (default zipf); b.K=V forwards K=V"},
        {"t", "virtual switch time in seconds (default 21600)"},
        {"jobs", "total job cap after the splice; also each phase's default"},
        {"seed", "forwarded to both phases (a.seed / b.seed override)"}},
       mixshift},
      {"daly",
       "checkpoint-restart jobs with Daly-interval dump overhead",
       {{"jobs", "job count (default 2000)"},
        {"mean_solve", "mean failure-free solve seconds (default 21600)"},
        {"checkpoint_write",
         "checkpoint write cost delta seconds (default 120)"},
        {"interval",
         "checkpoint interval tau seconds; 0 = Daly optimum (default 0)"},
        {"mtti", "mean time to interrupt seconds (default 86400)"},
        {"seed", "RNG seed (default 42)"}},
       daly},
  };
  return methods;
}

std::vector<Job> generate_jobs(const GeneratorSpec& spec) {
  for (const GeneratorMethod& method : registered_generators()) {
    if (method.name != spec.method) continue;
    std::vector<Job> jobs = method.generate(spec);
    for (const Job& job : jobs) {
      if (!std::isfinite(job.submit_time) ||
          !std::isfinite(job.actual_runtime) ||
          !std::isfinite(job.estimated_runtime)) {
        bad_spec("method '" + spec.method +
                 "' produced a non-finite submit time or runtime at job " +
                 std::to_string(job.id) + " (a mean too large?)");
      }
    }
    return jobs;
  }
  bad_spec("unknown method '" + spec.method + "' (see `utilrisk trace --list`)");
}

std::vector<Job> generate_jobs(const std::string& spec_text) {
  return generate_jobs(GeneratorSpec::parse(spec_text));
}

std::vector<Job> generate_jobs(GeneratorSpec spec, std::uint32_t jobs,
                               std::uint64_t seed) {
  spec.set_default("jobs", std::to_string(jobs));
  spec.set_default("seed", std::to_string(seed));
  return generate_jobs(spec);
}

}  // namespace utilrisk::workload
