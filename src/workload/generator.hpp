// Workload methods (after the codes-workload method table): every
// traffic shape the harness can offer is a *method*, a plain function
// from a parsed spec to the whole job stream. Methods are addressed
// everywhere — experiment matrix, `utilrisk` CLI, loadgen, run
// manifests — by a spec string:
//
//   name                         e.g.  "sdsc"
//   name:key=value,key=value     e.g.  "zipf:tenants=1000000,theta=0.99"
//
// Keys may not repeat; unknown keys are rejected before generating, so a
// typo fails loudly instead of silently running the default workload.
// Composing methods forward dotted keys to their inner method:
// "flash:base=lublin,base.serial_fraction=0.3,peak=8".
//
// Seed convention (uniform across every method): each method accepts
//   seed=<u64>
// as its *sole* entropy source. The seed is expanded with sim::Rng
// (SplitMix64 -> xoshiro256**) into independent per-attribute child
// streams via Rng::split(), never std::random_device or wall clock, so
// one spec string is one bit-exact job stream on every platform, and
// consuming more draws for one attribute never reshuffles another.
// Harness layers (experiment config, loadgen, CLI) pass their own job
// count and seed to generate_jobs(spec, jobs, seed) as defaults — an
// explicit key in the spec always wins.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "workload/job.hpp"

namespace utilrisk::workload {

/// A parsed "name:key=value,..." spec. Parameters keep their spec order
/// so to_string() round-trips what the user wrote (plus injected
/// defaults, which append).
struct GeneratorSpec {
  std::string method;
  std::vector<std::pair<std::string, std::string>> params;

  /// Parses a spec string; throws std::invalid_argument on an empty
  /// name, a parameter without '=', an empty key, or a repeated key.
  [[nodiscard]] static GeneratorSpec parse(const std::string& text);

  /// Canonical spec string ("name" or "name:k=v,...").
  [[nodiscard]] std::string to_string() const;

  /// Value of `key`, or nullptr when absent.
  [[nodiscard]] const std::string* find(const std::string& key) const;

  /// Appends key=value only when `key` is absent (harness-level default
  /// injection; an explicit spec key always wins).
  void set_default(const std::string& key, const std::string& value);

  // Typed lookups with defaults; throw std::invalid_argument naming the
  // key on malformed values (get_double also on nan and inf).
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t fallback) const;
  [[nodiscard]] std::uint32_t get_u32(const std::string& key,
                                      std::uint32_t fallback) const;
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;

  /// Throws std::invalid_argument naming the first key that is neither
  /// in `known` nor "<prefix>.<key>" for one of `dotted_prefixes` (the
  /// keys a composing method forwards). Every method calls this first.
  void require_known(const std::vector<std::string>& known,
                     const std::vector<std::string>& dotted_prefixes = {})
      const;
};

/// Exact round-trip formatting for doubles in spec strings (shortest
/// form that parses back to the same bits — std::to_chars).
[[nodiscard]] std::string format_double(double value);

/// One parameter's documentation line for `utilrisk trace --list`.
struct GeneratorParamDoc {
  std::string key;
  std::string doc;
};

/// A workload method: name, summary, parameter docs and the function
/// that generates its trace. A method must be deterministic in its spec
/// (seed convention above) and return jobs in submission order with ids
/// 1..N, the first submission at t = 0 and QoS fields left zero (qos.hpp
/// assigns SLA terms downstream).
struct GeneratorMethod {
  std::string name;
  std::string summary;
  std::vector<GeneratorParamDoc> params;
  std::vector<Job> (*generate)(const GeneratorSpec& spec);
};

/// The built-in methods in listing order: sdsc, lublin, swf, zipf,
/// flash, mixshift, daly.
[[nodiscard]] const std::vector<GeneratorMethod>& registered_generators();

/// Generates the spec's method. Throws std::invalid_argument on an
/// unknown method, a bad spec, or a trace with a non-finite submit time
/// or runtime (a finite but huge mean can overflow the arrival clock).
[[nodiscard]] std::vector<Job> generate_jobs(const GeneratorSpec& spec);
[[nodiscard]] std::vector<Job> generate_jobs(const std::string& spec_text);

/// The harness entry point: generates `spec` with `jobs` and `seed`
/// injected as defaults (an explicit key in the spec wins).
[[nodiscard]] std::vector<Job> generate_jobs(GeneratorSpec spec,
                                             std::uint32_t jobs,
                                             std::uint64_t seed);

}  // namespace utilrisk::workload
