// Golden-digest regression harness over the Table VI run matrix.
//
// A golden file freezes the canonical run digest of every unique
// (scenario, policy, value) simulation of one experiment sweep:
//
//   # utilrisk.golden/1 model=commodity set=B jobs=80 nodes=128 tseed=42 qseed=4242
//   <run key>\t<combined>\t<event stream>\t<money flows>
//   ...
//   # combined <hex>
//
// Entries are sorted by run key and the trailer is the digest of the
// entry list, so a golden file is itself canonical. Record with
// `utilrisk replay --record <dir>`, check with `--check <dir>`; the check
// recomputes every run (fanned out over --workers, whose count must not
// change a single bit) and names the first diverging record.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "verify/run_digest.hpp"

namespace utilrisk::verify {

inline constexpr char kGoldenSchema[] = "utilrisk.golden/1";

/// The sweep a golden file covers. jobs=80 keeps a full record/check of
/// both models within smoke-test budget while still exercising rejection,
/// deadline violation and every Table V policy.
struct GoldenConfig {
  economy::EconomicModel model = economy::EconomicModel::CommodityMarket;
  exp::ExperimentSet set = exp::ExperimentSet::B;
  std::uint32_t job_count = 80;
  std::uint32_t node_count = 128;
  std::uint64_t trace_seed = 42;
  std::uint64_t qos_seed = 4242;

  [[nodiscard]] exp::ExperimentConfig experiment_config() const;
  /// Canonical file name, e.g. "golden_commodity_B.tsv".
  [[nodiscard]] std::string filename() const;
};

struct GoldenEntry {
  std::string key;  ///< ExperimentConfig::run_key of the run
  RunDigest digest;
};

struct GoldenFile {
  GoldenConfig config;
  std::vector<GoldenEntry> entries;  ///< sorted by key

  /// Digest of the whole entry list (the trailer line).
  [[nodiscard]] std::uint64_t combined() const;
};

/// Simulates every unique run of the config's Table VI matrix (all
/// scenarios x the model's Table V policies; exp::enumerate_runs) and
/// returns the digests. The runs fan out over `workers` pool threads
/// (0 = exp::default_worker_count()); the result is identical at any
/// count.
[[nodiscard]] GoldenFile compute_golden(const GoldenConfig& config,
                                        std::size_t workers = 1);

/// Writes `<dir>/<config.filename()>` (creating `dir`); returns the path.
std::string write_golden(const GoldenFile& golden, const std::string& dir);

/// Parses a golden file; throws std::runtime_error on malformed input or
/// a trailer that does not match the entries.
[[nodiscard]] GoldenFile load_golden(const std::string& path);

/// Outcome of re-running a golden file's matrix against its digests.
struct CheckReport {
  std::size_t records_checked = 0;
  /// Human-readable findings; the first entry names the first diverging
  /// record (file order). Empty = clean.
  std::vector<std::string> diagnostics;

  [[nodiscard]] bool ok() const { return diagnostics.empty(); }
};

/// Recomputes every run of `expected.config` and diffs the digests.
[[nodiscard]] CheckReport check_golden(const GoldenFile& expected,
                                       std::size_t workers = 1);

/// Order-sensitive digest over a full SweepResult (raw values + separate
/// risk) — the worker-count bit-identity contract as one comparable
/// 64-bit value.
[[nodiscard]] std::uint64_t sweep_digest(const exp::SweepResult& sweep);

}  // namespace utilrisk::verify
