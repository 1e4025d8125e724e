// The benchmark's workloads. Each one measures itself into a Report
// (end-to-end metrics always; per-layer metrics too when traced) and
// books every correctness gate it runs there.
#pragma once

#include <cstdint>
#include <string>

#include "support.hpp"

namespace utilrisk::e2e {

/// Measured time a run aims for; set-up and checks come on top. It is
/// BENCHMARK.json's run_seconds, and fixed: the workloads are sized for it
/// (every percentile needs its ten samples beyond), and both commits of a
/// comparison must measure for the same time.
constexpr double kRunSeconds = 20.0;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 42;
  bool trace = false;
  /// Tiny inputs, every gate, no comparable numbers (the ctest).
  bool smoke = false;
  /// Scratch directory for sockets, journals, traces and result files.
  /// Relative paths keep the Unix socket path short.
  std::string out_dir = ".bench_build/out";
};

/// The Table VI sweep: both economic models, Set B, every scenario.
void run_sweep_table6(const RunOptions& options, Report& report,
                      Tracer& tracer);

/// One of the admission-server workloads (serve_*).
void run_serve(const RunOptions& options, Report& report, Tracer& tracer);

[[nodiscard]] bool is_serve_workload(const std::string& name);

}  // namespace utilrisk::e2e
