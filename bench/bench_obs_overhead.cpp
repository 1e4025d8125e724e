// Disabled-observability overhead gate.
//
// The obs contract (src/obs/metrics.hpp) promises near-zero cost when no
// registry is attached or the registry is disabled: instrumented hot paths
// carry one never-taken null branch. This bench holds that promise to a
// number. It runs an event-queue churn kernel — the sim kernel's
// schedule/dispatch loop, the hottest instrumented path in the codebase —
// in three configurations (no registry, attached-but-disabled, enabled),
// takes the min wall clock over interleaved repetitions, asserts the
// disabled overhead stays under 2 % and writes
// <out>/BENCH_obs_overhead.json so the trend is machine-readable.
//
// Honours REPRO_OBS_EVENTS (events per repetition, default 2000000; at
// least one per event chain, 64) and REPRO_OBS_REPS (repetitions per
// configuration, default 7; at least 1). It refuses smaller values
// instead of passing on a measurement it never made.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace utilrisk;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr std::size_t kChains = 64;

// One self-rescheduling event chain: every dispatch schedules the next
// event, so the kernel sees a steady schedule/dispatch churn at a queue
// depth of kChains — the shape of a running simulation, without the
// service/policy layers diluting the per-event cost being measured.
struct Chain {
  sim::Simulator* simk = nullptr;
  std::uint64_t left = 0;

  void arm() {
    if (left == 0) return;
    --left;
    simk->schedule_in(1.0, [this] { arm(); });
  }
};

double run_kernel(obs::MetricsRegistry* registry, std::uint64_t events) {
  sim::Simulator simk;
  simk.set_metrics(registry);
  std::vector<std::unique_ptr<Chain>> chains;
  chains.reserve(kChains);
  for (std::size_t i = 0; i < kChains; ++i) {
    auto chain = std::make_unique<Chain>();
    chain->simk = &simk;
    chain->left = events / kChains;
    chains.push_back(std::move(chain));
  }
  const double start = now_seconds();
  for (auto& chain : chains) chain->arm();
  const std::uint64_t dispatched = simk.run();
  const double wall = now_seconds() - start;
  if (dispatched != kChains * (events / kChains)) {
    std::cerr << "FAIL: kernel dispatched " << dispatched << " events\n";
    std::exit(1);
  }
  return wall;
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  return raw == nullptr ? fallback : std::strtoull(raw, nullptr, 10);
}

}  // namespace

int main() {
  const bench::BenchEnv env = bench::read_env();
  const std::uint64_t events = env_u64("REPRO_OBS_EVENTS", 2000000);
  const std::uint64_t reps = env_u64("REPRO_OBS_REPS", 7);
  if (reps < 1) {
    std::cerr << "FAIL: REPRO_OBS_REPS must be at least 1\n";
    return 1;
  }
  if (events < kChains) {
    std::cerr << "FAIL: REPRO_OBS_EVENTS must be at least " << kChains
              << ", one event per chain\n";
    return 1;
  }

  std::cout << "obs overhead bench: " << events << " events/rep, " << reps
            << " reps per configuration\n";

  obs::MetricsRegistry disabled(false);
  obs::MetricsRegistry enabled(true);

  // Interleave the configurations within each repetition so frequency
  // scaling and cache-warming noise hits all three equally; min-of-reps
  // then discards the noisy repetitions.
  double min_none = std::numeric_limits<double>::infinity();
  double min_disabled = std::numeric_limits<double>::infinity();
  double min_enabled = std::numeric_limits<double>::infinity();
  run_kernel(nullptr, events);  // warm-up, unmeasured
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    min_none = std::min(min_none, run_kernel(nullptr, events));
    min_disabled = std::min(min_disabled, run_kernel(&disabled, events));
    min_enabled = std::min(min_enabled, run_kernel(&enabled, events));
  }

  const double disabled_overhead = min_disabled / min_none - 1.0;
  const double enabled_overhead = min_enabled / min_none - 1.0;
  const double events_per_second = static_cast<double>(events) / min_none;
  std::cout << "  no registry:        " << min_none << " s  ("
            << events_per_second << " events/s)\n"
            << "  attached, disabled: " << min_disabled << " s  ("
            << disabled_overhead * 100.0 << " % overhead)\n"
            << "  attached, enabled:  " << min_enabled << " s  ("
            << enabled_overhead * 100.0 << " % overhead)\n";

  obs::json::Value root;
  root.set("bench", "obs_overhead");
  root.set("events_per_rep", events);
  root.set("reps", reps);
  root.set("no_registry_seconds", min_none);
  root.set("disabled_registry_seconds", min_disabled);
  root.set("enabled_registry_seconds", min_enabled);
  root.set("disabled_overhead_fraction", disabled_overhead);
  root.set("enabled_overhead_fraction", enabled_overhead);
  root.set("events_per_second_baseline", events_per_second);
  root.set("threshold_fraction", 0.02);
  root.set("pass", disabled_overhead < 0.02);
  const std::string path = env.out_dir + "/BENCH_obs_overhead.json";
  std::ofstream json(path);
  root.dump(json);
  std::cout << "[wrote " << path << "]\n";

  if (disabled_overhead >= 0.02) {
    std::cerr << "FAIL: disabled-registry overhead "
              << disabled_overhead * 100.0 << " % >= 2 %\n";
    return 1;
  }
  return 0;
}
