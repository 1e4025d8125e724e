// Kernel scaling bench: events/sec and ns/decision vs cluster size.
//
// Runs the cluster-scaled synthetic SDSC workload (workload/scaled.hpp) at
// node counts 128 / 1k / 10k / 100k under one space-shared policy
// (FCFS-BF) and one time-shared policy (Libra), reading the kernel gauges
// (`sim.events_per_sec`, `cluster.decision_ns`) introduced with the
// indexed executors. tests/kernel_index_test.cpp pins the n=1,024 digests
// and checks the share index against a full-scan reference.
//
// Writes <out>/BENCH_kernel_scaling.json. Environment knobs, on top of
// the usual REPRO_OUT / REPRO_JOBS:
//   REPRO_NODES  comma-separated node counts (default 128,1024,10240,102400);
//                CI's smoke step runs just 10240 to stay inside its wall
//                budget.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "service/computing_service.hpp"
#include "workload/scaled.hpp"
#include "workload/workload.hpp"

namespace {

using namespace utilrisk;
using Clock = std::chrono::steady_clock;

struct RunResult {
  std::string policy;
  std::uint32_t nodes = 0;
  std::size_t jobs = 0;
  std::uint64_t events = 0;
  double wall_s = 0.0;
  double events_per_sec = 0.0;  ///< sim.events_per_sec gauge (run() wall)
  double decision_ns = 0.0;     ///< cluster.decision_ns gauge (mean)
  double utilization = 0.0;
  std::uint64_t fulfilled = 0;
  std::string digest;
};

double find_gauge(const obs::MetricSnapshot& snap, const std::string& name) {
  for (const auto& [key, value] : snap.gauges) {
    if (key == name) return value;
  }
  return 0.0;
}

RunResult run_once(const std::vector<workload::Job>& jobs,
                   const service::PolicyFactory& factory, std::uint32_t nodes,
                   const std::string& label) {
  obs::MetricsRegistry registry;
  policy::PolicyContext context;
  context.machine.node_count = nodes;
  context.model = economy::EconomicModel::BidBased;
  context.metrics = &registry;
  const auto start = Clock::now();
  const auto report = service::simulate(jobs, factory, context);
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();
  const auto snap = registry.snapshot();
  RunResult result;
  result.policy = label;
  result.nodes = nodes;
  result.jobs = jobs.size();
  result.events = report.events_dispatched;
  result.wall_s = wall;
  result.events_per_sec = find_gauge(snap, "sim.events_per_sec");
  result.decision_ns = find_gauge(snap, "cluster.decision_ns");
  result.utilization = report.utilization;
  result.fulfilled = report.inputs.fulfilled;
  result.digest = report.digest;
  return result;
}

void print_result(const RunResult& r) {
  std::printf(
      "n=%6u  %-18s  events %8llu  wall %7.3f s  %10.0f ev/s  "
      "%8.0f ns/decision  util %.3f\n",
      r.nodes, r.policy.c_str(), static_cast<unsigned long long>(r.events),
      r.wall_s, r.events_per_sec, r.decision_ns, r.utilization);
}

std::vector<std::uint32_t> node_counts_from_env() {
  std::vector<std::uint32_t> nodes;
  if (const char* raw = std::getenv("REPRO_NODES"); raw != nullptr) {
    std::string spec(raw);
    std::size_t pos = 0;
    while (pos < spec.size()) {
      const std::size_t comma = spec.find(',', pos);
      const std::string tok =
          spec.substr(pos, comma == std::string::npos ? spec.size() - pos
                                                      : comma - pos);
      if (!tok.empty()) {
        nodes.push_back(static_cast<std::uint32_t>(std::stoul(tok)));
      }
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }
  if (nodes.empty()) nodes = {128, 1024, 10240, 102400};
  return nodes;
}

}  // namespace

int main() {
  const auto env = bench::read_env();
  const auto nodes = node_counts_from_env();

  std::vector<RunResult> scaling;
  for (const std::uint32_t n : nodes) {
    // Constant per-node offered load; larger clusters need more jobs to
    // reach a steady state that actually exercises the pending-event
    // population (in-flight jobs scale linearly with n).
    const std::uint32_t jobs_n = std::max<std::uint32_t>(env.jobs, n / 4);
    const workload::WorkloadBuilder builder(
        workload::scaled_sdsc_config(n, jobs_n));
    // 0.25 arrival delay factor = the Table VI sweep's heavy-load point:
    // admission runs saturated, which is the regime where decision cost
    // matters (an idle cluster admits everything in O(procs) regardless
    // of the selection structure).
    const auto jobs = builder.build(workload::QosConfig{}, 0.25, 100.0);

    const auto fcfs = run_once(
        jobs, service::factory_for(policy::PolicyKind::FcfsBf), n, "FCFS-BF");
    print_result(fcfs);
    scaling.push_back(fcfs);

    const auto libra = run_once(
        jobs, service::factory_for(policy::PolicyKind::Libra), n, "Libra");
    print_result(libra);
    scaling.push_back(libra);
  }

  using obs::json::Value;
  Value rows(obs::json::Array{});
  for (const RunResult& r : scaling) {
    Value row;
    row.set("nodes", std::uint64_t{r.nodes});
    row.set("policy", r.policy);
    row.set("jobs", std::uint64_t{r.jobs});
    row.set("events", r.events);
    row.set("wall_s", r.wall_s);
    row.set("events_per_sec", r.events_per_sec);
    row.set("decision_ns", r.decision_ns);
    row.set("utilization", r.utilization);
    row.set("fulfilled", r.fulfilled);
    row.set("digest", r.digest);
    rows.push_back(row);
  }
  Value root;
  root.set("bench", "kernel_scaling");
  root.set("scaling", rows);
  const std::string path = env.out_dir + "/BENCH_kernel_scaling.json";
  std::ofstream out(path);
  root.dump(out);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
