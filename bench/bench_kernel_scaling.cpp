// Kernel scaling bench: events/sec and ns/decision vs cluster size.
//
// Runs the cluster-scaled synthetic SDSC workload (workload/scaled.hpp) at
// node counts 128 / 1k / 10k / 100k under one space-shared policy
// (FCFS-BF) and one time-shared policy (Libra), reading the kernel gauges
// (`sim.events_per_sec`, `cluster.decision_ns`) introduced with the
// indexed executors. At n=1024 it additionally runs Libra with the
// full-scan best-fit selection the share index replaced, in-process and on
// the same event queue as the indexed run, so the speedup isolates node
// selection; it asserts the two produce bit-identical run digests before
// reporting that speedup.
//
// Writes <out>/BENCH_kernel_scaling.json. Environment knobs, on top of
// the usual REPRO_OUT / REPRO_JOBS:
//   REPRO_NODES  comma-separated node counts (default 128,1024,10240,102400);
//                CI's smoke step runs just 10240 to stay inside its wall
//                budget (the n=1024 baseline+digest check only runs when
//                1024 is in the list).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "policy/libra.hpp"
#include "service/computing_service.hpp"
#include "workload/scaled.hpp"
#include "workload/workload.hpp"

namespace {

using namespace utilrisk;
using Clock = std::chrono::steady_clock;

// Full-kernel pre-PR baseline at n=1024: the EXACT scenario below
// (scaled_sdsc_config(1024, 5000), arrival factor 0.25, BidBased), run
// against a Release build of commit df7e833 (the last pre-PR commit),
// wall-clocked around simulate() with no metrics registry, median of
// three runs alternated with the current build on the same machine. The
// pre-PR binary produced bit-identical run digests (FCFS-BF
// bf08ddb117d1715f, Libra 3faa4b3aa174b0b5), so the comparison measures
// data structures only. The current build reproduces its side of the
// comparison live (see the no-registry passes below) and verifies the
// digests still match.
constexpr const char* kPrePrCommit = "df7e833";
constexpr double kPrePrFcfsEventsPerSec1024 = 72946.0;
constexpr double kPrePrLibraEventsPerSec1024 = 478594.0;
constexpr const char* kFcfsDigest1024 = "bf08ddb117d1715f";
constexpr const char* kLibraDigest1024 = "3faa4b3aa174b0b5";

/// Libra with the pre-PR node selection: scan every node, collect the
/// eligible ones, sort by (committed share desc, id asc), truncate. The
/// share index walks nodes in exactly this order, so the simulation —
/// and its digest — must match the indexed build bit for bit; main()
/// asserts that before trusting the timing.
class NaiveLibraPolicy : public policy::LibraPolicy {
 public:
  using LibraPolicy::LibraPolicy;
  [[nodiscard]] std::string_view name() const override { return "Libra"; }

  void on_submit(const workload::Job& job) override {
    if (job.procs > cluster().node_count()) {
      host().notify_rejected(job);
      return;
    }
    const std::optional<double> share = required_share(job);
    if (!share) {
      host().notify_rejected(job);
      return;
    }
    const std::vector<cluster::NodeId> nodes = naive_select(job, *share);
    if (nodes.empty()) {
      host().notify_rejected(job);
      return;
    }
    economy::Money quoted = job.budget;
    if (model() == economy::EconomicModel::CommodityMarket) {
      quoted = quote(job, nodes, *share);
      if (quoted > job.budget) {
        host().notify_rejected(job);
        return;
      }
    }
    host().notify_accepted(job, quoted);
    host().notify_started(job);
    cluster().start(job, nodes, *share,
                    [this, job](workload::JobId, sim::SimTime finish) {
                      host().notify_finished(job, finish);
                    });
  }

 private:
  [[nodiscard]] std::vector<cluster::NodeId> naive_select(
      const workload::Job& job, double share) const {
    struct Candidate {
      double committed;
      cluster::NodeId id;
    };
    std::vector<Candidate> eligible;
    for (cluster::NodeId node = 0; node < cluster().node_count(); ++node) {
      if (node_eligible(node, job, share)) {
        eligible.push_back({cluster().committed_share(node), node});
      }
    }
    if (eligible.size() < job.procs) return {};
    std::sort(eligible.begin(), eligible.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.committed != b.committed) {
                  return a.committed > b.committed;
                }
                return a.id < b.id;
              });
    std::vector<cluster::NodeId> chosen;
    chosen.reserve(job.procs);
    for (std::uint32_t i = 0; i < job.procs; ++i) {
      chosen.push_back(eligible[i].id);
    }
    return chosen;
  }
};

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
                   const std::string& label, bool with_registry = true) {
  obs::MetricsRegistry registry;
  policy::PolicyContext context;
  context.machine.node_count = nodes;
  context.model = economy::EconomicModel::BidBased;
  context.metrics = with_registry ? &registry : nullptr;
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
  // With a registry the throughput comes from the kernel's own gauge
  // (events / run() wall); without one it is events / simulate() wall —
  // the same method the pre-PR baseline constants were measured with.
  result.events_per_sec = with_registry
                              ? find_gauge(snap, "sim.events_per_sec")
                              : static_cast<double>(report.events_dispatched) /
                                    (wall > 0.0 ? wall : 1e-9);
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
  RunResult baseline;
  RunResult fcfs_now_1024;
  RunResult libra_now_1024;
  double speedup_fcfs_1024 = 0.0;
  double speedup_libra_1024 = 0.0;
  double speedup_vs_naive_1024 = 0.0;

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

    if (n == 1024) {
      // The pre-PR comparison point. Three extra runs:
      //  1-2. both policies without a metrics registry, matching how the
      //       pre-PR baseline constants were measured (events / simulate
      //       wall), with the digests pinned to the values the pre-PR
      //       binary produced;
      //  3.   Libra with the full-scan node selection (scan + sort), in-
      //       process on the same event queue — isolates the selection
      //       share of the win and proves placement equivalence at
      //       runtime.
      fcfs_now_1024 = run_once(
          jobs, service::factory_for(policy::PolicyKind::FcfsBf), n,
          "FCFS-BF (no registry)", false);
      libra_now_1024 = run_once(
          jobs, service::factory_for(policy::PolicyKind::Libra), n,
          "Libra (no registry)", false);
      print_result(fcfs_now_1024);
      print_result(libra_now_1024);
      if (fcfs_now_1024.digest != kFcfsDigest1024 ||
          libra_now_1024.digest != kLibraDigest1024) {
        std::fprintf(stderr,
                     "FATAL: n=1024 digests (%s, %s) do not match the "
                     "pre-PR binary's (%s, %s); baseline comparison void\n",
                     fcfs_now_1024.digest.c_str(),
                     libra_now_1024.digest.c_str(), kFcfsDigest1024,
                     kLibraDigest1024);
        return 1;
      }
      speedup_fcfs_1024 =
          fcfs_now_1024.events_per_sec / kPrePrFcfsEventsPerSec1024;
      speedup_libra_1024 =
          libra_now_1024.events_per_sec / kPrePrLibraEventsPerSec1024;
      std::printf("n=1024 vs pre-PR %s:  FCFS-BF %.2fx  Libra %.2fx\n",
                  kPrePrCommit, speedup_fcfs_1024, speedup_libra_1024);

      const service::PolicyFactory naive =
          [](const policy::PolicyContext& ctx, policy::PolicyHost& host) {
            return std::make_unique<NaiveLibraPolicy>(ctx, host);
          };
      baseline = run_once(jobs, naive, n, "Libra(naive+heap)", false);
      print_result(baseline);
      if (baseline.digest != libra.digest) {
        std::fprintf(stderr,
                     "FATAL: naive baseline digest %s != indexed digest %s\n",
                     baseline.digest.c_str(), libra.digest.c_str());
        return 1;
      }
      if (baseline.events_per_sec > 0.0) {
        speedup_vs_naive_1024 =
            libra_now_1024.events_per_sec / baseline.events_per_sec;
        std::printf("n=1024 indexed vs naive: %.2fx\n",
                    speedup_vs_naive_1024);
      }
    }
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
  if (!baseline.policy.empty()) {
    Value pre_index;
    pre_index.set("commit", kPrePrCommit);
    pre_index.set("method",
                  "same scenario and machine, Release build of that commit, "
                  "wall clock around simulate(), no metrics registry, "
                  "median of 3 alternated runs; run digests bit-identical "
                  "to the current build");
    pre_index.set("fcfs_bf_events_per_sec", kPrePrFcfsEventsPerSec1024);
    pre_index.set("libra_events_per_sec", kPrePrLibraEventsPerSec1024);
    root.set("pre_pr_n1024", pre_index);
    Value current;
    current.set("fcfs_bf_events_per_sec", fcfs_now_1024.events_per_sec);
    current.set("libra_events_per_sec", libra_now_1024.events_per_sec);
    root.set("current_n1024_same_method", current);
    Value speedup;
    speedup.set("fcfs_bf", speedup_fcfs_1024);
    speedup.set("libra", speedup_libra_1024);
    root.set("speedup_vs_pre_pr_n1024", speedup);
    Value naive_run;
    naive_run.set("policy", baseline.policy);
    naive_run.set("events_per_sec", baseline.events_per_sec);
    naive_run.set("wall_s", baseline.wall_s);
    naive_run.set("digest", baseline.digest);
    naive_run.set("digest_matches_indexed", true);
    root.set("baseline_naive_heap_n1024", naive_run);
    root.set("speedup_vs_naive_heap_n1024", speedup_vs_naive_1024);
  }
  const std::string path = env.out_dir + "/BENCH_kernel_scaling.json";
  std::ofstream out(path);
  root.dump(out);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
