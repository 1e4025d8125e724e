// utilrisk_benchmark: the repository's end-to-end benchmark driver.
//
//   utilrisk_benchmark --workload NAME [--seed S] [--trace 0|1] [--out DIR]
//                      [--smoke]
//   utilrisk_benchmark --list-metrics
//
// The run length is fixed (kRunSeconds, BENCHMARK.json's run_seconds).
// `--seconds 20` is accepted, because a harness running BENCHMARK.json's
// command passes `--seconds <run_seconds>`; any other value is a usage
// error. The driver
// runs itself with `--reference-work THREADS` to time the reference work
// in a child process (support.hpp).
//
// Runs one workload (workloads.hpp) and prints one line per metric,
// "workload metric value unit [n=samples]". It writes every number, gate
// and sample count to DIR/NAME.seedS.traceT.json (and, traced, the spans
// to DIR/NAME.spans.csv). The last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics, or with --trace 1 the per-layer ones. Exits 1 when
// a correctness gate failed, 2 on a usage error.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "obs/json.hpp"
#include "support.hpp"
#include "workloads.hpp"

namespace {

using namespace utilrisk;
using namespace utilrisk::e2e;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (the smoke test checks both lists).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"cpu_per_op_us", "us"},
};

constexpr MetricSpec kPerLayer[] = {
    {"throughput_per_s", "1/s"},
    {"host.steal_share", "fraction"},
    {"host.speed", "ratio"},
    {"workload.trace_build_s", "s"},
    {"workload.request_stream_s", "s"},
    {"exp.simulations", "count"},
    {"exp.dedup_share", "fraction"},
    {"exp.pass_wall_s", "s"},
    {"exp.serial_wall_s", "s"},
    {"exp.run_wall_p50_ms", "ms"},
    {"exp.run_wall_p95_ms", "ms"},
    {"exp.run_wall_max_ms", "ms"},
    {"exp.worker_busy_share", "fraction"},
    {"exp.sim_total_s", "s"},
    {"exp.policy.fcfs-bf.sim_s", "s"},
    {"exp.policy.sjf-bf.sim_s", "s"},
    {"exp.policy.edf-bf.sim_s", "s"},
    {"exp.policy.libra.sim_s", "s"},
    {"exp.policy.libra-dollar.sim_s", "s"},
    {"exp.policy.libra-riskd.sim_s", "s"},
    {"exp.policy.firstreward.sim_s", "s"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.events_per_decision", "count"},
    {"protocol.encode_request_ns", "ns"},
    {"protocol.parse_request_ns", "ns"},
    {"protocol.encode_response_ns", "ns"},
    {"protocol.parse_response_ns", "ns"},
    {"latency.p50_ms", "ms"},
    {"latency.p90_ms", "ms"},
    {"latency.p99_ms", "ms"},
    {"client.request_self_us", "us"},
    {"client.encode_us", "us"},
    {"client.send_us", "us"},
    {"client.wait_us", "us"},
    {"client.parse_us", "us"},
    {"server.transport_p50_ms", "ms"},
    {"server.lines", "count"},
    {"server.busy", "count"},
    {"queue.wait_p50_ms", "ms"},
    {"queue.wait_p99_ms", "ms"},
    {"engine.tick_p50_ms", "ms"},
    {"engine.tick_p99_ms", "ms"},
    {"engine.batch_mean", "count"},
    {"engine.decide_rps", "1/s"},
    {"engine.submit_us", "us"},
    {"journal.append_ns", "ns"},
    {"journal.sync_p50_ms", "ms"},
    {"journal.sync_p99_ms", "ms"},
    {"journal.requests_per_fsync", "count"},
    {"journal.bytes_per_request", "bytes"},
    {"journal.overhead_share", "fraction"},
    {"recovery.load_s", "s"},
    {"recovery.recover_s", "s"},
    {"recovery.replay_rps", "1/s"},
    {"shard.imbalance", "ratio"},
    {"shard.decide_rps_1", "1/s"},
    {"shard.decide_rps_2", "1/s"},
    {"shard.decide_rps_4", "1/s"},
    {"advise.evaluate_ms_p50", "ms"},
    {"advise.evaluate_ms_max", "ms"},
    {"advise.query_us", "us"},
    {"advise.query_p50_ms", "ms"},
    {"advise.query_p99_ms", "ms"},
    {"advise.evaluations", "count"},
    {"advise.switches", "count"},
    {"advise.overhead_share", "fraction"},
    {"driver.lateness_p99_ms", "ms"},
    {"driver.lateness_max_ms", "ms"},
    {"driver.late_slices", "count"},
    {"driver.sent", "count"},
    {"driver.failed", "count"},
    {"trace.spans", "count"},
    {"trace.overhead_share", "fraction"},
};

constexpr const char* kWorkloads[] = {"sweep_table6", "serve_sdsc_journal",
                                      "serve_zipf_shards",
                                      "serve_mixshift_advise"};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "utilrisk_benchmark: " << problem << "\n"
            << "usage: utilrisk_benchmark --workload NAME [--seed S] "
               "[--trace 0|1] [--out DIR] [--smoke]\n"
            << "       utilrisk_benchmark --list-metrics\n"
            << "workloads:";
  for (const char* name : kWorkloads) std::cerr << ' ' << name;
  std::cerr << "\n";
  std::exit(2);
}

/// Every digit for the JSON line; ten significant ones for people.
std::string number(double value, int digits = 17) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.*g", digits, value);
  return buffer;
}

/// Mean self time per call of one span name, microseconds.
void add_span_metric(Report& report, const std::map<std::string,
                     Tracer::Totals>& totals, const std::string& span,
                     const std::string& metric) {
  const auto it = totals.find(span);
  if (it == totals.end() || it->second.calls == 0) return;
  report.add(metric,
             it->second.self_s * 1e6 / static_cast<double>(it->second.calls),
             "us", it->second.calls);
}

/// What the span recorder itself costs per span, from a scratch run.
double span_cost_seconds() {
  constexpr int kSpans = 200000;
  Tracer scratch(true);
  scratch.reserve(kSpans);
  const std::int64_t start = now_ns();
  for (int i = 0; i < kSpans; ++i) {
    const std::int64_t t = now_ns();
    scratch.record("scratch", t, now_ns(), 0, static_cast<std::uint64_t>(i));
  }
  return static_cast<double>(now_ns() - start) * 1e-9 / kSpans;
}

utilrisk::obs::json::Value results_json(const RunOptions& options,
                                        const Report& report,
                                        double started_at) {
  using utilrisk::obs::json::Value;
  Value root;
  root.set("workload", options.workload);
  root.set("seed", options.seed);
  root.set("trace", options.trace);
  root.set("smoke", options.smoke);
  root.set("started_at", started_at);
  root.set("nproc", static_cast<std::uint64_t>(
                        std::thread::hardware_concurrency()));
  root.set("correct", report.correct());
  root.set("attempted", report.attempted());
  root.set("failed", report.failed());
  Value failures(utilrisk::obs::json::Array{});
  for (const std::string& failure : report.failures()) {
    failures.push_back(failure);
  }
  root.set("failures", failures);
  Value metrics(utilrisk::obs::json::Array{});
  for (const Metric& metric : report.metrics()) {
    Value entry;
    entry.set("name", metric.name);
    entry.set("value", metric.value);
    entry.set("unit", metric.unit);
    entry.set("samples", metric.samples);
    metrics.push_back(entry);
  }
  root.set("metrics", metrics);
  return root;
}

}  // namespace

int main(int argc, char** argv) {
  // The child process of reference_cpu_s (support.hpp).
  if (argc == 3 && std::string(argv[1]) == kReferenceWorkFlag) {
    std::cout << number(run_reference_work(std::stoul(argv[2]))) << "\n";
    return 0;
  }
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        if (std::stod(value()) != kRunSeconds) {
          usage("the run length is fixed at " + number(kRunSeconds) +
                " s (BENCHMARK.json run_seconds)");
        }
      } else if (arg == "--trace") {
        const std::string trace = value();
        if (trace != "0" && trace != "1") usage("--trace takes 0 or 1");
        options.trace = trace == "1";
      } else if (arg == "--out") {
        options.out_dir = value();
      } else if (arg == "--smoke") {
        options.smoke = true;
      } else if (arg == "--list-metrics") {
        for (const MetricSpec& m : kEndToEnd) {
          std::cout << "end_to_end " << m.name << ' ' << m.unit << "\n";
        }
        for (const MetricSpec& m : kPerLayer) {
          std::cout << "per_layer " << m.name << ' ' << m.unit << "\n";
        }
        for (const char* w : kWorkloads) std::cout << "workload " << w << "\n";
        std::cout << "run_seconds " << number(kRunSeconds) << "\n";
        return 0;
      } else {
        usage("unknown option " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  const bool sweep = options.workload == "sweep_table6";
  if (!sweep && !is_serve_workload(options.workload)) {
    usage("unknown workload '" + options.workload + "'");
  }
  std::filesystem::create_directories(options.out_dir);

  const double started_at =
      std::chrono::duration<double>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  Report report;
  report.enforce_support = !options.smoke;
  Tracer tracer(options.trace);
  const double steal_start = steal_s();
  const std::int64_t run_start = now_ns();
  try {
    if (sweep) {
      run_sweep_table6(options, report, tracer);
    } else {
      run_serve(options, report, tracer);
    }
  } catch (const std::exception& e) {
    report.gate(false, std::string("run aborted: ") + e.what());
  }
  const double run_s = static_cast<double>(now_ns() - run_start) * 1e-9;
  report.add("host.steal_share",
             (steal_s() - steal_start) /
                 (run_s * std::thread::hardware_concurrency()),
             "fraction");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  for (const MetricSpec& spec : kEndToEnd) {
    report.gate(report.find(spec.name) != nullptr,
                std::string("end-to-end metric ") + spec.name + " measured");
  }

  const std::string stem = options.out_dir + "/" + options.workload;
  if (options.trace) {
    const auto totals = tracer.totals();
    add_span_metric(report, totals, "client.request", "client.request_self_us");
    add_span_metric(report, totals, "client.encode", "client.encode_us");
    add_span_metric(report, totals, "client.send", "client.send_us");
    add_span_metric(report, totals, "client.wait", "client.wait_us");
    add_span_metric(report, totals, "client.parse", "client.parse_us");
    add_span_metric(report, totals, "engine.submit", "engine.submit_us");
    report.add("trace.spans", static_cast<double>(tracer.size()), "count");
    report.add("trace.overhead_share",
               static_cast<double>(tracer.size()) * span_cost_seconds() / run_s,
               "fraction");
    tracer.write_csv(stem + ".spans.csv");  // the latest traced run only
  }

  for (const Metric& metric : report.metrics()) {
    std::cout << options.workload << ' ' << metric.name << ' '
              << number(metric.value, 10) << ' ' << metric.unit;
    if (metric.samples > 0) std::cout << " n=" << metric.samples;
    std::cout << "\n";
  }
  for (const std::string& failure : report.failures()) {
    std::cerr << "GATE FAILED: " << failure << "\n";
  }
  {
    std::ofstream out(stem + ".seed" + std::to_string(options.seed) +
                      ".trace" + (options.trace ? "1" : "0") + ".json");
    results_json(options, report, started_at).dump(out);
  }

  // The result line: the chosen metric set, every name present.
  std::cout << "{\"correct\": " << (report.correct() ? "true" : "false")
            << ", \"attempted\": " << report.attempted()
            << ", \"failed\": " << report.failed() << ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricSpec& spec) {
    const Metric* metric = report.find(spec.name);
    std::cout << (first ? "" : ", ") << '"' << spec.name
              << "\": {\"value\": " << number(metric ? metric->value : 0.0)
              << ", \"unit\": \"" << spec.unit << "\"}";
    first = false;
  };
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec);
  }
  std::cout << "}}" << std::endl;
  return report.correct() ? 0 : 1;
}
