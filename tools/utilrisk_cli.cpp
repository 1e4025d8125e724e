// The utilrisk command-line tool: generate workloads, run simulations,
// sweep the risk analysis and get policy recommendations without writing
// any C++.
//
//   utilrisk trace     --generator zipf:theta=0.9 --jobs 5000 --swf t.swf
//   utilrisk simulate  --policy LibraRiskD --model bid --jobs 2000
//   utilrisk sweep     --model commodity --set B --out bench_out
//   utilrisk advise    --model bid --set B --weights 0.25,0.25,0.25,0.25
//   utilrisk replay    --check tests/golden --workers 4
//
// Subcommands are table entries in a cli::CommandRegistry (cli/command.hpp):
// each declares its options, summary and handler in one place, and the
// registry supplies the shared --log-level/--workers/--manifest-dir
// options, the per-invocation metrics registry and the run manifest.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "cli/args.hpp"
#include "cli/command.hpp"
#include "core/advisor.hpp"
#include "core/report.hpp"
#include "exp/experiment.hpp"
#include "exp/figures.hpp"
#include "exp/replication.hpp"
#include "obs/manifest.hpp"
#include "obs/progress.hpp"
#include "serve/engine.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "serve/shard.hpp"
#include "service/computing_service.hpp"
#include "verify/golden.hpp"
#include "workload/generator.hpp"
#include "workload/swf.hpp"
#include "workload/trace_stats.hpp"
#include "workload/workload.hpp"

namespace {

using namespace utilrisk;

std::vector<workload::Job> make_trace(const std::string& generator,
                                      std::uint32_t jobs,
                                      std::uint64_t seed) {
  // A workload method name or "name:key=value,..." spec generates with
  // --jobs/--seed injected as spec defaults; anything else is treated as
  // an SWF file path.
  const std::string head = generator.substr(0, generator.find(':'));
  for (const workload::GeneratorMethod& method :
       workload::registered_generators()) {
    if (method.name == head) {
      return workload::generate_jobs(workload::GeneratorSpec::parse(generator),
                                     jobs, seed);
    }
  }
  workload::SwfLoadOptions options;
  options.keep_last = jobs;
  return workload::load_swf(generator, options).jobs;
}

/// A job, node or request count: at least 1, and within the 32-bit
/// fields it lands in.
std::uint32_t get_count(const cli::ArgParser& parser, const std::string& name) {
  return static_cast<std::uint32_t>(parser.get_int(
      name, 1, std::numeric_limits<std::uint32_t>::max()));
}

std::uint64_t get_seed(const cli::ArgParser& parser, const std::string& name) {
  return static_cast<std::uint64_t>(parser.get_int(name, 0));
}

constexpr long kMaxPort = 65535;

/// `--adf`: the factor on inter-arrival gaps (Table VI spans 0.02 to 1).
double get_adf(const cli::ArgParser& parser) {
  return parser.get_double("adf", 0.001, 1000);
}

/// `--fail-mtbf`: seconds, or the literal `inf` for no failures.
double get_mtbf(const cli::ArgParser& parser) {
  return parser.get("fail-mtbf") == "inf"
             ? std::numeric_limits<double>::infinity()
             : parser.get_double("fail-mtbf", 1);
}

economy::EconomicModel parse_model(const std::string& name) {
  if (name == "commodity") return economy::EconomicModel::CommodityMarket;
  if (name == "bid") return economy::EconomicModel::BidBased;
  throw cli::ArgError("unknown model '" + name + "' (commodity|bid)");
}

exp::ExperimentSet parse_set(const std::string& name) {
  if (name == "A" || name == "a") return exp::ExperimentSet::A;
  if (name == "B" || name == "b") return exp::ExperimentSet::B;
  throw cli::ArgError("unknown set '" + name + "' (A|B)");
}

// ------------------------------------------------------------------ trace

void declare_trace(cli::ArgParser& parser) {
  parser.option("generator", "SPEC",
                "registered workload method, optionally with parameters "
                "(\"name:key=value,...\"; see --list), or a path to an SWF "
                "file",
                "sdsc");
  parser.flag("list",
              "list the registered workload-generator methods and their "
              "parameters, then exit");
  parser.option("jobs", "N", "number of jobs", "5000");
  parser.option("seed", "S", "generator seed", "42");
  parser.option("nodes", "N", "machine width for utilisation", "128");
  parser.option("swf", "PATH", "also save the trace as SWF");
  parser.option("qos", "PATH",
                "assign default SLA terms and save the QoS sidecar CSV");
}

int cmd_trace(cli::CommandContext& ctx) {
  const cli::ArgParser& parser = ctx.args;
  if (parser.get_flag("list")) {
    std::cout << "registered workload-generator methods (docs/WORKLOADS.md):"
              << "\n\n";
    for (const workload::GeneratorMethod& method :
         workload::registered_generators()) {
      std::cout << method.name << " — " << method.summary << '\n';
      for (const workload::GeneratorParamDoc& param : method.params) {
        std::cout << "    " << param.key << ": " << param.doc << '\n';
      }
    }
    return 0;
  }
  auto jobs = make_trace(parser.get("generator"), get_count(parser, "jobs"),
                         get_seed(parser, "seed"));
  std::cout << workload::compute_trace_stats(jobs,
                                             get_count(parser, "nodes"));
  if (parser.has("swf")) {
    std::ofstream out(parser.get("swf"));
    if (!out) throw cli::ArgError("cannot write " + parser.get("swf"));
    workload::save_swf(out, jobs, {"generated by utilrisk trace"});
    std::cout << "[wrote " << parser.get("swf") << "]\n";
  }
  if (parser.has("qos")) {
    workload::assign_qos(jobs, workload::QosConfig{});
    std::ofstream out(parser.get("qos"));
    if (!out) throw cli::ArgError("cannot write " + parser.get("qos"));
    workload::save_qos_sidecar(out, jobs);
    std::cout << "[wrote " << parser.get("qos") << "]\n";
  }
  return 0;
}

// --------------------------------------------------------------- simulate

void declare_simulate(cli::ArgParser& parser) {
  parser.option("policy", "NAME",
                "FCFS-BF | SJF-BF | EDF-BF | Libra | Libra+$ | LibraRiskD | "
                "FirstReward",
                "Libra");
  parser.option("model", "M", "commodity | bid", "commodity");
  parser.option("generator", "NAME", "sdsc | lublin | SWF path", "sdsc");
  parser.option("jobs", "N", "number of jobs", "2000");
  parser.option("seed", "S", "trace seed", "42");
  parser.option("nodes", "N", "machine width", "128");
  parser.option("adf", "F", "arrival delay factor (lower = heavier load)",
                "0.25");
  parser.option("inaccuracy", "P", "runtime-estimate inaccuracy percent",
                "100");
  parser.option("urgency", "P", "percentage of high-urgency jobs", "20");
  parser.option("fail-mtbf", "S",
                "per-node mean time between failures, seconds (inf = no "
                "failures)",
                "inf");
  parser.option("fail-mttr", "S", "mean time to repair a node, seconds",
                "3600");
  parser.option("fail-seed", "S", "failure-injector seed", "64023");
  parser.option("retry-limit", "N",
                "resubmissions of a job killed by an outage", "0");
  parser.option("replicates", "N",
                "run N independent-seed replicates (fanned out across "
                "--workers threads) and report mean +- 95% CI", "1");
  parser.flag("records", "dump one line per job outcome");
}

int cmd_simulate(cli::CommandContext& ctx) {
  const cli::ArgParser& parser = ctx.args;
  const std::uint64_t seed = get_seed(parser, "seed");
  const long replicates = parser.get_int(
      "replicates", 1, std::numeric_limits<std::uint32_t>::max());
  if (replicates > 1) {
    if (parser.get("generator") != "sdsc") {
      throw cli::ArgError(
          "--replicates re-seeds the synthetic sdsc generator; it cannot "
          "be combined with --generator " + parser.get("generator"));
    }
    exp::ReplicationConfig rconfig;
    rconfig.policy = policy::parse_policy_kind(parser.get("policy"));
    rconfig.model = parse_model(parser.get("model"));
    rconfig.trace.job_count = get_count(parser, "jobs");
    rconfig.machine.node_count = get_count(parser, "nodes");
    rconfig.settings.high_urgency_percent =
        parser.get_double("urgency", 0, 100);
    rconfig.settings.arrival_delay_factor = get_adf(parser);
    rconfig.settings.inaccuracy_percent =
        parser.get_double("inaccuracy", 0, 100);
    rconfig.settings.failure.mtbf_seconds = get_mtbf(parser);
    rconfig.settings.failure.mttr_seconds =
        parser.get_double("fail-mttr", 1);
    rconfig.settings.failure.seed = get_seed(parser, "fail-seed");
    rconfig.settings.recovery.retry_limit = static_cast<std::uint32_t>(
        parser.get_int("retry-limit", 0,
                       std::numeric_limits<std::uint32_t>::max()));
    rconfig.workers = ctx.workers;
    rconfig.seeds.clear();
    for (long i = 0; i < replicates; ++i) {
      rconfig.seeds.push_back(seed + static_cast<std::uint64_t>(i) * 9973);
    }
    ctx.manifest.seeds = rconfig.seeds;
    const exp::ReplicationSummary summary = exp::replicate(rconfig);
    std::cout << "policy:       " << parser.get("policy") << '\n'
              << "model:        " << parser.get("model") << '\n'
              << "replicates:   " << replicates << " (workers: "
              << rconfig.workers << ")\n";
    for (core::Objective objective : core::kAllObjectives) {
      const exp::ObjectiveEstimate& e = summary.of(objective);
      std::cout << core::to_string(objective) << ": mean " << e.mean
                << " +- " << e.ci95_half << " (95% CI)\n";
      ctx.manifest.stats.emplace_back(
          "mean." + std::string(core::to_string(objective)), e.mean);
    }
    return 0;
  }

  const workload::WorkloadBuilder builder(
      make_trace(parser.get("generator"), get_count(parser, "jobs"), seed));
  workload::QosConfig qos;
  qos.high_urgency_percent = parser.get_double("urgency", 0, 100);
  const auto jobs = builder.build(qos, get_adf(parser),
                                  parser.get_double("inaccuracy", 0, 100));

  policy::PolicyContext context;
  context.machine.node_count = get_count(parser, "nodes");
  context.model = parse_model(parser.get("model"));
  context.failure.mtbf_seconds = get_mtbf(parser);
  context.failure.mttr_seconds = parser.get_double("fail-mttr", 1);
  context.failure.seed = get_seed(parser, "fail-seed");
  context.recovery.retry_limit = static_cast<std::uint32_t>(parser.get_int(
      "retry-limit", 0, std::numeric_limits<std::uint32_t>::max()));
  context.metrics = &ctx.metrics;
  context.log_level = ctx.log_level;
  ctx.manifest.seeds = {seed, context.failure.seed};
  const auto report = service::simulate(
      jobs,
      service::factory_for(policy::parse_policy_kind(parser.get("policy"))),
      context);
  ctx.manifest.digest = report.digest;

  std::size_t failed_outages = 0;
  for (const service::SlaRecord& record : report.records) {
    if (record.outcome == workload::JobOutcome::FailedOutage) {
      ++failed_outages;
    }
  }

  std::cout << "policy:       " << parser.get("policy") << '\n'
            << "model:        " << parser.get("model") << '\n'
            << "submitted:    " << report.inputs.submitted << '\n'
            << "accepted:     " << report.inputs.accepted << '\n'
            << "fulfilled:    " << report.inputs.fulfilled << '\n'
            << "objectives:   " << report.objectives << '\n'
            << "utilization:  " << report.utilization << '\n'
            << "sim events:   " << report.events_dispatched << '\n';
  if (context.failure.enabled()) {
    std::cout << "failed-outage: " << failed_outages << '\n';
  }
  if (parser.get_flag("records")) {
    for (const service::SlaRecord& record : report.records) {
      std::cout << "job " << record.job.id << ": "
                << to_string(record.outcome) << " utility=" << record.utility
                << " wait=" << (record.accepted() ? record.wait_time() : 0.0)
                << '\n';
    }
  }
  ctx.manifest.stats = {
      {"submitted", static_cast<double>(report.inputs.submitted)},
      {"accepted", static_cast<double>(report.inputs.accepted)},
      {"fulfilled", static_cast<double>(report.inputs.fulfilled)},
      {"events_dispatched", static_cast<double>(report.events_dispatched)},
      {"utilization", report.utilization},
  };
  return 0;
}

// ------------------------------------------------------------------ sweep

/// Shared by sweep and advise: an ExperimentRunner wired to the
/// invocation's metrics registry and a progress reporter, plus the
/// manifest entries every sweep records.
exp::SweepResult run_wired_sweep(cli::CommandContext& ctx,
                                 const exp::ExperimentConfig& config,
                                 exp::SweepStats* stats_out,
                                 const std::vector<exp::Scenario>* scenarios =
                                     nullptr) {
  exp::ExperimentRunner runner(config, nullptr, ctx.workers);
  runner.set_metrics(&ctx.metrics);
  obs::ProgressReporter::Options popts;
  popts.label = "sweep";
  obs::ProgressReporter progress(popts);
  runner.set_progress(&progress);
  exp::SweepResult sweep =
      scenarios != nullptr
          ? runner.run_scenarios(*scenarios, config.default_settings(),
                                 policy::policies_for_model(config.model))
          : runner.run_sweep();
  const exp::SweepStats& stats = runner.stats();
  std::cout << "[" << stats.simulations << " simulations on "
            << runner.worker_count() << " worker(s): " << stats.events
            << " events in " << stats.wall_seconds << " s; "
            << stats.deduped << " runs deduped in flight]\n";
  ctx.manifest.seeds = {config.trace.seed, config.qos_seed};
  ctx.manifest.digest = verify::to_hex(verify::sweep_digest(sweep));
  ctx.manifest.stats = {
      {"simulations", static_cast<double>(stats.simulations)},
      {"events", static_cast<double>(stats.events)},
      {"sweep_wall_seconds", stats.wall_seconds},
      {"cache_hits", static_cast<double>(stats.cache_hits)},
      {"deduped", static_cast<double>(stats.deduped)},
      {"workers", static_cast<double>(runner.worker_count())},
  };
  if (stats_out != nullptr) *stats_out = stats;
  return sweep;
}

void declare_sweep(cli::ArgParser& parser) {
  parser.option("model", "M", "commodity | bid", "commodity");
  parser.option("set", "A|B", "experiment set (estimate accuracy)", "B");
  parser.option("jobs", "N", "jobs per simulation", "1000");
  parser.option("workload", "SPEC",
                "base-trace generator spec (\"name:key=value,...\", see "
                "`utilrisk trace --list`); default: the synthetic SDSC "
                "trace");
  parser.option("scenario", "NAME",
                "sweep only this scenario (Table VI name, or an extension: "
                "mtbf | zipf | flash | daly); default: the full Table VI "
                "set");
  parser.option("out", "DIR", "write CSV/gnuplot data here");
  parser.option("objective", "NAME",
                "print one separate-risk plot (wait|SLA|reliability|"
                "profitability); default prints the integrated plot");
}

int cmd_sweep(cli::CommandContext& ctx) {
  const cli::ArgParser& parser = ctx.args;
  exp::ExperimentConfig config;
  config.model = parse_model(parser.get("model"));
  config.set = parse_set(parser.get("set"));
  config.trace.job_count = get_count(parser, "jobs");
  if (parser.has("workload")) config.workload = parser.get("workload");
  std::vector<exp::Scenario> scenarios;
  if (parser.has("scenario")) {
    try {
      scenarios.push_back(exp::scenario_by_name(parser.get("scenario")));
    } catch (const std::invalid_argument& e) {
      throw cli::ArgError(e.what());
    }
  }
  const exp::SweepResult sweep = run_wired_sweep(
      ctx, config, nullptr, scenarios.empty() ? nullptr : &scenarios);

  core::RiskPlot plot;
  if (parser.has("objective")) {
    const core::Objective objective =
        core::parse_objective(parser.get("objective"));
    plot = exp::separate_plot(
        sweep, objective,
        "separate risk: " + std::string(core::to_string(objective)));
  } else {
    const std::vector<core::Objective> all(core::kAllObjectives.begin(),
                                           core::kAllObjectives.end());
    plot = exp::integrated_plot(sweep, all, "integrated risk: all objectives");
  }
  core::write_ascii_scatter(std::cout, plot);
  core::write_ranking_table(
      std::cout, core::rank_policies(plot.series, core::RankBy::BestPerformance),
      core::RankBy::BestPerformance);

  if (parser.has("out")) {
    const std::string base = parser.get("out");
    std::ofstream csv(base + ".csv");
    core::write_plot_csv(csv, plot);
    std::ofstream dat(base + ".dat");
    core::write_plot_gnuplot(dat, plot);
    std::ofstream script(base + ".gp");
    core::write_gnuplot_script(script, plot, base + ".dat", base + ".png");
    std::cout << "[wrote " << base << ".{csv,dat,gp}]\n";
  }
  return 0;
}

// ----------------------------------------------------------------- replay

void declare_replay(cli::ArgParser& parser) {
  parser.option("record", "DIR", "run the golden matrix and write the "
                "digest files here (review the diff before committing)");
  parser.option("check", "DIR",
                "re-run the matrix and verify it against the golden digest "
                "files in DIR; exits 1 naming the first diverging record");
  parser.option("model", "M", "commodity | bid | both", "both");
  parser.option("set", "A|B", "experiment set", "B");
  parser.option("jobs", "N",
                "jobs per simulation (--record only; --check honours the "
                "golden file's own header)",
                "80");
  parser.option("report", "PATH",
                "write the digest mismatch report here when a check fails",
                "replay_mismatch.txt");
}

int cmd_replay(cli::CommandContext& ctx) {
  const cli::ArgParser& parser = ctx.args;
  const bool record = parser.has("record");
  const bool check = parser.has("check");
  if (record == check) {
    throw cli::ArgError(
        "replay needs exactly one of --record DIR or --check DIR");
  }
  std::vector<economy::EconomicModel> models;
  if (parser.get("model") == "both") {
    models = {economy::EconomicModel::CommodityMarket,
              economy::EconomicModel::BidBased};
  } else {
    models = {parse_model(parser.get("model"))};
  }
  ctx.manifest.stats = {{"workers", static_cast<double>(ctx.workers)}};

  // One digest over everything this invocation touched, for the manifest.
  verify::DigestStream overall;

  if (record) {
    std::size_t records = 0;
    for (economy::EconomicModel model : models) {
      verify::GoldenConfig config;
      config.model = model;
      config.set = parse_set(parser.get("set"));
      config.job_count = get_count(parser, "jobs");
      const verify::GoldenFile golden =
          verify::compute_golden(config, ctx.workers);
      const std::string path =
          verify::write_golden(golden, parser.get("record"));
      overall.put_u64(golden.combined());
      records += golden.entries.size();
      std::cout << "[wrote " << path << ": " << golden.entries.size()
                << " records]\n";
    }
    ctx.manifest.digest = verify::to_hex(overall.value());
    ctx.manifest.stats.emplace_back("records",
                                    static_cast<double>(records));
    return 0;
  }

  std::size_t checked = 0;
  std::vector<std::string> diagnostics;
  for (economy::EconomicModel model : models) {
    verify::GoldenConfig requested;
    requested.model = model;
    requested.set = parse_set(parser.get("set"));
    const std::string path = (std::filesystem::path(parser.get("check")) /
                              requested.filename())
                                 .string();
    // The golden file's header is authoritative for job count and seeds;
    // the command line only selects which files to check.
    const verify::GoldenFile golden = verify::load_golden(path);
    const verify::CheckReport result =
        verify::check_golden(golden, ctx.workers);
    checked += result.records_checked;
    for (const std::string& diagnostic : result.diagnostics) {
      diagnostics.push_back(golden.config.filename() + ": " + diagnostic);
    }
    overall.put_u64(golden.combined());
  }
  ctx.manifest.digest = verify::to_hex(overall.value());
  ctx.manifest.stats.emplace_back("records_checked",
                                  static_cast<double>(checked));
  ctx.manifest.stats.emplace_back("diverging_records",
                                  static_cast<double>(diagnostics.size()));
  if (diagnostics.empty()) {
    std::cout << "replay: OK (" << checked << " records, " << models.size()
              << " golden file(s))\n";
    return 0;
  }

  std::cerr << "replay: FAILED — " << diagnostics.size()
            << " diverging record(s) of " << checked << '\n';
  for (const std::string& diagnostic : diagnostics) {
    std::cerr << "  " << diagnostic << '\n';
  }
  std::ofstream out(parser.get("report"));
  if (out) {
    for (const std::string& diagnostic : diagnostics) {
      out << diagnostic << '\n';
    }
    std::cerr << "[wrote " << parser.get("report") << "]\n";
  } else {
    std::cerr << "[cannot write " << parser.get("report") << "]\n";
  }
  return 1;
}

// ----------------------------------------------------------------- advise

void declare_advise(cli::ArgParser& parser) {
  parser.option("model", "M", "commodity | bid", "bid");
  parser.option("set", "A|B", "experiment set", "B");
  parser.option("jobs", "N", "jobs per simulation", "1000");
  parser.option("workload", "SPEC",
                "base-trace generator spec (\"name:key=value,...\", see "
                "`utilrisk trace --list`)");
  parser.option("weights", "w,s,r,p",
                "objective weights: wait,SLA,reliability,profitability",
                "0.25,0.25,0.25,0.25");
  parser.option("risk-aversion", "L",
                "volatility penalty (0 = risk-neutral)", "0.5");
  parser.option("sweep-objective", "NAME",
                "also sweep this objective's weight 0..1 and report the "
                "crossovers (wait|SLA|reliability|profitability)");
}

int cmd_advise(cli::CommandContext& ctx) {
  const cli::ArgParser& parser = ctx.args;
  core::AdvisorConfig advisor;
  try {
    advisor.objective_weights =
        core::AdvisorConfig::parse_weights(parser.get("weights"));
    advisor.risk_aversion = parser.get_double("risk-aversion", 0);
    advisor.validate();
  } catch (const std::invalid_argument& e) {
    throw cli::ArgError(e.what());
  }

  exp::ExperimentConfig config;
  config.model = parse_model(parser.get("model"));
  config.set = parse_set(parser.get("set"));
  config.trace.job_count = get_count(parser, "jobs");
  if (parser.has("workload")) config.workload = parser.get("workload");
  const core::AdvisorInput measured =
      exp::advisor_input(run_wired_sweep(ctx, config, nullptr));
  const core::AdvisorReport report = core::advise(measured, advisor);

  std::cout << report.summary << "\n\nranking:\n";
  int rank = 1;
  for (const core::PolicyAdvice& advice : report.ranked) {
    std::cout << "  " << rank++ << ". " << advice.policy << "  score "
              << core::format_value(advice.score) << " (perf "
              << core::format_value(advice.mean_performance) << ", vol "
              << core::format_value(advice.mean_volatility) << ")\n";
  }

  if (parser.has("sweep-objective")) {
    const core::Objective focus =
        core::parse_objective(parser.get("sweep-objective"));
    std::cout << "\nweight sensitivity for " << core::to_string(focus)
              << ":\n";
    const auto sweep = core::weight_sensitivity(measured, focus, 11, advisor);
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      std::cout << "  weight " << core::format_value(sweep[i].weight)
                << ": " << sweep[i].winner
                << (i > 0 && sweep[i].winner != sweep[i - 1].winner
                        ? "   <-- crossover"
                        : "")
                << '\n';
    }
  }
  return 0;
}

// ------------------------------------------------------------------ serve

/// SIGTERM/SIGINT request a graceful drain of the serve loop. Plain
/// atomic flag: the only thing async-signal-safe enough to touch here.
std::atomic<bool> g_serve_stop{false};

extern "C" void serve_signal_handler(int /*signum*/) {
  g_serve_stop.store(true);
}

void declare_serve(cli::ArgParser& parser) {
  parser.option("socket", "PATH", "serve on this unix-domain socket");
  parser.option("port", "N",
                "serve on this TCP loopback port (0 = ephemeral; the bound "
                "port is printed)");
  parser.flag("stdio",
              "serve requests from stdin and write responses to stdout; "
              "EOF drains and exits");
  parser.option("policy", "NAME",
                "FCFS-BF | SJF-BF | EDF-BF | Libra | Libra+$ | LibraRiskD | "
                "FirstReward",
                "Libra");
  parser.option("model", "M", "commodity | bid", "commodity");
  parser.option("nodes", "N", "machine width", "128");
  parser.option("queue-capacity", "N",
                "bounded admission queue length; a full queue answers "
                "`busy` (backpressure)",
                "1024");
  parser.option("max-batch", "N",
                "max requests coalesced into one simulation tick", "64");
  parser.option("retry-after-ms", "MS",
                "retry hint sent with `busy` responses", "50");
  parser.option("io-threads", "N",
                "connection reader threads (socket modes); also caps "
                "concurrent connections",
                "4");
  parser.option("shards", "N",
                "engine shards: requests route by tenant (or scenario key) "
                "over a consistent hash; the session digest is the "
                "order-independent merge of the per-shard digests",
                "1");
  parser.option("journal", "DIR",
                "write-ahead admission journal directory (shard i journals "
                "under DIR/shard-000i); on startup any surviving journal is "
                "replayed (deterministic crash recovery, digest-verified) — "
                "the shard count must match the journal's");
  parser.option("fsync", "POLICY",
                "journal durability: none | batch (fsync per tick) | "
                "always (fsync per record)",
                "batch");
  parser.option("segment-records", "N",
                "journal records per segment before rotation", "4096");
  parser.option("group-commit-ms", "MS",
                "max time (under --fsync batch) completions wait so one "
                "fsync covers several ticks while backlog persists",
                "8");
  parser.option("write-buffer-bytes", "N",
                "per-connection response buffer cap; an overflowing "
                "(non-reading) client is disconnected",
                "262144");
  parser.option("write-stall-ms", "MS",
                "disconnect a connection whose buffered responses make no "
                "progress for this long",
                "5000");
  parser.flag("advise-auto",
              "let the online risk advisor switch a routing key's live "
              "policy at deterministic switch points (journalled, folded "
              "into the decision digest; docs/ADVISOR.md)");
  parser.option("advise-every", "N",
                "scheduled advisor evaluations every N decided requests "
                "per routing key (0 = none, or the built-in 1024 under "
                "--advise-auto)",
                "0");
  parser.option("advise-window", "N",
                "rolling per-key job window the advisor observes and "
                "shadow-replays (>= 2)",
                "64");
  parser.option("advise-weights", "w,s,r,p",
                "advisor objective weights: wait,SLA,reliability,"
                "profitability (must sum to 1)",
                "0.25,0.25,0.25,0.25");
  parser.option("advise-risk-aversion", "L",
                "advisor volatility penalty lambda (0 = risk-neutral)",
                "0.5");
}

serve::EngineConfig engine_config_from(const cli::CommandContext& ctx) {
  const cli::ArgParser& parser = ctx.args;
  serve::EngineConfig config;
  config.policy = policy::parse_policy_kind(parser.get("policy"));
  config.model = parse_model(parser.get("model"));
  config.machine.node_count = get_count(parser, "nodes");
  config.queue_capacity =
      static_cast<std::size_t>(parser.get_int("queue-capacity", 1));
  config.max_batch = static_cast<std::size_t>(parser.get_int("max-batch", 1));
  config.retry_after_ms = parser.get_double("retry-after-ms", 0);
  if (parser.has("journal")) config.journal_dir = parser.get("journal");
  try {
    config.fsync = serve::parse_fsync_policy(parser.get("fsync"));
  } catch (const std::invalid_argument& e) {
    throw cli::ArgError(e.what());
  }
  config.journal_segment_records =
      static_cast<std::size_t>(parser.get_int("segment-records", 1));
  config.group_commit_ms = parser.get_double("group-commit-ms", 0);
  config.advisor.auto_switch = parser.get_flag("advise-auto");
  config.advisor.advise_every =
      static_cast<std::uint64_t>(parser.get_int("advise-every", 0));
  config.advisor.window =
      static_cast<std::size_t>(parser.get_int("advise-window", 2));
  try {
    config.advisor.scoring.objective_weights =
        core::AdvisorConfig::parse_weights(parser.get("advise-weights"));
    config.advisor.scoring.risk_aversion =
        parser.get_double("advise-risk-aversion", 0);
    config.advisor.validate();
  } catch (const std::invalid_argument& e) {
    throw cli::ArgError(e.what());
  }
  config.metrics = &ctx.metrics;
  config.log_level = ctx.log_level;
  return config;
}

void report_session(cli::CommandContext& ctx, std::ostream& out,
                    const serve::ShardedEngine& engine,
                    const serve::EngineStats& engine_stats,
                    const serve::ServerStats& server_stats) {
  out << "requests:     " << server_stats.lines << '\n'
      << "processed:    " << engine_stats.processed << '\n'
      << "accepted:     " << engine_stats.accepted << '\n'
      << "rejected:     " << engine_stats.rejected << '\n'
      << "busy:         " << server_stats.busy << '\n'
      << "shed:         " << engine_stats.shed << '\n'
      << "malformed:    " << server_stats.malformed << '\n'
      << "oversized:    " << server_stats.oversized << '\n'
      << "stalled:      " << server_stats.stalled << '\n'
      << "responses:    " << server_stats.responses << '\n'
      << "fulfilled:    " << engine_stats.fulfilled << '\n'
      << "violated:     " << engine_stats.violated << '\n'
      << "sim events:   " << engine_stats.events_dispatched << '\n'
      << "virtual end:  " << engine_stats.virtual_end_time << " s\n"
      << "digest:       " << engine_stats.decision_digest << '\n';
  if (engine_stats.advise_queries > 0 ||
      engine_stats.advisor_evaluations > 0 ||
      engine_stats.policy_switches > 0) {
    out << "advise:       " << engine_stats.advise_queries << " queries, "
        << engine_stats.advisor_evaluations << " evaluations, "
        << engine_stats.policy_switches << " policy switch(es)\n";
  }
  if (engine.shard_count() > 1) {
    out << "shards:       " << engine.shard_count() << " (";
    for (std::size_t i = 0; i < engine.shard_stats().size(); ++i) {
      out << (i > 0 ? " " : "") << engine.shard_stats()[i].processed;
    }
    out << " processed)\n";
  }
  const serve::RecoveryStats recovery = engine.recovery();
  if (recovery.attempted) {
    const serve::JournalStats journal = engine.journal_stats();
    out << "journal:      " << journal.requests << " requests, "
        << journal.ticks << " ticks, " << journal.fsyncs << " fsyncs, "
        << journal.rotations << " rotations, " << journal.bytes
        << " bytes\n"
        << "recovered:    " << recovery.replayed << " replayed from "
        << recovery.segments << " segment(s), "
        << recovery.truncated_records << " torn record(s) dropped\n";
  }
  ctx.manifest.digest = engine_stats.decision_digest;
  ctx.manifest.stats = {
      {"requests", static_cast<double>(server_stats.lines)},
      {"processed", static_cast<double>(engine_stats.processed)},
      {"accepted", static_cast<double>(engine_stats.accepted)},
      {"rejected", static_cast<double>(engine_stats.rejected)},
      {"busy", static_cast<double>(server_stats.busy)},
      {"shed", static_cast<double>(engine_stats.shed)},
      {"malformed", static_cast<double>(server_stats.malformed)},
      {"oversized", static_cast<double>(server_stats.oversized)},
      {"stalled", static_cast<double>(server_stats.stalled)},
      {"responses", static_cast<double>(server_stats.responses)},
      {"batches", static_cast<double>(engine_stats.batches)},
      {"events_dispatched",
       static_cast<double>(engine_stats.events_dispatched)},
      {"advise_queries", static_cast<double>(engine_stats.advise_queries)},
      {"advisor_evaluations",
       static_cast<double>(engine_stats.advisor_evaluations)},
      {"policy_switches",
       static_cast<double>(engine_stats.policy_switches)},
      {"recovered_replayed", static_cast<double>(recovery.replayed)},
      {"recovered_truncated",
       static_cast<double>(recovery.truncated_records)},
      {"shards", static_cast<double>(engine.shard_count())},
  };
  for (std::size_t i = 0; i < engine.shard_stats().size(); ++i) {
    ctx.manifest.stats.emplace_back(
        "shard_" + std::to_string(i) + "_processed",
        static_cast<double>(engine.shard_stats()[i].processed));
  }
}

int cmd_serve(cli::CommandContext& ctx) {
  const cli::ArgParser& parser = ctx.args;
  const bool stdio = parser.get_flag("stdio");
  const bool socket = parser.has("socket");
  const bool tcp = parser.has("port");
  if (static_cast<int>(stdio) + static_cast<int>(socket) +
          static_cast<int>(tcp) !=
      1) {
    throw cli::ArgError(
        "serve needs exactly one of --socket PATH, --port N or --stdio");
  }

  serve::ServerConfig server_config;
  if (socket) {
    server_config.unix_path = parser.get("socket");
  } else if (tcp) {
    server_config.tcp_port =
        static_cast<int>(parser.get_int("port", 0, kMaxPort));
  }
  server_config.io_threads =
      static_cast<std::size_t>(parser.get_int("io-threads", 1));
  server_config.write_buffer_bytes =
      static_cast<std::size_t>(parser.get_int("write-buffer-bytes", 1024));
  server_config.write_stall_ms = parser.get_double("write-stall-ms", 1);

  serve::ShardedEngineConfig sharded_config;
  sharded_config.engine = engine_config_from(ctx);
  sharded_config.shards =
      static_cast<std::size_t>(parser.get_int("shards", 1));
  serve::ShardedEngine engine(sharded_config);
  const serve::RecoveryStats recovery = engine.recovery();
  if (recovery.attempted && recovery.replayed > 0) {
    std::cout << "[recovered " << recovery.replayed
              << " journalled request(s); digest "
              << recovery.replayed_digest << "]" << std::endl;
  }
  engine.start();
  serve::Server server(server_config, engine);

  if (stdio) {
    // Protocol on stdout; the human-facing summary goes to stderr.
    const serve::ServerStats server_stats =
        server.run_stdio(std::cin, std::cout);
    report_session(ctx, std::cerr, engine, engine.drain(), server_stats);
    return 0;
  }

  server.start();
  if (socket) {
    std::cout << "[serving on " << server_config.unix_path << "]"
              << std::endl;
  } else {
    std::cout << "[serving on 127.0.0.1:" << server.bound_port() << "]"
              << std::endl;
  }

  std::signal(SIGTERM, serve_signal_handler);
  std::signal(SIGINT, serve_signal_handler);
  while (!g_serve_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::cout << "[draining]" << std::endl;
  const serve::EngineStats engine_stats = server.stop_and_drain();
  report_session(ctx, std::cout, engine, engine_stats, server.stats());
  return 0;
}

// ---------------------------------------------------------------- version

int cmd_version(cli::CommandContext& /*ctx*/) {
  std::cout << "utilrisk " << obs::build_git_describe() << '\n';
  return 0;
}

// ---------------------------------------------------------------- loadgen

void declare_loadgen(cli::ArgParser& parser) {
  parser.option("socket", "PATH", "connect to this unix-domain socket");
  parser.option("port", "N", "connect to this TCP loopback port");
  parser.option("requests", "N", "number of requests to send", "5000");
  parser.option("seed", "S", "workload seed (trace + QoS + arrivals)", "42");
  parser.option("workload", "SPEC",
                "request-stream generator spec (\"name:key=value,...\", see "
                "`utilrisk trace --list`); default: the synthetic SDSC "
                "trace");
  parser.option("mix-shift", "T:SPEC",
                "switch the request stream to workload SPEC at virtual "
                "time T seconds (e.g. 21600:zipf:theta=0.5); composes "
                "with --workload for the pre-switch phase");
  parser.flag("open-loop",
              "send on a wall-clock schedule regardless of responses "
              "(overload mode); default is closed loop");
  parser.option("rate", "R", "open-loop send rate, requests/second", "2000");
  parser.option("connections", "N",
                "client connections to fan the stream across; requests "
                "partition by tenant/scenario routing key, so per-tenant "
                "order (and the merged digest) is preserved",
                "1");
  parser.option("busy-retries", "N",
                "closed-loop: re-send a busy-answered request up to this "
                "many times before booking the busy as final (0 = legacy "
                "busy-is-terminal)",
                "8");
  parser.option("retry-interval-ms", "MS",
                "closed-loop busy backoff used only when the server sent "
                "no retry_after_ms hint (the hint always wins)",
                "5");
  parser.option("urgency", "P", "percentage of high-urgency jobs", "20");
  parser.option("adf", "F", "arrival delay factor on the virtual clock",
                "1.0");
  parser.option("inaccuracy", "P", "runtime-estimate inaccuracy percent",
                "100");
  parser.option("timeout", "S", "give up after this much server silence",
                "30");
  parser.option("deadline-ms", "MS",
                "stamp this wall-clock decision budget on every request; "
                "expired-in-queue requests come back `shed` (0 = none)",
                "0");
  parser.flag("chaos",
              "hostile-client mode: torn frames, disconnects, malformed "
              "and oversized lines, slow-loris — then a clean probe "
              "stream; exits non-zero unless the server survives");
  parser.option("chaos-connections", "N",
                "hostile connections to run in --chaos mode", "24");
  parser.option("duration", "S",
                "wall-clock cap on the --chaos attack phase", "10");
}

int cmd_loadgen(cli::CommandContext& ctx) {
  const cli::ArgParser& parser = ctx.args;
  serve::LoadgenConfig config;
  if (parser.has("socket")) config.unix_path = parser.get("socket");
  if (parser.has("port")) {
    config.tcp_port = static_cast<int>(parser.get_int("port", 1, kMaxPort));
  }
  if (config.unix_path.empty() && config.tcp_port < 0) {
    throw cli::ArgError("loadgen needs --socket PATH or --port N");
  }
  config.requests = get_count(parser, "requests");
  config.seed = get_seed(parser, "seed");
  if (parser.has("workload")) config.workload = parser.get("workload");
  if (parser.has("mix-shift")) config.mix_shift = parser.get("mix-shift");
  config.open_loop = parser.get_flag("open-loop");
  config.rate = parser.get_double("rate", 0);
  config.connections =
      static_cast<std::size_t>(parser.get_int("connections", 1));
  config.busy_retries =
      static_cast<std::size_t>(parser.get_int("busy-retries", 0));
  config.retry_interval_ms = parser.get_double("retry-interval-ms", 0);
  config.high_urgency_percent = parser.get_double("urgency", 0, 100);
  config.arrival_delay_factor = get_adf(parser);
  config.inaccuracy_percent = parser.get_double("inaccuracy", 0, 100);
  // poll() takes whole milliseconds in an int; a day of silence is plenty.
  config.idle_timeout_seconds = parser.get_double("timeout", 0.001, 86400);
  config.deadline_ms = parser.get_double("deadline-ms", 0);

  if (parser.get_flag("chaos")) {
    config.chaos_connections =
        static_cast<std::size_t>(parser.get_int("chaos-connections", 0));
    config.chaos_duration_seconds = parser.get_double("duration", 0);
    const serve::ChaosReport chaos = serve::run_chaos(config);
    std::cout << "mode:         chaos\n"
              << "connections:  " << chaos.connections << '\n'
              << "disconnects:  " << chaos.disconnects << '\n'
              << "torn writes:  " << chaos.torn_writes << '\n'
              << "malformed:    " << chaos.malformed_sent << '\n'
              << "oversized:    " << chaos.oversized_sent << '\n'
              << "slow-loris:   " << chaos.slow_loris << '\n'
              << "responses:    " << chaos.responses << '\n'
              << "errors seen:  " << chaos.errors_reported << '\n'
              << "probe sent:   " << chaos.probe.sent << '\n'
              << "probe resp:   " << chaos.probe.responses << '\n'
              << "probe drop:   " << chaos.probe.dropped << '\n'
              << "probe digest: " << chaos.probe.decision_digest << '\n'
              << "verdict:      "
              << (chaos.probe_clean ? "server survived" : "SERVER DEGRADED")
              << '\n';
    ctx.manifest.seeds = {config.seed};
    ctx.manifest.digest = chaos.probe.decision_digest;
    ctx.manifest.stats = {
        {"chaos_connections", static_cast<double>(chaos.connections)},
        {"disconnects", static_cast<double>(chaos.disconnects)},
        {"torn_writes", static_cast<double>(chaos.torn_writes)},
        {"malformed_sent", static_cast<double>(chaos.malformed_sent)},
        {"oversized_sent", static_cast<double>(chaos.oversized_sent)},
        {"slow_loris", static_cast<double>(chaos.slow_loris)},
        {"errors_reported", static_cast<double>(chaos.errors_reported)},
        {"probe_sent", static_cast<double>(chaos.probe.sent)},
        {"probe_responses", static_cast<double>(chaos.probe.responses)},
        {"probe_dropped", static_cast<double>(chaos.probe.dropped)},
        {"probe_clean", chaos.probe_clean ? 1.0 : 0.0},
    };
    return chaos.probe_clean ? 0 : 1;
  }

  const serve::LoadgenReport report = serve::run_loadgen(config);
  std::cout << "mode:         " << (config.open_loop ? "open" : "closed")
            << " loop\n"
            << "sent:         " << report.sent << '\n'
            << "responses:    " << report.responses << '\n'
            << "accepted:     " << report.accepted << '\n'
            << "rejected:     " << report.rejected << '\n'
            << "busy:         " << report.busy << '\n'
            << "busy retried: " << report.busy_retried << " ("
            << report.hinted_retries << " hinted)\n"
            << "shed:         " << report.shed << '\n'
            << "errors:       " << report.errors << '\n'
            << "dropped:      " << report.dropped << '\n'
            << "read timeout: " << report.read_timeouts << '\n'
            << "read eof:     " << report.read_eofs << '\n'
            << "read error:   " << report.read_errors << '\n'
            << "wall:         " << report.wall_seconds << " s\n"
            << "throughput:   " << report.throughput_rps << " responses/s\n"
            << "latency p50:  " << report.latency.p50_ms << " ms\n"
            << "latency p95:  " << report.latency.p95_ms << " ms\n"
            << "latency p99:  " << report.latency.p99_ms << " ms\n"
            << "digest:       " << report.decision_digest << '\n';
  ctx.manifest.seeds = {config.seed};
  ctx.manifest.digest = report.decision_digest;
  ctx.manifest.stats = {
      {"sent", static_cast<double>(report.sent)},
      {"responses", static_cast<double>(report.responses)},
      {"accepted", static_cast<double>(report.accepted)},
      {"rejected", static_cast<double>(report.rejected)},
      {"busy", static_cast<double>(report.busy)},
      {"busy_retried", static_cast<double>(report.busy_retried)},
      {"hinted_retries", static_cast<double>(report.hinted_retries)},
      {"shed", static_cast<double>(report.shed)},
      {"errors", static_cast<double>(report.errors)},
      {"dropped", static_cast<double>(report.dropped)},
      {"read_timeouts", static_cast<double>(report.read_timeouts)},
      {"read_eofs", static_cast<double>(report.read_eofs)},
      {"read_errors", static_cast<double>(report.read_errors)},
      {"throughput_rps", report.throughput_rps},
      {"latency_p50_ms", report.latency.p50_ms},
      {"latency_p95_ms", report.latency.p95_ms},
      {"latency_p99_ms", report.latency.p99_ms},
  };
  // Dropped responses mean the round-trip contract broke; make the CI
  // smoke job fail loudly.
  return report.dropped == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  cli::CommandRegistry registry(
      "utilrisk",
      "integrated risk analysis for a commercial computing service");
  registry.add({
      .name = "trace",
      .summary = "generate/inspect workloads (any registered generator "
                 "method, or SWF; --list enumerates them)",
      .declare = declare_trace,
      .handler = cmd_trace,
  });
  registry.add({
      .name = "simulate",
      .summary = "run one policy under one economic model",
      .declare = declare_simulate,
      .handler = cmd_simulate,
      .uses_workers = true,
      .emits_manifest = true,
  });
  registry.add({
      .name = "sweep",
      .summary = "run the 12-scenario risk-analysis sweep",
      .declare = declare_sweep,
      .handler = cmd_sweep,
      .uses_workers = true,
      .emits_manifest = true,
  });
  registry.add({
      .name = "replay",
      .summary = "record/check golden run digests (deterministic-replay "
                 "regression gate)",
      .declare = declare_replay,
      .handler = cmd_replay,
      .uses_workers = true,
      .emits_manifest = true,
  });
  registry.add({
      .name = "advise",
      .summary = "recommend a policy for given weights/risk appetite",
      .declare = declare_advise,
      .handler = cmd_advise,
      .uses_workers = true,
      .emits_manifest = true,
  });
  registry.add({
      .name = "serve",
      .summary = "run the online admission service (socket, TCP or stdio)",
      .declare = declare_serve,
      .handler = cmd_serve,
      .emits_manifest = true,
  });
  registry.add({
      .name = "loadgen",
      .summary = "drive a running serve instance with a seeded workload",
      .declare = declare_loadgen,
      .handler = cmd_loadgen,
      .emits_manifest = true,
  });
  registry.add({
      .name = "version",
      .summary = "print the build's git describe string (alias: --version)",
      .declare = nullptr,
      .handler = cmd_version,
  });
  return registry.run(argc, argv);
}
