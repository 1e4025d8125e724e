#include "verify/golden.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "exp/parallel.hpp"
#include "service/computing_service.hpp"

namespace utilrisk::verify {

namespace {

economy::EconomicModel parse_model_token(const std::string& token) {
  if (token == "commodity") return economy::EconomicModel::CommodityMarket;
  if (token == "bid") return economy::EconomicModel::BidBased;
  throw std::runtime_error("load_golden: unknown model '" + token + "'");
}

exp::ExperimentSet parse_set_token(const std::string& token) {
  if (token == "A") return exp::ExperimentSet::A;
  if (token == "B") return exp::ExperimentSet::B;
  throw std::runtime_error("load_golden: unknown set '" + token + "'");
}

std::string model_token(economy::EconomicModel model) {
  return model == economy::EconomicModel::CommodityMarket ? "commodity"
                                                          : "bid";
}

std::string header_line(const GoldenConfig& config) {
  std::ostringstream oss;
  oss << "# " << kGoldenSchema << " model=" << model_token(config.model)
      << " set=" << exp::to_string(config.set)
      << " jobs=" << config.job_count << " nodes=" << config.node_count
      << " tseed=" << config.trace_seed << " qseed=" << config.qos_seed;
  return oss.str();
}

}  // namespace

exp::ExperimentConfig GoldenConfig::experiment_config() const {
  exp::ExperimentConfig config;
  config.model = model;
  config.set = set;
  config.trace.job_count = job_count;
  config.trace.seed = trace_seed;
  config.machine.node_count = node_count;
  config.qos_seed = qos_seed;
  return config;
}

std::string GoldenConfig::filename() const {
  return "golden_" + model_token(model) + "_" + exp::to_string(set) + ".tsv";
}

std::uint64_t GoldenFile::combined() const {
  DigestStream stream;
  stream.put_u64(entries.size());
  for (const GoldenEntry& entry : entries) {
    stream.put_string(entry.key);
    stream.put_u64(entry.digest.combined);
    stream.put_u64(entry.digest.event_stream);
    stream.put_u64(entry.digest.money_flows);
  }
  return stream.value();
}

GoldenFile compute_golden(const GoldenConfig& golden_config,
                          std::size_t workers) {
  const exp::ExperimentConfig config = golden_config.experiment_config();
  std::vector<exp::MatrixRun> runs =
      exp::enumerate_runs(config, exp::all_scenarios(),
                          config.default_settings(),
                          policy::policies_for_model(config.model))
          .runs;
  // Sorted by key: the file's canonical order.
  std::sort(runs.begin(), runs.end(),
            [](const exp::MatrixRun& a, const exp::MatrixRun& b) {
              return a.key < b.key;
            });

  GoldenFile result;
  result.config = golden_config;
  result.entries.resize(runs.size());
  const workload::WorkloadBuilder builder = config.make_builder();
  exp::ThreadPool pool(workers == 0 ? exp::default_worker_count() : workers);
  exp::parallel_for_index(
      pool, runs.size(), [&](std::size_t /*worker*/, std::size_t i) {
        const exp::MatrixRun& run = runs[i];
        result.entries[i] = {
            run.key, run_digest(exp::simulate_run_report(
                         config, builder, run.policy, run.settings))};
      });
  return result;
}

std::string write_golden(const GoldenFile& golden, const std::string& dir) {
  std::filesystem::create_directories(dir);
  const std::string path =
      (std::filesystem::path(dir) / golden.config.filename()).string();
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("write_golden: cannot write " + path);
  }
  out << header_line(golden.config) << '\n';
  for (const GoldenEntry& entry : golden.entries) {
    out << entry.key << '\t' << to_hex(entry.digest.combined) << '\t'
        << to_hex(entry.digest.event_stream) << '\t'
        << to_hex(entry.digest.money_flows) << '\n';
  }
  out << "# combined " << to_hex(golden.combined()) << '\n';
  if (!out) {
    throw std::runtime_error("write_golden: short write to " + path);
  }
  return path;
}

GoldenFile load_golden(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("load_golden: cannot read " + path);
  }
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error("load_golden: " + path + " is empty");
  }

  GoldenFile golden;
  {
    std::istringstream header(line);
    std::string hash;
    std::string schema;
    header >> hash >> schema;
    if (hash != "#" || schema != kGoldenSchema) {
      throw std::runtime_error("load_golden: " + path +
                               ": not a '" + kGoldenSchema + "' file");
    }
    std::string token;
    while (header >> token) {
      const auto eq = token.find('=');
      if (eq == std::string::npos) {
        throw std::runtime_error("load_golden: " + path +
                                 ": malformed header token '" + token + "'");
      }
      const std::string name = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      if (name == "model") {
        golden.config.model = parse_model_token(value);
      } else if (name == "set") {
        golden.config.set = parse_set_token(value);
      } else if (name == "jobs") {
        golden.config.job_count =
            static_cast<std::uint32_t>(std::stoul(value));
      } else if (name == "nodes") {
        golden.config.node_count =
            static_cast<std::uint32_t>(std::stoul(value));
      } else if (name == "tseed") {
        golden.config.trace_seed = std::stoull(value);
      } else if (name == "qseed") {
        golden.config.qos_seed = std::stoull(value);
      } else {
        throw std::runtime_error("load_golden: " + path +
                                 ": unknown header field '" + name + "'");
      }
    }
  }

  bool saw_trailer = false;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line.rfind("# combined ", 0) == 0) {
      const std::uint64_t expected = parse_hex(line.substr(11));
      if (expected != golden.combined()) {
        throw std::runtime_error(
            "load_golden: " + path +
            ": trailer digest does not match the entries (corrupt or "
            "hand-edited file)");
      }
      saw_trailer = true;
      continue;
    }
    if (saw_trailer) {
      throw std::runtime_error("load_golden: " + path + ':' +
                               std::to_string(line_no) +
                               ": content after the trailer");
    }
    std::istringstream fields(line);
    GoldenEntry entry;
    std::string combined_hex;
    std::string event_hex;
    std::string money_hex;
    if (!std::getline(fields, entry.key, '\t') ||
        !std::getline(fields, combined_hex, '\t') ||
        !std::getline(fields, event_hex, '\t') ||
        !std::getline(fields, money_hex)) {
      throw std::runtime_error("load_golden: " + path + ':' +
                               std::to_string(line_no) +
                               ": malformed entry line");
    }
    entry.digest.combined = parse_hex(combined_hex);
    entry.digest.event_stream = parse_hex(event_hex);
    entry.digest.money_flows = parse_hex(money_hex);
    golden.entries.push_back(std::move(entry));
  }
  if (!saw_trailer) {
    throw std::runtime_error("load_golden: " + path +
                             ": missing '# combined' trailer (truncated?)");
  }
  return golden;
}

CheckReport check_golden(const GoldenFile& expected, std::size_t workers) {
  const GoldenFile actual = compute_golden(expected.config, workers);
  std::map<std::string, RunDigest> recomputed;
  for (const GoldenEntry& entry : actual.entries) {
    recomputed.emplace(entry.key, entry.digest);
  }

  CheckReport report;
  report.records_checked = expected.entries.size();
  auto diverged = [&report](std::ostringstream& oss) {
    // The first finding carries the headline the acceptance criteria and
    // CI grep for; later ones are plain.
    report.diagnostics.push_back(
        (report.diagnostics.empty() ? "first diverging record: " : "") +
        oss.str());
  };

  for (const GoldenEntry& entry : expected.entries) {
    const auto it = recomputed.find(entry.key);
    if (it == recomputed.end()) {
      std::ostringstream oss;
      oss << entry.key << ": no longer part of the run matrix";
      diverged(oss);
      continue;
    }
    if (it->second != entry.digest) {
      std::ostringstream oss;
      oss << entry.key << ": expected " << to_hex(entry.digest.combined)
          << ", got " << to_hex(it->second.combined) << " [event stream "
          << (it->second.event_stream == entry.digest.event_stream
                  ? "matches"
                  : "diverges")
          << ", money flows "
          << (it->second.money_flows == entry.digest.money_flows
                  ? "match"
                  : "diverge")
          << "]";
      diverged(oss);
    }
    recomputed.erase(it);
  }
  for (const auto& [key, digest] : recomputed) {
    std::ostringstream oss;
    oss << key << ": new run not covered by the golden file (combined "
        << to_hex(digest.combined) << "); re-record to adopt it";
    diverged(oss);
  }
  return report;
}

std::uint64_t sweep_digest(const exp::SweepResult& sweep) {
  DigestStream stream;
  stream.put_u64(sweep.scenario_names.size());
  for (const std::string& name : sweep.scenario_names) {
    stream.put_string(name);
  }
  stream.put_u64(sweep.policies.size());
  for (policy::PolicyKind policy : sweep.policies) {
    stream.put_string(policy::to_string(policy));
  }
  for (const auto& per_scenario : sweep.raw) {
    for (const auto& per_objective : per_scenario) {
      stream.put_u64(per_objective.size());
      for (const auto& per_policy : per_objective) {
        stream.put_u64(per_policy.size());
        for (double value : per_policy) stream.put_double(value);
      }
    }
  }
  for (const auto& per_scenario : sweep.separate) {
    stream.put_u64(per_scenario.size());
    for (const auto& per_policy : per_scenario) {
      for (const core::RiskPoint& point : per_policy) {
        stream.put_double(point.performance);
        stream.put_double(point.volatility);
      }
    }
  }
  return stream.value();
}

}  // namespace utilrisk::verify
