// Serving-path timing gates that no other check runs, written to
// <out>/BENCH_serving.json. Engines are driven directly, without sockets.
//  - "shard_sweep": a Zipf multi-tenant stream at 1, 2 and 4 shards over
//    alternating rounds. Every pass must merge to the first pass's
//    decision digest, and with >= 4 hardware threads the median over
//    rounds of 4-shard / 1-shard throughput must reach 1.7x.
//  - "advise": a mix-shift stream, static default policy vs
//    --advise-auto. The advise-auto passes must evaluate and agree on the
//    digest, and cost under 5% of the static admission throughput.
// The serving path's correctness is checked by ctest and the bench/e2e
// smoke, which also measures latency, journal overhead and per-shard
// throughput.
//
// Honours REPRO_REQUESTS (requests per pass, default 5000) and REPRO_OUT
// (artefact directory, default ./bench_out).
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "advise/advisor_engine.hpp"
#include "bench_common.hpp"
#include "obs/json.hpp"
#include "policy/factory.hpp"
#include "serve/engine.hpp"
#include "serve/loadgen.hpp"
#include "serve/shard.hpp"

namespace {

using namespace utilrisk;

struct EnginePass {
  serve::EngineStats stats;
  double wall_seconds = 0.0;
  double throughput_rps = 0.0;
};

// Submissions spin-retry until accepted, so the bounded queue stays full
// and ticks coalesce batches of up to max_batch.
template <typename Engine>
EnginePass drive(Engine& engine, const std::vector<serve::Request>& stream) {
  engine.start();
  const auto start = std::chrono::steady_clock::now();
  for (const serve::Request& request : stream) {
    while (!engine.submit(request, [](const serve::Response&) {})) {
      std::this_thread::yield();
    }
  }
  EnginePass pass;
  pass.stats = engine.drain();
  pass.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  pass.throughput_rps =
      pass.wall_seconds > 0.0
          ? static_cast<double>(stream.size()) / pass.wall_seconds
          : 0.0;
  return pass;
}

EnginePass run_engine_pass(const std::vector<serve::Request>& stream,
                           const advise::OnlineAdvisorConfig& advisor) {
  serve::EngineConfig config;
  config.advisor = advisor;
  serve::AdmissionEngine engine(config);
  return drive(engine, stream);
}

// One submitter, N decision threads, so aggregate throughput scales with
// shard count when decision work dominates.
EnginePass run_shard_pass(const std::vector<serve::Request>& stream,
                          std::size_t shards) {
  serve::ShardedEngineConfig config;
  config.shards = shards;
  serve::ShardedEngine engine(config);
  return drive(engine, stream);
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

}  // namespace

int main() {
  using obs::json::Value;
  const bench::BenchEnv env = bench::read_env();
  std::size_t requests = 5000;
  if (const char* raw = std::getenv("REPRO_REQUESTS"); raw != nullptr) {
    requests = static_cast<std::size_t>(std::strtoull(raw, nullptr, 10));
  }
  constexpr std::uint64_t kSeed = 42;
  std::cout << "serving bench: " << requests << " requests per pass, seed "
            << kSeed << "\n";
  bool pass = true;

  // --- shard-count sweep --------------------------------------------------
  // One round runs 1, 2 and 4 shards, and every other round runs them in
  // reverse, so drift on a shared machine hits every shard count alike.
  // The gate reads the median over rounds of each round's 4-shard /
  // 1-shard throughput. It is armed only on >= 4 hardware threads (a
  // 1-core runner cannot scale anything; the JSON records whether it
  // was).
  serve::LoadgenConfig shard_stream_config;
  shard_stream_config.requests = requests;
  shard_stream_config.seed = kSeed;
  shard_stream_config.workload = "zipf:tenants=64,theta=0.9";
  const std::vector<serve::Request> tenant_stream =
      serve::make_request_stream(shard_stream_config);

  const std::vector<std::size_t> shard_counts = {1, 2, 4};
  const std::string shard_digest =
      run_shard_pass(tenant_stream, 4).stats.decision_digest;  // warm-up
  bool shard_digest_invariant = true;
  std::vector<std::vector<EnginePass>> by_count(shard_counts.size());
  std::vector<double> round_speedups;
  for (int round = 0; round < 9; ++round) {
    for (std::size_t k = 0; k < shard_counts.size(); ++k) {
      const std::size_t i = round % 2 == 0 ? k : shard_counts.size() - 1 - k;
      by_count[i].push_back(run_shard_pass(tenant_stream, shard_counts[i]));
      if (by_count[i].back().stats.decision_digest != shard_digest) {
        shard_digest_invariant = false;
      }
    }
    const double one_rps = by_count[0].back().throughput_rps;
    const double two_rps = by_count[1].back().throughput_rps;
    const double four_rps = by_count[2].back().throughput_rps;
    round_speedups.push_back(one_rps > 0.0 ? four_rps / one_rps : 0.0);
    std::cout << "  round " << round << ":    1/2/4 shards " << one_rps
              << " / " << two_rps << " / " << four_rps << " dec/s ("
              << round_speedups.back() << "x)\n";
  }
  if (!shard_digest_invariant) {
    std::cerr << "FAIL: merged digest varies across shard passes\n";
    pass = false;
  }
  const double speedup_4x = median(round_speedups);
  const unsigned hardware_threads = std::thread::hardware_concurrency();
  const bool speedup_gate_armed = hardware_threads >= 4;
  std::cout << "  scaling:    4 shards = " << speedup_4x
            << "x of 1 shard, median of " << round_speedups.size()
            << " rounds (" << hardware_threads << " hardware threads, gate "
            << (speedup_gate_armed ? "armed" : "skipped") << ")\n";
  if (speedup_gate_armed && speedup_4x < 1.7) {
    std::cerr << "FAIL: 4-shard speedup " << speedup_4x
              << "x below the 1.7x floor\n";
    pass = false;
  }

  Value shard_rows(obs::json::Array{});
  for (std::size_t i = 0; i < shard_counts.size(); ++i) {
    std::vector<double> walls;
    std::vector<double> rates;
    for (const EnginePass& shard_pass : by_count[i]) {
      walls.push_back(shard_pass.wall_seconds);
      rates.push_back(shard_pass.throughput_rps);
    }
    Value row;
    row.set("shards", std::uint64_t{shard_counts[i]});
    row.set("wall_seconds", median(walls));
    row.set("throughput_rps", median(rates));
    row.set("decision_digest", by_count[i].front().stats.decision_digest);
    shard_rows.push_back(row);
  }
  Value shard_sweep;
  shard_sweep.set("workload", shard_stream_config.workload);
  shard_sweep.set("requests", std::uint64_t{tenant_stream.size()});
  shard_sweep.set("rounds", std::uint64_t{round_speedups.size()});
  shard_sweep.set("shards", shard_rows);
  shard_sweep.set("digest_invariant", shard_digest_invariant);
  shard_sweep.set("speedup_4x", speedup_4x);
  shard_sweep.set("hardware_threads", std::uint64_t{hardware_threads});
  shard_sweep.set("speedup_gate_armed", speedup_gate_armed);

  // --- online advisor under a mix shift ----------------------------------
  // A 4-tenant Zipf mix that starts on a heavy-runtime / dense-arrival
  // profile and shifts to the default Zipf profile at t=40000 on the
  // virtual clock, scored for a profit-focused operator: the advisor moves
  // the serving path off the static default Libra (AdvisorEngineTest.
  // RecommendationBeatsStaticDefaultUnderProfitWeights). Best of 3 per
  // mode, because spin-submit throughput jitters more than the 5% budget
  // (docs/ADVISOR.md). Switch events fold into the advise-auto digest, so
  // it legitimately differs from the static pass's.
  serve::LoadgenConfig mix_config;
  mix_config.requests = requests;
  mix_config.seed = kSeed;
  mix_config.workload =
      "zipf:tenants=4,theta=0.6,mean_runtime=14000,mean_interarrival=120";
  mix_config.mix_shift = "40000:zipf:tenants=4,theta=0.6";
  const std::vector<serve::Request> mix_stream =
      serve::make_request_stream(mix_config);
  const std::array<double, 4> operator_weights = {0.05, 0.15, 0.1, 0.7};
  constexpr double kRiskAversion = 0.5;

  const advise::OnlineAdvisorConfig static_advisor;
  advise::OnlineAdvisorConfig auto_advisor;
  auto_advisor.auto_switch = true;
  auto_advisor.advise_every = 1024;
  auto_advisor.window = 16;
  auto_advisor.scoring.objective_weights = operator_weights;
  auto_advisor.scoring.risk_aversion = kRiskAversion;

  (void)run_engine_pass(mix_stream, static_advisor);  // warm-up
  double static_rps = 0.0;
  for (int i = 0; i < 3; ++i) {
    static_rps = std::max(
        static_rps, run_engine_pass(mix_stream, static_advisor).throughput_rps);
  }
  double advised_rps = 0.0;
  EnginePass advised;
  bool advise_digest_reproduced = true;
  std::string advised_digest;
  for (int i = 0; i < 3; ++i) {
    advised = run_engine_pass(mix_stream, auto_advisor);
    advised_rps = std::max(advised_rps, advised.throughput_rps);
    if (advised_digest.empty()) {
      advised_digest = advised.stats.decision_digest;
    } else if (advised.stats.decision_digest != advised_digest) {
      advise_digest_reproduced = false;
    }
  }
  const double advise_overhead_percent =
      static_rps > 0.0
          ? std::max(0.0, (static_rps - advised_rps) / static_rps * 100.0)
          : 0.0;
  std::cout << "  advise:     static " << static_rps << " dec/s, auto "
            << advised_rps << " dec/s (" << advise_overhead_percent
            << "% overhead, " << advised.stats.advisor_evaluations
            << " evaluations, " << advised.stats.policy_switches
            << " switches, digest " << advised_digest << ")\n";
  if (advised.stats.advisor_evaluations == 0) {
    std::cerr << "FAIL: advise-auto pass never reached a switch point — "
                 "the overhead measurement is vacuous\n";
    pass = false;
  }
  if (!advise_digest_reproduced) {
    std::cerr << "FAIL: advise-auto passes diverged on the decision digest\n";
    pass = false;
  }
  if (advise_overhead_percent >= 5.0) {
    std::cerr << "FAIL: advise-auto overhead " << advise_overhead_percent
              << "% breaches the 5% budget\n";
    pass = false;
  }

  Value weights(obs::json::Array{});
  for (const double weight : operator_weights) weights.push_back(weight);
  Value advise_block;
  advise_block.set("workload", mix_config.workload);
  advise_block.set("mix_shift", mix_config.mix_shift);
  advise_block.set("requests", std::uint64_t{mix_stream.size()});
  advise_block.set("advise_every", auto_advisor.advise_every);
  advise_block.set("window", std::uint64_t{auto_advisor.window});
  advise_block.set("weights", weights);
  advise_block.set("risk_aversion", kRiskAversion);
  advise_block.set("static_rps", static_rps);
  advise_block.set("advised_rps", advised_rps);
  advise_block.set("overhead_percent", advise_overhead_percent);
  advise_block.set("evaluations", advised.stats.advisor_evaluations);
  advise_block.set("policy_switches", advised.stats.policy_switches);
  advise_block.set("decision_digest", advised_digest);
  advise_block.set("digest_reproduced", advise_digest_reproduced);
  advise_block.set("static_policy",
                   std::string{policy::to_string(policy::PolicyKind::Libra)});

  Value root;
  root.set("bench", "serving");
  root.set("requests", std::uint64_t{requests});
  root.set("seed", kSeed);
  root.set("shard_sweep", shard_sweep);
  root.set("advise", advise_block);
  root.set("pass", pass);
  const std::string path = env.out_dir + "/BENCH_serving.json";
  std::ofstream json(path);
  root.dump(json);
  std::cout << "[wrote " << path << "]\n";

  return pass ? 0 : 1;
}
