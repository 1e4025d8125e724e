// Workload-generator bench: generation throughput of every workload
// method plus the headline-conclusion check on the three extension
// traces (zipf multi-tenant, flash-crowd, Daly checkpoint-restart).
//
// Part one times `generate_jobs(spec, jobs, seed)` for each method at
// REPRO_JOBS jobs and prints jobs/s with shape statistics (mean
// inter-arrival, mean runtime, mean procs, distinct tenants) so a
// regression in either speed or distribution shape is visible in one
// table. Part two replays the bid-model policy set on each extension
// trace and reports whether LibraRiskD >= Libra on reliability and
// profitability still holds off the paper's SDSC-matched trace.
#include <chrono>
#include <iomanip>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "policy/policy.hpp"
#include "service/computing_service.hpp"
#include "workload/generator.hpp"
#include "workload/workload.hpp"

int main() {
  using namespace utilrisk;
  const bench::BenchEnv env = bench::read_env();
  const std::uint32_t jobs_n = std::min<std::uint32_t>(env.jobs, 20000);

  const std::vector<std::string> specs = {
      "sdsc",
      "lublin",
      "zipf:theta=0.9,tenants=10000",
      "flash:base=sdsc,peak=8",
      "daly:interval=0",
  };

  std::cout << "== generation throughput (" << jobs_n << " jobs/method) ==\n";
  std::cout << std::left << std::setw(30) << "spec" << std::right
            << std::setw(12) << "jobs/s" << std::setw(12) << "interarr"
            << std::setw(12) << "runtime" << std::setw(8) << "procs"
            << std::setw(10) << "tenants\n";
  for (const std::string& text : specs) {
    const workload::GeneratorSpec spec = workload::GeneratorSpec::parse(text);
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<workload::Job> jobs =
        workload::generate_jobs(spec, jobs_n, 42);
    const auto t1 = std::chrono::steady_clock::now();
    const double seconds = std::chrono::duration<double>(t1 - t0).count();

    double interarrival = 0.0, runtime = 0.0, procs = 0.0;
    std::set<std::uint32_t> tenants;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (i > 0) interarrival += jobs[i].submit_time - jobs[i - 1].submit_time;
      runtime += jobs[i].actual_runtime;
      procs += static_cast<double>(jobs[i].procs);
      tenants.insert(jobs[i].tenant);
    }
    const double n = static_cast<double>(jobs.size());
    std::cout << std::left << std::setw(30) << text << std::right
              << std::fixed << std::setprecision(0) << std::setw(12)
              << (seconds > 0.0 ? n / seconds : 0.0) << std::setprecision(1)
              << std::setw(12) << (n > 1 ? interarrival / (n - 1) : 0.0)
              << std::setw(12) << runtime / n << std::setprecision(1)
              << std::setw(8) << procs / n << std::setw(10) << tenants.size()
              << '\n';
  }

  const std::uint32_t sim_n = std::min<std::uint32_t>(jobs_n, 3000);
  std::cout << "\n== headline check on extension traces (" << sim_n
            << " jobs, bid model) ==\n";
  for (const std::string& text :
       {std::string("zipf:theta=0.9"), std::string("flash:base=sdsc,peak=8"),
        std::string("daly:interval=3600")}) {
    const std::vector<workload::Job> trace = workload::generate_jobs(
        workload::GeneratorSpec::parse(text), sim_n, 42);
    const std::vector<workload::Job> jobs =
        workload::WorkloadBuilder(trace).build(workload::QosConfig{}, 0.25,
                                               100.0);
    double libra_rel = 0.0, libra_prof = 0.0;
    double riskd_rel = 0.0, riskd_prof = 0.0;
    for (policy::PolicyKind kind :
         policy::policies_for_model(economy::EconomicModel::BidBased)) {
      const auto report =
          service::simulate(jobs, kind, economy::EconomicModel::BidBased);
      if (kind == policy::PolicyKind::Libra) {
        libra_rel = report.objectives.reliability;
        libra_prof = report.objectives.profitability;
      }
      if (kind == policy::PolicyKind::LibraRiskD) {
        riskd_rel = report.objectives.reliability;
        riskd_prof = report.objectives.profitability;
      }
    }
    std::cout << std::left << std::setw(26) << text
              << " LibraRiskD vs Libra — reliability "
              << (riskd_rel >= libra_rel ? "HOLDS" : "FAILS")
              << ", profitability "
              << (riskd_prof >= libra_prof ? "HOLDS" : "FAILS") << '\n';
  }
  return 0;
}
