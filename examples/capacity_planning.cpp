// Capacity planning with the simulator: the workload the paper's intro
// motivates — a provider must decide how much hardware to operate so that
// SLAs hold without stranding capital.
//
// Sweeps machine sizes for a fixed demand stream and reports, per size,
// the four objectives under LibraRiskD (bid model), then picks the
// smallest machine that keeps SLA fulfilment above a target.
#include <iomanip>
#include <iostream>

#include "service/computing_service.hpp"
#include "workload/workload.hpp"

int main(int argc, char** argv) {
  using namespace utilrisk;

  const double sla_target = argc > 1 ? std::stod(argv[1]) : 70.0;

  workload::SyntheticSdscConfig trace;
  trace.job_count = 1500;
  // Every job must fit the smallest machine swept: a job wider than the
  // machine is an invalid run (debug builds check it).
  trace.max_procs = 32;
  const workload::WorkloadBuilder builder(trace);
  const auto jobs = builder.build(workload::QosConfig{},
                                  /*arrival_delay_factor=*/0.25,
                                  /*inaccuracy=*/100.0);

  std::cout << "Capacity planning: smallest machine with SLA >= "
            << sla_target << "% (LibraRiskD, bid model, " << trace.job_count
            << " jobs at 4x trace load)\n\n";
  std::cout << std::left << std::setw(8) << "nodes" << std::right
            << std::setw(8) << "SLA%" << std::setw(10) << "Rel%"
            << std::setw(10) << "Prof%" << std::setw(14) << "utility $"
            << '\n';

  std::uint32_t chosen = 0;
  for (std::uint32_t nodes : {32u, 64u, 96u, 128u, 192u, 256u, 384u}) {
    cluster::MachineConfig machine;
    machine.node_count = nodes;
    const auto report =
        service::simulate(jobs, policy::PolicyKind::LibraRiskD,
                          economy::EconomicModel::BidBased, machine);
    std::cout << std::left << std::setw(8) << nodes << std::right
              << std::fixed << std::setprecision(2) << std::setw(8)
              << report.objectives.sla << std::setw(10)
              << report.objectives.reliability << std::setw(10)
              << report.objectives.profitability << std::setw(14)
              << report.inputs.total_utility << '\n';
    if (chosen == 0 && report.objectives.sla >= sla_target) {
      chosen = nodes;
    }
  }

  if (chosen != 0) {
    std::cout << "\n=> provision " << chosen << " nodes to meet the "
              << sla_target << "% SLA target.\n";
  } else {
    std::cout << "\n=> no size in the sweep meets the target; demand "
                 "exceeds what admission-controlled capacity can serve.\n";
  }
  return 0;
}
