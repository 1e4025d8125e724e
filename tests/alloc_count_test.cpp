// Heap allocations per dispatched event inside Simulator::run(), counted by
// a replacement global operator new (which is why this suite is its own
// executable). The runs are the paper's 5000-job seed-42 trace, in both
// experiment sets, through a ComputingService. A node update in the
// time-shared executor (a task starting or finishing) allocates nothing,
// so the Libra family must stay at or under one allocation per event;
// what remains is per job (SLA record, job entry, completion callback).
// FCFS-BF runs on the space-shared executor and is printed as a control,
// not gated.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "policy/factory.hpp"
#include "service/computing_service.hpp"
#include "sim/simulator.hpp"

namespace {
// Single-threaded test: plain globals, read only between runs.
bool g_counting = false;
std::uint64_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace utilrisk {
namespace {

/// The job stream of the experiment's default run (5000 jobs, seed 42),
/// with the QoS terms the sweep assigns it.
std::vector<workload::Job> default_jobs(const exp::ExperimentConfig& config) {
  const exp::RunSettings settings = config.default_settings();
  workload::QosConfig qos;
  qos.high_urgency_percent = settings.high_urgency_percent;
  qos.deadline = settings.deadline;
  qos.budget = settings.budget;
  qos.penalty = settings.penalty;
  qos.base_price = config.pricing.base_price;
  qos.seed = config.qos_seed;
  return config.make_builder().build(qos, settings.arrival_delay_factor,
                                     settings.inaccuracy_percent);
}

struct Count {
  std::uint64_t allocations = 0;
  std::uint64_t events = 0;
  [[nodiscard]] double per_event() const {
    return static_cast<double>(allocations) / static_cast<double>(events);
  }
};

/// Allocations made while Simulator::run() dispatches every event.
Count count_run(const exp::ExperimentConfig& config,
                const std::vector<workload::Job>& jobs,
                policy::PolicyKind kind, economy::EconomicModel model) {
  sim::Simulator simulator;
  policy::PolicyContext context;
  context.simulator = &simulator;
  context.machine = config.machine;
  context.model = model;
  context.pricing = config.pricing;
  context.first_reward = config.first_reward;
  service::ComputingService service(simulator, kind, context);
  service.submit_all(jobs);
  g_allocations = 0;
  g_counting = true;
  simulator.run();
  g_counting = false;
  return Count{g_allocations, simulator.events_dispatched()};
}

void expect_libra_family_under_one_per_event(exp::ExperimentSet set) {
  exp::ExperimentConfig config;
  config.set = set;
  ASSERT_EQ(config.trace.job_count, 5000u);
  ASSERT_EQ(config.trace.seed, 42u);
  const std::vector<workload::Job> jobs = default_jobs(config);

  struct Case {
    policy::PolicyKind kind;
    economy::EconomicModel model;
    bool gated;
  };
  constexpr double kMaxPerEvent = 1.0;
  for (const Case& c :
       {Case{policy::PolicyKind::Libra,
             economy::EconomicModel::CommodityMarket, true},
        Case{policy::PolicyKind::LibraDollar,
             economy::EconomicModel::CommodityMarket, true},
        Case{policy::PolicyKind::LibraRiskD, economy::EconomicModel::BidBased,
             true},
        Case{policy::PolicyKind::FcfsBf,
             economy::EconomicModel::CommodityMarket, false}}) {
    const Count count = count_run(config, jobs, c.kind, c.model);
    const std::string name(policy::to_string(c.kind));
    ASSERT_GT(count.events, 0u) << name;
    std::printf("set %s %-10s %.2f allocations/event (%llu over %llu "
                "events)%s\n",
                exp::to_string(set), name.c_str(), count.per_event(),
                static_cast<unsigned long long>(count.allocations),
                static_cast<unsigned long long>(count.events),
                c.gated ? "" : "  [control, not gated]");
    if (c.gated) {
      EXPECT_LE(count.per_event(), kMaxPerEvent)
          << name << " in set " << exp::to_string(set);
    }
  }
}

TEST(AllocCountTest, LibraFamilyAllocatesAtMostOncePerEvent) {
  expect_libra_family_under_one_per_event(exp::ExperimentSet::A);
  expect_libra_family_under_one_per_event(exp::ExperimentSet::B);
}

}  // namespace
}  // namespace utilrisk
