// Heap allocations of a whole run, counted by a replacement global operator
// new (which is why this suite is its own executable). The count window
// opens before ComputingService::submit_all and closes when
// Simulator::run() returns, so work moved between set-up and the run
// still shows. The runs are the paper's 5000-job seed-42 trace, in both
// experiment sets. Three gates:
//  * per dispatched event, the Libra family stays at or under one: a node
//    update in the time-shared executor (a task starting or finishing)
//    allocates nothing;
//  * per job, every policy — the backfilling family on the space-shared
//    executor too — stays at or under five: an arrival is one kernel
//    batch element, and what remains per job is its SLA record, its index
//    entry, the policy's job entry and its completion callback;
//  * per job, the backfilling family (FCFS-BF, SJF-BF, EDF-BF) stays at
//    least half an allocation under what it made while its wait queue was
//    a deque and the executor's finish index a tree, which allocated a
//    node per started job. A started job now allocates its completion
//    callback (which carries the job), its entry in the executor's
//    running map and its node list; the queue and the finish index are
//    sorted arrays, which allocate only when they outgrow their capacity.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
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
  std::uint64_t jobs = 0;
  [[nodiscard]] double per_event() const {
    return static_cast<double>(allocations) / static_cast<double>(events);
  }
  [[nodiscard]] double per_job() const {
    return static_cast<double>(allocations) / static_cast<double>(jobs);
  }
};

/// Allocations made by submit_all and by Simulator::run() dispatching
/// every event.
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
  g_allocations = 0;
  g_counting = true;
  service.submit_all(jobs);
  simulator.run();
  g_counting = false;
  return Count{g_allocations, simulator.events_dispatched(), jobs.size()};
}

struct Measured {
  std::string name;
  policy::PolicyKind kind = policy::PolicyKind::Libra;
  bool libra_family = false;
  Count count;
};

/// Counts the Libra family (Libra and Libra+$ commodity, LibraRiskD bid)
/// and the backfilling family (commodity) on the set's default run,
/// printing each count.
std::vector<Measured> measure(exp::ExperimentSet set) {
  exp::ExperimentConfig config;
  config.set = set;
  EXPECT_EQ(config.trace.job_count, 5000u);
  EXPECT_EQ(config.trace.seed, 42u);
  const std::vector<workload::Job> jobs = default_jobs(config);

  struct Case {
    policy::PolicyKind kind;
    economy::EconomicModel model;
    bool libra_family;
  };
  std::vector<Measured> measured;
  for (const Case& c :
       {Case{policy::PolicyKind::Libra,
             economy::EconomicModel::CommodityMarket, true},
        Case{policy::PolicyKind::LibraDollar,
             economy::EconomicModel::CommodityMarket, true},
        Case{policy::PolicyKind::LibraRiskD, economy::EconomicModel::BidBased,
             true},
        Case{policy::PolicyKind::FcfsBf,
             economy::EconomicModel::CommodityMarket, false},
        Case{policy::PolicyKind::SjfBf,
             economy::EconomicModel::CommodityMarket, false},
        Case{policy::PolicyKind::EdfBf,
             economy::EconomicModel::CommodityMarket, false}}) {
    Measured m{std::string(policy::to_string(c.kind)), c.kind,
               c.libra_family, count_run(config, jobs, c.kind, c.model)};
    EXPECT_GT(m.count.events, 0u) << m.name;
    std::printf("set %s %-10s %.2f allocations/event, %.2f/job (%llu over "
                "%llu events, %llu jobs)\n",
                exp::to_string(set), m.name.c_str(), m.count.per_event(),
                m.count.per_job(),
                static_cast<unsigned long long>(m.count.allocations),
                static_cast<unsigned long long>(m.count.events),
                static_cast<unsigned long long>(m.count.jobs));
    measured.push_back(std::move(m));
  }
  return measured;
}

TEST(AllocCountTest, LibraFamilyAllocatesAtMostOncePerEvent) {
  for (const exp::ExperimentSet set :
       {exp::ExperimentSet::A, exp::ExperimentSet::B}) {
    for (const Measured& m : measure(set)) {
      if (!m.libra_family) continue;  // backfilling: a per-event control
      EXPECT_LE(m.count.per_event(), 1.0)
          << m.name << " in set " << exp::to_string(set);
    }
  }
}

TEST(AllocCountTest, EveryPolicyAllocatesAtMostFiveTimesPerJob) {
  for (const exp::ExperimentSet set :
       {exp::ExperimentSet::A, exp::ExperimentSet::B}) {
    for (const Measured& m : measure(set)) {
      EXPECT_LE(m.count.per_job(), 5.0)
          << m.name << " in set " << exp::to_string(set);
    }
  }
}

/// Allocations per job of the backfilling family with a deque wait queue
/// and a std::set finish index, on the same runs.
double tree_and_deque_per_job(exp::ExperimentSet set,
                              policy::PolicyKind kind) {
  const bool a = set == exp::ExperimentSet::A;
  switch (kind) {
    case policy::PolicyKind::FcfsBf: return a ? 4.17 : 3.77;
    case policy::PolicyKind::SjfBf: return a ? 5.11 : 4.04;
    case policy::PolicyKind::EdfBf: return a ? 5.16 : 4.05;
    default: return 0.0;
  }
}

TEST(AllocCountTest, BackfillingFamilyAllocatesUnderTheTreeAndDeque) {
  for (const exp::ExperimentSet set :
       {exp::ExperimentSet::A, exp::ExperimentSet::B}) {
    int backfilling = 0;
    for (const Measured& m : measure(set)) {
      if (m.libra_family) continue;
      ++backfilling;
      EXPECT_LE(m.count.per_job(), tree_and_deque_per_job(set, m.kind) - 0.5)
          << m.name << " in set " << exp::to_string(set);
    }
    EXPECT_EQ(backfilling, 3);
  }
}

}  // namespace
}  // namespace utilrisk
