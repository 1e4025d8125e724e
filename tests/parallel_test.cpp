// Tests for the run-matrix executor: thread pool semantics, bit-identity
// and identical statistics at every worker count, concurrent ResultStore
// safety and in-flight deduplication.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/parallel.hpp"
#include "exp/replication.hpp"
#include "exp/result_store.hpp"
#include "exp/scenario.hpp"

namespace utilrisk::exp {
namespace {

// -------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.worker_count(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleIsReusableBarrier) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 3);
  pool.wait_idle();  // idle pool: returns immediately
}

TEST(ThreadPoolTest, ZeroWorkerRequestClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 1u);
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran = true; });
  pool.wait_idle();
  EXPECT_TRUE(ran.load());
}

TEST(ParallelForIndexTest, CoversEachIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  std::vector<std::size_t> worker_of(hits.size());
  parallel_for_index(pool, hits.size(),
                     [&](std::size_t worker, std::size_t i) {
                       hits[i].fetch_add(1);
                       worker_of[i] = worker;
                     });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    EXPECT_LT(worker_of[i], pool.worker_count()) << "index " << i;
  }
}

TEST(ParallelForIndexTest, PropagatesTheFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for_index(pool, 64,
                         [](std::size_t, std::size_t i) {
                           if (i == 13) throw std::runtime_error("boom");
                         }),
      std::runtime_error);
  // The pool survives a throwing batch.
  std::atomic<int> counter{0};
  parallel_for_index(pool, 8,
                     [&counter](std::size_t, std::size_t) { counter++; });
  EXPECT_EQ(counter.load(), 8);
}

// --------------------------------------------------- run-matrix executor

ExperimentConfig tiny_config() {
  ExperimentConfig config;
  config.model = economy::EconomicModel::BidBased;
  config.set = ExperimentSet::B;
  config.trace.job_count = 120;  // keep the sweep quick
  return config;
}

const std::vector<policy::PolicyKind> kTestPolicies = {
    policy::PolicyKind::Libra, policy::PolicyKind::FcfsBf};

std::vector<Scenario> small_scenario_set() {
  const auto& all = all_scenarios();
  return {all.begin(), all.begin() + 3};
}

TEST(ParallelSweepTest, BitIdenticalToSerialAcrossWorkerCounts) {
  const ExperimentConfig config = tiny_config();
  const std::vector<Scenario> scenarios = small_scenario_set();
  const RunSettings defaults = config.default_settings();

  ExperimentRunner serial(config, nullptr, 1);
  ASSERT_EQ(serial.worker_count(), 1u);
  const SweepResult reference =
      serial.run_scenarios(scenarios, defaults, kTestPolicies);

  for (std::size_t workers : {2u, 4u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ExperimentRunner runner(config, nullptr, workers);
    EXPECT_EQ(runner.worker_count(), workers);
    const SweepResult sweep =
        runner.run_scenarios(scenarios, defaults, kTestPolicies);
    EXPECT_TRUE(bit_identical(sweep, reference));
    EXPECT_EQ(runner.simulations_run(), serial.simulations_run());
  }
}

TEST(ParallelSweepTest, ExperimentRunnerParallelPathMatchesSerial) {
  // Each runner fills its own store: 4 workers must leave the same
  // entries, value for value, as 1 worker.
  const ExperimentConfig config = tiny_config();
  const std::vector<Scenario> scenarios = small_scenario_set();
  const RunSettings defaults = config.default_settings();

  ResultStore serial_store;
  ResultStore parallel_store;
  ExperimentRunner serial(config, &serial_store, 1);
  ExperimentRunner parallel(config, &parallel_store, 4);
  EXPECT_EQ(parallel.worker_count(), 4u);
  const SweepResult a =
      serial.run_scenarios(scenarios, defaults, kTestPolicies);
  const SweepResult b =
      parallel.run_scenarios(scenarios, defaults, kTestPolicies);
  EXPECT_TRUE(bit_identical(a, b));
  EXPECT_EQ(serial.simulations_run(), parallel.simulations_run());

  const RunMatrix matrix =
      enumerate_runs(config, scenarios, defaults, kTestPolicies);
  EXPECT_EQ(serial_store.size(), matrix.runs.size());
  EXPECT_EQ(parallel_store.size(), matrix.runs.size());
  for (const MatrixRun& run : matrix.runs) {
    SCOPED_TRACE(run.key);
    const auto x = serial_store.lookup(run.key);
    const auto y = parallel_store.lookup(run.key);
    ASSERT_TRUE(x.has_value());
    ASSERT_TRUE(y.has_value());
    EXPECT_EQ(x->wait, y->wait);
    EXPECT_EQ(x->sla, y->sla);
    EXPECT_EQ(x->reliability, y->reliability);
    EXPECT_EQ(x->profitability, y->profitability);
  }
}

TEST(ParallelSweepTest, SameStatisticsAtEveryWorkerCount) {
  // A partly warm store: Libra's runs of the first scenario, including
  // the all-defaults run every scenario repeats. The sweep then has cells
  // of all three kinds: Libra's repeats of the defaults run are cache
  // hits, and FCFS-BF's are deduped, because they repeat a run this
  // sweep simulates.
  const ExperimentConfig config = tiny_config();
  const std::vector<Scenario> scenarios = small_scenario_set();
  const RunSettings defaults = config.default_settings();
  const auto sweep_stats = [&](std::size_t workers) {
    ResultStore store;
    ExperimentRunner warm(config, &store, 1);
    (void)warm.run_scenarios({scenarios.front()}, defaults,
                             {policy::PolicyKind::Libra});
    ExperimentRunner runner(config, &store, workers);
    (void)runner.run_scenarios(scenarios, defaults, kTestPolicies);
    return runner.stats();
  };

  const SweepStats serial = sweep_stats(1);
  std::size_t cells = 0;
  for (const Scenario& scenario : scenarios) {
    cells += scenario.values.size() * kTestPolicies.size();
  }
  EXPECT_EQ(serial.simulations + serial.deduped + serial.cache_hits, cells);
  EXPECT_GT(serial.cache_hits, 0u);
  EXPECT_GT(serial.deduped, 0u);
  const SweepStats parallel = sweep_stats(4);
  EXPECT_EQ(parallel.simulations, serial.simulations);
  EXPECT_EQ(parallel.deduped, serial.deduped);
  EXPECT_EQ(parallel.cache_hits, serial.cache_hits);
}

TEST(ParallelSweepTest, InFlightDedupSimulatesSharedKeysOnce) {
  // Every value of this scenario maps to identical settings, so all six
  // cells share one cache key per policy: exactly one simulation each,
  // five coalesced in flight.
  Scenario constant;
  constant.name = "constant";
  constant.values = {1, 2, 3, 4, 5, 6};
  constant.apply = [](RunSettings&, double) {};

  const ExperimentConfig config = tiny_config();
  ResultStore store;
  ExperimentRunner runner(config, &store, 4);
  const SweepResult sweep = runner.run_scenarios(
      {constant}, config.default_settings(), kTestPolicies);
  EXPECT_EQ(runner.simulations_run(), kTestPolicies.size());
  EXPECT_EQ(runner.stats().deduped,
            kTestPolicies.size() * (constant.values.size() - 1));
  EXPECT_EQ(store.size(), kTestPolicies.size());
  // All six cells of a policy carry the same raw values.
  for (std::size_t o = 0; o < 4; ++o) {
    for (std::size_t p = 0; p < kTestPolicies.size(); ++p) {
      for (double v : sweep.raw[0][o][p]) {
        EXPECT_EQ(v, sweep.raw[0][o][p][0]);
      }
    }
  }
}

TEST(ParallelSweepTest, WarmStoreServesEverythingWithoutSimulating) {
  const ExperimentConfig config = tiny_config();
  const std::vector<Scenario> scenarios = small_scenario_set();
  ResultStore store;
  ExperimentRunner first(config, &store, 4);
  const SweepResult a = first.run_scenarios(
      scenarios, config.default_settings(), kTestPolicies);
  ExperimentRunner second(config, &store, 4);
  const SweepResult b = second.run_scenarios(
      scenarios, config.default_settings(), kTestPolicies);
  EXPECT_EQ(second.simulations_run(), 0u) << "fully served from the store";
  EXPECT_TRUE(bit_identical(a, b));
}

TEST(ParallelSweepTest, TimingCountersArePopulated) {
  const ExperimentConfig config = tiny_config();
  ResultStore store;
  ExperimentRunner runner(config, &store, 2);
  (void)runner.run_scenarios(small_scenario_set(),
                             config.default_settings(), kTestPolicies);
  const SweepStats& stats = runner.stats();
  EXPECT_GT(stats.simulations, 0u);
  EXPECT_GT(stats.events, 0u);
  EXPECT_GT(stats.wall_seconds, 0.0);
  ASSERT_EQ(stats.runs.size(), stats.simulations);
  for (const RunTiming& run : stats.runs) {
    EXPECT_FALSE(run.key.empty());
    EXPECT_GT(run.events, 0u);
    EXPECT_GE(run.wall_seconds, 0.0);
  }
}

// ----------------------------------------------- concurrent ResultStore

TEST(ConcurrentResultStoreTest, ParallelInsertsAndLookupsLoseNothing) {
  ResultStore store;
  constexpr int kThreads = 8;
  constexpr int kKeysPerThread = 200;
  std::atomic<int> observed_hits{0};
  {
    std::vector<std::jthread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&store, &observed_hits, t] {
        for (int k = 0; k < kKeysPerThread; ++k) {
          // Half the keys are shared across all threads (contended
          // inserts must stay idempotent), half are thread-private.
          const bool shared = k % 2 == 0;
          const std::string key = shared
                                      ? "shared-" + std::to_string(k)
                                      : "t" + std::to_string(t) + "-" +
                                            std::to_string(k);
          const double base = shared ? k : t * 1000.0 + k;
          store.insert(key, {.wait = base,
                             .sla = base + 0.25,
                             .reliability = base + 0.5,
                             .profitability = base + 0.75});
          if (store.lookup(key).has_value()) observed_hits.fetch_add(1);
        }
      });
    }
  }
  // 100 shared keys + 8 * 100 private keys.
  EXPECT_EQ(store.size(), 100u + kThreads * 100u);
  EXPECT_EQ(observed_hits.load(), kThreads * kKeysPerThread)
      << "an insert must be immediately visible to its own thread";
  for (int k = 0; k < kKeysPerThread; k += 2) {
    const auto v = store.lookup("shared-" + std::to_string(k));
    ASSERT_TRUE(v.has_value());
    EXPECT_DOUBLE_EQ(v->wait, k) << "first insert wins, no torn values";
  }
}

TEST(ConcurrentResultStoreTest, FileBackedConcurrentInsertsRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "utilrisk_parallel_store.csv")
          .string();
  std::remove(path.c_str());
  {
    ResultStore store(path);
    std::vector<std::jthread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&store, t] {
        for (int k = 0; k < 50; ++k) {
          store.insert("t" + std::to_string(t) + "-" + std::to_string(k),
                       {.wait = static_cast<double>(k),
                        .sla = static_cast<double>(t),
                        .reliability = 1.0,
                        .profitability = -2.5});
        }
      });
    }
  }
  ResultStore reloaded(path);
  EXPECT_EQ(reloaded.size(), 200u) << "no interleaved/torn lines on disk";
  EXPECT_EQ(reloaded.malformed_lines_skipped(), 0u);
  const auto v = reloaded.lookup("t3-49");
  ASSERT_TRUE(v.has_value());
  EXPECT_DOUBLE_EQ(v->profitability, -2.5);
  std::remove(path.c_str());
}

// ------------------------------------------------- parallel replication

TEST(ParallelReplicationTest, MatchesSerialReplication) {
  ReplicationConfig config;
  config.policy = policy::PolicyKind::Libra;
  config.model = economy::EconomicModel::BidBased;
  config.trace.job_count = 100;
  config.seeds = {42, 1001, 2002, 3003};

  config.workers = 1;
  const ReplicationSummary serial = replicate(config);
  config.workers = 4;
  const ReplicationSummary parallel = replicate(config);

  ASSERT_EQ(serial.replicates.size(), parallel.replicates.size());
  for (std::size_t i = 0; i < serial.replicates.size(); ++i) {
    EXPECT_EQ(serial.replicates[i].wait, parallel.replicates[i].wait);
    EXPECT_EQ(serial.replicates[i].sla, parallel.replicates[i].sla);
    EXPECT_EQ(serial.replicates[i].reliability,
              parallel.replicates[i].reliability);
    EXPECT_EQ(serial.replicates[i].profitability,
              parallel.replicates[i].profitability);
  }
  for (core::Objective objective : core::kAllObjectives) {
    EXPECT_EQ(serial.of(objective).mean, parallel.of(objective).mean);
    EXPECT_EQ(serial.of(objective).ci95_half,
              parallel.of(objective).ci95_half);
  }
}

}  // namespace
}  // namespace utilrisk::exp
