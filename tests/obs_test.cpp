// Tests for the observability layer: metric primitives under concurrent
// update, histogram bucket edges, manifest round-trips, the progress
// reporter's drain/shutdown behaviour and the metric inventory in
// docs/OBSERVABILITY.md. The concurrency tests here are the ones the TSan
// CI job exercises with 8 threads.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/experiment.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "serve/loadgen.hpp"
#include "serve/shard.hpp"

namespace utilrisk::obs {
namespace {

// --- metric primitives ---------------------------------------------------

TEST(ObsMetricsTest, CounterConcurrentIncrementsAreLossless) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.inc();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(ObsMetricsTest, GaugeSetAndAdd) {
  Gauge gauge;
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
  gauge.set(41.5);
  gauge.add(0.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 42.0);
  gauge.add(-2.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 40.0);
}

TEST(ObsMetricsTest, GaugeConcurrentAddsAreLossless) {
  Gauge gauge;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < kPerThread; ++i) gauge.add(1.0);
    });
  }
  for (auto& thread : threads) thread.join();
  // All addends are small integers, so the double accumulation is exact.
  EXPECT_DOUBLE_EQ(gauge.value(), 80000.0);
}

TEST(ObsMetricsTest, HistogramBucketEdgesAreInclusiveUpper) {
  Histogram hist({1.0, 2.0, 4.0});
  // Bucket i counts bounds[i-1] < v <= bounds[i]; values on a bound land
  // in that bound's bucket, values past the last bound overflow.
  hist.observe(0.5);   // bucket 0
  hist.observe(1.0);   // bucket 0 (edge: v <= 1.0)
  hist.observe(1.5);   // bucket 1
  hist.observe(2.0);   // bucket 1 (edge)
  hist.observe(4.0);   // bucket 2 (edge)
  hist.observe(4.1);   // overflow
  hist.observe(100.0); // overflow
  EXPECT_EQ(hist.bucket_count(0), 2u);
  EXPECT_EQ(hist.bucket_count(1), 2u);
  EXPECT_EQ(hist.bucket_count(2), 1u);
  EXPECT_EQ(hist.bucket_count(3), 2u);
  EXPECT_EQ(hist.count(), 7u);
  EXPECT_DOUBLE_EQ(hist.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 4.1 + 100.0);
}

TEST(ObsMetricsTest, HistogramRejectsBadBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(ObsMetricsTest, HistogramConcurrentObservesAreLossless) {
  Histogram hist({10.0, 20.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.observe(t % 2 == 0 ? 5.0 : 15.0);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(hist.count(), kThreads * kPerThread);
  EXPECT_EQ(hist.bucket_count(0), 4u * kPerThread);
  EXPECT_EQ(hist.bucket_count(1), 4u * kPerThread);
  EXPECT_EQ(hist.bucket_count(2), 0u);
}

// --- registry ------------------------------------------------------------

TEST(ObsRegistryTest, SameNameReturnsSameMetric) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x");
  Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  Histogram& h1 = registry.histogram("h", {1.0, 2.0});
  // Second registration with different bounds gets the existing histogram.
  Histogram& h2 = registry.histogram("h", {99.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.upper_bounds().size(), 2u);
}

TEST(ObsRegistryTest, OrNullHelpersGateOnRegistryAndEnabledFlag) {
  EXPECT_EQ(counter_or_null(nullptr, "c"), nullptr);
  EXPECT_EQ(gauge_or_null(nullptr, "g"), nullptr);
  EXPECT_EQ(histogram_or_null(nullptr, "h", {1.0}), nullptr);

  MetricsRegistry disabled(false);
  EXPECT_EQ(counter_or_null(&disabled, "c"), nullptr);
  EXPECT_EQ(gauge_or_null(&disabled, "g"), nullptr);
  EXPECT_EQ(histogram_or_null(&disabled, "h", {1.0}), nullptr);
  EXPECT_TRUE(disabled.snapshot().empty()) << "gated lookups register nothing";

  MetricsRegistry enabled(true);
  Counter* c = counter_or_null(&enabled, "c");
  ASSERT_NE(c, nullptr);
  c->inc(3);
  EXPECT_EQ(enabled.snapshot().counter("c"), 3u);
}

TEST(ObsRegistryTest, ConcurrentRegistrationAndUpdate) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Every thread races registration of the same names, then updates.
      Counter& c = registry.counter("shared");
      Gauge& g = registry.gauge("depth");
      Histogram& h = registry.histogram("lat", {0.5, 1.0});
      for (int i = 0; i < 1000; ++i) {
        c.inc();
        g.set(static_cast<double>(i));
        h.observe(0.25);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  MetricSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("shared"), 8000u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 8000u);
  EXPECT_EQ(snap.histograms[0].buckets[0], 8000u);
}

TEST(ObsRegistryTest, SnapshotJsonRoundTrips) {
  MetricsRegistry registry;
  registry.counter("events").inc(12345);
  registry.gauge("queue_depth").set(7.5);
  Histogram& h = registry.histogram("wall", {0.1, 1.0, 10.0});
  h.observe(0.05);
  h.observe(5.0);
  h.observe(50.0);

  MetricSnapshot before = registry.snapshot();
  MetricSnapshot after =
      MetricSnapshot::from_json(json::parse(before.to_json().dump_string()));
  EXPECT_EQ(after.counters, before.counters);
  EXPECT_EQ(after.gauges, before.gauges);
  ASSERT_EQ(after.histograms.size(), 1u);
  EXPECT_EQ(after.histograms[0].name, "wall");
  EXPECT_EQ(after.histograms[0].upper_bounds, before.histograms[0].upper_bounds);
  EXPECT_EQ(after.histograms[0].buckets, before.histograms[0].buckets);
  EXPECT_EQ(after.histograms[0].count, 3u);
  EXPECT_DOUBLE_EQ(after.histograms[0].sum, 55.05);
}

// --- manifests -----------------------------------------------------------

RunManifest sample_manifest() {
  RunManifest manifest;
  manifest.command = "sweep";
  manifest.argv = {"sweep", "--jobs", "80", "--workers", "2"};
  manifest.git_describe = "abc1234";
  manifest.started_at_utc = "2026-08-06T12:00:00Z";
  manifest.wall_seconds = 1.25;
  manifest.config = {{"jobs", "80"}, {"workers", "2"}, {"log-level", "off"}};
  manifest.seeds = {42, 4357};
  manifest.stats = {{"simulations", 305.0}, {"events", 110436.0}};
  MetricsRegistry registry;
  registry.counter("sim.events_dispatched").inc(110436);
  registry.histogram("exp.run_wall_seconds", {0.01, 0.1}).observe(0.02);
  manifest.metrics = registry.snapshot();
  return manifest;
}

TEST(ObsManifestTest, RoundTripsThroughText) {
  RunManifest before = sample_manifest();
  std::ostringstream out;
  before.write(out);
  RunManifest after = RunManifest::parse(out.str());
  EXPECT_EQ(after.tool, before.tool);
  EXPECT_EQ(after.schema, "utilrisk.run_manifest/1");
  EXPECT_EQ(after.command, before.command);
  EXPECT_EQ(after.argv, before.argv);
  EXPECT_EQ(after.git_describe, before.git_describe);
  EXPECT_EQ(after.started_at_utc, before.started_at_utc);
  EXPECT_DOUBLE_EQ(after.wall_seconds, before.wall_seconds);
  EXPECT_EQ(after.config, before.config);
  EXPECT_EQ(after.seeds, before.seeds);
  EXPECT_EQ(after.stats, before.stats);
  EXPECT_EQ(after.metrics.counter("sim.events_dispatched"), 110436u);
  ASSERT_EQ(after.metrics.histograms.size(), 1u);
  EXPECT_EQ(after.metrics.histograms[0].count, 1u);
}

TEST(ObsManifestTest, WriteAndReadBackFromDisk) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("utilrisk_obs_test_" + std::to_string(::getpid()));
  const std::string path = write_manifest(sample_manifest(), dir.string());
  EXPECT_EQ(fs::path(path).filename().string(),
            manifest_filename("sweep"));
  RunManifest loaded = read_manifest(path);
  EXPECT_EQ(loaded.command, "sweep");
  EXPECT_EQ(loaded.seeds, (std::vector<std::uint64_t>{42, 4357}));
  fs::remove_all(dir);
}

TEST(ObsManifestTest, ParseRejectsMalformedInput) {
  EXPECT_THROW(RunManifest::parse("not json"), json::ParseError);
  EXPECT_THROW(RunManifest::parse("[1, 2]"), std::runtime_error);
}

// --- progress reporter ---------------------------------------------------

TEST(ObsProgressTest, CountsWorkAndPrintsFinalLine) {
  std::ostringstream sink;
  ProgressReporter reporter(
      {.interval_seconds = 3600.0, .sink = &sink, .label = "sweep"});
  reporter.begin(10, 2);
  for (int i = 0; i < 10; ++i) reporter.note_done();
  reporter.end();
  EXPECT_EQ(reporter.completed(), 10u);
  EXPECT_EQ(reporter.lines_printed(), 1u) << "final line only";
  EXPECT_NE(sink.str().find("[sweep] 10/10"), std::string::npos) << sink.str();
  EXPECT_NE(sink.str().find("100%"), std::string::npos) << sink.str();
}

TEST(ObsProgressTest, EndReturnsPromptlyDespiteLongInterval) {
  // Drain behaviour: a one-hour tick interval must not delay end() — the
  // reporter thread is stop-token woken, not slept through.
  std::ostringstream sink;
  ProgressReporter reporter({.interval_seconds = 3600.0, .sink = &sink});
  reporter.begin(1);
  reporter.note_done();
  const auto start = std::chrono::steady_clock::now();
  reporter.end();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(ObsProgressTest, EndIsIdempotentAndDestructionIsSafe) {
  std::ostringstream sink;
  {
    ProgressReporter reporter({.interval_seconds = 3600.0, .sink = &sink});
    reporter.begin(3);
    reporter.note_done(3);
    reporter.end();
    reporter.end();  // second end(): no second final line, no hang
    EXPECT_EQ(reporter.lines_printed(), 1u);
  }  // destructor after end(): no double join
  EXPECT_EQ(sink.str().find("3/3", sink.str().find("3/3") + 1),
            std::string::npos)
      << "exactly one final line: " << sink.str();
}

TEST(ObsProgressTest, NonPositiveIntervalDisablesReporting) {
  std::ostringstream sink;
  ProgressReporter reporter({.interval_seconds = 0.0, .sink = &sink});
  reporter.begin(5);
  reporter.note_done(5);
  reporter.end();
  EXPECT_EQ(reporter.completed(), 5u) << "counting still works";
  EXPECT_EQ(reporter.lines_printed(), 0u);
  EXPECT_TRUE(sink.str().empty());
}

TEST(ObsProgressTest, PeriodicLinesAppearWhileRunning) {
  std::ostringstream sink;
  ProgressReporter reporter({.interval_seconds = 0.05, .sink = &sink});
  reporter.begin(100, 4);
  reporter.note_done(25);
  // Give the reporter thread a couple of tick intervals.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  reporter.end();
  EXPECT_GE(reporter.lines_printed(), 2u) << sink.str();
  EXPECT_NE(sink.str().find("25/100"), std::string::npos) << sink.str();
}

TEST(ObsProgressTest, ConcurrentNoteDoneIsLossless) {
  std::ostringstream sink;
  ProgressReporter reporter({.interval_seconds = 0.01, .sink = &sink});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  reporter.begin(kThreads * kPerThread, kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reporter] {
      for (int i = 0; i < kPerThread; ++i) reporter.note_done();
    });
  }
  for (auto& thread : threads) thread.join();
  reporter.end();
  EXPECT_EQ(reporter.completed(), kThreads * kPerThread);
}

// --- metric inventory ----------------------------------------------------

/// Every name in the first column of the metric inventory table in
/// docs/OBSERVABILITY.md.
std::set<std::string> documented_metrics() {
  std::ifstream in(std::string(UTILRISK_DOCS_DIR) + "/OBSERVABILITY.md");
  EXPECT_TRUE(in) << "cannot read docs/OBSERVABILITY.md";
  std::set<std::string> names;
  bool in_section = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line == "### Metric inventory") {
      in_section = true;
    } else if (in_section && line.starts_with("#")) {
      break;
    } else if (in_section && line.starts_with("| `")) {
      const std::string cell = line.substr(1, line.find('|', 1) - 1);
      std::size_t open = cell.find('`');
      while (open != std::string::npos) {
        const std::size_t close = cell.find('`', open + 1);
        names.insert(cell.substr(open + 1, close - open - 1));
        open = cell.find('`', close + 1);
      }
    }
  }
  return names;
}

/// `name` with every all-digit dotted segment written `<i>`, as the
/// inventory writes indexed names.
std::string inventory_name(const std::string& name) {
  std::string out;
  std::istringstream segments(name);
  std::string segment;
  while (std::getline(segments, segment, '.')) {
    if (!out.empty()) out += '.';
    const bool index = !segment.empty() &&
                       segment.find_first_not_of("0123456789") ==
                           std::string::npos;
    out += index ? "<i>" : segment;
  }
  return out;
}

TEST(MetricInventoryTest, DocTableListsExactlyTheRegisteredMetrics) {
  MetricsRegistry registry(/*enabled=*/true);

  // A tiny sweep: the kernel, cluster, service and executor instruments.
  exp::ExperimentConfig sweep_config;
  sweep_config.trace.job_count = 40;
  exp::ExperimentRunner runner(sweep_config, nullptr, 2);
  runner.set_metrics(&registry);
  (void)runner.run_scenarios({exp::all_scenarios().front()},
                             sweep_config.default_settings(),
                             {policy::PolicyKind::Libra});

  // A 2-shard, journalled, advise-auto engine, drained and then
  // recovered from its journal: every serve.* instrument.
  const std::filesystem::path journal =
      std::filesystem::path(::testing::TempDir()) / "metric_inventory";
  std::filesystem::remove_all(journal);
  serve::ShardedEngineConfig engine_config;
  engine_config.engine.journal_dir = journal.string();
  engine_config.engine.fsync = serve::FsyncPolicy::None;
  engine_config.engine.advisor.auto_switch = true;
  engine_config.engine.metrics = &registry;
  engine_config.shards = 2;
  serve::LoadgenConfig load;
  load.requests = 40;
  load.workload = "zipf:tenants=4";
  {
    serve::ShardedEngine engine(engine_config);
    engine.start();
    for (const serve::Request& request : serve::make_request_stream(load)) {
      while (!engine.submit(request, [](const serve::Response&) {})) {
        std::this_thread::yield();
      }
    }
    (void)engine.drain();
  }
  {
    serve::ShardedEngine recovered(engine_config);
    EXPECT_EQ(recovered.recovery().replayed, load.requests);
    (void)recovered.drain();
  }
  std::filesystem::remove_all(journal);

  std::set<std::string> registered;
  const MetricSnapshot snapshot = registry.snapshot();
  for (const auto& [name, value] : snapshot.counters) {
    registered.insert(inventory_name(name));
  }
  for (const auto& [name, value] : snapshot.gauges) {
    registered.insert(inventory_name(name));
  }
  for (const HistogramSnapshot& histogram : snapshot.histograms) {
    registered.insert(inventory_name(histogram.name));
  }

  const std::set<std::string> documented = documented_metrics();
  for (const std::string& name : registered) {
    EXPECT_TRUE(documented.contains(name))
        << name << " is registered but has no row in docs/OBSERVABILITY.md";
  }
  for (const std::string& name : documented) {
    EXPECT_TRUE(registered.contains(name))
        << name << " has a row in docs/OBSERVABILITY.md but nothing "
        << "registers it";
  }
}

}  // namespace
}  // namespace utilrisk::obs
