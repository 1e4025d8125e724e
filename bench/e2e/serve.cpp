// serve_*: the admission server behind its Unix socket, driven by the
// benchmark's own single-threaded client (client.hpp).
//
// Every run works on one seeded request stream:
//  1. reference: an open loop at the workload's fixed rate replays the
//     stream to one server in slices; latency is timed from each
//     request's due instant;
//  2. capacity bursts: after every slice, a fresh engine and server take
//     a prefix of the stream as fast as they answer, with a bounded
//     number of requests in flight; decisions per second;
//  3. oracle: the whole stream driven into one AdmissionEngine directly,
//     no sockets, journal off.
// All of them must agree on the decisions. The traced run adds the
// per-layer measurements (protocol, journal, recovery, shards, advisor).
#include <algorithm>
#include <array>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "advise/advisor_engine.hpp"
#include "client.hpp"
#include "core/objectives.hpp"
#include "obs/metrics.hpp"
#include "serve/engine.hpp"
#include "serve/journal.hpp"
#include "serve/loadgen.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/shard.hpp"
#include "workloads.hpp"

namespace utilrisk::e2e {

namespace {

struct ServeWorkload {
  const char* name;
  const char* spec;       ///< workload generator spec ("" = the SDSC trace)
  const char* mix_shift;  ///< "T:SPEC" splice ("" = none)
  std::size_t shards;
  std::size_t connections;
  bool journal;  ///< fsync=batch write-ahead journal
  bool advise;   ///< --advise-auto plus read-only advise queries
  double rate;   ///< reference-phase open-loop rate, requests/s
  std::size_t burst;  ///< requests per capacity burst (a stream prefix)
};

// Sized for a 4-core machine: one client thread, io_threads equal to the
// connections, at most 2 engine threads. Reference rates sit at about a
// sixth of capacity, so a shared machine running at half speed for a
// while still answers every request. Bursts last 0.3-0.4 s each, and up
// to 1 s when the host takes a third of the machine, which keeps a run
// under 30 s.
constexpr ServeWorkload kWorkloads[] = {
    {"serve_sdsc_journal", "", "", 1, 1, true, false, 10000.0, 20000},
    {"serve_zipf_shards", "zipf:tenants=64,theta=0.9", "", 2, 2, true, false,
     10000.0, 25000},
    {"serve_mixshift_advise",
     "zipf:tenants=4,theta=0.6,mean_runtime=14000,mean_interarrival=120",
     "40000:zipf:tenants=4,theta=0.6", 1, 1, false, true, 5000.0, 10000},
};

constexpr std::size_t kInFlight = 256;  ///< capacity burst, per connection
/// Reference-engine queue: deep enough to ride out a stalled second at
/// the reference rates instead of answering `busy`.
constexpr std::size_t kQueueCapacity = 16384;
/// Reference-phase slices, each followed by one capacity burst. The
/// reference phase takes a quarter of the run's seconds and the bursts,
/// which give the end-to-end cpu_per_op_us, most of the rest.
constexpr std::size_t kSlices = 20;
constexpr double kReferenceShare = 0.25;
/// One read-only advise query after every 16th submit: enough queries in
/// a run for a supported p99.
constexpr std::size_t kAdviseQueryEvery = 16;
/// An open-loop slice whose lateness p99 is above this measured the
/// client falling behind: its latencies are invalid.
constexpr double kMaxLatenessP99Ms = 1.0;
constexpr std::uint64_t kAdviseEvery = 256;
constexpr std::size_t kAdviseWindow = 64;
constexpr std::size_t kRecoveryRequests = 200000;
constexpr std::size_t kSmokeRequests = 2000;
constexpr std::size_t kTickRecords = 64;  ///< journal replay: sync cadence
/// Journal replay length: enough ticks for a supported sync p99.
constexpr std::size_t kJournalTicks = 2000;
/// Direct passes per side when two engine configurations are compared.
constexpr std::size_t kPairedPasses = 3;

const ServeWorkload* find_workload(const std::string& name) {
  for (const ServeWorkload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

serve::EngineConfig engine_config(const ServeWorkload& w,
                                  const std::string& journal_dir,
                                  obs::MetricsRegistry* metrics = nullptr) {
  serve::EngineConfig config;
  config.journal_dir = journal_dir;
  config.fsync = serve::FsyncPolicy::Batch;
  config.metrics = metrics;
  if (w.advise) {
    config.advisor.auto_switch = true;
    config.advisor.advise_every = kAdviseEvery;
    config.advisor.window = kAdviseWindow;
  }
  return config;
}

std::vector<serve::Request> make_stream(const ServeWorkload& w, std::size_t n,
                                        std::uint64_t seed) {
  serve::LoadgenConfig config;
  config.requests = n;
  config.seed = seed;
  config.workload = w.spec;
  config.mix_shift = w.mix_shift;
  return serve::make_request_stream(config);
}

std::string fresh_dir(const std::string& path) {
  std::filesystem::remove_all(path);
  return path;
}

/// A started engine (sharded when the workload asks for it) behind a
/// started socket server.
class LiveServer {
 public:
  LiveServer(const ServeWorkload& w, const serve::EngineConfig& engine,
             const std::string& socket_path) {
    serve::ShardedEngineConfig config;
    config.engine = engine;
    config.shards = w.shards;
    engine_ = std::make_unique<serve::ShardedEngine>(config);
    engine_->start();
    serve::ServerConfig server_config;
    server_config.unix_path = socket_path;
    server_config.io_threads = w.connections;
    server_ = std::make_unique<serve::Server>(server_config, *engine_);
    server_->start();
  }

  [[nodiscard]] serve::ShardedEngine& engine() { return *engine_; }
  [[nodiscard]] serve::Server& server() { return *server_; }

 private:
  std::unique_ptr<serve::ShardedEngine> engine_;
  std::unique_ptr<serve::Server> server_;  ///< after engine_: dies first
};

struct DirectResult {
  serve::EngineStats stats;
  verify::UnorderedDigest client_digest;  ///< over completions, as a client
  std::vector<serve::Response> responses;
  double rps = 0.0;
};

/// Drives `engine` with the whole stream, no sockets: one submitter that
/// retries on backpressure, so the queue stays full and ticks batch up.
DirectResult drive_direct(serve::EngineApi& engine,
                          const std::vector<serve::Request>& stream,
                          Tracer& tracer) {
  const std::size_t n = stream.size();
  DirectResult result;
  result.responses.resize(n);
  const bool traced = tracer.enabled();
  std::vector<std::int64_t> submitted(traced ? n : 0);
  std::vector<std::int64_t> completed(traced ? n : 0);
  engine.start();
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    if (traced) submitted[i] = now_ns();
    const auto completion = [&result, &completed, traced,
                             i](const serve::Response& response) {
      result.responses[i] = response;
      if (traced) completed[i] = now_ns();
    };
    while (!engine.submit(stream[i], completion)) std::this_thread::yield();
  }
  result.stats = engine.drain();
  const std::int64_t end = now_ns();
  result.rps =
      static_cast<double>(n) / (static_cast<double>(end - start) * 1e-9);
  for (const serve::Response& response : result.responses) {
    if (response.status == serve::Status::Accepted ||
        response.status == serve::Status::Rejected) {
      result.client_digest.add(serve::decision_hash(response));
    }
  }
  if (traced) {
    const std::uint32_t root = tracer.record("direct.pass", start, end);
    for (std::size_t i = 0; i < n; ++i) {
      tracer.record("engine.submit", submitted[i], completed[i], root,
                    stream[i].id);
    }
  }
  return result;
}

DirectResult drive_single(const serve::EngineConfig& config,
                          const std::vector<serve::Request>& stream,
                          Tracer& tracer) {
  serve::AdmissionEngine engine(config);
  return drive_direct(engine, stream, tracer);
}

/// Median decisions per second of untraced direct passes of `a` and of
/// `b`, alternating which runs first: one pass is at the mercy of a
/// shared machine's slow seconds.
std::pair<double, double> paired_rps(
    const std::function<DirectResult()>& a,
    const std::function<DirectResult()>& b) {
  std::vector<double> rps_a;
  std::vector<double> rps_b;
  for (std::size_t i = 0; i < kPairedPasses; ++i) {
    if (i % 2 == 0) rps_a.push_back(a().rps);
    rps_b.push_back(b().rps);
    if (i % 2 == 1) rps_a.push_back(a().rps);
  }
  return {median(rps_a), median(rps_b)};
}

/// Percentile of a fixed-bucket histogram, interpolated linearly inside
/// the bucket that holds the rank (the registry keeps no raw samples).
double histogram_percentile(const obs::HistogramSnapshot& h, double q) {
  if (h.count == 0) return 0.0;
  const double rank = q * static_cast<double>(h.count);
  double seen = 0.0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    const double in_bucket = static_cast<double>(h.buckets[i]);
    if (seen + in_bucket >= rank && in_bucket > 0.0) {
      const double lower = i == 0 ? 0.0 : h.upper_bounds[i - 1];
      const double upper =
          i < h.upper_bounds.size() ? h.upper_bounds[i] : h.upper_bounds.back();
      return lower + (upper - lower) * (rank - seen) / in_bucket;
    }
    seen += in_bucket;
  }
  return h.upper_bounds.back();
}

const obs::HistogramSnapshot* find_histogram(const obs::MetricSnapshot& s,
                                             const std::string& name) {
  for (const obs::HistogramSnapshot& h : s.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

/// ns per call of the four protocol functions, over the workload's own
/// request lines and the oracle's responses.
void measure_protocol(const std::vector<serve::Request>& stream,
                      const std::vector<serve::Response>& responses,
                      Report& report, Tracer& tracer) {
  const double n = static_cast<double>(stream.size());
  std::vector<std::string> lines;
  lines.reserve(stream.size());
  std::int64_t start = now_ns();
  for (const serve::Request& request : stream) {
    lines.push_back(serve::encode_request(request));
  }
  std::int64_t end = now_ns();
  tracer.record("protocol.encode_request", start, end);
  report.add("protocol.encode_request_ns", static_cast<double>(end - start) / n,
             "ns", stream.size());

  std::uint64_t ids = 0;
  start = now_ns();
  for (const std::string& line : lines) ids += serve::parse_request(line).id;
  end = now_ns();
  tracer.record("protocol.parse_request", start, end);
  report.add("protocol.parse_request_ns", static_cast<double>(end - start) / n,
             "ns", stream.size());

  std::vector<std::string> answers;
  answers.reserve(responses.size());
  start = now_ns();
  for (const serve::Response& response : responses) {
    answers.push_back(serve::encode_response(response));
  }
  end = now_ns();
  tracer.record("protocol.encode_response", start, end);
  report.add("protocol.encode_response_ns",
             static_cast<double>(end - start) / n, "ns", responses.size());

  std::uint64_t answered = 0;
  start = now_ns();
  for (const std::string& line : answers) {
    answered += serve::parse_response(line).id;
  }
  end = now_ns();
  tracer.record("protocol.parse_response", start, end);
  report.add("protocol.parse_response_ns",
             static_cast<double>(end - start) / n, "ns", answers.size());
  report.gate(ids == answered, "protocol round trip keeps every request id");
}

/// A JournalWriter replaying the workload's records, from the start again
/// when the stream runs out: appends timed per tick of 64 records, each
/// tick group-committed by one timed sync().
void measure_journal_writer(const std::vector<serve::Request>& stream,
                            const std::string& dir, Report& report,
                            Tracer& tracer) {
  serve::JournalConfig config;
  config.directory = fresh_dir(dir);
  config.fsync = serve::FsyncPolicy::Batch;
  Samples sync_ms;
  double append_s = 0.0;
  const std::size_t records = kJournalTicks * kTickRecords;
  {
    serve::JournalWriter writer(config);
    for (std::size_t i = 0; i < records; i += kTickRecords) {
      const std::size_t end = i + kTickRecords;
      const std::int64_t t0 = now_ns();
      for (std::size_t j = i; j < end; ++j) {
        writer.append_request(stream[j % stream.size()]);
      }
      writer.append_tick(end, verify::to_hex(end), /*sync_now=*/false);
      const std::int64_t t1 = now_ns();
      writer.sync();
      const std::int64_t t2 = now_ns();
      const std::uint32_t tick = tracer.record("journal.tick", t0, t2);
      tracer.record("journal.sync", t1, t2, tick);
      append_s += static_cast<double>(t1 - t0) * 1e-9;
      sync_ms.add(static_cast<double>(t2 - t1) * 1e-6);
    }
    writer.close();
  }
  std::filesystem::remove_all(dir);
  report.add("journal.append_ns",
             append_s * 1e9 / static_cast<double>(records), "ns", records);
  report.add_percentile("journal.sync_p50_ms", sync_ms, 0.50, 1.0, "ms");
  report.add_percentile("journal.sync_p99_ms", sync_ms, 0.99, 1.0, "ms");
}

/// Writes a fixed-size journal through a live engine, then times reading
/// it back (load_journal) and recovering from it (the constructor).
void measure_recovery(const ServeWorkload& w, std::size_t requests,
                      std::uint64_t seed, const std::string& dir,
                      Report& report, Tracer& tracer) {
  const std::vector<serve::Request> stream = make_stream(w, requests, seed);
  const serve::EngineConfig config = engine_config(w, fresh_dir(dir));
  Tracer off(false);
  const DirectResult written = drive_single(config, stream, off);

  std::int64_t start = now_ns();
  const serve::RecoveredJournal journal = serve::load_journal(dir);
  std::int64_t end = now_ns();
  tracer.record("recovery.load_journal", start, end);
  report.add("recovery.load_s", static_cast<double>(end - start) * 1e-9, "s");
  report.gate(journal.requests.size() == requests,
              "load_journal returns every journalled request");

  start = now_ns();
  {
    serve::AdmissionEngine recovered(config);
    end = now_ns();
    const serve::RecoveryStats& stats = recovered.recovery();
    report.gate(stats.digest_match && stats.replayed == requests,
                "recovery replays " + std::to_string(stats.replayed) + " of " +
                    std::to_string(requests) +
                    " requests to the journalled digest");
    report.gate(verify::to_hex(recovered.decision_digest_snapshot().value()) ==
                    written.stats.decision_digest,
                "recovered digest equals the live session's");
  }
  tracer.record("recovery.constructor", start, end);
  const double recover_s = static_cast<double>(end - start) * 1e-9;
  report.add("recovery.recover_s", recover_s, "s");
  report.add("recovery.replay_rps", static_cast<double>(requests) / recover_s,
             "1/s");
  std::filesystem::remove_all(dir);
}

/// The advisor alone, offline: the stream's jobs replayed through an
/// AdvisorEngine with the serving cadence, timing evaluate() at every
/// switch point and a read-only query() after every 16th job. As in
/// bench_serving, the objective samples are synthetic (every job accepted
/// and fulfilled): this times the evaluations, it does not judge them.
void measure_advisor(const std::vector<serve::Request>& stream, Report& report,
                     Tracer& tracer) {
  advise::OnlineAdvisorConfig config;
  config.advise_every = kAdviseEvery;
  config.window = kAdviseWindow;
  advise::AdvisorEngine advisor(config, advise::ShadowContext{},
                                policy::PolicyKind::Libra);
  std::map<std::uint64_t, core::ObjectiveInputs> inputs;
  Samples evaluate_ms;
  Samples query_us;
  std::uint64_t next_job_id = 1;
  const std::array<double, 4> weights = {0.25, 0.25, 0.25, 0.25};
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const serve::Request& request = stream[i];
    const std::uint64_t key = serve::routing_key(request);
    const workload::Job job =
        serve::to_job(request, next_job_id++, request.submit_time);
    core::ObjectiveInputs& in = inputs[key];
    in.submitted += 1;
    in.accepted += 1;
    in.fulfilled += 1;
    in.wait_sum_fulfilled += 0.25 * job.actual_runtime;
    in.total_utility += 0.8 * job.budget;
    in.total_budget += job.budget;
    advisor.observe(key, job, core::compute_objectives(in));
    if (advisor.at_switch_point(key)) {
      const std::int64_t start = now_ns();
      (void)advisor.evaluate(key);
      const std::int64_t end = now_ns();
      tracer.record("advise.evaluate", start, end, 0, request.id);
      evaluate_ms.add(static_cast<double>(end - start) * 1e-6);
    }
    if ((i + 1) % kAdviseQueryEvery == 0) {
      const std::int64_t start = now_ns();
      const advise::Snapshot snapshot = advisor.query(key, weights, 0.5);
      const std::int64_t end = now_ns();
      tracer.record("advise.query", start, end, 0, request.id);
      query_us.add(static_cast<double>(end - start) * 1e-3);
      report.gate(!snapshot.active.empty(), "advise query names a policy");
    }
  }
  report.gate(!evaluate_ms.empty(), "offline advisor reached a switch point");
  report.add("advise.evaluate_ms_p50", evaluate_ms.percentile(0.5), "ms",
             evaluate_ms.size());
  report.add("advise.evaluate_ms_max", evaluate_ms.max(), "ms",
             evaluate_ms.size());
  report.add("advise.query_us", query_us.percentile(0.5), "us",
             query_us.size());
}

/// Folds one reference slice's client result into the phase total.
void absorb(ClientResult& into, const ClientResult& part) {
  into.sent += part.sent;
  into.accepted += part.accepted;
  into.rejected += part.rejected;
  into.busy += part.busy;
  into.shed += part.shed;
  into.errors += part.errors;
  into.dropped += part.dropped;
  into.timed_out += part.timed_out;
  into.advise_sent += part.advise_sent;
  into.latency_ms.append(part.latency_ms);
  into.advise_latency_ms.append(part.advise_latency_ms);
  into.lateness_ms.append(part.lateness_ms);
  into.wait_ms.append(part.wait_ms);
  into.digest.merge(part.digest);
}

}  // namespace

bool is_serve_workload(const std::string& name) {
  return find_workload(name) != nullptr;
}

void run_serve(const RunOptions& options, Report& report, Tracer& tracer) {
  const ServeWorkload& w = *find_workload(options.workload);
  const std::size_t n =
      options.smoke ? kSmokeRequests
                    : static_cast<std::size_t>(w.rate * kReferenceShare *
                                               kRunSeconds);
  const std::size_t slices = options.smoke ? 2 : kSlices;
  const std::size_t slice = n / slices;
  const std::string base = options.out_dir + "/" + w.name;
  const std::string ref_socket = base + ".sock";
  const std::string burst_socket = base + ".burst.sock";
  const std::string ref_journal = base + ".journal";
  const std::string burst_journal = base + ".burst-journal";
  Tracer off(false);
  obs::MetricsRegistry registry;
  obs::MetricsRegistry* metrics = options.trace ? &registry : nullptr;

  // One set-up sample: the seeded request stream, then a started engine
  // and server. Samples are taken before the reference phase and before
  // every capacity burst, spread over the run, and the median reported as
  // normalised CPU time (see support.hpp); the stream's wall time is per
  // layer. Each sample sits between two runs of the reference work.
  std::vector<double> setup_cpu;
  std::vector<double> stream_s;
  std::vector<double> reference_s;
  std::vector<serve::Request> stream;
  const auto set_up = [&](const serve::EngineConfig& config,
                          const std::string& socket) {
    const double before = reference_cpu_s(1);
    const double cpu0 = process_cpu_s();
    const std::int64_t t0 = now_ns();
    std::vector<serve::Request> generated = make_stream(w, n, options.seed);
    const std::int64_t t1 = now_ns();
    auto live = std::make_unique<LiveServer>(w, config, socket);
    const std::int64_t t2 = now_ns();
    const double cpu = process_cpu_s() - cpu0;
    const double after = reference_cpu_s(1);
    setup_cpu.push_back(normalised(cpu, before, after));
    reference_s.insert(reference_s.end(), {before, after});
    const std::uint32_t root = tracer.record("setup", t0, t2);
    tracer.record("setup.request_stream", t0, t1, root);
    tracer.record("setup.server", t1, t2, root);
    stream_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    if (stream.empty()) {
      stream = std::move(generated);
    } else {
      report.gate(generated.size() == stream.size() &&
                      std::equal(generated.begin(), generated.end(),
                                 stream.begin(),
                                 [](const serve::Request& a,
                                    const serve::Request& b) {
                                   return serve::encode_request(a) ==
                                          serve::encode_request(b);
                                 }),
                  "the seed regenerates the same request stream");
    }
    return live;
  };

  // The reference phase is an open loop at the workload's rate over the
  // whole stream, cut into slices; after each slice a capacity burst
  // pushes a prefix of the stream through a fresh engine as fast as the
  // in-flight limit allows. Interleaving spreads both measurements over
  // the run, so a few slow seconds on a shared machine move the medians
  // less.
  serve::EngineConfig ref_config =
      engine_config(w, w.journal ? fresh_dir(ref_journal) : "", metrics);
  ref_config.queue_capacity = kQueueCapacity;
  std::unique_ptr<LiveServer> live = set_up(ref_config, ref_socket);
  ClientConfig client;
  client.unix_path = ref_socket;
  client.connections = w.connections;
  client.rate = w.rate;
  client.advise_every = w.advise ? kAdviseQueryEvery : 0;
  ClientConfig burst_client = client;
  burst_client.unix_path = burst_socket;
  burst_client.window = kInFlight;
  const std::span<const serve::Request> burst_stream(
      stream.data(), std::min(n, options.smoke ? n / 2 : w.burst));

  ClientResult ref;
  std::vector<double> p50_ms;
  std::vector<double> p90_ms;
  std::vector<double> p99_ms;
  std::size_t late_slices = 0;
  std::vector<double> burst_rps;
  std::vector<double> burst_cpu_us;
  std::vector<std::uint64_t> burst_digests;
  for (std::size_t k = 0; k < slices; ++k) {
    const std::size_t first = k * slice;
    const std::size_t last = k + 1 == slices ? n : first + slice;
    const ClientResult part = run_client(
        client, std::span<const serve::Request>(stream).subspan(first,
                                                                 last - first),
        tracer);
    // Slice 0 and its burst warm the servers and the client up: they are
    // checked and counted, but not measured. A slice in which the client
    // ran late measures the client, not the server, so its latencies are
    // left out.
    const bool late =
        part.lateness_ms.percentile(0.99) > kMaxLatenessP99Ms;
    if (k > 0 && late) ++late_slices;
    if (k > 0 && !late) {
      p50_ms.push_back(
          report.percentile("latency.p50_ms", part.latency_ms, 0.50));
      p90_ms.push_back(
          report.percentile("latency.p90_ms", part.latency_ms, 0.90));
      p99_ms.push_back(
          report.percentile("latency.p99_ms", part.latency_ms, 0.99));
    }
    absorb(ref, part);

    std::unique_ptr<LiveServer> burst =
        set_up(engine_config(w, w.journal ? fresh_dir(burst_journal) : ""),
               burst_socket);
    // The server's CPU time: the process's, less the client thread's.
    const double before = reference_s.back();
    const double cpu0 = process_cpu_s() - thread_cpu_s();
    const ClientResult cap = run_client(burst_client, burst_stream, off);
    const double server_cpu = process_cpu_s() - thread_cpu_s() - cpu0;
    const double after = reference_cpu_s(1);
    reference_s.push_back(after);
    const serve::EngineStats cap_stats = burst->server().stop_and_drain();
    burst.reset();
    std::filesystem::remove_all(burst_journal);
    report.count_attempts(cap.sent + cap.advise_sent, cap.failed());
    report.gate(cap.failed() == 0, "capacity burst: " +
                                       std::to_string(cap.failed()) +
                                       " failed requests");
    if (!w.advise) {
      report.gate(cap.digest.value() == cap_stats.digest.value(),
                  "capacity burst: client digest equals the server's");
    }
    if (k > 0) {
      const auto decisions = static_cast<double>(cap.accepted + cap.rejected);
      burst_rps.push_back(decisions / cap.wall_seconds);
      burst_cpu_us.push_back(normalised(server_cpu, before, after) * 1e6 /
                             decisions);
    }
    burst_digests.push_back(cap.digest.value());
  }
  const serve::EngineStats ref_stats = live->server().stop_and_drain();
  const serve::ServerStats server_stats = live->server().stats();
  const serve::JournalStats journal_stats = live->engine().journal_stats();
  const std::vector<serve::EngineStats> shard_stats =
      live->engine().shard_stats();
  live.reset();
  std::filesystem::remove_all(ref_journal);

  report.add("setup_s", median(setup_cpu), "s", setup_cpu.size());
  report.add("cpu_per_op_us", median(burst_cpu_us), "us",
             burst_cpu_us.size());
  report.add("host.speed", kReferenceNominalS / median(reference_s), "ratio",
             reference_s.size());
  report.add("workload.request_stream_s", median(stream_s), "s",
             stream_s.size());
  // Medians over the on-time slices: 0, with every slice late, means the
  // run measured no valid latency.
  report.add("latency.p50_ms", median(p50_ms), "ms", p50_ms.size());
  report.add("latency.p90_ms", median(p90_ms), "ms", p90_ms.size());
  report.add("latency.p99_ms", median(p99_ms), "ms", p99_ms.size());
  report.add("driver.late_slices", static_cast<double>(late_slices), "count");
  report.add("throughput_per_s", median(burst_rps), "1/s", burst_rps.size());
  report.count_attempts(ref.sent + ref.advise_sent, ref.failed());
  report.gate(ref.failed() == 0,
              "reference phase: " + std::to_string(ref.failed()) +
                  " failed requests (busy " + std::to_string(ref.busy) +
                  ", shed " + std::to_string(ref.shed) + ", error " +
                  std::to_string(ref.errors) + ", dropped " +
                  std::to_string(ref.dropped) + ", timed out " +
                  std::to_string(ref.timed_out) + ")");
  report.gate(ref.sent == n, "reference phase sent the whole stream");
  report.add_percentile("driver.lateness_p99_ms", ref.lateness_ms, 0.99, 1.0,
                        "ms");
  report.add("driver.lateness_max_ms", ref.lateness_ms.max(), "ms",
             ref.lateness_ms.size());
  report.add("driver.sent", static_cast<double>(ref.sent + ref.advise_sent),
             "count");
  report.add("driver.failed", static_cast<double>(ref.failed()), "count");

  // The oracle: one engine, driven directly, journal off.
  const DirectResult oracle =
      drive_single(engine_config(w, ""), stream, tracer);
  report.gate(oracle.stats.decision_digest == ref_stats.decision_digest,
              "server digest " + ref_stats.decision_digest +
                  " equals the direct single-engine digest " +
                  oracle.stats.decision_digest);
  report.gate(oracle.client_digest.value() == ref.digest.value(),
              "client digest equals the direct single-engine digest");
  verify::UnorderedDigest prefix;
  for (std::size_t i = 0; i < burst_stream.size(); ++i) {
    const serve::Response& response = oracle.responses[i];
    if (response.status == serve::Status::Accepted ||
        response.status == serve::Status::Rejected) {
      prefix.add(serve::decision_hash(response));
    }
  }
  report.gate(std::all_of(burst_digests.begin(), burst_digests.end(),
                          [&prefix](std::uint64_t d) {
                            return d == prefix.value();
                          }),
              "every capacity burst reproduces the direct decisions");
  if (w.advise) {
    report.gate(oracle.stats.advisor_evaluations > 0,
                "advise-auto evaluated at least once");
  } else {
    report.gate(ref.digest.value() == ref_stats.digest.value(),
                "client digest equals the server's drain digest");
  }

  // Per-layer numbers from the reference phase.
  report.add("engine.decide_rps", oracle.rps, "1/s", n);
  report.add("server.lines", static_cast<double>(server_stats.lines), "count");
  report.add("server.busy", static_cast<double>(server_stats.busy), "count");
  report.add("sim.events", static_cast<double>(ref_stats.events_dispatched),
             "count");
  report.add("sim.events_per_decision",
             static_cast<double>(ref_stats.events_dispatched) /
                 static_cast<double>(std::max<std::uint64_t>(
                     1, ref_stats.processed)),
             "count");
  if (w.journal) {
    report.add("journal.requests_per_fsync",
               static_cast<double>(journal_stats.requests) /
                   static_cast<double>(
                       std::max<std::uint64_t>(1, journal_stats.fsyncs)),
               "count");
    report.add("journal.bytes_per_request",
               static_cast<double>(journal_stats.bytes) /
                   static_cast<double>(
                       std::max<std::uint64_t>(1, journal_stats.requests)),
               "bytes");
  }
  if (w.shards > 1) {
    double max_processed = 0.0;
    double total = 0.0;
    for (const serve::EngineStats& shard : shard_stats) {
      max_processed =
          std::max(max_processed, static_cast<double>(shard.processed));
      total += static_cast<double>(shard.processed);
    }
    report.add("shard.imbalance",
               max_processed /
                   (total / static_cast<double>(shard_stats.size())),
               "ratio");
  }
  if (w.advise) {
    report.add("advise.evaluations",
               static_cast<double>(ref_stats.advisor_evaluations), "count");
    report.add("advise.switches",
               static_cast<double>(ref_stats.policy_switches), "count");
    report.add_percentile("advise.query_p50_ms", ref.advise_latency_ms, 0.50,
                          1.0, "ms");
    report.add_percentile("advise.query_p99_ms", ref.advise_latency_ms, 0.99,
                          1.0, "ms");
  }
  if (!options.trace) return;

  // --- traced run only ----------------------------------------------------
  const obs::MetricSnapshot snapshot = registry.snapshot();
  const auto* wait = find_histogram(snapshot, "serve.queue_wait_seconds");
  const auto* tick = find_histogram(snapshot, "serve.tick_seconds");
  const auto* batch = find_histogram(snapshot, "serve.batch_size");
  if (wait != nullptr && tick != nullptr && batch != nullptr) {
    const double wait_p50 = histogram_percentile(*wait, 0.50) * 1e3;
    const double tick_p50 = histogram_percentile(*tick, 0.50) * 1e3;
    report.add("queue.wait_p50_ms", wait_p50, "ms", wait->count);
    report.add("queue.wait_p99_ms", histogram_percentile(*wait, 0.99) * 1e3,
               "ms", wait->count);
    report.add("engine.tick_p50_ms", tick_p50, "ms", tick->count);
    report.add("engine.tick_p99_ms", histogram_percentile(*tick, 0.99) * 1e3,
               "ms", tick->count);
    report.add("engine.batch_mean",
               batch->sum / static_cast<double>(std::max<std::uint64_t>(
                                1, batch->count)),
               "count", batch->count);
    report.add("server.transport_p50_ms",
               ref.wait_ms.percentile(0.5) - wait_p50 - tick_p50, "ms",
               ref.wait_ms.size());
  } else {
    report.gate(false, "serve.* histograms missing from the registry");
  }

  measure_protocol(stream, oracle.responses, report, tracer);

  // The workload's own engine, untraced (the oracle above was traced),
  // against the same engine with the journal on or the advisor static.
  const auto own = [&] {
    return drive_single(engine_config(w, ""), stream, off);
  };
  if (w.journal) {
    measure_journal_writer(stream, ref_journal, report, tracer);
    const auto journalled = [&] {
      DirectResult pass =
          drive_single(engine_config(w, fresh_dir(ref_journal)), stream, off);
      std::filesystem::remove_all(ref_journal);
      report.gate(pass.stats.decision_digest == oracle.stats.decision_digest,
                  "journalling leaves the decision digest unchanged");
      return pass;
    };
    const auto [plain_rps, journal_rps] = paired_rps(own, journalled);
    report.add("engine.decide_rps", plain_rps, "1/s", n);
    report.add("journal.overhead_share", 1.0 - journal_rps / plain_rps,
               "fraction");
  }
  if (w.journal && w.shards == 1) {
    measure_recovery(w, options.smoke ? kSmokeRequests : kRecoveryRequests,
                     options.seed, ref_journal, report, tracer);
  }
  if (w.shards > 1) {
    std::map<std::size_t, std::vector<double>> shard_rps;
    for (std::size_t round = 0; round < kPairedPasses; ++round) {
      for (const std::size_t shards : {1u, 2u, 4u}) {
        serve::ShardedEngineConfig config;
        config.engine = engine_config(w, "");
        config.shards = shards;
        serve::ShardedEngine engine(config);
        const DirectResult pass = drive_direct(engine, stream, off);
        report.gate(pass.stats.decision_digest == oracle.stats.decision_digest,
                    std::to_string(shards) +
                        "-shard merged digest equals the 1-engine digest");
        shard_rps[shards].push_back(pass.rps);
      }
    }
    for (const auto& [shards, rps] : shard_rps) {
      report.add("shard.decide_rps_" + std::to_string(shards), median(rps),
                 "1/s", n);
    }
  }
  if (w.advise) {
    serve::EngineConfig static_config = engine_config(w, "");
    static_config.advisor = advise::OnlineAdvisorConfig{};
    const auto [auto_rps, static_rps] = paired_rps(
        own, [&] { return drive_single(static_config, stream, off); });
    report.add("engine.decide_rps", auto_rps, "1/s", n);
    report.add("advise.overhead_share", 1.0 - auto_rps / static_rps,
               "fraction");
    measure_advisor(stream, report, tracer);
  }
}

}  // namespace utilrisk::e2e
