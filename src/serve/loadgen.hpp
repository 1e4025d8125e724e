// Load generator for the online admission service (`utilrisk loadgen`).
//
// Replays a seeded arrival process from src/workload (the synthetic SDSC
// SP2 trace + §5.3 QoS synthesis) against a running `utilrisk serve`
// instance over its NDJSON socket protocol, in one of two modes:
//
//  - closed loop (default): one request in flight — send, await the
//    decision, send the next. Request order is then deterministic, so a
//    fixed seed yields bit-identical admission decisions on every run;
//    the report's decision digest must equal the server's.
//  - open loop: requests go out on a wall-clock schedule (`rate`/s)
//    regardless of responses — the overload mode that drives the bounded
//    admission queue into observable `busy` backpressure.
//
// The report carries throughput and p50/p95/p99 wall-latency percentiles;
// `utilrisk loadgen` prints it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.hpp"

namespace utilrisk::serve {

struct LoadgenConfig {
  /// Unix-domain socket path of the server (precedence over TCP).
  std::string unix_path;
  /// TCP loopback port of the server; -1 = off.
  int tcp_port = -1;
  std::size_t requests = 5000;
  std::uint64_t seed = 42;
  /// Workload-generator spec ("name:key=value,...",
  /// workload/generator.hpp) shaping the request stream; empty (default)
  /// = the synthetic SDSC trace. `requests` and `seed` are injected as
  /// the spec's jobs/seed defaults, so "--workload zipf:theta=0.9" keeps
  /// the configured request count and seed unless the spec pins its own.
  std::string workload;
  /// Mix-shift splice ("T:SPEC", `--mix-shift`): at virtual time T the
  /// request stream switches from the configured `workload` (or the
  /// default SDSC trace) to the workload spec SPEC — e.g.
  /// "21600:zipf:theta=0.5". Implemented by wrapping both into the
  /// `mixshift` workload method, so it composes with flash/zipf specs
  /// on either side. Empty = no shift.
  std::string mix_shift;
  /// Open loop when true (see header comment); closed loop otherwise.
  bool open_loop = false;
  /// Open-loop send rate, requests per wall second.
  double rate = 2000.0;
  /// Workload shaping knobs (paper Table VI semantics).
  double high_urgency_percent = 20.0;
  double arrival_delay_factor = 1.0;
  double inaccuracy_percent = 100.0;
  /// Give up when the server goes silent for this long.
  double idle_timeout_seconds = 30.0;
  /// Wall-clock admission-decision budget (milliseconds) stamped on every
  /// generated request (`deadline_ms` on the wire); 0 = none. Under
  /// overload the server sheds requests whose budget expired in its
  /// queue instead of simulating them.
  double deadline_ms = 0.0;
  /// Client connections to fan the stream across (`--connections`).
  /// Requests partition by routing key (protocol.hpp routing_key) with
  /// the same consistent hash the sharded server uses, so every tenant's
  /// subsequence stays ordered on one connection and the merged client
  /// digest stays comparable with the server's merged digest.
  std::size_t connections = 1;
  /// Closed-loop busy handling: how many times one request is re-sent
  /// after a `busy` answer before the client gives up and books the busy
  /// as final. 0 restores the legacy treat-busy-as-terminal behaviour.
  std::size_t busy_retries = 8;
  /// Fallback backoff (milliseconds) between busy retries, used only when
  /// the server's `retry_after_ms` hint is absent/zero — the hint, when
  /// present, is the delay (hinted retries are counted separately).
  double retry_interval_ms = 5.0;
  /// Chaos mode (run_chaos): how many hostile connections to run and a
  /// wall-clock cap on the whole attack phase.
  std::size_t chaos_connections = 24;
  double chaos_duration_seconds = 10.0;
};

struct LatencySummary {
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double max_ms = 0.0;
};

struct LoadgenReport {
  std::uint64_t sent = 0;
  std::uint64_t responses = 0;  ///< decisions + busy + errors received
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t busy = 0;    ///< backpressure rejections observed
  /// Closed-loop busy retries performed (re-sends after a busy answer).
  std::uint64_t busy_retried = 0;
  /// Busy retries whose backoff came from the server's `retry_after_ms`
  /// hint (the rest waited the client-side `retry_interval_ms` fallback).
  std::uint64_t hinted_retries = 0;
  std::uint64_t shed = 0;    ///< decision-deadline sheds observed
  /// `error` replies, and reply lines that are not a response at all.
  std::uint64_t errors = 0;
  /// Requests the run gave up on (idle timeout / connection loss). A
  /// clean run has zero. The three cause counters below say *why* reads
  /// gave up — an idle server, a closed connection and a socket error
  /// are different failures and get debugged differently.
  std::uint64_t dropped = 0;
  std::uint64_t read_timeouts = 0;  ///< gave up: server silent past idle timeout
  std::uint64_t read_eofs = 0;      ///< gave up: server closed the connection
  std::uint64_t read_errors = 0;    ///< gave up: socket error on read
  double wall_seconds = 0.0;
  double throughput_rps = 0.0;  ///< responses per wall second
  LatencySummary latency;
  /// Order-independent digest over the accepted/rejected decisions
  /// (protocol.hpp decision_hash); comparable with the server's.
  std::string decision_digest;
};

/// The seeded request stream the generator replays: synthetic SDSC trace
/// -> QoS terms -> arrival scaling -> wire requests, ids 1..N in
/// submission order. Deterministic in `config`. Exposed for tests and the
/// bench, which drive engines/servers with it directly.
[[nodiscard]] std::vector<Request> make_request_stream(
    const LoadgenConfig& config);

/// Runs the full client session against a live server. Throws
/// std::runtime_error when the connection cannot be established.
[[nodiscard]] LoadgenReport run_loadgen(const LoadgenConfig& config);

/// What the chaos run did to the server — and whether it survived.
struct ChaosReport {
  std::uint64_t connections = 0;     ///< hostile connections opened
  std::uint64_t disconnects = 0;     ///< mid-request disconnects injected
  std::uint64_t torn_writes = 0;     ///< frames torn mid-byte then abandoned
  std::uint64_t malformed_sent = 0;  ///< malformed/hostile frames sent
  std::uint64_t oversized_sent = 0;  ///< over-limit frames sent
  std::uint64_t slow_loris = 0;      ///< drip-fed connections
  std::uint64_t responses = 0;       ///< lines the server still answered with
  std::uint64_t errors_reported = 0;  ///< structured `error` responses seen
  /// Post-attack clean probe: a seeded closed-loop stream must still get
  /// every decision. This is the no-crash/no-hang/no-corruption verdict.
  bool probe_clean = false;
  LoadgenReport probe;
};

/// Chaos mode (`utilrisk loadgen --chaos`): hammers the server with
/// hostile connections — mid-request disconnects, torn partial frames,
/// malformed/oversized/non-UTF-8 lines, slow-loris drip feeds — then runs
/// a clean closed-loop probe stream. The server holds if the probe gets
/// every decision (`probe_clean`); the attack itself is best-effort and
/// must never take the client down either. Deterministically seeded from
/// `config.seed`. Throws std::runtime_error only when the server cannot
/// be reached at all.
[[nodiscard]] ChaosReport run_chaos(const LoadgenConfig& config);

/// Percentile summary of raw wall latencies (milliseconds).
[[nodiscard]] LatencySummary summarize_latencies(std::vector<double> ms);

}  // namespace utilrisk::serve
