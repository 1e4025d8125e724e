// The benchmark's own load client: one thread, poll()-driven, over at
// most a few Unix-socket connections to a running `serve::Server`.
//
// Why not serve::run_loadgen: its open loop stamps each request when it
// is actually sent (a stall then hides the wait it imposes on every later
// request) and it runs two threads per connection, which on a 4-core
// machine competes with the server it measures. This client times each
// request from the instant it was *due*, reports how late it ran, and
// counts every busy, shed, error, dropped and timed-out request as a
// failure against the requests it attempted.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "serve/protocol.hpp"
#include "support.hpp"
#include "verify/digest.hpp"

namespace utilrisk::e2e {

struct ClientConfig {
  std::string unix_path;
  /// Connections to spread the stream over; requests partition by
  /// routing key with the server's consistent hash, so each key's
  /// subsequence stays ordered on one connection.
  std::size_t connections = 1;
  /// Open loop: request i is due at start + i / rate.
  double rate = 0.0;
  /// Closed window instead of an open loop: send as fast as the server
  /// answers, keeping at most `window` requests in flight per connection.
  /// 0 selects the open loop.
  std::size_t window = 0;
  /// After every Nth submit, send one read-only `advise` query for the
  /// same tenant (0 = none).
  std::size_t advise_every = 0;
};

struct ClientResult {
  std::uint64_t sent = 0;  ///< submits sent (advise queries excluded)
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t busy = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  std::uint64_t dropped = 0;    ///< lost to a closed or failed connection
  std::uint64_t timed_out = 0;  ///< never answered within the idle timeout
  std::uint64_t advise_sent = 0;
  /// Submit latency from the due instant to the parsed response, ms.
  Samples latency_ms;
  /// Advise-query latency from the due instant, ms.
  Samples advise_latency_ms;
  /// Send instant minus due instant per request, ms (open loop only).
  Samples lateness_ms;
  /// Submit round trip from the end of its send to the read that
  /// delivered its response, ms: the server's share of the latency.
  Samples wait_ms;
  /// Order-independent digest over the accepted/rejected decisions.
  verify::UnorderedDigest digest;
  double wall_seconds = 0.0;

  [[nodiscard]] std::uint64_t failed() const {
    return busy + shed + errors + dropped + timed_out;
  }
};

/// Connects, drives `stream` (every request, in order per connection) and
/// returns once every request is answered or given up on. Request ids
/// must be consecutive. Throws std::runtime_error when a connection cannot
/// be opened.
[[nodiscard]] ClientResult run_client(const ClientConfig& config,
                                      std::span<const serve::Request> stream,
                                      Tracer& tracer);

}  // namespace utilrisk::e2e
