#include "serve/loadgen.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iterator>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "serve/shard.hpp"
#include "verify/digest.hpp"
#include "workload/generator.hpp"
#include "workload/qos.hpp"
#include "workload/workload.hpp"

namespace utilrisk::serve {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_between(Clock::time_point from,
                                     Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Blocking NDJSON client socket: line-framed send/receive with an idle
/// timeout on reads. Reads and writes may come from different threads
/// (sockets are full duplex); each side is single-threaded.
class LineSocket {
 public:
  ~LineSocket() {
    if (fd_ >= 0) ::close(fd_);
  }

  void connect_unix(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("unix socket path too long: " + path);
    }
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                             sizeof(addr)) != 0) {
      throw std::runtime_error("loadgen: cannot connect to " + path + ": " +
                               std::strerror(errno));
    }
  }

  void connect_tcp(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                             sizeof(addr)) != 0) {
      throw std::runtime_error("loadgen: cannot connect to port " +
                               std::to_string(port) + ": " +
                               std::strerror(errno));
    }
  }

  [[nodiscard]] bool send_line(const std::string& line) {
    std::string framed = line;
    framed.push_back('\n');
    std::size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + sent,
                               framed.size() - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// One read attempt's outcome. Timeout, EOF and socket error are
  /// different failures (idle server vs closed connection vs broken
  /// transport) and the report counts them separately.
  struct ReadResult {
    enum class Kind { Line, Timeout, Eof, Error } kind = Kind::Timeout;
    std::string line;  // Kind::Line only
  };

  /// Next line, or the reason there is none.
  [[nodiscard]] ReadResult read_line(double timeout_seconds) {
    for (;;) {
      if (const auto nl = buffer_.find('\n'); nl != std::string::npos) {
        ReadResult result;
        result.kind = ReadResult::Kind::Line;
        result.line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return result;
      }
      pollfd pfd{fd_, POLLIN, 0};
      const int ready =
          ::poll(&pfd, 1, static_cast<int>(timeout_seconds * 1000.0));
      if (ready == 0) return {ReadResult::Kind::Timeout, {}};
      if (ready < 0) {
        if (errno == EINTR) continue;
        return {ReadResult::Kind::Error, {}};
      }
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n == 0) return {ReadResult::Kind::Eof, {}};
      if (n < 0) {
        if (errno == EINTR) continue;
        return {ReadResult::Kind::Error, {}};
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Raw byte send without line framing — the chaos harness uses this to
  /// tear frames mid-byte. Best effort; false when the peer is gone.
  [[nodiscard]] bool send_raw(std::string_view bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

void connect_per_config(LineSocket& socket, const LoadgenConfig& config) {
  if (!config.unix_path.empty()) {
    socket.connect_unix(config.unix_path);
  } else if (config.tcp_port >= 0) {
    socket.connect_tcp(config.tcp_port);
  } else {
    throw std::runtime_error(
        "loadgen: configure a unix socket path or a TCP port");
  }
}

/// Applies one received response to the running report tally.
void tally(LoadgenReport& report, verify::UnorderedDigest& digest,
           const Response& response) {
  ++report.responses;
  switch (response.status) {
    case Status::Accepted:
      ++report.accepted;
      digest.add(decision_hash(response));
      break;
    case Status::Rejected:
      ++report.rejected;
      digest.add(decision_hash(response));
      break;
    case Status::Busy:
      ++report.busy;
      break;
    case Status::Shed:
      ++report.shed;
      break;
    case Status::Error:
      ++report.errors;
      break;
    case Status::Advice:
      // Advisor answers are read-only queries, never admission decisions;
      // they carry no digest contribution (docs/ADVISOR.md).
      break;
  }
}

/// Builds the outer `mixshift` spec for `--mix-shift T:SPEC`: the
/// configured --workload (or the default SDSC trace, `sdsc`) becomes
/// phase a, SPEC becomes phase b, T the switch time.
workload::GeneratorSpec mix_shift_spec(const LoadgenConfig& config) {
  const auto colon = config.mix_shift.find(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= config.mix_shift.size()) {
    throw std::invalid_argument(
        "--mix-shift expects T:SPEC (e.g. 21600:zipf:theta=0.5), got '" +
        config.mix_shift + "'");
  }
  const workload::GeneratorSpec phase_a = workload::GeneratorSpec::parse(
      config.workload.empty() ? "sdsc" : config.workload);
  const workload::GeneratorSpec phase_b =
      workload::GeneratorSpec::parse(config.mix_shift.substr(colon + 1));
  workload::GeneratorSpec outer;
  outer.method = "mixshift";
  outer.params.emplace_back("t", config.mix_shift.substr(0, colon));
  outer.params.emplace_back("a", phase_a.method);
  for (const auto& [key, value] : phase_a.params) {
    outer.params.emplace_back("a." + key, value);
  }
  outer.params.emplace_back("b", phase_b.method);
  for (const auto& [key, value] : phase_b.params) {
    outer.params.emplace_back("b." + key, value);
  }
  return outer;
}

/// Books a failed read under its cause.
void count_read_failure(LoadgenReport& report,
                        LineSocket::ReadResult::Kind kind) {
  switch (kind) {
    case LineSocket::ReadResult::Kind::Timeout: ++report.read_timeouts; break;
    case LineSocket::ReadResult::Kind::Eof: ++report.read_eofs; break;
    case LineSocket::ReadResult::Kind::Error: ++report.read_errors; break;
    case LineSocket::ReadResult::Kind::Line: break;  // not a failure
  }
}

}  // namespace

std::vector<Request> make_request_stream(const LoadgenConfig& config) {
  workload::SyntheticSdscConfig trace;
  trace.job_count = static_cast<std::uint32_t>(config.requests);
  trace.seed = config.seed;
  const workload::WorkloadBuilder builder = [&config, &trace] {
    if (config.mix_shift.empty() && config.workload.empty()) {
      return workload::WorkloadBuilder(trace);
    }
    return workload::WorkloadBuilder(workload::generate_jobs(
        config.mix_shift.empty()
            ? workload::GeneratorSpec::parse(config.workload)
            : mix_shift_spec(config),
        trace.job_count, trace.seed));
  }();
  workload::QosConfig qos;
  qos.high_urgency_percent = config.high_urgency_percent;
  // Decouple the QoS stream from the trace stream the same way the
  // experiment harness does: related but distinct seeds.
  qos.seed = config.seed * 9176 + 4242;
  const std::vector<workload::Job> jobs = builder.build(
      qos, config.arrival_delay_factor, config.inaccuracy_percent);

  std::vector<Request> requests;
  requests.reserve(jobs.size());
  std::uint64_t id = 1;
  for (const workload::Job& job : jobs) {
    Request request = from_job(job, id++);
    // A wall-clock decision budget, when configured. Sheds never enter
    // the decision digest, so this does not perturb determinism checks.
    request.deadline_ms = config.deadline_ms;
    requests.push_back(std::move(request));
  }
  return requests;
}

LatencySummary summarize_latencies(std::vector<double> ms) {
  LatencySummary summary;
  if (ms.empty()) return summary;
  std::sort(ms.begin(), ms.end());
  const auto at_quantile = [&ms](double q) {
    const auto index = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(ms.size())));
    return ms[std::min(index == 0 ? 0 : index - 1, ms.size() - 1)];
  };
  summary.p50_ms = at_quantile(0.50);
  summary.p95_ms = at_quantile(0.95);
  summary.p99_ms = at_quantile(0.99);
  summary.max_ms = ms.back();
  double total = 0.0;
  for (double value : ms) total += value;
  summary.mean_ms = total / static_cast<double>(ms.size());
  return summary;
}

namespace {

/// One connection's client session over `requests`, tallying into the
/// caller's report/digest/latency accumulators. The fan-out path runs one
/// of these per connection and merges afterwards.
void run_session(const LoadgenConfig& config,
                 const std::vector<Request>& requests, double open_rate,
                 LoadgenReport& report, verify::UnorderedDigest& digest,
                 std::vector<double>& latencies_ms) {
  LineSocket socket;
  connect_per_config(socket, config);
  latencies_ms.reserve(latencies_ms.size() + requests.size());
  const auto wall_start = Clock::now();

  if (!config.open_loop) {
    // Closed loop: one in flight. The server answers in submission
    // order, so each send pairs with the next matching-id line. A `busy`
    // answer is retried up to busy_retries times, backing off by the
    // server's retry_after_ms hint when it sent one (the whole point of
    // the hint) and by the client-side retry_interval_ms fallback
    // otherwise; only an exhausted retry budget books the busy as final.
    for (const Request& request : requests) {
      const auto sent_at = Clock::now();
      if (!socket.send_line(encode_request(request))) {
        report.dropped += 1;
        break;
      }
      ++report.sent;
      std::size_t retries = 0;
      bool answered = false;
      bool wedged = false;
      while (!answered && !wedged) {
        const auto read = socket.read_line(config.idle_timeout_seconds);
        if (read.kind != LineSocket::ReadResult::Kind::Line) {
          count_read_failure(report, read.kind);  // give up on this id
          break;
        }
        const Response response = parse_response(read.line);
        tally(report, digest, response);
        if (response.status == Status::Busy && response.id == request.id &&
            retries < config.busy_retries) {
          ++retries;
          ++report.busy_retried;
          double backoff_ms = config.retry_interval_ms;
          if (response.retry_after_ms > 0.0) {
            backoff_ms = response.retry_after_ms;
            ++report.hinted_retries;
          }
          if (backoff_ms > 0.0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(backoff_ms));
          }
          if (!socket.send_line(encode_request(request))) wedged = true;
          continue;
        }
        if (response.id == request.id || response.status == Status::Busy ||
            response.status == Status::Error) {
          answered = true;
          latencies_ms.push_back(seconds_between(sent_at, Clock::now()) *
                                 1000.0);
        }
      }
      if (!answered) {
        ++report.dropped;
        break;  // the connection is wedged; stop instead of piling on
      }
    }
  } else {
    // Open loop: paced sends regardless of responses. A reader thread
    // tallies decisions/busy concurrently; `pending` maps in-flight ids
    // to their send instants for the latency percentiles. Every request
    // draws exactly one response (decision or busy) with its own id, so
    // the reader is done when the sender finished and `pending` drained —
    // or the server has gone silent past the idle timeout.
    std::mutex mutex;
    std::unordered_map<std::uint64_t, Clock::time_point> pending;
    std::atomic<bool> sender_done{false};

    std::thread reader([&] {
      auto last_activity = Clock::now();
      for (;;) {
        {
          std::lock_guard lock(mutex);
          if (sender_done.load() && pending.empty()) break;
        }
        const auto read = socket.read_line(/*timeout_seconds=*/0.1);
        if (read.kind == LineSocket::ReadResult::Kind::Eof ||
            read.kind == LineSocket::ReadResult::Kind::Error) {
          // The connection is gone; nothing more will arrive — no point
          // spinning out the idle timeout.
          std::lock_guard lock(mutex);
          count_read_failure(report, read.kind);
          break;
        }
        if (read.kind == LineSocket::ReadResult::Kind::Timeout) {
          if (seconds_between(last_activity, Clock::now()) >
              config.idle_timeout_seconds) {
            std::lock_guard lock(mutex);
            count_read_failure(report, read.kind);
            break;
          }
          continue;
        }
        last_activity = Clock::now();
        const Response response = parse_response(read.line);
        std::lock_guard lock(mutex);
        tally(report, digest, response);
        if (const auto it = pending.find(response.id);
            it != pending.end()) {
          latencies_ms.push_back(seconds_between(it->second, Clock::now()) *
                                 1000.0);
          pending.erase(it);
        }
      }
    });

    const double interval = open_rate > 0.0 ? 1.0 / open_rate : 0.0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const auto due =
          wall_start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               interval * static_cast<double>(i)));
      std::this_thread::sleep_until(due);
      {
        std::lock_guard lock(mutex);
        pending.emplace(requests[i].id, Clock::now());
      }
      if (!socket.send_line(encode_request(requests[i]))) {
        std::lock_guard lock(mutex);
        pending.erase(requests[i].id);
        ++report.dropped;
        continue;
      }
      ++report.sent;
    }
    sender_done.store(true);
    reader.join();
    std::lock_guard lock(mutex);
    report.dropped += pending.size();  // ids that never drew a response
  }

  report.wall_seconds = seconds_between(wall_start, Clock::now());
}

}  // namespace

LoadgenReport run_loadgen(const LoadgenConfig& config) {
  const std::vector<Request> requests = make_request_stream(config);
  const std::size_t fanout = std::max<std::size_t>(1, config.connections);

  LoadgenReport report;
  verify::UnorderedDigest digest;
  std::vector<double> latencies_ms;
  const auto wall_start = Clock::now();

  if (fanout == 1) {
    run_session(config, requests, config.rate, report, digest, latencies_ms);
  } else {
    // Partition by routing key with the same consistent hash the sharded
    // server routes by: each tenant's subsequence stays in order on one
    // connection, so per-tenant decisions — and with them the merged
    // order-independent digest — are identical to a single-connection
    // replay of the same stream.
    ShardRouter router(fanout);
    std::vector<std::vector<Request>> partitions(fanout);
    for (const Request& request : requests) {
      partitions[router.shard_for(routing_key(request))].push_back(request);
    }
    std::vector<LoadgenReport> reports(fanout);
    std::vector<verify::UnorderedDigest> digests(fanout);
    std::vector<std::vector<double>> latencies(fanout);
    std::vector<std::string> failures(fanout);
    const double per_connection_rate =
        config.rate / static_cast<double>(fanout);
    std::vector<std::thread> clients;
    clients.reserve(fanout);
    for (std::size_t i = 0; i < fanout; ++i) {
      clients.emplace_back([&, i] {
        try {
          run_session(config, partitions[i], per_connection_rate, reports[i],
                      digests[i], latencies[i]);
        } catch (const std::exception& e) {
          failures[i] = e.what();
        }
      });
    }
    for (std::thread& client : clients) client.join();
    for (const std::string& failure : failures) {
      if (!failure.empty()) throw std::runtime_error(failure);
    }
    for (std::size_t i = 0; i < fanout; ++i) {
      const LoadgenReport& part = reports[i];
      report.sent += part.sent;
      report.responses += part.responses;
      report.accepted += part.accepted;
      report.rejected += part.rejected;
      report.busy += part.busy;
      report.busy_retried += part.busy_retried;
      report.hinted_retries += part.hinted_retries;
      report.shed += part.shed;
      report.errors += part.errors;
      report.dropped += part.dropped;
      report.read_timeouts += part.read_timeouts;
      report.read_eofs += part.read_eofs;
      report.read_errors += part.read_errors;
      digest.merge(digests[i]);
      latencies_ms.insert(latencies_ms.end(), latencies[i].begin(),
                          latencies[i].end());
    }
  }

  report.wall_seconds = seconds_between(wall_start, Clock::now());
  report.throughput_rps =
      report.wall_seconds > 0.0
          ? static_cast<double>(report.responses) / report.wall_seconds
          : 0.0;
  report.latency = summarize_latencies(std::move(latencies_ms));
  report.decision_digest = verify::to_hex(digest.value());
  return report;
}

namespace {

/// SplitMix64: the chaos schedule must be reproducible from the seed.
class ChaosRng {
 public:
  explicit ChaosRng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    state_ += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, bound).
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

/// Drains whatever the server answered with, briefly, counting structured
/// error responses. Unparseable response lines are ignored — the chaos
/// client judges survival, not wire perfection, and a killed connection
/// can tear a response line mid-byte.
void drain_responses(LineSocket& socket, ChaosReport& report,
                     double timeout_seconds) {
  for (;;) {
    const auto read = socket.read_line(timeout_seconds);
    if (read.kind != LineSocket::ReadResult::Kind::Line) return;
    ++report.responses;
    try {
      if (parse_response(read.line).status == Status::Error) {
        ++report.errors_reported;
      }
    } catch (const ProtocolError&) {
    }
  }
}

}  // namespace

ChaosReport run_chaos(const LoadgenConfig& config) {
  ChaosReport report;
  ChaosRng rng(config.seed * 0x9E3779B9ull + 7);
  // A small pool of valid requests to tear apart.
  LoadgenConfig stream_config = config;
  stream_config.requests = std::min<std::size_t>(config.requests, 64);
  const std::vector<Request> pool = make_request_stream(stream_config);

  const char* malformed[] = {
      "{\"type\":\"submit\"",                    // truncated JSON
      "not json at all",                          // not JSON
      "{\"type\":\"submit\",\"id\":\"seven\"}",  // wrong types
      "{\"type\":\"nonsense\",\"id\":1}",        // unknown type
      "{\"type\":\"submit\",\"id\":1,\"procs\":-3,\"runtime\":1,"
      "\"deadline\":1,\"budget\":1}",             // invalid values
      "\xff\xfe{\"type\":\"submit\"}",          // invalid UTF-8
      "{\"a\":\xc3\x28}",                        // overlong-ish broken UTF-8
  };

  const auto attack_start = Clock::now();
  for (std::size_t i = 0; i < config.chaos_connections; ++i) {
    if (seconds_between(attack_start, Clock::now()) >
        config.chaos_duration_seconds) {
      break;
    }
    LineSocket socket;
    try {
      connect_per_config(socket, config);
    } catch (const std::runtime_error&) {
      // Server gone entirely — the probe below will render the verdict.
      break;
    }
    ++report.connections;
    const Request& victim = pool[rng.below(pool.size())];
    const std::string frame = encode_request(victim);
    switch (rng.below(5)) {
      case 0: {
        // Mid-request disconnect: half a frame, no newline, vanish.
        (void)socket.send_raw(
            std::string_view(frame).substr(0, frame.size() / 2));
        ++report.disconnects;
        break;  // ~LineSocket closes abruptly
      }
      case 1: {
        // Torn write: drip a prefix byte by byte, then abandon it.
        const std::size_t cut = 1 + rng.below(frame.size() - 1);
        for (std::size_t b = 0; b < cut; ++b) {
          if (!socket.send_raw(std::string_view(frame).substr(b, 1))) break;
        }
        ++report.torn_writes;
        break;
      }
      case 2: {
        // Malformed frames — the server must answer each with a
        // structured error, never by dying.
        const std::size_t count = 1 + rng.below(3);
        for (std::size_t k = 0; k < count; ++k) {
          std::string line(malformed[rng.below(std::size(malformed))]);
          line.push_back('\n');
          if (!socket.send_raw(line)) break;
          ++report.malformed_sent;
        }
        // Deeply nested JSON (the parser's recursion guard).
        std::string deep(200, '[');
        deep += std::string(200, ']');
        deep.push_back('\n');
        if (socket.send_raw(deep)) ++report.malformed_sent;
        drain_responses(socket, report, /*timeout_seconds=*/0.2);
        break;
      }
      case 3: {
        // Oversized frame: blow past kMaxRequestBytes on one line.
        std::string huge = "{\"pad\":\"";
        huge.append(kMaxRequestBytes + 1024, 'x');
        huge += "\"}\n";
        if (socket.send_raw(huge)) ++report.oversized_sent;
        drain_responses(socket, report, /*timeout_seconds=*/0.2);
        break;
      }
      case 4: {
        // Slow-loris: a few bytes, a pause, a few more — never a full
        // frame. The server's stall/poll machinery must shrug it off.
        std::size_t offset = 0;
        for (int burst = 0; burst < 3 && offset < frame.size(); ++burst) {
          const std::size_t take = std::min<std::size_t>(
              1 + rng.below(3), frame.size() - offset);
          if (!socket.send_raw(
                  std::string_view(frame).substr(offset, take))) {
            break;
          }
          offset += take;
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        ++report.slow_loris;
        break;
      }
      default: break;
    }
  }

  // The verdict: a clean seeded closed-loop stream right through the
  // wreckage. Every request answered, nothing dropped = the server
  // neither crashed, hung, nor wedged its connections.
  LoadgenConfig probe_config = config;
  probe_config.open_loop = false;
  probe_config.requests = std::min<std::size_t>(config.requests, 500);
  probe_config.deadline_ms = 0.0;  // the probe must not shed
  report.probe = run_loadgen(probe_config);
  report.probe_clean =
      report.probe.dropped == 0 &&
      report.probe.responses >= report.probe.sent &&
      report.probe.sent == probe_config.requests;
  return report;
}

}  // namespace utilrisk::serve
