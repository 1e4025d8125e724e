// Tests for the online admission service: wire protocol, bounded queue
// backpressure, engine determinism, stdio/socket serving, the
// drain-on-shutdown zero-dropped-responses guarantee, the write-ahead
// admission journal with deterministic crash recovery, and the overload
// (busy/shed) and slow-client defenses.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "advise/advisor_engine.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "serve/bounded_queue.hpp"
#include "serve/engine.hpp"
#include "serve/journal.hpp"
#include "serve/loadgen.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/shard.hpp"
#include "verify/digest.hpp"

namespace utilrisk::serve {
namespace {

Request make_request(std::uint64_t id, double t) {
  Request request;
  request.id = id;
  request.submit_time = t;
  request.procs = 4;
  request.runtime = 100.0;
  request.estimate = 120.0;
  request.deadline = 4000.0;
  request.budget = 50000.0;
  return request;
}

// ----------------------------------------------------------------- protocol

TEST(ProtocolTest, RequestRoundTrips) {
  Request request = make_request(7, 12.5);
  request.penalty_rate = 0.25;
  request.urgency = workload::Urgency::High;
  request.deadline_ms = 250.0;
  const Request parsed = parse_request(encode_request(request));
  EXPECT_DOUBLE_EQ(parsed.deadline_ms, request.deadline_ms);
  EXPECT_EQ(parsed.id, request.id);
  EXPECT_DOUBLE_EQ(parsed.submit_time, request.submit_time);
  EXPECT_EQ(parsed.procs, request.procs);
  EXPECT_DOUBLE_EQ(parsed.runtime, request.runtime);
  EXPECT_DOUBLE_EQ(parsed.estimate, request.estimate);
  EXPECT_DOUBLE_EQ(parsed.deadline, request.deadline);
  EXPECT_DOUBLE_EQ(parsed.budget, request.budget);
  EXPECT_DOUBLE_EQ(parsed.penalty_rate, request.penalty_rate);
  EXPECT_EQ(parsed.urgency, workload::Urgency::High);
}

TEST(ProtocolTest, ResponseRoundTripsEveryStatus) {
  for (const Status status : {Status::Accepted, Status::Rejected,
                              Status::Busy, Status::Error, Status::Shed}) {
    Response response;
    response.id = 3;
    response.status = status;
    response.price = 42.5;
    response.risk = 0.125;
    response.virtual_time = 99.0;
    response.retry_after_ms = 50.0;
    response.message = "line 1 \"quoted\"";
    const Response parsed = parse_response(encode_response(response));
    EXPECT_EQ(parsed.id, response.id);
    EXPECT_EQ(parsed.status, status);
    if (status == Status::Accepted || status == Status::Rejected) {
      EXPECT_DOUBLE_EQ(parsed.price, response.price);
      EXPECT_DOUBLE_EQ(parsed.risk, response.risk);
    }
    if (status == Status::Busy) {
      EXPECT_DOUBLE_EQ(parsed.retry_after_ms, response.retry_after_ms);
    }
    if (status == Status::Error || status == Status::Shed) {
      EXPECT_EQ(parsed.message, response.message);
    }
  }
}

TEST(ProtocolTest, RejectsMalformedAndInvalidRequests) {
  EXPECT_THROW((void)parse_request("not json"), ProtocolError);
  EXPECT_THROW((void)parse_request("[1,2,3]"), ProtocolError);
  EXPECT_THROW((void)parse_request("{\"id\":1}"), ProtocolError)
      << "missing type";
  EXPECT_THROW(
      (void)parse_request(
          R"({"type":"cancel","id":1,"procs":1,"runtime":1,"deadline":1,"budget":0})"),
      ProtocolError)
      << "unknown type";
  EXPECT_THROW(
      (void)parse_request(
          R"({"type":"submit","id":1,"procs":0,"runtime":1,"deadline":1,"budget":0})"),
      ProtocolError)
      << "procs must be a positive integer";
  EXPECT_THROW(
      (void)parse_request(
          R"({"type":"submit","id":1,"procs":2.5,"runtime":1,"deadline":1,"budget":0})"),
      ProtocolError)
      << "fractional procs";
  EXPECT_THROW(
      (void)parse_request(
          R"({"type":"submit","id":1,"procs":1,"runtime":-5,"deadline":1,"budget":0})"),
      ProtocolError)
      << "negative runtime";
  EXPECT_THROW(
      (void)parse_request(
          R"({"type":"submit","id":1,"procs":1,"runtime":1,"deadline":1,"budget":-1})"),
      ProtocolError)
      << "negative budget";
  EXPECT_THROW(
      (void)parse_request(
          R"({"type":"submit","id":1,"procs":1,"runtime":1,"deadline":1,"budget":0,"urgency":"medium"})"),
      ProtocolError)
      << "bad urgency";
}

TEST(ProtocolTest, RejectsOversizedRequestLine) {
  std::string line = R"({"type":"submit","id":1,"padding":")";
  line.append(kMaxRequestBytes, 'x');
  line += "\"}";
  EXPECT_THROW((void)parse_request(line), ProtocolError);
}

TEST(ProtocolTest, DecisionHashCoversIdStatusAndPrice) {
  Response a;
  a.id = 1;
  a.status = Status::Accepted;
  a.price = 10.0;
  Response b = a;
  EXPECT_EQ(decision_hash(a), decision_hash(b));
  b.status = Status::Rejected;
  EXPECT_NE(decision_hash(a), decision_hash(b));
  b = a;
  b.price = 11.0;
  EXPECT_NE(decision_hash(a), decision_hash(b));
  b = a;
  b.id = 2;
  EXPECT_NE(decision_hash(a), decision_hash(b));
}

// ------------------------------------------------------------ bounded queue

TEST(BoundedQueueTest, BackpressureAtCapacityAndDrainAfterClose) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_FALSE(queue.try_push(3)) << "full queue must refuse";
  EXPECT_EQ(queue.size(), 2u);

  auto item = queue.pop_wait();
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(*item, 1);
  EXPECT_TRUE(queue.try_push(3)) << "pop frees a slot";

  queue.close();
  EXPECT_FALSE(queue.try_push(4)) << "closed queue refuses pushes";
  EXPECT_EQ(queue.pop_wait().value(), 2) << "close still drains";
  EXPECT_EQ(queue.pop_wait().value(), 3);
  EXPECT_FALSE(queue.pop_wait().has_value())
      << "closed and empty wakes consumers with nullopt";
}

TEST(BoundedQueueTest, HoldGatesConsumersUntilReleaseOrClose) {
  BoundedQueue<int> queue(4);
  queue.hold();
  EXPECT_TRUE(queue.try_push(1)) << "a hold only gates the consumer side";
  std::vector<int> out;
  EXPECT_EQ(queue.try_pop_batch(out, 4), 0u) << "held queue yields nothing";

  std::atomic<bool> popped{false};
  std::thread consumer([&] {
    const auto item = queue.pop_wait();
    popped.store(true);
    EXPECT_TRUE(item.has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(popped.load()) << "pop_wait must block while held";
  queue.release();
  consumer.join();
  EXPECT_TRUE(popped.load());

  // close() overrides a hold so drains always make progress.
  queue.hold();
  EXPECT_TRUE(queue.try_push(2));
  queue.close();
  EXPECT_EQ(queue.pop_wait().value(), 2);
  EXPECT_FALSE(queue.pop_wait().has_value());
}

TEST(BoundedQueueTest, BatchPopCoalesces) {
  BoundedQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(queue.try_push(i));
  std::vector<int> out;
  EXPECT_EQ(queue.try_pop_batch(out, 3), 3u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(queue.try_pop_batch(out, 10), 2u) << "stops when empty";
  EXPECT_EQ(queue.try_pop_batch(out, 10), 0u);
}

// ----------------------------------------------------------------- engine

EngineStats run_stream(const std::vector<Request>& stream,
                       std::size_t max_batch) {
  EngineConfig config;
  config.queue_capacity = 64;
  config.max_batch = max_batch;
  AdmissionEngine engine(config);
  engine.start();
  for (const Request& request : stream) {
    while (!engine.submit(request, [](const Response&) {})) {
      std::this_thread::yield();
    }
  }
  return engine.drain();
}

TEST(AdmissionEngineTest, SameSeedStreamsYieldIdenticalDecisions) {
  LoadgenConfig config;
  config.requests = 150;
  config.seed = 42;
  const std::vector<Request> stream = make_request_stream(config);
  ASSERT_EQ(stream.size(), 150u);

  const EngineStats first = run_stream(stream, /*max_batch=*/64);
  const EngineStats second = run_stream(stream, /*max_batch=*/64);
  EXPECT_EQ(first.processed, 150u);
  EXPECT_EQ(first.accepted, second.accepted);
  EXPECT_EQ(first.rejected, second.rejected);
  EXPECT_EQ(first.decision_digest, second.decision_digest);
  EXPECT_FALSE(first.decision_digest.empty());
}

TEST(AdmissionEngineTest, DecisionsAreBatchSizeInvariant) {
  LoadgenConfig config;
  config.requests = 120;
  config.seed = 7;
  const std::vector<Request> stream = make_request_stream(config);
  // Batch coalescing is a wall-clock artefact; decisions must not see it.
  const EngineStats one = run_stream(stream, /*max_batch=*/1);
  const EngineStats many = run_stream(stream, /*max_batch=*/64);
  EXPECT_EQ(one.decision_digest, many.decision_digest);
  EXPECT_EQ(one.accepted, many.accepted);
}

TEST(AdmissionEngineTest, RequestStreamIsDeterministicAndOrdered) {
  LoadgenConfig config;
  config.requests = 80;
  config.seed = 99;
  const std::vector<Request> a = make_request_stream(config);
  const std::vector<Request> b = make_request_stream(config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(encode_request(a[i]), encode_request(b[i]));
    EXPECT_EQ(a[i].id, i + 1) << "ids are 1..N in submission order";
    if (i > 0) {
      EXPECT_GE(a[i].submit_time, a[i - 1].submit_time)
          << "arrivals are non-decreasing";
    }
  }
}

// `--mix-shift` without `--workload` shifts away from the default SDSC
// trace: phase a is exactly the `sdsc` method, and up to the switch the
// stream carries the default stream's jobs. Their SLA terms are not
// compared: assign_qos biases them by the whole stream's mean runtime,
// which phase b moves.
TEST(AdmissionEngineTest, MixShiftWithoutWorkloadStartsFromTheSdscTrace) {
  LoadgenConfig plain;
  plain.requests = 300;
  plain.seed = 42;
  LoadgenConfig shifted = plain;
  shifted.mix_shift = "40000:zipf:tenants=4,theta=0.6";
  LoadgenConfig named = shifted;
  named.workload = "sdsc";
  const std::vector<Request> base = make_request_stream(plain);
  const std::vector<Request> mix = make_request_stream(shifted);
  const std::vector<Request> explicit_sdsc = make_request_stream(named);

  ASSERT_EQ(mix.size(), explicit_sdsc.size());
  for (std::size_t i = 0; i < mix.size(); ++i) {
    EXPECT_EQ(encode_request(mix[i]), encode_request(explicit_sdsc[i]))
        << "request " << i;
  }
  std::size_t cut = 0;
  for (; cut < mix.size() && mix[cut].submit_time < 40000.0; ++cut) {
    EXPECT_EQ(mix[cut].submit_time, base[cut].submit_time) << cut;
    EXPECT_EQ(mix[cut].procs, base[cut].procs) << cut;
    EXPECT_EQ(mix[cut].runtime, base[cut].runtime) << cut;
    EXPECT_EQ(mix[cut].estimate, base[cut].estimate) << cut;
    EXPECT_EQ(mix[cut].tenant, 0u) << cut;
  }
  EXPECT_GT(cut, 10u) << "the switch lands inside the SDSC phase";
  ASSERT_LT(cut, mix.size());
  EXPECT_GT(mix[cut].tenant, 0u) << "phase b is the tenant-stamped zipf mix";
}

TEST(AdmissionEngineTest, QueueFullYieldsBusyAndDrainAnswersEverything) {
  EngineConfig config;
  config.queue_capacity = 8;
  AdmissionEngine engine(config);
  engine.start();
  engine.pause();  // deterministically hold the queue at depth

  std::atomic<int> completions{0};
  for (std::uint64_t id = 1; id <= 8; ++id) {
    EXPECT_TRUE(engine.submit(make_request(id, 0.0),
                              [&](const Response&) { ++completions; }));
  }
  EXPECT_EQ(engine.queue_depth(), 8u);
  EXPECT_FALSE(engine.submit(make_request(9, 0.0), [](const Response&) {}))
      << "a full queue is backpressure, not blocking";

  const Response busy = engine.make_busy_response(make_request(9, 0.0));
  EXPECT_EQ(busy.id, 9u);
  EXPECT_EQ(busy.status, Status::Busy);
  EXPECT_GT(busy.retry_after_ms, 0.0);

  // Drain resumes the paused engine and must answer all eight.
  const EngineStats stats = engine.drain();
  EXPECT_EQ(completions.load(), 8);
  EXPECT_EQ(stats.processed, 8u);
  EXPECT_FALSE(engine.submit(make_request(10, 0.0), [](const Response&) {}))
      << "a drained engine refuses new work";
}

// ------------------------------------------------------------- stdio server

TEST(StdioServerTest, AnswersEveryLineAndCountsFailures) {
  EngineConfig config;
  AdmissionEngine engine(config);
  engine.start();
  Server server(ServerConfig{}, engine);

  std::string oversized(kMaxRequestBytes + 1, 'x');
  std::istringstream in(encode_request(make_request(1, 0.0)) + "\n" +
                        "not json\n" + oversized + "\n" +
                        encode_request(make_request(2, 5.0)) + "\n");
  std::ostringstream out;
  const ServerStats stats = server.run_stdio(in, out);

  EXPECT_EQ(stats.lines, 4u);
  EXPECT_EQ(stats.malformed, 1u);
  EXPECT_EQ(stats.oversized, 1u);
  EXPECT_EQ(stats.responses, 4u) << "every line gets a response";

  std::istringstream replies(out.str());
  std::string line;
  std::size_t decisions = 0;
  std::size_t errors = 0;
  while (std::getline(replies, line)) {
    const Response response = parse_response(line);
    if (response.status == Status::Error) {
      ++errors;
    } else {
      ++decisions;
    }
  }
  EXPECT_EQ(decisions, 2u);
  EXPECT_EQ(errors, 2u);
}

// ------------------------------------------------------------ socket server

TEST(SocketServerTest, ClosedLoopRunMatchesServerDigest) {
  EngineConfig engine_config;
  AdmissionEngine engine(engine_config);
  engine.start();

  ServerConfig server_config;
  server_config.tcp_port = 0;  // ephemeral loopback port
  Server server(server_config, engine);
  server.start();
  ASSERT_GT(server.bound_port(), 0);

  LoadgenConfig load;
  load.tcp_port = server.bound_port();
  load.requests = 200;
  load.seed = 42;
  const LoadgenReport report = run_loadgen(load);
  EXPECT_EQ(report.sent, 200u);
  EXPECT_EQ(report.responses, 200u);
  EXPECT_EQ(report.dropped, 0u) << "zero dropped responses";
  EXPECT_EQ(report.errors, 0u);

  const EngineStats stats = server.stop_and_drain();
  EXPECT_EQ(stats.processed, 200u);
  EXPECT_EQ(report.decision_digest, stats.decision_digest)
      << "client and server must agree on every decision";
}

struct OverloadRun {
  LoadgenReport report;
  EngineStats stats;
};

/// 50 open-loop requests against an engine with a 4-slot queue that is
/// paused for the first 300 ms, so the queue observably fills.
OverloadRun run_paused_overload(double deadline_ms) {
  EngineConfig engine_config;
  engine_config.queue_capacity = 4;  // tiny queue: overload is certain
  AdmissionEngine engine(engine_config);
  engine.start();
  engine.pause();  // hold the engine so the queue observably fills

  ServerConfig server_config;
  server_config.tcp_port = 0;
  Server server(server_config, engine);
  server.start();

  std::thread resumer([&engine] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    engine.resume();
  });

  LoadgenConfig load;
  load.tcp_port = server.bound_port();
  load.requests = 50;
  load.open_loop = true;
  load.rate = 5000.0;  // all 50 go out while the engine is paused
  load.deadline_ms = deadline_ms;
  OverloadRun run;
  run.report = run_loadgen(load);
  resumer.join();
  run.stats = server.stop_and_drain();
  return run;
}

TEST(SocketServerTest, OverloadSeesBusyBackpressureAndStillNoDrops) {
  const auto [report, stats] = run_paused_overload(0.0);
  EXPECT_EQ(report.sent, 50u);
  EXPECT_EQ(report.responses, 50u);
  EXPECT_EQ(report.dropped, 0u)
      << "backpressure answers busy, it never drops";
  EXPECT_GT(report.busy, 0u) << "the bounded queue must push back";
  EXPECT_LT(report.accepted + report.rejected, 50u);
  EXPECT_LE(stats.processed, 4u + report.accepted + report.rejected);
}

TEST(SocketServerTest, OverloadWithDeadlinesShedsAndStillAnswersEveryRequest) {
  // A 10 ms decision budget: the requests that outwait it in the paused
  // engine's queue come back `shed`, and every request is still answered.
  const LoadgenReport report = run_paused_overload(10.0).report;
  EXPECT_EQ(report.responses, report.sent);
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_GT(report.shed, 0u) << "queued past their budget, never decided";
}

// -------------------------------------------------- protocol hostile corpus

/// Valid JSON lines whose values the engine cannot honour: each once
/// crashed the server, wedged it, or was decided on a value it did not
/// send. parse_request must refuse every one.
const std::vector<std::string>& out_of_range_lines() {
  static const std::vector<std::string> lines = {
      // procs past 32 bits: wrapped to 0 (a crash on the engine thread) or
      // to 1.
      R"({"type":"submit","id":1,"procs":4294967296,"runtime":100,"deadline":1000,"budget":500})",
      R"({"type":"submit","id":1,"procs":1e20,"runtime":100,"deadline":1000,"budget":500})",
      R"({"type":"submit","id":1,"procs":4294967297,"runtime":100,"deadline":1000,"budget":500})",
      // ids that were echoed as another number.
      R"({"type":"submit","id":-1,"procs":1,"runtime":100,"deadline":1000,"budget":500})",
      R"({"type":"submit","id":1e300,"procs":1,"runtime":100,"deadline":1000,"budget":500})",
      R"({"type":"submit","id":7.9,"procs":1,"runtime":100,"deadline":1000,"budget":500})",
      R"({"type":"advise","id":-1})",
      R"({"type":"advise","id":7.9})",
      // Times whose sums overflow the event queue or the risk index.
      R"({"type":"submit","id":1,"t":1.7e308,"procs":1,"runtime":1e308,"deadline":1e308,"budget":1})",
      R"({"type":"submit","id":1,"procs":128,"runtime":1e308,"deadline":1.7e308,"budget":1})",
      // Instants whose half-ulp exceeds the job: the time-shared executor
      // could not advance its clock.
      R"({"type":"submit","id":1,"t":1e12,"procs":1,"runtime":5e-5,"deadline":1,"budget":1})",
      R"({"type":"submit","id":1,"t":1e15,"procs":1,"runtime":0.05,"deadline":10,"budget":1})",
      R"({"type":"submit","id":1,"procs":1,"runtime":100,"deadline":1000,"budget":1e300})",
      R"({"type":"submit","id":1,"procs":1,"runtime":100,"deadline":1000,"budget":1,"penalty":1e300})",
  };
  return lines;
}

/// Every precondition a request parse_request accepts must meet.
void expect_honourable(const Request& request, const std::string& line) {
  EXPECT_LE(request.id, kMaxJsonInteger) << line;
  if (request.kind == RequestKind::Advise) {
    EXPECT_NO_THROW(request.scoring.validate()) << line;
    return;
  }
  EXPECT_GE(request.procs, 1u) << line;
  EXPECT_GE(request.submit_time, 0.0) << line;
  EXPECT_LE(request.submit_time, kMaxTimeSeconds) << line;
  for (const double time : {request.runtime, request.estimate,
                            request.deadline}) {
    EXPECT_GT(time, 0.0) << line;
    EXPECT_LE(time, kMaxTimeSeconds) << line;
  }
  for (const double money : {request.budget, request.penalty_rate}) {
    EXPECT_GE(money, 0.0) << line;
    EXPECT_LE(money, kMaxMoney) << line;
  }
  EXPECT_TRUE(std::isfinite(request.deadline_ms)) << line;
  EXPECT_GE(request.deadline_ms, 0.0) << line;
}

/// Lines each hostile in a different way: malformed, mis-typed, invalid
/// UTF-8, over-deep, oversized, out of range. It includes the non-string
/// urgency that once escaped the server's per-line firewall as a plain
/// runtime_error.
std::vector<std::string> hostile_corpus() {
  std::vector<std::string> corpus = {
      "",
      " ",
      "null",
      "true",
      "42",
      "\"just a string\"",
      "[1,2,3]",
      "{}",
      "{\"type\":42}",
      "{\"type\":\"submit\"}",
      "{\"type\":\"submit\",\"id\":\"seven\"}",
      "{\"type\":\"submit\",\"id\":1,\"procs\":1,\"runtime\":1,"
      "\"deadline\":1,\"budget\":0,\"urgency\":42}",
      "{\"type\":\"submit\",\"id\":1,\"procs\":1,\"runtime\":1,"
      "\"deadline\":1,\"budget\":0,\"urgency\":[\"high\"]}",
      "{\"type\":\"submit\",\"id\":1,\"procs\":1,\"runtime\":1,"
      "\"deadline\":1,\"budget\":0,\"deadline_ms\":-5}",
      "{\"type\":\"submit\",\"id\":1,\"procs\":1,\"runtime\":1,"
      "\"deadline\":1,\"budget\":0,\"deadline_ms\":\"soon\"}",
      "{\"type\":\"submit\",\"id\":1,\"procs\":1e308,\"runtime\":1,"
      "\"deadline\":1,\"budget\":0}",
      "{\"type\":\"submit\",\"id\":1,\"procs\":1,\"runtime\":1e999,"
      "\"deadline\":1,\"budget\":0}",
      "{\"type\":\"submit\",\"id\":1,\"procs\":1,\"runtime\":1,"
      "\"deadline\":1,\"budget\":0",   // truncated
      "{\"type\":\"submit\",,}",        // bad comma
      "{\"type\" \"submit\"}",          // missing colon
      "\xff\xfe\xfd",                    // not UTF-8 at all
      "{\"type\":\"submit\xc0\xaf\"}",  // overlong UTF-8 encoding
      "{\"a\":\"\xed\xa0\x80\"}",       // UTF-8-encoded surrogate
      "{\"a\":\"\xf5\x80\x80\x80\"}",   // beyond U+10FFFF
      "{\"t\x01ype\":\"submit\"}",      // raw control byte
      std::string(300, '['),             // deep nesting (parser recursion)
      std::string(300, '[') + std::string(300, ']'),
      "{\"type\":\"submit\",\"id\":1,\"id\":2,\"procs\":1,\"runtime\":1,"
      "\"deadline\":1,\"budget\":0}",   // duplicate keys (first wins)
  };
  // And one oversized line just under the parser's own entry check.
  std::string oversized = "{\"pad\":\"";
  oversized.append(kMaxRequestBytes + 10, 'x');
  oversized += "\"}";
  corpus.push_back(std::move(oversized));
  corpus.insert(corpus.end(), out_of_range_lines().begin(),
                out_of_range_lines().end());
  return corpus;
}

TEST(ProtocolTest, HostileCorpusNeverEscapesProtocolError) {
  // parse_request's contract is "ProtocolError and only ProtocolError,
  // whatever the bytes". A plain runtime_error escaping here would crash
  // the server's per-line firewall.
  const std::vector<std::string> corpus = hostile_corpus();

  for (const std::string& line : corpus) {
    try {
      // A duplicate-keys document may legitimately parse; anything the
      // parser accepts must satisfy the SLA preconditions.
      expect_honourable(parse_request(line), line);
    } catch (const ProtocolError&) {
      // The contract: this is the only exception type allowed out.
    } catch (const std::exception& e) {
      ADD_FAILURE() << "non-ProtocolError escaped for line of size "
                    << line.size() << ": " << e.what();
    }
  }
}

TEST(StdioServerTest, HostileLinesGetErrorResponsesAndServerSurvives) {
  EngineConfig config;
  AdmissionEngine engine(config);
  engine.start();
  Server server(ServerConfig{}, engine);

  // The once-fatal non-string urgency, raw bytes, deep nesting — then a
  // valid request. The server must answer all four and stay up.
  std::string deep(300, '[');
  std::istringstream in(
      std::string("{\"type\":\"submit\",\"id\":1,\"procs\":1,\"runtime\":1,"
                  "\"deadline\":1,\"budget\":0,\"urgency\":42}\n") +
      "\xff\xfe not even text\n" + deep + "\n" +
      encode_request(make_request(5, 1.0)) + "\n");
  std::ostringstream out;
  const ServerStats stats = server.run_stdio(in, out);

  EXPECT_EQ(stats.lines, 4u);
  EXPECT_EQ(stats.malformed, 3u);
  EXPECT_EQ(stats.responses, 4u) << "every hostile line gets an answer";

  std::istringstream replies(out.str());
  std::string line;
  std::size_t errors = 0;
  std::size_t decisions = 0;
  while (std::getline(replies, line)) {
    const Response response = parse_response(line);
    (response.status == Status::Error ? errors : decisions) += 1;
  }
  EXPECT_EQ(errors, 3u);
  EXPECT_EQ(decisions, 1u) << "the valid request still got its decision";
}

/// Pipes each out-of-range line, then one valid request, through a stdio
/// server over `config`'s engine. Every line must be answered: the hostile
/// ones with `error`, the valid one with its decision.
void expect_out_of_range_lines_refused(const EngineConfig& config) {
  AdmissionEngine engine(config);
  engine.start();
  Server server(ServerConfig{}, engine);
  std::string input;
  for (const std::string& line : out_of_range_lines()) input += line + "\n";
  input += encode_request(make_request(5, 1.0)) + "\n";
  std::istringstream in(input);
  std::ostringstream out;
  const ServerStats stats = server.run_stdio(in, out);
  EXPECT_EQ(stats.responses, out_of_range_lines().size() + 1);

  std::istringstream replies(out.str());
  std::string line;
  std::size_t errors = 0;
  std::vector<std::uint64_t> decided;
  while (std::getline(replies, line)) {
    const Response response = parse_response(line);
    if (response.status == Status::Error) {
      ++errors;
    } else {
      decided.push_back(response.id);
    }
  }
  EXPECT_EQ(errors, out_of_range_lines().size());
  EXPECT_EQ(decided, std::vector<std::uint64_t>{5})
      << "the valid request after them is still decided";
}

TEST(StdioServerTest, OutOfRangeFieldsGetErrorResponses) {
  for (const policy::PolicyKind policy :
       {policy::PolicyKind::Libra, policy::PolicyKind::FcfsBf,
        policy::PolicyKind::FirstReward}) {
    for (const economy::EconomicModel model :
         {economy::EconomicModel::CommodityMarket,
          economy::EconomicModel::BidBased}) {
      EngineConfig config;
      config.policy = policy;
      config.model = model;
      expect_out_of_range_lines_refused(config);
    }
  }
}

// ----------------------------------------------------------------- journal

[[nodiscard]] std::string fresh_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

/// A sealed segment exactly as older servers wrote it: every record
/// carries a `seq` field the parser never read. Two requests of the
/// default engine, one tick, one seal.
constexpr const char* kFlatSegmentWithSeq =
    R"({"type":"req","seq":1,"req":{"type":"submit","id":1,"t":0,"procs":4,"runtime":100,"estimate":100,"deadline":4000,"budget":50000,"penalty":0,"urgency":"low"},"chk":"02dd2904f495215b"}
{"type":"req","seq":2,"req":{"type":"submit","id":2,"t":5,"procs":4,"runtime":100,"estimate":100,"deadline":4000,"budget":50000,"penalty":0,"urgency":"low"},"chk":"bf2dab677df03d1a"}
{"type":"tick","seq":3,"processed":2,"digest":"9ef3114948d58614","chk":"401163483bd6bff3"}
{"type":"seal","records":3,"digest":"408f766d6928a0e7","chk":"c735e906f9f866c7"}
)";

TEST(JournalTest, FsyncPolicyParsesAndRoundTrips) {
  for (const FsyncPolicy policy :
       {FsyncPolicy::None, FsyncPolicy::Batch, FsyncPolicy::Always}) {
    EXPECT_EQ(parse_fsync_policy(to_string(policy)), policy);
  }
  EXPECT_THROW((void)parse_fsync_policy("sometimes"), std::invalid_argument);
}

TEST(JournalTest, RoundTripsRequestsAndTicks) {
  const std::string dir = fresh_dir("journal_roundtrip");
  JournalConfig config;
  config.directory = dir;
  config.fsync = FsyncPolicy::None;
  {
    JournalWriter writer(config);
    for (std::uint64_t id = 1; id <= 5; ++id) {
      writer.append_request(make_request(id, static_cast<double>(id)));
    }
    writer.append_tick(5, "0123456789abcdef");
    writer.close();
    EXPECT_EQ(writer.stats().requests, 5u);
    EXPECT_EQ(writer.stats().ticks, 1u);
  }

  const RecoveredJournal recovered = load_journal(dir);
  ASSERT_EQ(recovered.requests.size(), 5u);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    EXPECT_EQ(encode_request(recovered.requests[id - 1]),
              encode_request(make_request(id, static_cast<double>(id))));
  }
  EXPECT_EQ(recovered.last_tick_processed, 5u);
  EXPECT_EQ(recovered.last_tick_digest, "0123456789abcdef");
  EXPECT_EQ(recovered.segments, 1u);
  EXPECT_EQ(recovered.sealed_segments, 1u);
  EXPECT_EQ(recovered.truncated_records, 0u);
}

TEST(JournalTest, RotatesAndPreservesOrderAcrossSegments) {
  const std::string dir = fresh_dir("journal_rotate");
  JournalConfig config;
  config.directory = dir;
  config.fsync = FsyncPolicy::None;
  config.max_segment_records = 4;
  {
    JournalWriter writer(config);
    for (std::uint64_t id = 1; id <= 10; ++id) {
      writer.append_request(make_request(id, static_cast<double>(id)));
    }
    writer.append_tick(10, "00000000000000aa");
    EXPECT_GE(writer.stats().rotations, 2u);
  }
  const RecoveredJournal recovered = load_journal(dir);
  ASSERT_EQ(recovered.requests.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(recovered.requests[i].id, i + 1) << "append order preserved";
  }
  EXPECT_GE(recovered.segments, 3u);
  EXPECT_EQ(recovered.last_tick_processed, 10u);
}

TEST(JournalTest, LoadsSegmentsWrittenWithTheRetiredSeqField) {
  const std::filesystem::path dir = fresh_dir("journal_seq");
  std::filesystem::create_directories(dir);
  std::ofstream(dir / "journal-00000001.ndjson") << kFlatSegmentWithSeq;

  const RecoveredJournal recovered = load_journal(dir.string());
  ASSERT_EQ(recovered.requests.size(), 2u);
  EXPECT_EQ(recovered.requests[0].id, 1u);
  EXPECT_EQ(recovered.requests[1].id, 2u);
  EXPECT_EQ(recovered.last_tick_processed, 2u);
  EXPECT_EQ(recovered.last_tick_digest, "9ef3114948d58614");
  EXPECT_EQ(recovered.sealed_segments, 1u) << "the seal still verifies";
  EXPECT_EQ(recovered.truncated_records, 0u);

  // And it replays to the digest its writer recorded.
  EngineConfig config;
  config.journal_dir = dir.string();
  config.fsync = FsyncPolicy::None;
  AdmissionEngine engine(config);
  EXPECT_EQ(engine.recovery().replayed, 2u);
  EXPECT_TRUE(engine.recovery().digest_match);
  EXPECT_EQ(engine.recovery().replayed_digest, "9ef3114948d58614");
}

TEST(JournalTest, TornTailIsDetectedAndPhysicallyTruncated) {
  const std::string dir = fresh_dir("journal_torn");
  JournalConfig config;
  config.directory = dir;
  config.fsync = FsyncPolicy::None;
  {
    JournalWriter writer(config);
    for (std::uint64_t id = 1; id <= 3; ++id) {
      writer.append_request(make_request(id, static_cast<double>(id)));
    }
    writer.append_tick(3, "00000000000000bb");
  }
  // Simulate a crash mid-append: half a record, no newline, bogus chk.
  const auto segment =
      std::filesystem::directory_iterator(dir)->path().string();
  const auto intact_size = std::filesystem::file_size(segment);
  {
    std::ofstream out(segment, std::ios::app | std::ios::binary);
    out << "{\"type\":\"req\",\"req\":{\"type\":\"sub";
  }

  const RecoveredJournal recovered = load_journal(dir);
  EXPECT_EQ(recovered.requests.size(), 3u) << "intact prefix survives";
  EXPECT_EQ(recovered.truncated_records, 1u);
  EXPECT_GT(recovered.truncated_bytes, 0u);
  EXPECT_EQ(std::filesystem::file_size(segment), intact_size)
      << "the torn tail is physically removed";
  // A second load sees a clean journal.
  EXPECT_EQ(load_journal(dir).truncated_records, 0u);
}

TEST(JournalTest, TamperedSealedSegmentRefusesToLoad) {
  const std::string dir = fresh_dir("journal_tamper");
  JournalConfig config;
  config.directory = dir;
  config.fsync = FsyncPolicy::None;
  config.max_segment_records = 4;  // force segment 1 to seal
  {
    JournalWriter writer(config);
    for (std::uint64_t id = 1; id <= 8; ++id) {
      writer.append_request(make_request(id, static_cast<double>(id)));
    }
  }
  // Flip one digit inside the *first* (sealed, non-newest) segment: that
  // is not crash damage, it is lost history — recovery must refuse.
  std::vector<std::string> segments;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    segments.push_back(entry.path().string());
  }
  std::sort(segments.begin(), segments.end());
  ASSERT_GE(segments.size(), 2u);
  std::fstream file(segments.front(),
                    std::ios::in | std::ios::out | std::ios::binary);
  file.seekp(20);
  file.put('X');
  file.close();

  EXPECT_THROW((void)load_journal(dir), JournalError);
}

// ---------------------------------------------------------------- recovery

TEST(AdmissionEngineTest, JournalRecoveryReproducesDecisionDigest) {
  const std::string dir = fresh_dir("recovery_digest");
  LoadgenConfig load;
  load.requests = 60;
  load.seed = 42;
  const std::vector<Request> stream = make_request_stream(load);

  EngineConfig config;
  config.journal_dir = dir;
  config.fsync = FsyncPolicy::None;  // durability is not under test here
  std::string first_digest;
  {
    AdmissionEngine engine(config);
    EXPECT_TRUE(engine.recovery().attempted);
    EXPECT_EQ(engine.recovery().replayed, 0u) << "nothing to recover yet";
    engine.start();
    for (const Request& request : stream) {
      while (!engine.submit(request, [](const Response&) {})) {
        std::this_thread::yield();
      }
    }
    const EngineStats stats = engine.drain();
    first_digest = stats.decision_digest;
    EXPECT_EQ(engine.journal_stats().requests, 60u);
    EXPECT_GE(engine.journal_stats().ticks, 1u);
  }

  // A new engine over the same journal must rebuild the exact state: all
  // 60 requests replayed, digest byte-identical to the pre-"crash" run.
  AdmissionEngine recovered(config);
  EXPECT_TRUE(recovered.recovery().attempted);
  EXPECT_EQ(recovered.recovery().replayed, 60u);
  EXPECT_TRUE(recovered.recovery().digest_match);
  EXPECT_EQ(recovered.recovery().replayed_digest, first_digest);
  EXPECT_EQ(recovered.recovery().journal_digest, first_digest);
  const EngineStats stats = recovered.drain();
  EXPECT_EQ(stats.decision_digest, first_digest);
  EXPECT_EQ(stats.processed, 60u);
}

TEST(AdmissionEngineTest, RecoveryRefusesDivergentJournalDigest) {
  const std::string dir = fresh_dir("recovery_mismatch");
  JournalConfig journal_config;
  journal_config.directory = dir;
  journal_config.fsync = FsyncPolicy::None;
  {
    JournalWriter writer(journal_config);
    writer.append_request(make_request(1, 0.0));
    // A tick claiming a digest no replay can reproduce.
    writer.append_tick(1, "deadbeefdeadbeef");
  }
  EngineConfig config;
  config.journal_dir = dir;
  EXPECT_THROW((void)AdmissionEngine(config), JournalError)
      << "an engine must never serve on top of a divergent recovery";
}

TEST(AdmissionEngineTest, OutOfRangeLinesUnderFsyncAlwaysKeepTheJournal) {
  // Under `always` a journalled request is on disk before it is decided,
  // so an undecodable one would refuse every restart. Refused lines never
  // reach the journal.
  EngineConfig config;
  config.journal_dir = fresh_dir("recovery_out_of_range");
  config.fsync = FsyncPolicy::Always;
  expect_out_of_range_lines_refused(config);

  AdmissionEngine recovered(config);
  EXPECT_EQ(recovered.recovery().replayed, 1u)
      << "only the valid request was journalled";
  EXPECT_TRUE(recovered.recovery().digest_match);
}

TEST(AdmissionEngineTest, RecoveryThenNewTrafficExtendsTheJournal) {
  const std::string dir = fresh_dir("recovery_extend");
  LoadgenConfig load;
  load.requests = 40;
  load.seed = 7;
  const std::vector<Request> stream = make_request_stream(load);

  EngineConfig config;
  config.journal_dir = dir;
  config.fsync = FsyncPolicy::None;
  {
    AdmissionEngine engine(config);
    engine.start();
    for (std::size_t i = 0; i < 20; ++i) {
      while (!engine.submit(stream[i], [](const Response&) {})) {
        std::this_thread::yield();
      }
    }
    (void)engine.drain();
  }
  std::string full_digest;
  {
    AdmissionEngine engine(config);  // recovers the first 20
    EXPECT_EQ(engine.recovery().replayed, 20u);
    engine.start();
    for (std::size_t i = 20; i < 40; ++i) {
      while (!engine.submit(stream[i], [](const Response&) {})) {
        std::this_thread::yield();
      }
    }
    const EngineStats stats = engine.drain();
    EXPECT_EQ(stats.processed, 40u) << "lifetime total, replays included";
    full_digest = stats.decision_digest;
  }
  // Reference: the same 40 requests through one uninterrupted engine.
  EngineConfig plain;
  AdmissionEngine reference(plain);
  reference.start();
  for (const Request& request : stream) {
    while (!reference.submit(request, [](const Response&) {})) {
      std::this_thread::yield();
    }
  }
  EXPECT_EQ(reference.drain().decision_digest, full_digest)
      << "crash + recover + continue == never crashed at all";
  // And a third engine can recover the full 40-request journal.
  AdmissionEngine third(config);
  EXPECT_EQ(third.recovery().replayed, 40u);
  EXPECT_TRUE(third.recovery().digest_match);
}

// -------------------------------------------------------------- shed / busy

TEST(AdmissionEngineTest, ExpiredDeadlineIsShedWithoutDigestPollution) {
  EngineConfig config;
  AdmissionEngine engine(config);
  engine.start();
  engine.pause();  // hold requests in the queue past their budget

  std::atomic<int> shed_seen{0};
  for (std::uint64_t id = 1; id <= 5; ++id) {
    Request request = make_request(id, 0.0);
    request.deadline_ms = 1.0;  // expires while the engine is paused
    EXPECT_TRUE(engine.submit(request, [&](const Response& response) {
      if (response.status == Status::Shed) ++shed_seen;
    }));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const EngineStats stats = engine.drain();  // resumes and processes

  EXPECT_EQ(stats.shed, 5u);
  EXPECT_EQ(shed_seen.load(), 5) << "every shed request got its answer";
  EXPECT_EQ(stats.processed, 0u) << "sheds never reach the simulator";

  // Sheds are wall-clock artefacts: the digest must equal an idle run's.
  EngineConfig idle_config;
  AdmissionEngine idle(idle_config);
  idle.start();
  EXPECT_EQ(stats.decision_digest, idle.drain().decision_digest);
}

TEST(AdmissionEngineTest, BrownoutFastFailsAboveWatermark) {
  // Queue capacity is the one depth cap: what a high watermark F over a
  // capacity C used to do is a capacity of floor(F x C), here 0.5 x 8.
  obs::MetricsRegistry registry(/*enabled=*/true);
  EngineConfig config;
  config.queue_capacity = 4;
  config.metrics = &registry;
  AdmissionEngine engine(config);
  engine.start();
  engine.pause();

  std::atomic<int> completions{0};
  std::size_t queued = 0;
  for (std::uint64_t id = 1; id <= 8; ++id) {
    if (engine.submit(make_request(id, 0.0),
                      [&](const Response&) { ++completions; })) {
      ++queued;
    }
  }
  EXPECT_EQ(queued, 4u) << "capacity is the limit";
  EXPECT_EQ(registry.snapshot().counter("serve.busy"), 4u)
      << "every refused submit is counted busy";
  const EngineStats stats = engine.drain();
  EXPECT_EQ(stats.processed, 4u);
  EXPECT_EQ(completions.load(), 4);
}

// ------------------------------------------------------- slow-client defense

TEST(SocketServerTest, SlowClientIsDisconnectedAndServerStaysHealthy) {
  EngineConfig engine_config;
  AdmissionEngine engine(engine_config);
  engine.start();

  const std::string socket_path = fresh_dir("slow_client") + ".sock";
  ServerConfig server_config;
  server_config.unix_path = socket_path;
  server_config.write_buffer_bytes = 2048;  // tiny outbox: overflow fast
  server_config.write_stall_ms = 200.0;
  Server server(server_config, engine);
  server.start();

  // A client that submits thousands of requests and never reads a byte:
  // kernel buffers fill, then the 2 KiB outbox, then the server cuts it
  // loose. The engine thread must never block on this connection.
  {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    for (std::uint64_t id = 1; id <= 20000; ++id) {
      std::string line = encode_request(make_request(id, 0.0));
      line.push_back('\n');
      if (::send(fd, line.data(), line.size(), MSG_NOSIGNAL) < 0) {
        break;  // the server already cut us off — that is the point
      }
    }
    // Wait (bounded) for the defense to trip.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server.stats().stalled == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ::close(fd);
  }
  EXPECT_GE(server.stats().stalled, 1u)
      << "the wedged client must be disconnected";

  // The server must still serve a well-behaved client flawlessly.
  LoadgenConfig load;
  load.unix_path = socket_path;
  load.requests = 100;
  const LoadgenReport report = run_loadgen(load);
  EXPECT_EQ(report.responses, 100u);
  EXPECT_EQ(report.dropped, 0u);
  (void)server.stop_and_drain();
}

// ----------------------------------------------------- queue close race

TEST(BoundedQueueTest, ConcurrentProducersRacingCloseLoseNothing) {
  // Exercised under TSan in CI: producers hammer try_push while another
  // thread closes the queue mid-stream. The contract: every accepted
  // push is delivered exactly once, refused pushes are not.
  constexpr int kProducers = 4;
  constexpr int kAttempts = 5000;
  BoundedQueue<int> queue(64);

  std::vector<std::vector<int>> accepted(kProducers);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, &accepted, p] {
      for (int i = 0; i < kAttempts; ++i) {
        const int value = p * kAttempts + i;
        if (queue.try_push(value)) accepted[p].push_back(value);
      }
    });
  }
  std::vector<int> delivered;
  std::thread consumer([&queue, &delivered] {
    for (;;) {
      auto item = queue.pop_wait();
      if (!item.has_value()) break;
      delivered.push_back(*item);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  queue.close();  // races the producers AND the consumer
  for (std::thread& producer : producers) producer.join();
  consumer.join();

  std::multiset<int> delivered_set(delivered.begin(), delivered.end());
  std::size_t accepted_total = 0;
  for (const auto& values : accepted) {
    accepted_total += values.size();
    for (const int value : values) {
      EXPECT_EQ(delivered_set.count(value), 1u)
          << "accepted push " << value << " lost or duplicated";
    }
  }
  EXPECT_EQ(delivered.size(), accepted_total)
      << "nothing delivered that was not accepted";
}

TEST(SocketServerTest, StopAndDrainAnswersQueuedRequests) {
  EngineConfig engine_config;
  engine_config.queue_capacity = 64;
  AdmissionEngine engine(engine_config);
  engine.start();
  engine.pause();

  ServerConfig server_config;
  server_config.tcp_port = 0;
  Server server(server_config, engine);
  server.start();

  // Park requests in the admission queue, then shut down while they are
  // still pending: the drain contract says every one gets its decision.
  LoadgenConfig load;
  load.tcp_port = server.bound_port();
  load.requests = 16;
  load.open_loop = true;
  load.rate = 10000.0;

  std::thread drainer([&engine, &server] {
    // Wait for the queue to hold everything the client sent.
    while (engine.queue_depth() < 16) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    (void)server.stop_and_drain();
  });
  const LoadgenReport report = run_loadgen(load);
  drainer.join();

  EXPECT_EQ(report.sent, 16u);
  EXPECT_EQ(report.responses, 16u) << "drain answered the queued requests";
  EXPECT_EQ(report.dropped, 0u);
}

// ----------------------------------------------------------------- sharding

TEST(ProtocolTest, TenantAndScenarioRoundTripOnTheWire) {
  Request request = make_request(11, 3.0);
  request.tenant = 42;
  request.scenario = "exp-a";
  const Request parsed = parse_request(encode_request(request));
  EXPECT_EQ(parsed.tenant, 42u);
  EXPECT_EQ(parsed.scenario, "exp-a");

  Response response;
  response.id = 11;
  response.status = Status::Accepted;
  response.price = 100.0;
  response.tenant = 42;
  response.shard = 3;
  const Response back = parse_response(encode_response(response));
  EXPECT_EQ(back.tenant, 42u);
  EXPECT_EQ(back.shard, 3);
}

TEST(ProtocolTest, LegacyEncodingsCarryNoShardFields) {
  // Unattributed traffic must encode byte-identically to the pre-shard
  // protocol: the new fields are emitted only when set.
  const std::string wire = encode_request(make_request(5, 1.0));
  EXPECT_EQ(wire.find("tenant"), std::string::npos) << wire;
  EXPECT_EQ(wire.find("scenario"), std::string::npos) << wire;

  Response response;
  response.id = 5;
  response.status = Status::Accepted;
  response.price = 10.0;
  const std::string line = encode_response(response);
  EXPECT_EQ(line.find("tenant"), std::string::npos) << line;
  EXPECT_EQ(line.find("shard"), std::string::npos) << line;
}

TEST(ProtocolTest, DecisionHashFoldsTenantButNotShard) {
  Response response;
  response.id = 9;
  response.status = Status::Accepted;
  response.price = 250.0;

  Response routed = response;
  routed.shard = 7;  // a routing artefact, not a decision
  EXPECT_EQ(decision_hash(response), decision_hash(routed));

  Response attributed = response;
  attributed.tenant = 3;
  EXPECT_NE(decision_hash(response), decision_hash(attributed));
  Response other_tenant = response;
  other_tenant.tenant = 4;
  EXPECT_NE(decision_hash(attributed), decision_hash(other_tenant));
}

TEST(ProtocolTest, RoutingKeyPrefersTenantThenScenario) {
  Request request = make_request(1, 0.0);
  EXPECT_EQ(routing_key(request), 0u) << "unattributed -> shared state";

  request.scenario = "exp-a";
  const std::uint64_t by_scenario = routing_key(request);
  EXPECT_NE(by_scenario, 0u);
  Request same_scenario = make_request(2, 5.0);
  same_scenario.scenario = "exp-a";
  EXPECT_EQ(routing_key(same_scenario), by_scenario)
      << "scenario key is stable across requests";

  request.tenant = 12;
  EXPECT_EQ(routing_key(request), 12u) << "tenant wins over scenario";
}

TEST(ShardRouterTest, DeterministicAndCoversEveryShard) {
  const ShardRouter router(4);
  const ShardRouter twin(4);
  std::set<std::size_t> hit;
  for (std::uint64_t key = 1; key <= 2000; ++key) {
    const std::size_t shard = router.shard_for(key);
    ASSERT_LT(shard, 4u);
    EXPECT_EQ(twin.shard_for(key), shard)
        << "routing must reproduce across router instances (recovery)";
    hit.insert(shard);
  }
  EXPECT_EQ(hit.size(), 4u) << "every shard takes traffic";

  const ShardRouter single(1);
  EXPECT_EQ(single.shard_for(12345), 0u);
}

/// A multi-tenant stream: a small Zipfian tenant population so every
/// shard sees several tenants and every tenant recurs.
std::vector<Request> make_tenant_stream(std::size_t requests,
                                        std::uint64_t seed) {
  LoadgenConfig config;
  config.requests = requests;
  config.seed = seed;
  config.workload = "zipf:tenants=12,theta=0.9";
  std::vector<Request> stream = make_request_stream(config);
  for (const Request& request : stream) {
    EXPECT_NE(request.tenant, 0u) << "zipf stamps every request's tenant";
  }
  return stream;
}

EngineStats run_sharded(const std::vector<Request>& stream,
                        std::size_t shards) {
  ShardedEngineConfig config;
  config.engine.queue_capacity = 64;
  config.shards = shards;
  ShardedEngine engine(config);
  engine.start();
  for (const Request& request : stream) {
    while (!engine.submit(request, [](const Response&) {})) {
      std::this_thread::yield();
    }
  }
  return engine.drain();
}

TEST(ShardedEngineTest, MergedDigestInvariantUnderShardCount) {
  const std::vector<Request> stream = make_tenant_stream(120, 21);

  const EngineStats one = run_sharded(stream, 1);
  const EngineStats four = run_sharded(stream, 4);
  EXPECT_EQ(one.processed, 120u);
  EXPECT_EQ(four.processed, 120u);
  EXPECT_EQ(one.accepted, four.accepted);
  EXPECT_EQ(one.rejected, four.rejected);
  ASSERT_FALSE(one.decision_digest.empty());
  EXPECT_EQ(one.decision_digest, four.decision_digest)
      << "the merged digest is the shard-count-invariant session digest";

  // And shards=1 is bit-identical to the plain single engine.
  const EngineStats plain = run_stream(stream, /*max_batch=*/64);
  EXPECT_EQ(plain.decision_digest, one.decision_digest);
}

TEST(ShardedEngineTest, MergedDigestInvariantUnderInterleaving) {
  const std::vector<Request> stream = make_tenant_stream(96, 33);

  // A different global interleaving that preserves every routing key's
  // subsequence order — exactly what concurrent client connections
  // produce. Round-robin across per-key queues.
  std::map<std::uint64_t, std::vector<Request>> by_key;
  for (const Request& request : stream) {
    by_key[routing_key(request)].push_back(request);
  }
  std::vector<Request> interleaved;
  interleaved.reserve(stream.size());
  bool more = true;
  for (std::size_t round = 0; more; ++round) {
    more = false;
    for (auto& [key, queue] : by_key) {
      if (round < queue.size()) {
        interleaved.push_back(queue[round]);
        more = true;
      }
    }
  }
  ASSERT_EQ(interleaved.size(), stream.size());
  ASSERT_FALSE(std::equal(stream.begin(), stream.end(),
                          interleaved.begin(),
                          [](const Request& a, const Request& b) {
                            return a.id == b.id;
                          }))
      << "the permutation must actually reorder the stream";

  const EngineStats original = run_sharded(stream, 4);
  const EngineStats reordered = run_sharded(interleaved, 4);
  EXPECT_EQ(original.decision_digest, reordered.decision_digest)
      << "per-key order is the only order that matters";
  EXPECT_EQ(original.accepted, reordered.accepted);
}

/// Journals a tenant stream through `shards` shards, then recovers it in a
/// new ShardedEngine: every shard journals under its own subdirectory and
/// the recovery reproduces the merged digest — the kill-9 contract.
void expect_sharded_recovery(std::size_t shards, const std::string& dir) {
  const std::vector<Request> stream = make_tenant_stream(60, 5);

  ShardedEngineConfig config;
  config.engine.journal_dir = dir;
  config.engine.fsync = FsyncPolicy::None;
  config.shards = shards;

  std::string first_digest;
  {
    ShardedEngine engine(config);
    EXPECT_EQ(engine.recovery().replayed, 0u) << "nothing to recover yet";
    engine.start();
    for (const Request& request : stream) {
      while (!engine.submit(request, [](const Response&) {})) {
        std::this_thread::yield();
      }
    }
    const EngineStats stats = engine.drain();
    first_digest = stats.decision_digest;
    EXPECT_EQ(engine.journal_stats().requests, 60u);
  }
  // One layout at every shard count: the marker and shard-000i, nothing
  // flat in the root.
  std::set<std::string> entries;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    entries.insert(entry.path().filename().string());
  }
  std::set<std::string> expected = {"shards.meta"};
  for (std::size_t i = 0; i < shards; ++i) {
    expected.insert("shard-000" + std::to_string(i));
  }
  EXPECT_EQ(entries, expected);

  ShardedEngine recovered(config);
  const RecoveryStats recovery = recovered.recovery();
  EXPECT_TRUE(recovery.attempted);
  EXPECT_EQ(recovery.replayed, 60u);
  EXPECT_TRUE(recovery.digest_match);
  EXPECT_EQ(recovery.replayed_digest, first_digest);
  const EngineStats stats = recovered.drain();
  EXPECT_EQ(stats.decision_digest, first_digest);
  EXPECT_EQ(stats.processed, 60u);
}

TEST(ShardedEngineTest, JournalRecoveryWithTwoShardsReproducesDigest) {
  expect_sharded_recovery(2, fresh_dir("sharded_recovery"));
}

TEST(ShardedEngineTest, JournalRecoveryWithOneShardReproducesDigest) {
  expect_sharded_recovery(1, fresh_dir("sharded_recovery_one"));
}

TEST(ShardedEngineTest, RefusesShardCountMismatchOnRecovery) {
  const std::string dir = fresh_dir("sharded_mismatch");
  ShardedEngineConfig config;
  config.engine.journal_dir = dir;
  config.engine.fsync = FsyncPolicy::None;
  config.shards = 2;
  {
    ShardedEngine engine(config);
    engine.start();
    Request request = make_request(1, 0.0);
    request.tenant = 3;
    while (!engine.submit(request, [](const Response&) {})) {
      std::this_thread::yield();
    }
    (void)engine.drain();
  }
  // Reopening with a different shard count would re-route journalled
  // tenants onto different simulation states: refuse, loudly.
  ShardedEngineConfig wrong = config;
  wrong.shards = 3;
  EXPECT_THROW((void)ShardedEngine(wrong), JournalError);
}

TEST(ShardedEngineTest, RefusesToShardAFlatLegacyJournal) {
  const std::string dir = fresh_dir("sharded_legacy");
  EngineConfig flat;
  flat.journal_dir = dir;
  flat.fsync = FsyncPolicy::None;
  {
    AdmissionEngine engine(flat);  // segments straight into the root
    engine.start();
    while (!engine.submit(make_request(1, 0.0), [](const Response&) {})) {
      std::this_thread::yield();
    }
    (void)engine.drain();
  }
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    ShardedEngineConfig sharded;
    sharded.engine = flat;
    sharded.shards = shards;
    EXPECT_THROW((void)ShardedEngine(sharded), JournalError)
        << "recovery reads only shard-000i, so a flat journal is refused "
        << "at --shards " << shards << " instead of skipped";
  }
  EXPECT_FALSE(std::filesystem::exists(std::filesystem::path(dir) /
                                       "shards.meta"))
      << "a refused root is left as it was found";
}

TEST(ShardedEngineTest, RefusesAFlatJournalBesideAOneShardMarker) {
  // What older `--shards 1` servers left: flat segments plus a marker
  // reading `shards 1`. A marker-only check would accept the count, start
  // and silently skip the segments.
  const std::filesystem::path dir = fresh_dir("sharded_flat_marker");
  std::filesystem::create_directories(dir);
  std::ofstream(dir / "journal-00000001.ndjson") << kFlatSegmentWithSeq;
  std::ofstream(dir / "shards.meta") << "shards 1\n";
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    ShardedEngineConfig config;
    config.engine.journal_dir = dir.string();
    config.engine.fsync = FsyncPolicy::None;
    config.shards = shards;
    try {
      ShardedEngine engine(config);
      ADD_FAILURE() << "started on a flat journal at --shards " << shards;
    } catch (const JournalError& e) {
      EXPECT_NE(std::string(e.what()).find("flat layout"), std::string::npos)
          << e.what();
    }
  }
}

TEST(LoadgenTest, BusyRetryHonorsServerHint) {
  EngineConfig engine_config;
  engine_config.queue_capacity = 2;
  engine_config.retry_after_ms = 10.0;
  AdmissionEngine engine(engine_config);
  engine.start();
  engine.pause();
  // Fill the queue while paused so the client's first request is
  // guaranteed a `busy` with the retry hint.
  for (std::uint64_t id = 1000; id < 1002; ++id) {
    ASSERT_TRUE(engine.submit(make_request(id, 0.0), [](const Response&) {}));
  }

  ServerConfig server_config;
  server_config.tcp_port = 0;
  Server server(server_config, engine);
  server.start();

  std::thread resumer([&engine] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    engine.resume();
  });

  LoadgenConfig load;
  load.tcp_port = server.bound_port();
  load.requests = 5;
  load.busy_retries = 200;
  load.retry_interval_ms = 1.0;
  const LoadgenReport report = run_loadgen(load);
  resumer.join();
  (void)server.stop_and_drain();
  (void)engine.drain();

  EXPECT_EQ(report.sent, 5u);
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_EQ(report.accepted + report.rejected, 5u)
      << "every request got a real decision after retrying through busy";
  // Every busy answer was retried (the budget never ran out), and every
  // wire response — terminal decisions plus retried busys — is counted.
  EXPECT_GE(report.busy_retried, 1u);
  EXPECT_EQ(report.busy, report.busy_retried);
  EXPECT_EQ(report.responses, 5u + report.busy_retried);
  EXPECT_GE(report.hinted_retries, 1u)
      << "the server's retry_after_ms hint drove the backoff";
  EXPECT_LE(report.hinted_retries, report.busy_retried);
}

TEST(LoadgenTest, FanOutConnectionsReproduceTheMergedDigest) {
  ShardedEngineConfig engine_config;
  engine_config.engine.queue_capacity = 64;
  engine_config.shards = 2;
  ShardedEngine engine(engine_config);
  engine.start();

  ServerConfig server_config;
  server_config.tcp_port = 0;
  Server server(server_config, engine);
  server.start();

  LoadgenConfig load;
  load.tcp_port = server.bound_port();
  load.requests = 80;
  load.seed = 13;
  load.workload = "zipf:tenants=12,theta=0.9";
  load.connections = 3;
  const LoadgenReport report = run_loadgen(load);
  (void)server.stop_and_drain();
  const EngineStats stats = engine.drain();

  EXPECT_EQ(report.sent, 80u);
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_EQ(report.decision_digest, stats.decision_digest)
      << "client-merged digest == server-merged digest across fan-out";
}

/// A Unix-socket peer that answers every line it reads with `not json`.
class NotJsonPeer {
 public:
  explicit NotJsonPeer(const std::string& path) : path_(path) {
    ::unlink(path.c_str());  // a socket file left by an earlier run
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 4), 0);
    thread_ = std::thread([this] { serve(); });
  }
  ~NotJsonPeer() {
    stop_.store(true);
    thread_.join();
    ::close(listen_fd_);
    ::unlink(path_.c_str());
  }

 private:
  void serve() {
    while (!stop_.load()) {
      pollfd pfd{listen_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 20) <= 0) continue;
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) continue;
      char chunk[4096];
      for (ssize_t n; (n = ::read(fd, chunk, sizeof(chunk))) > 0;) {
        for (ssize_t i = 0; i < n; ++i) {
          if (chunk[i] == '\n') (void)::send(fd, "not json\n", 9, 0);
        }
      }
      ::close(fd);  // the client hung up
    }
  }

  std::string path_;
  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

TEST(LoadgenTest, UnreadableRepliesAreBookedAsErrors) {
  const std::string socket_path = fresh_dir("not_json") + ".sock";
  NotJsonPeer peer(socket_path);
  LoadgenConfig load;
  load.unix_path = socket_path;
  load.requests = 20;
  load.idle_timeout_seconds = 0.3;

  // Closed loop: each unreadable line answers the request in flight.
  const LoadgenReport closed = run_loadgen(load);
  EXPECT_EQ(closed.sent, 20u);
  EXPECT_EQ(closed.responses, 20u);
  EXPECT_EQ(closed.errors, 20u);
  EXPECT_EQ(closed.dropped, 0u);

  // Open loop: an unreadable line carries no id, so every request stays
  // pending and drops at the idle timeout.
  load.open_loop = true;
  load.rate = 10000.0;
  const LoadgenReport open = run_loadgen(load);
  EXPECT_EQ(open.sent, 20u);
  EXPECT_EQ(open.errors, 20u);
  EXPECT_EQ(open.dropped, 20u);
  EXPECT_EQ(open.read_timeouts, 1u);
}

// ------------------------------------------------------------ advise verb

TEST(ProtocolTest, AdviseRequestRoundTrips) {
  Request request;
  request.kind = RequestKind::Advise;
  request.id = 31;
  request.tenant = 9;
  request.scoring.objective_weights = {0.1, 0.2, 0.3, 0.4};
  request.scoring.risk_aversion = 1.25;
  const Request parsed = parse_request(encode_request(request));
  EXPECT_EQ(parsed.kind, RequestKind::Advise);
  EXPECT_EQ(parsed.id, 31u);
  EXPECT_EQ(parsed.tenant, 9u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(parsed.scoring.objective_weights[i],
                     request.scoring.objective_weights[i])
        << i;
  }
  EXPECT_DOUBLE_EQ(parsed.scoring.risk_aversion, 1.25);

  // Omitted weights/risk_aversion fall back to the documented defaults.
  const Request defaults = parse_request("{\"type\":\"advise\",\"id\":2}");
  EXPECT_EQ(defaults.kind, RequestKind::Advise);
  for (double w : defaults.scoring.objective_weights) {
    EXPECT_DOUBLE_EQ(w, 0.25);
  }
  EXPECT_DOUBLE_EQ(defaults.scoring.risk_aversion, 0.5);
}

TEST(ProtocolTest, AdviseRejectsInvalidPreferences) {
  // Weights not summing to 1 — rejected, never silently renormalised.
  EXPECT_THROW(
      (void)parse_request(
          "{\"type\":\"advise\",\"id\":1,\"weights\":[0.5,0.5,0.5,0.5]}"),
      ProtocolError);
  EXPECT_THROW(
      (void)parse_request(
          "{\"type\":\"advise\",\"id\":1,\"weights\":[-0.25,0.5,0.5,0.25]}"),
      ProtocolError);
  EXPECT_THROW((void)parse_request(
                   "{\"type\":\"advise\",\"id\":1,\"weights\":[0.5,0.5]}"),
               ProtocolError)
      << "exactly four weights";
  EXPECT_THROW(
      (void)parse_request(
          "{\"type\":\"advise\",\"id\":1,\"risk_aversion\":-1}"),
      ProtocolError);
}

TEST(ProtocolTest, AdviceResponseRoundTrips) {
  Response response;
  response.id = 12;
  response.status = Status::Advice;
  response.tenant = 4;
  auto advice = std::make_shared<advise::Snapshot>();
  advice->active = "Libra";
  advice->recommended = "FCFS-BF";
  advice->decided = 96;
  advice->evaluations = 6;
  advice->switches = 1;
  advice->samples = 64;
  advice->estimate_mean = {10.5, 80.0, 90.0, 55.0};
  advice->estimate_stddev = {1.5, 2.0, 0.5, 3.0};
  advice->ranked = {
      {policy::PolicyKind::FcfsBf, "FCFS-BF", 0.61, 0.7, 0.18},
      {policy::PolicyKind::Libra, "Libra", 0.58, 0.6, 0.04}};
  advice->digest = 0x0123456789abcdefull;
  response.advice = advice;

  const Response parsed = parse_response(encode_response(response));
  EXPECT_EQ(parsed.status, Status::Advice);
  EXPECT_EQ(parsed.id, 12u);
  EXPECT_EQ(parsed.tenant, 4u);
  ASSERT_NE(parsed.advice, nullptr);
  EXPECT_EQ(parsed.advice->active, "Libra");
  EXPECT_EQ(parsed.advice->recommended, "FCFS-BF");
  EXPECT_EQ(parsed.advice->decided, 96u);
  EXPECT_EQ(parsed.advice->evaluations, 6u);
  EXPECT_EQ(parsed.advice->switches, 1u);
  EXPECT_EQ(parsed.advice->samples, 64u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(parsed.advice->estimate_mean[i],
                     advice->estimate_mean[i]);
    EXPECT_DOUBLE_EQ(parsed.advice->estimate_stddev[i],
                     advice->estimate_stddev[i]);
  }
  ASSERT_EQ(parsed.advice->ranked.size(), 2u);
  EXPECT_EQ(parsed.advice->ranked[0].policy, "FCFS-BF");
  EXPECT_EQ(parsed.advice->ranked[0].kind, policy::PolicyKind::FcfsBf)
      << "the kind is restored from the policy name";
  EXPECT_EQ(parsed.advice->ranked[1].kind, policy::PolicyKind::Libra);
  EXPECT_DOUBLE_EQ(parsed.advice->ranked[0].score, 0.61);
  EXPECT_DOUBLE_EQ(parsed.advice->ranked[1].volatility, 0.04);
  EXPECT_EQ(parsed.advice->digest, 0x0123456789abcdefull);

  // A ranking naming an unknown policy, or a digest that is not hex, does
  // not decode.
  std::string line = encode_response(response);
  std::string unknown = line;
  unknown.replace(unknown.find("\"FCFS-BF\",\"score\""), 9, "\"Nope-BF\"");
  EXPECT_THROW((void)parse_response(unknown), ProtocolError);
  line.replace(line.find("0123456789abcdef"), 16, "0123456789abcdeg");
  EXPECT_THROW((void)parse_response(line), ProtocolError);
}

TEST(JournalTest, SwitchRecordsRoundTrip) {
  const std::string dir = fresh_dir("journal_switches");
  JournalConfig config;
  config.directory = dir;
  config.fsync = FsyncPolicy::None;
  SwitchRecord first{/*key=*/0xDEADBEEFCAFE0123ull, /*at=*/64, "Libra",
                     "FCFS-BF"};
  SwitchRecord second{/*key=*/7, /*at=*/128, "FCFS-BF", "SJF-BF"};
  {
    JournalWriter writer(config);
    writer.append_request(make_request(1, 0.0));
    writer.append_switch(first);
    writer.append_request(make_request(2, 10.0));
    writer.append_switch(second);
    writer.append_tick(2, "0000000000000000");
    EXPECT_EQ(writer.stats().switches, 2u);
  }
  const RecoveredJournal recovered = load_journal(dir);
  EXPECT_EQ(recovered.requests.size(), 2u);
  ASSERT_EQ(recovered.switches.size(), 2u);
  EXPECT_EQ(recovered.switches[0].key, first.key)
      << "the hex encoding must carry all 64 key bits";
  EXPECT_EQ(recovered.switches[0].at, 64u);
  EXPECT_EQ(recovered.switches[0].from, "Libra");
  EXPECT_EQ(recovered.switches[0].to, "FCFS-BF");
  EXPECT_EQ(recovered.switches[1].key, 7u);
  EXPECT_EQ(recovered.switches[1].to, "SJF-BF");
}

/// Drives `stream` through an engine built from `config`, counting the
/// advise answers seen on the completion path.
EngineStats run_stream_with_config(const std::vector<Request>& stream,
                                   EngineConfig config,
                                   std::uint64_t* advice_answers = nullptr) {
  config.queue_capacity = 64;
  AdmissionEngine engine(config);
  engine.start();
  std::atomic<std::uint64_t> advice{0};
  for (const Request& request : stream) {
    while (!engine.submit(request, [&advice](const Response& response) {
      if (response.status == Status::Advice) advice.fetch_add(1);
    })) {
      std::this_thread::yield();
    }
  }
  EngineStats stats = engine.drain();
  if (advice_answers != nullptr) *advice_answers = advice.load();
  return stats;
}

TEST(AdmissionEngineTest, AdviseQueriesAreReadOnlyOnTheDigest) {
  const std::vector<Request> stream = make_tenant_stream(90, 17);

  // The same stream with an advise query wedged in after every fifth
  // submission — and a burst up front, before any decision exists.
  std::vector<Request> with_advise;
  std::uint64_t next_id = 100000;
  for (int i = 0; i < 3; ++i) {
    Request query;
    query.kind = RequestKind::Advise;
    query.id = next_id++;
    query.tenant = 3;
    with_advise.push_back(query);
  }
  for (std::size_t i = 0; i < stream.size(); ++i) {
    with_advise.push_back(stream[i]);
    if (i % 5 == 4) {
      Request query;
      query.kind = RequestKind::Advise;
      query.id = next_id++;
      query.tenant = stream[i].tenant;
      with_advise.push_back(query);
    }
  }

  EngineConfig config;
  const EngineStats plain = run_stream_with_config(stream, config);
  std::uint64_t advice_answers = 0;
  const EngineStats queried =
      run_stream_with_config(with_advise, config, &advice_answers);
  EXPECT_GT(queried.advise_queries, 0u);
  EXPECT_EQ(queried.advise_queries, advice_answers)
      << "every advise query draws exactly one advice answer";
  EXPECT_EQ(plain.processed, queried.processed)
      << "advise queries are not admission decisions";
  EXPECT_EQ(plain.decision_digest, queried.decision_digest)
      << "read-only queries must not perturb the decision digest";
}

/// Tenant stream whose mix shifts mid-run — the advisor's home turf.
std::vector<Request> make_mix_shift_stream(std::size_t requests,
                                           std::uint64_t seed) {
  LoadgenConfig config;
  config.requests = requests;
  config.seed = seed;
  config.workload = "zipf:tenants=4,theta=0.6";
  config.mix_shift = "40000:zipf:tenants=4,theta=0.6,mean_runtime=14000,"
                     "mean_interarrival=120";
  return make_request_stream(config);
}

[[nodiscard]] EngineConfig advise_auto_config() {
  EngineConfig config;
  config.advisor.auto_switch = true;
  config.advisor.advise_every = 16;
  config.advisor.window = 16;
  return config;
}

TEST(AdmissionEngineTest, AdviseAutoIsDeterministicAcrossRuns) {
  const std::vector<Request> stream = make_mix_shift_stream(160, 29);
  const EngineStats first =
      run_stream_with_config(stream, advise_auto_config());
  const EngineStats second =
      run_stream_with_config(stream, advise_auto_config());
  EXPECT_GT(first.advisor_evaluations, 0u);
  EXPECT_EQ(first.advisor_evaluations, second.advisor_evaluations);
  EXPECT_EQ(first.policy_switches, second.policy_switches);
  EXPECT_EQ(first.accepted, second.accepted);
  EXPECT_EQ(first.decision_digest, second.decision_digest)
      << "switch points and switches must replay bit-identically";
}

TEST(ShardedEngineTest, AdviseAutoMergedDigestInvariantUnderShardCount) {
  const std::vector<Request> stream = make_mix_shift_stream(160, 31);
  const auto run = [&stream](std::size_t shards) {
    ShardedEngineConfig config;
    config.engine = advise_auto_config();
    config.engine.queue_capacity = 64;
    config.shards = shards;
    ShardedEngine engine(config);
    engine.start();
    for (const Request& request : stream) {
      while (!engine.submit(request, [](const Response&) {})) {
        std::this_thread::yield();
      }
    }
    return engine.drain();
  };
  const EngineStats one = run(1);
  const EngineStats four = run(4);
  EXPECT_GT(one.advisor_evaluations, 0u);
  EXPECT_EQ(one.advisor_evaluations, four.advisor_evaluations)
      << "switch points are per routing key, never engine-global";
  EXPECT_EQ(one.policy_switches, four.policy_switches);
  EXPECT_EQ(one.decision_digest, four.decision_digest)
      << "the merged digest must not see the shard count, advise-auto on";
}

TEST(AdmissionEngineTest, AdviseAutoJournalRecoveryReplaysSwitches) {
  const std::string dir = fresh_dir("recovery_switches");
  const std::vector<Request> stream = make_mix_shift_stream(160, 29);

  EngineConfig config = advise_auto_config();
  config.journal_dir = dir;
  config.fsync = FsyncPolicy::None;
  std::string first_digest;
  std::uint64_t first_switches = 0;
  {
    AdmissionEngine engine(config);
    engine.start();
    for (const Request& request : stream) {
      while (!engine.submit(request, [](const Response&) {})) {
        std::this_thread::yield();
      }
    }
    const EngineStats stats = engine.drain();
    first_digest = stats.decision_digest;
    first_switches = stats.policy_switches;
    EXPECT_EQ(engine.journal_stats().switches, stats.policy_switches)
        << "every live switch writes one sw record";
  }

  // Replay must re-derive every journalled switch (prefix check) and
  // land on the identical digest — the switches are folded into it.
  AdmissionEngine recovered(config);
  EXPECT_TRUE(recovered.recovery().digest_match);
  EXPECT_EQ(recovered.recovery().replayed_digest, first_digest);
  const EngineStats stats = recovered.drain();
  EXPECT_EQ(stats.decision_digest, first_digest);
  EXPECT_EQ(stats.policy_switches, first_switches);
}

TEST(AdmissionEngineTest, RecoveryRefusesFabricatedSwitchRecords) {
  const std::string dir = fresh_dir("recovery_bogus_switch");
  JournalConfig journal_config;
  journal_config.directory = dir;
  journal_config.fsync = FsyncPolicy::None;
  {
    JournalWriter writer(journal_config);
    writer.append_request(make_request(1, 0.0));
    // A switch no replay of one request can possibly re-derive.
    writer.append_switch(SwitchRecord{/*key=*/1, /*at=*/1, "Libra",
                                      "FCFS-BF"});
  }
  EngineConfig config = advise_auto_config();
  config.journal_dir = dir;
  EXPECT_THROW((void)AdmissionEngine(config), JournalError)
      << "journalled switches must be a prefix of the replayed ones";
}


// ------------------------------------------------------ byte-exact corpus

// Pinned wire lines: the encoders must keep writing these bytes, and each
// must decode and re-encode to itself.
constexpr const char* kSubmitLine =
    R"({"type":"submit","id":7,"t":12.5,"procs":4,"runtime":100,"estimate":120,"deadline":4000,"budget":50000,"penalty":0.25,"urgency":"high"})";
constexpr const char* kRoutedSubmitLine =
    R"({"type":"submit","id":8,"t":12.5,"procs":4,"runtime":100,"estimate":120,"deadline":4000,"budget":50000,"penalty":0,"urgency":"low","deadline_ms":250,"tenant":42,"scenario":"a \"quoted\" \\ path\t\u0001"})";
constexpr const char* kDefaultAdviseLine =
    R"({"type":"advise","id":9,"weights":[0.25,0.25,0.25,0.25],"risk_aversion":0.5})";
constexpr const char* kCustomAdviseLine =
    R"({"type":"advise","id":10,"weights":[0.1,0.2,0.3,0.4],"risk_aversion":1.25,"tenant":3,"scenario":"s"})";
constexpr const char* kAcceptedLine =
    R"({"id":7,"status":"accepted","price":4800.5,"risk":0.125,"t":12.5,"tenant":42,"shard":2})";
constexpr const char* kRejectedLine =
    R"({"id":8,"status":"rejected","price":0,"risk":0.87,"t":99,"tenant":5,"shard":0})";
constexpr const char* kPlainRejectedLine =
    R"({"id":11,"status":"rejected","price":0,"risk":1,"t":3})";
constexpr const char* kBusyLine = R"({"id":9,"status":"busy","retry_after_ms":50})";
constexpr const char* kShedLine =
    R"({"id":10,"status":"shed","message":"decision deadline expired in queue"})";
constexpr const char* kErrorLine =
    R"({"id":0,"status":"error","message":"bad \"x\" \\ y\nz\u0001"})";
constexpr const char* kAdviceLine =
    R"({"id":12,"status":"advice","active":"Libra","recommended":"Libra+$","decided":96,"evaluations":6,"switches":1,"samples":64,"estimate_mean":[10.5,80,90,55],"estimate_stddev":[1.5,2,0.5,3],"ranked":[{"policy":"Libra+$","score":0.61,"performance":0.7,"volatility":0.18},{"policy":"Libra","score":0.58,"performance":0.6,"volatility":0.04}],"digest":"0123456789abcdef","tenant":4,"shard":1})";

/// A sealed advise-auto segment exactly as an engine wrote it
/// (advise_every 4, window 4, Libra, commodity): eight requests, one
/// policy switch after the fourth, a tick per request and the seal.
constexpr const char* kAdviseAutoSegment =
    R"({"type":"req","req":{"type":"submit","id":1,"t":0,"procs":1,"runtime":16769.3262073496,"estimate":8149.294510220392,"deadline":201382.0053220123,"budget":37374.41025406107,"penalty":11.413614905088515,"urgency":"low"},"chk":"4bf67d7ae2422c24"}
{"type":"tick","processed":1,"digest":"0b38ed286f9f8105","chk":"fabd42766a176d73"}
{"type":"req","req":{"type":"submit","id":2,"t":533.3758808917275,"procs":3,"runtime":15218.035273741605,"estimate":64800,"deadline":155903.30181596387,"budget":31412.0652919456,"penalty":7.95884713539112,"urgency":"low"},"chk":"ddc6e7c4324d951d"}
{"type":"tick","processed":2,"digest":"a40b020aa59beb0c","chk":"7f706ddcbf262aea"}
{"type":"req","req":{"type":"submit","id":3,"t":1567.7792034642148,"procs":1,"runtime":461.5754298347408,"estimate":900,"deadline":4295.064020424083,"budget":16413.599023234998,"penalty":3.8261659435080486,"urgency":"high"},"chk":"579472bb62430ea3"}
{"type":"tick","processed":3,"digest":"0cbf7ac8ace1ab95","chk":"cb91cd0d59ac6895"}
{"type":"req","req":{"type":"submit","id":4,"t":1942.4380845438757,"procs":22,"runtime":43949.71500094723,"estimate":19737.030151425213,"deadline":404119.0271907731,"budget":68065.90525179438,"penalty":18.697722301464083,"urgency":"low"},"chk":"08ee633c839af4a4"}
{"type":"sw","key":"0000000000000000","at":4,"from":"Libra","to":"Libra+$","chk":"ee53f9aa1cf3b614"}
{"type":"tick","processed":4,"digest":"9ccfdbcbd256346e","chk":"3f82eb3160ee5210"}
{"type":"req","req":{"type":"submit","id":5,"t":3141.9002928026885,"procs":4,"runtime":5036.436605625579,"estimate":24600,"deadline":127049.27878095325,"budget":38015.34640261893,"penalty":14.412734928802157,"urgency":"low"},"chk":"425460c23be8c58c"}
{"type":"tick","processed":5,"digest":"9c0b1c0372beccc7","chk":"b5e88d0a2247935d"}
{"type":"req","req":{"type":"submit","id":6,"t":4329.479051893168,"procs":1,"runtime":5044.627228044722,"estimate":64800,"deadline":116833.0578119172,"budget":37029.30925399378,"penalty":13.940252866155529,"urgency":"low"},"chk":"2faffe9ada98b363"}
{"type":"tick","processed":6,"digest":"e0b452987bb61bbf","chk":"2f2dfd4d03c8761c"}
{"type":"req","req":{"type":"submit","id":7,"t":6170.540309564569,"procs":52,"runtime":12334.747313202784,"estimate":33300,"deadline":466106.0000794269,"budget":103534.48801799947,"penalty":19.50144587440794,"urgency":"low"},"chk":"dc5bb02711a9048b"}
{"type":"tick","processed":7,"digest":"0b23b4bc5162df40","chk":"c98564ce5d9ed38a"}
{"type":"req","req":{"type":"submit","id":8,"t":8965.133102707241,"procs":32,"runtime":4338.172044804384,"estimate":14700,"deadline":166519.1778403551,"budget":34519.29186538163,"penalty":10.647255480313136,"urgency":"low"},"chk":"da525a21cfc29fb7"}
{"type":"tick","processed":8,"digest":"e9d4634cd460ab3f","chk":"8826e318be2dcb87"}
{"type":"seal","records":17,"digest":"9cc823448e84acea","chk":"bf408577fc27927d"}
)";

TEST(ProtocolTest, EncodersWriteTheCorpusBytes) {
  Request submit;
  submit.id = 7;
  submit.submit_time = 12.5;
  submit.procs = 4;
  submit.runtime = 100.0;
  submit.estimate = 120.0;
  submit.deadline = 4000.0;
  submit.budget = 50000.0;
  submit.penalty_rate = 0.25;
  submit.urgency = workload::Urgency::High;
  EXPECT_EQ(encode_request(submit), kSubmitLine);
  Request routed = submit;
  routed.id = 8;
  routed.penalty_rate = 0.0;
  routed.urgency = workload::Urgency::Low;
  routed.deadline_ms = 250.0;
  routed.tenant = 42;
  routed.scenario = "a \"quoted\" \\ path\t\x01";
  EXPECT_EQ(encode_request(routed), kRoutedSubmitLine);
  Request advise;
  advise.kind = RequestKind::Advise;
  advise.id = 9;
  EXPECT_EQ(encode_request(advise), kDefaultAdviseLine);
  Request custom = advise;
  custom.id = 10;
  custom.tenant = 3;
  custom.scenario = "s";
  custom.scoring.objective_weights = {0.1, 0.2, 0.3, 0.4};
  custom.scoring.risk_aversion = 1.25;
  EXPECT_EQ(encode_request(custom), kCustomAdviseLine);

  Response accepted;
  accepted.id = 7;
  accepted.status = Status::Accepted;
  accepted.price = 4800.5;
  accepted.risk = 0.125;
  accepted.virtual_time = 12.5;
  accepted.tenant = 42;
  accepted.shard = 2;
  EXPECT_EQ(encode_response(accepted), kAcceptedLine);
  Response rejected;
  rejected.id = 8;
  rejected.status = Status::Rejected;
  rejected.risk = 0.87;
  rejected.virtual_time = 99.0;
  rejected.tenant = 5;
  rejected.shard = 0;
  EXPECT_EQ(encode_response(rejected), kRejectedLine);
  Response plain;
  plain.id = 11;
  plain.status = Status::Rejected;
  plain.risk = 1.0;
  plain.virtual_time = 3.0;
  EXPECT_EQ(encode_response(plain), kPlainRejectedLine);
  Response busy;
  busy.id = 9;
  busy.status = Status::Busy;
  busy.retry_after_ms = 50.0;
  EXPECT_EQ(encode_response(busy), kBusyLine);
  Response shed;
  shed.id = 10;
  shed.status = Status::Shed;
  shed.message = "decision deadline expired in queue";
  EXPECT_EQ(encode_response(shed), kShedLine);
  Response error;
  error.status = Status::Error;
  error.message = "bad \"x\" \\ y\nz\x01";
  EXPECT_EQ(encode_response(error), kErrorLine);

  auto snapshot = std::make_shared<advise::Snapshot>();
  snapshot->active = "Libra";
  snapshot->recommended = "Libra+$";
  snapshot->decided = 96;
  snapshot->evaluations = 6;
  snapshot->switches = 1;
  snapshot->samples = 64;
  snapshot->estimate_mean = {10.5, 80.0, 90.0, 55.0};
  snapshot->estimate_stddev = {1.5, 2.0, 0.5, 3.0};
  snapshot->ranked = {
      {policy::PolicyKind::LibraDollar, "Libra+$", 0.61, 0.7, 0.18},
      {policy::PolicyKind::Libra, "Libra", 0.58, 0.6, 0.04}};
  snapshot->digest = 0x0123456789abcdefull;
  Response advice;
  advice.id = 12;
  advice.status = Status::Advice;
  advice.tenant = 4;
  advice.shard = 1;
  advice.advice = snapshot;
  EXPECT_EQ(encode_response(advice), kAdviceLine);
}

TEST(ProtocolTest, CorpusLinesDecodeAndReencodeToThemselves) {
  for (const char* line : {kSubmitLine, kRoutedSubmitLine, kDefaultAdviseLine,
                           kCustomAdviseLine}) {
    EXPECT_EQ(encode_request(parse_request(line)), line);
  }
  for (const char* line :
       {kAcceptedLine, kRejectedLine, kPlainRejectedLine, kBusyLine,
        kShedLine, kErrorLine, kAdviceLine}) {
    EXPECT_EQ(encode_response(parse_response(line)), line);
  }
}

TEST(JournalTest, AdviseAutoSegmentReplaysAndIsRewrittenByteForByte) {
  const std::filesystem::path dir = fresh_dir("journal_corpus");
  std::filesystem::create_directories(dir);
  std::ofstream(dir / "journal-00000001.ndjson") << kAdviseAutoSegment;
  const RecoveredJournal recovered = load_journal(dir.string());
  ASSERT_EQ(recovered.requests.size(), 8u);
  ASSERT_EQ(recovered.switches.size(), 1u);
  EXPECT_EQ(recovered.sealed_segments, 1u);
  EXPECT_EQ(recovered.last_tick_processed, 8u);

  // It replays to the digest its writer recorded, re-deriving the switch.
  EngineConfig config;
  config.advisor.auto_switch = true;
  config.advisor.advise_every = 4;
  config.advisor.window = 4;
  config.journal_dir = dir.string();
  config.fsync = FsyncPolicy::None;
  {
    AdmissionEngine engine(config);
    EXPECT_EQ(engine.recovery().replayed, 8u);
    EXPECT_TRUE(engine.recovery().digest_match);
    EXPECT_EQ(engine.recovery().replayed_digest, "e9d4634cd460ab3f");
  }

  // The writer, fed the same record stream, writes the same bytes.
  JournalConfig journal;
  journal.directory = fresh_dir("journal_corpus_rewrite");
  journal.fsync = FsyncPolicy::None;
  {
    JournalWriter writer(journal);
    std::istringstream lines(kAdviseAutoSegment);
    std::string line;
    std::size_t next_request = 0;
    while (std::getline(lines, line)) {
      const obs::json::Value record = obs::json::parse(line);
      const std::string& type = record.at("type").as_string();
      if (type == "req") {
        writer.append_request(recovered.requests[next_request++]);
      } else if (type == "sw") {
        writer.append_switch(recovered.switches.front());
      } else if (type == "tick") {
        writer.append_tick(
            static_cast<std::uint64_t>(record.at("processed").as_number()),
            record.at("digest").as_string());
      }
    }
  }  // closing seals the segment
  std::ifstream in(std::filesystem::path(journal.directory) /
                   "journal-00000001.ndjson");
  std::ostringstream rewritten;
  rewritten << in.rdbuf();
  EXPECT_EQ(rewritten.str(), kAdviseAutoSegment);
}

/// `line` as the request of one chk-sealed journal record, framed the
/// way JournalWriter::append_request frames the encoding it writes.
[[nodiscard]] std::string journal_record(const std::string& line) {
  const std::string payload = "{\"type\":\"req\",\"req\":" + line;
  verify::DigestStream chk;
  chk.put_string(payload);
  return payload + ",\"chk\":\"" + verify::to_hex(chk.value()) + "\"}\n";
}

/// The request recovery reads back from a segment holding only `line`'s
/// record, or nullopt when recovery refuses the record.
[[nodiscard]] std::optional<Request> recover_line(
    const std::filesystem::path& dir, const std::string& line) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::ofstream(dir / "journal-00000001.ndjson", std::ios::binary)
      << journal_record(line);
  try {
    RecoveredJournal recovered = load_journal(dir.string());
    EXPECT_EQ(recovered.requests.size(), 1u) << line;
    EXPECT_EQ(recovered.truncated_records, 0u) << line;
    if (recovered.requests.size() != 1) return std::nullopt;
    return std::move(recovered.requests.front());
  } catch (const JournalError&) {
    return std::nullopt;
  }
}

/// The request the wire reads from `line`, or nullopt when it refuses it.
[[nodiscard]] std::optional<Request> wire_line(const std::string& line) {
  try {
    return parse_request(line);
  } catch (const ProtocolError&) {
    return std::nullopt;
  }
}

TEST(JournalTest, RecoveryReadsEveryRequestAsTheWireDoes) {
  // Recovery parses a record once and reads its `req` member; the wire
  // parses the line itself. For every line both must give the same
  // request, or both refuse it.
  std::vector<std::string> lines = hostile_corpus();
  for (const char* line : {kSubmitLine, kRoutedSubmitLine, kDefaultAdviseLine,
                           kCustomAdviseLine}) {
    lines.emplace_back(line);
  }
  // Requests valid but for their bytes: one past the wire's size cap, one
  // whose scenario is not UTF-8.
  std::string padded = kSubmitLine;
  padded.pop_back();
  padded += ",\"pad\":\"" + std::string(kMaxRequestBytes, 'x') + "\"}";
  lines.push_back(std::move(padded));
  std::string latin1 = kSubmitLine;
  latin1.pop_back();
  latin1 += ",\"scenario\":\"caf\xe9\"}";
  lines.push_back(std::move(latin1));
  for (const std::string& workload : {std::string(), std::string("zipf")}) {
    LoadgenConfig load;
    load.requests = 150;
    load.seed = 7;
    load.workload = workload;
    load.deadline_ms = 250.0;
    for (const Request& request : make_request_stream(load)) {
      lines.push_back(encode_request(request));
    }
  }
  const std::filesystem::path dir = fresh_dir("journal_vs_wire");
  std::size_t accepted = 0;
  std::size_t refused = 0;
  for (const std::string& line : lines) {
    ASSERT_EQ(line.find('\n'), std::string::npos);
    const std::optional<Request> wire = wire_line(line);
    const std::optional<Request> journal = recover_line(dir, line);
    ASSERT_EQ(wire.has_value(), journal.has_value())
        << "line of " << line.size() << " bytes: " << line.substr(0, 80);
    if (!wire) {
      ++refused;
      continue;
    }
    ++accepted;
    EXPECT_EQ(wire->kind, journal->kind) << line;
    EXPECT_EQ(encode_request(*wire), encode_request(*journal)) << line;
  }
  EXPECT_GE(accepted, 304u);
  EXPECT_GE(refused, 30u);
}

TEST(AdmissionEngineTest, AdviceOnTheWireIsTheAdvisorsSnapshot) {
  EngineConfig config;
  config.advisor.auto_switch = true;
  config.advisor.advise_every = 16;
  config.advisor.window = 16;
  AdmissionEngine engine(config);
  engine.start();
  Server server(ServerConfig{}, engine);
  LoadgenConfig load;
  load.requests = 48;
  load.seed = 29;
  std::string input;
  for (const Request& request : make_request_stream(load)) {
    input += encode_request(request) + "\n";
  }
  Request query;
  query.kind = RequestKind::Advise;
  query.id = 100000;
  query.scoring.objective_weights = {0.1, 0.2, 0.3, 0.4};
  query.scoring.risk_aversion = 1.25;
  input += encode_request(query) + "\n";
  std::istringstream in(input);
  std::ostringstream out;
  (void)server.run_stdio(in, out);  // drains: the advisor is at rest

  std::istringstream replies(out.str());
  std::string line;
  std::string advice_line;
  while (std::getline(replies, line)) {
    if (parse_response(line).status == Status::Advice) advice_line = line;
  }
  ASSERT_FALSE(advice_line.empty());

  // Advise queries are read-only, so the drained advisor still holds the
  // history the query was answered from.
  const advise::Snapshot expected = engine.advisor().query(
      routing_key(query), query.scoring.objective_weights,
      query.scoring.risk_aversion);
  EXPECT_GT(expected.evaluations, 0u);
  ASSERT_FALSE(expected.ranked.empty());
  Response response;
  response.id = query.id;
  response.status = Status::Advice;
  response.advice = std::make_shared<const advise::Snapshot>(expected);
  EXPECT_EQ(advice_line, encode_response(response));

  const Response parsed = parse_response(advice_line);
  ASSERT_NE(parsed.advice, nullptr);
  const advise::Snapshot& wire = *parsed.advice;
  EXPECT_EQ(wire.active, expected.active);
  EXPECT_EQ(wire.recommended, expected.recommended);
  EXPECT_EQ(wire.decided, expected.decided);
  EXPECT_EQ(wire.evaluations, expected.evaluations);
  EXPECT_EQ(wire.switches, expected.switches);
  EXPECT_EQ(wire.samples, expected.samples);
  EXPECT_EQ(wire.estimate_mean, expected.estimate_mean);
  EXPECT_EQ(wire.estimate_stddev, expected.estimate_stddev);
  ASSERT_EQ(wire.ranked.size(), expected.ranked.size());
  for (std::size_t r = 0; r < wire.ranked.size(); ++r) {
    EXPECT_EQ(wire.ranked[r].kind, expected.ranked[r].kind) << r;
    EXPECT_EQ(wire.ranked[r].policy, expected.ranked[r].policy) << r;
    EXPECT_EQ(wire.ranked[r].score, expected.ranked[r].score) << r;
    EXPECT_EQ(wire.ranked[r].performance, expected.ranked[r].performance)
        << r;
    EXPECT_EQ(wire.ranked[r].volatility, expected.ranked[r].volatility)
        << r;
  }
  EXPECT_EQ(wire.digest, expected.digest);
}

}  // namespace
}  // namespace utilrisk::serve
