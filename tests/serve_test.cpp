// Tests for the online admission service: wire protocol, bounded queue
// backpressure, engine determinism, stdio/socket serving, the
// drain-on-shutdown zero-dropped-responses guarantee, the write-ahead
// admission journal with deterministic crash recovery, and the overload
// (shed/brownout) and slow-client defenses.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/bounded_queue.hpp"
#include "serve/engine.hpp"
#include "serve/journal.hpp"
#include "serve/loadgen.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/shard.hpp"

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

  std::string oversized(300, 'x');
  std::istringstream in(encode_request(make_request(1, 0.0)) + "\n" +
                        "not json\n" + oversized + "\n" +
                        encode_request(make_request(2, 5.0)) + "\n");
  std::ostringstream out;
  const ServerStats stats =
      Server::run_stdio(engine, in, out, /*max_line_bytes=*/256);

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

TEST(ProtocolTest, HostileCorpusNeverEscapesProtocolError) {
  // Every line here is hostile in a different way; parse_request's
  // contract is "ProtocolError and only ProtocolError, whatever the
  // bytes". A plain runtime_error escaping here would crash the server's
  // per-line firewall (this corpus includes the non-string urgency that
  // used to do exactly that).
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

  for (const std::string& line : corpus) {
    try {
      const Request request = parse_request(line);
      // A duplicate-keys document may legitimately parse; anything the
      // parser accepts must satisfy the SLA preconditions.
      EXPECT_GT(request.runtime, 0.0);
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

  // The once-fatal non-string urgency, raw bytes, deep nesting — then a
  // valid request. The server must answer all four and stay up.
  std::string deep(300, '[');
  std::istringstream in(
      std::string("{\"type\":\"submit\",\"id\":1,\"procs\":1,\"runtime\":1,"
                  "\"deadline\":1,\"budget\":0,\"urgency\":42}\n") +
      "\xff\xfe not even text\n" + deep + "\n" +
      encode_request(make_request(5, 1.0)) + "\n");
  std::ostringstream out;
  const ServerStats stats = Server::run_stdio(engine, in, out);

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

// ----------------------------------------------------------------- journal

[[nodiscard]] std::string fresh_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

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
    out << "{\"type\":\"req\",\"seq\":99,\"req\":{\"type\":\"sub";
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

// ---------------------------------------------------------- shed / brownout

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
  EngineConfig config;
  config.queue_capacity = 8;
  config.brownout_watermark = 0.5;  // fast-fail at queue depth 4
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
  EXPECT_EQ(queued, 4u) << "the watermark, not capacity, is the limit";
  const EngineStats stats = engine.drain();
  EXPECT_EQ(stats.brownout, 4u);
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

TEST(ShardedEngineTest, JournalRecoveryWithTwoShardsReproducesDigest) {
  const std::string dir = fresh_dir("sharded_recovery");
  const std::vector<Request> stream = make_tenant_stream(60, 5);

  ShardedEngineConfig config;
  config.engine.journal_dir = dir;
  config.engine.fsync = FsyncPolicy::None;
  config.shards = 2;

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
    // Both shards actually journal: the layout is real, not one flat dir.
    EXPECT_TRUE(std::filesystem::exists(
        std::filesystem::path(dir) / "shard-0000"));
    EXPECT_TRUE(std::filesystem::exists(
        std::filesystem::path(dir) / "shard-0001"));
  }

  // A new sharded engine over the same journal root replays every shard
  // and reproduces the merged digest — the kill-9 recovery contract.
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
    AdmissionEngine engine(flat);
    engine.start();
    while (!engine.submit(make_request(1, 0.0), [](const Response&) {})) {
      std::this_thread::yield();
    }
    (void)engine.drain();
  }
  ShardedEngineConfig sharded;
  sharded.engine = flat;
  sharded.shards = 4;
  EXPECT_THROW((void)ShardedEngine(sharded), JournalError)
      << "a flat pre-shard journal cannot be reopened sharded";
  // But shards=1 keeps the legacy layout and recovers it unchanged.
  ShardedEngineConfig compatible;
  compatible.engine = flat;
  compatible.shards = 1;
  ShardedEngine engine(compatible);
  EXPECT_EQ(engine.recovery().replayed, 1u);
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

// ------------------------------------------------------------ advise verb

TEST(ProtocolTest, AdviseRequestRoundTrips) {
  Request request;
  request.kind = RequestKind::Advise;
  request.id = 31;
  request.tenant = 9;
  request.weights = {0.1, 0.2, 0.3, 0.4};
  request.risk_aversion = 1.25;
  const Request parsed = parse_request(encode_request(request));
  EXPECT_EQ(parsed.kind, RequestKind::Advise);
  EXPECT_EQ(parsed.id, 31u);
  EXPECT_EQ(parsed.tenant, 9u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(parsed.weights[i], request.weights[i]) << i;
  }
  EXPECT_DOUBLE_EQ(parsed.risk_aversion, 1.25);

  // Omitted weights/risk_aversion fall back to the documented defaults.
  const Request defaults = parse_request("{\"type\":\"advise\",\"id\":2}");
  EXPECT_EQ(defaults.kind, RequestKind::Advise);
  for (double w : defaults.weights) EXPECT_DOUBLE_EQ(w, 0.25);
  EXPECT_DOUBLE_EQ(defaults.risk_aversion, 0.5);
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
  auto advice = std::make_shared<AdviceBody>();
  advice->active = "Libra";
  advice->recommended = "FCFS-BF";
  advice->decided = 96;
  advice->evaluations = 6;
  advice->switches = 1;
  advice->samples = 64;
  advice->estimate_mean = {10.5, 80.0, 90.0, 55.0};
  advice->estimate_stddev = {1.5, 2.0, 0.5, 3.0};
  advice->ranked = {{"FCFS-BF", 0.61, 0.7, 0.18}, {"Libra", 0.58, 0.6, 0.04}};
  advice->digest = "0123456789abcdef";
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
  EXPECT_DOUBLE_EQ(parsed.advice->ranked[0].score, 0.61);
  EXPECT_DOUBLE_EQ(parsed.advice->ranked[1].volatility, 0.04);
  EXPECT_EQ(parsed.advice->digest, "0123456789abcdef");
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

}  // namespace
}  // namespace utilrisk::serve
