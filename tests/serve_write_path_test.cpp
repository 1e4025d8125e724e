// Tests for the serving write path: the bytes every response carries, the
// order in which completions leave relative to the journal's fsync, and
// the transport contracts of the per-tick flush — a stdio client hears
// each reply before it sends again, pipelined socket clients get every
// reply in decision order, a reading peer is flushed rather than killed
// when one tick answers many of its requests, and a peer that stops
// reading is still cut loose by the outbox cap and by the write stall.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <streambuf>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "serve/engine.hpp"
#include "serve/journal.hpp"
#include "serve/loadgen.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/shard.hpp"
#include "verify/digest.hpp"

namespace utilrisk::serve {
namespace {

using namespace std::chrono_literals;

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

Request make_advise(std::uint64_t id) {
  Request request;
  request.id = id;
  request.kind = RequestKind::Advise;
  return request;
}

[[nodiscard]] std::string fresh_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

[[nodiscard]] std::vector<Request> stream_of(const std::string& workload,
                                             std::size_t requests) {
  LoadgenConfig load;
  load.requests = requests;
  load.seed = 42;
  load.workload = workload;
  return make_request_stream(load);
}

// ------------------------------------------------------ response bytes pin

/// FNV digest over every encoded response line, in decision order, of a
/// seeded 2,000-request stream driven straight through one engine. Unlike
/// decision_hash it covers `risk` and `t`.
[[nodiscard]] std::string response_bytes_digest(const std::string& workload) {
  const std::vector<Request> stream = stream_of(workload, 2000);
  AdmissionEngine engine(EngineConfig{});
  engine.start();
  verify::DigestStream digest;
  std::size_t answered = 0;
  for (const Request& request : stream) {
    while (!engine.submit(request, [&](const Response& response) {
      digest.put_string(encode_response(response));
      ++answered;
    })) {
      std::this_thread::yield();
    }
  }
  (void)engine.drain();
  EXPECT_EQ(answered, stream.size());
  return verify::to_hex(digest.value());
}

TEST(AdmissionEngineTest, ResponseBytesArePinned) {
  EXPECT_EQ(response_bytes_digest(""), "f792e4b76ba0698c");
  EXPECT_EQ(response_bytes_digest("zipf:tenants=64,theta=0.9"),
            "934a0fe0712fb7cb");
}

// ------------------------------------------------- completions vs. fsync

/// One journal record: its type, the request id of a req record, and
/// the byte offset where the record ends, counted across the session's
/// segments in append order (JournalWriter::synced_bytes counts alike).
struct JournalRecord {
  std::string type;
  std::uint64_t request_id = 0;
  std::uint64_t end = 0;
};

[[nodiscard]] std::vector<JournalRecord> read_records(const std::string& dir) {
  std::vector<std::filesystem::path> segments;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("journal-") && name.ends_with(".ndjson")) {
      segments.push_back(entry.path());
    }
  }
  std::sort(segments.begin(), segments.end());
  std::vector<JournalRecord> records;
  std::uint64_t offset = 0;
  for (const auto& path : segments) {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      offset += line.size() + 1;
      const obs::json::Value doc = obs::json::parse(line);
      JournalRecord record;
      record.type = string_field(doc, "type");
      record.end = offset;
      if (record.type == "req") {
        record.request_id =
            integer_field(*doc.find("req"), "id", 0, kMaxJsonInteger);
      }
      records.push_back(std::move(record));
    }
  }
  return records;
}

enum class Backlog { None, PauseFillResume };

/// Drives a journalled engine of `shards` shards and records, at every
/// completion, the synced offset of the shard that decided it. Afterwards
/// each request's tick record — the first tick after its req record —
/// must end at or below that offset: no client learned a decision before
/// the fsync that covers it.
void expect_completions_follow_their_fsync(const std::string& name,
                                           std::size_t shards,
                                           FsyncPolicy fsync,
                                           Backlog backlog) {
  const std::string dir = fresh_dir(name);
  ShardedEngineConfig config;
  config.shards = shards;
  config.engine.journal_dir = dir;
  config.engine.fsync = fsync;
  config.engine.max_batch = 16;
  config.engine.queue_capacity = 2048;
  // A window no backlog outlasts: deferred completions wait until the
  // queue empties, so group commit holds many ticks at once.
  config.engine.group_commit_ms = 60000.0;
  config.engine.journal_segment_records = 500;
  ShardedEngine engine(config);
  engine.start();

  const std::vector<Request> stream =
      stream_of("zipf:tenants=16,theta=0.5", 1200);
  std::mutex mutex;
  std::map<std::uint64_t, std::uint64_t> synced_at;
  if (backlog == Backlog::PauseFillResume) {
    for (std::size_t s = 0; s < shards; ++s) engine.shard(s).pause();
  }
  for (const Request& request : stream) {
    const std::size_t shard = engine.router().shard_for(routing_key(request));
    const auto completion = [&, shard](const Response& response) {
      const std::uint64_t synced = engine.shard(shard).journal_synced_bytes();
      std::lock_guard lock(mutex);
      synced_at[response.id] = synced;
    };
    while (!engine.submit(request, completion)) std::this_thread::yield();
  }
  for (std::size_t s = 0; s < shards; ++s) engine.shard(s).resume();
  (void)engine.drain();
  ASSERT_EQ(synced_at.size(), stream.size());

  std::size_t checked = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    char sub[32];
    std::snprintf(sub, sizeof(sub), "shard-%04zu", s);
    const std::vector<JournalRecord> records =
        read_records((std::filesystem::path(dir) / sub).string());
    std::uint64_t covering_tick_end = 0;
    // Walk backwards so each req record meets its covering tick first.
    for (auto it = records.rbegin(); it != records.rend(); ++it) {
      if (it->type == "tick") covering_tick_end = it->end;
      if (it->type != "req") continue;
      ASSERT_GT(covering_tick_end, 0u) << "req " << it->request_id;
      EXPECT_GE(synced_at.at(it->request_id), covering_tick_end)
          << "shard " << s << " released request " << it->request_id
          << " before the fsync covering its tick record";
      ++checked;
    }
    const JournalStats stats = engine.shard(s).journal_stats();
    if (fsync == FsyncPolicy::Batch && backlog == Backlog::PauseFillResume) {
      EXPECT_LT(stats.fsyncs, stats.ticks) << "group commit must engage";
    }
  }
  EXPECT_EQ(checked, stream.size());
}

TEST(AdmissionEngineDurabilityTest, BatchWithBacklogReleasesOnlySyncedTicks) {
  expect_completions_follow_their_fsync("durable_batch_backlog_1", 1,
                                        FsyncPolicy::Batch,
                                        Backlog::PauseFillResume);
}

TEST(AdmissionEngineDurabilityTest, BatchReleasesOnlySyncedTicks) {
  expect_completions_follow_their_fsync("durable_batch_1", 1,
                                        FsyncPolicy::Batch, Backlog::None);
}

TEST(AdmissionEngineDurabilityTest, AlwaysReleasesOnlySyncedTicks) {
  expect_completions_follow_their_fsync("durable_always_1", 1,
                                        FsyncPolicy::Always, Backlog::None);
}

TEST(ShardedEngineDurabilityTest, BatchWithBacklogReleasesOnlySyncedTicks) {
  expect_completions_follow_their_fsync("durable_batch_backlog_2", 2,
                                        FsyncPolicy::Batch,
                                        Backlog::PauseFillResume);
}

TEST(ShardedEngineDurabilityTest, AlwaysReleasesOnlySyncedTicks) {
  expect_completions_follow_their_fsync("durable_always_2", 2,
                                        FsyncPolicy::Always,
                                        Backlog::PauseFillResume);
}

TEST(AdmissionEngineTest, GroupCommitReleasesWhenATickDecidesNothing) {
  // Two ticks of submits deferred behind backlog, then a tick of advise
  // queries only that empties the queue: that tick must sync and release
  // the submits, since no later tick may ever come.
  EngineConfig config;
  config.journal_dir = fresh_dir("group_commit_advise_tail");
  config.fsync = FsyncPolicy::Batch;
  config.max_batch = 8;
  config.group_commit_ms = 60000.0;
  AdmissionEngine engine(config);
  engine.start();
  engine.pause();
  std::atomic<int> submits{0};
  for (std::uint64_t id = 1; id <= 16; ++id) {
    ASSERT_TRUE(engine.submit(make_request(id, 10.0 * id),
                              [&](const Response&) { ++submits; }));
  }
  for (std::uint64_t id = 17; id <= 24; ++id) {
    ASSERT_TRUE(engine.submit(make_advise(id), [](const Response&) {}));
  }
  engine.resume();
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (submits.load() < 16 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(submits.load(), 16)
      << "completions held for a tick that never came";
  (void)engine.drain();
}

// ------------------------------------------------------------- stdio

/// A one-way in-process pipe. Reads block until bytes arrive or the
/// writer closes it.
class Pipe {
 public:
  void write(std::string_view bytes) {
    std::lock_guard lock(mutex_);
    data_.append(bytes);
    ready_.notify_all();
  }

  void close() {
    std::lock_guard lock(mutex_);
    closed_ = true;
    ready_.notify_all();
  }

  /// Blocks for at least one byte; empty once the pipe is closed and dry.
  std::string read_some() {
    std::unique_lock lock(mutex_);
    ready_.wait(lock, [this] { return closed_ || !data_.empty(); });
    return std::exchange(data_, {});
  }

  /// The next whole line (without its newline), or nullopt when none
  /// arrives within `timeout` — the watchdog of the closed-loop test.
  std::optional<std::string> read_line(std::chrono::milliseconds timeout) {
    std::unique_lock lock(mutex_);
    if (!ready_.wait_for(lock, timeout, [this] {
          return data_.find('\n') != std::string::npos;
        })) {
      return std::nullopt;
    }
    const std::size_t nl = data_.find('\n');
    std::string line = data_.substr(0, nl);
    data_.erase(0, nl + 1);
    return line;
  }

 private:
  std::mutex mutex_;
  std::condition_variable ready_;
  std::string data_;
  bool closed_ = false;
};

/// The server's stdin: reads block on the pipe like a read(2) on a tty.
class PipeReadBuf : public std::streambuf {
 public:
  explicit PipeReadBuf(Pipe& pipe) : pipe_(pipe) {}

 protected:
  int_type underflow() override {
    chunk_ = pipe_.read_some();
    if (chunk_.empty()) return traits_type::eof();
    setg(chunk_.data(), chunk_.data(), chunk_.data() + chunk_.size());
    return traits_type::to_int_type(chunk_.front());
  }

 private:
  Pipe& pipe_;
  std::string chunk_;
};

/// The server's stdout when piped: buffered, so bytes reach the reader
/// only when the stream is flushed or its buffer fills.
class PipeWriteBuf : public std::streambuf {
 public:
  explicit PipeWriteBuf(Pipe& pipe) : pipe_(pipe) {
    setp(buffer_.data(), buffer_.data() + buffer_.size());
  }

 protected:
  int_type overflow(int_type ch) override {
    publish();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }

  int sync() override {
    publish();
    return 0;
  }

 private:
  void publish() {
    pipe_.write(std::string_view(pbase(), static_cast<std::size_t>(
                                              pptr() - pbase())));
    setp(buffer_.data(), buffer_.data() + buffer_.size());
  }

  Pipe& pipe_;
  std::array<char, 4096> buffer_{};
};

TEST(StdioServerTest, ClosedLoopClientGetsEachReplyBeforeItsNextRequest) {
  AdmissionEngine engine(EngineConfig{});
  engine.start();
  Server server(ServerConfig{}, engine);
  Pipe to_server;
  Pipe from_server;
  PipeReadBuf in_buffer(to_server);
  PipeWriteBuf out_buffer(from_server);
  std::istream in(&in_buffer);
  std::ostream out(&out_buffer);
  std::thread serving([&] { (void)server.run_stdio(in, out); });

  // Request k+1 goes out only once response k came back: decisions
  // (completions) and a malformed line (an inline reply) alike.
  for (std::uint64_t k = 1; k <= 6; ++k) {
    const bool malformed = k == 4;
    to_server.write(malformed ? std::string("not json\n")
                              : encode_request(make_request(k, 10.0 * k)) +
                                    "\n");
    const std::optional<std::string> line = from_server.read_line(5000ms);
    if (!line.has_value()) {
      ADD_FAILURE() << "no reply to line " << k << " before the next request";
      break;
    }
    const Response response = parse_response(*line);
    if (malformed) {
      EXPECT_EQ(response.status, Status::Error);
    } else {
      EXPECT_EQ(response.id, k);
      EXPECT_EQ(response.status, Status::Accepted);
    }
  }
  to_server.close();
  serving.join();
}

// ------------------------------------------------------------ sockets

[[nodiscard]] int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

[[nodiscard]] bool send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// One client connection that keeps up to `window` requests in flight and
/// returns every reply line in arrival order (short when the server goes
/// silent for 10 s or closes the connection).
[[nodiscard]] std::vector<std::string> pipelined_session(
    const std::string& path, const std::vector<Request>& requests,
    std::size_t window) {
  std::vector<std::string> replies;
  const int fd = connect_unix(path);
  if (fd < 0) return replies;
  std::size_t sent = 0;
  std::string pending;
  char chunk[8192];
  while (replies.size() < requests.size()) {
    std::string batch;
    while (sent < requests.size() && sent - replies.size() < window) {
      batch += encode_request(requests[sent++]);
      batch.push_back('\n');
    }
    if (!batch.empty() && !send_all(fd, batch)) break;
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 10000) <= 0) break;
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    pending.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = pending.find('\n'); nl != std::string::npos;
         nl = pending.find('\n', start)) {
      replies.push_back(pending.substr(start, nl - start));
      start = nl + 1;
    }
    pending.erase(0, start);
  }
  ::close(fd);
  return replies;
}

TEST(SocketServerTest, TwoShardsTwoPipelinedConnectionsGetDirectDriveBytes) {
  const std::vector<Request> stream =
      stream_of("zipf:tenants=64,theta=0.9", 3000);
  ShardedEngineConfig config;
  config.shards = 2;

  // The oracle: the same stream driven straight into the engines.
  std::map<std::uint64_t, std::string> expected;
  std::string expected_digest;
  {
    ShardedEngine direct(config);
    direct.start();
    std::mutex mutex;
    for (const Request& request : stream) {
      while (!direct.submit(request, [&](const Response& response) {
        std::lock_guard lock(mutex);
        expected[response.id] = encode_response(response);
      })) {
        std::this_thread::yield();
      }
    }
    expected_digest = direct.drain().decision_digest;
  }
  ASSERT_EQ(expected.size(), stream.size());

  // Two connections carrying disjoint tenants, so every tenant's requests
  // keep their order and decide exactly as in the direct drive.
  std::array<std::vector<Request>, 2> halves;
  for (const Request& request : stream) {
    halves[request.tenant % 2].push_back(request);
  }
  ShardedEngine engine(config);
  engine.start();
  ServerConfig server_config;
  server_config.unix_path = fresh_dir("pipelined_two_shards") + ".sock";
  Server server(server_config, engine);
  server.start();
  std::array<std::vector<std::string>, 2> replies;
  {
    std::thread first([&] {
      replies[0] = pipelined_session(server_config.unix_path, halves[0], 256);
    });
    std::thread second([&] {
      replies[1] = pipelined_session(server_config.unix_path, halves[1], 256);
    });
    first.join();
    second.join();
  }
  const EngineStats stats = server.stop_and_drain();
  EXPECT_EQ(stats.decision_digest, expected_digest);
  EXPECT_EQ(server.stats().stalled, 0u);

  for (std::size_t c = 0; c < 2; ++c) {
    ASSERT_EQ(replies[c].size(), halves[c].size()) << "connection " << c;
    // Decision order: each shard answers a connection in the order that
    // connection sent it requests.
    std::array<std::vector<std::uint64_t>, 2> sent_by_shard;
    std::array<std::vector<std::uint64_t>, 2> answered_by_shard;
    for (const Request& request : halves[c]) {
      sent_by_shard[engine.router().shard_for(routing_key(request))]
          .push_back(request.id);
    }
    for (const std::string& line : replies[c]) {
      const Response response = parse_response(line);
      EXPECT_EQ(line, expected.at(response.id)) << "connection " << c;
      ASSERT_GE(response.shard, 0);
      answered_by_shard[static_cast<std::size_t>(response.shard)].push_back(
          response.id);
    }
    EXPECT_EQ(answered_by_shard, sent_by_shard) << "connection " << c;
  }
}

TEST(SocketServerTest, ReadingPeerOverTheCapWithinOneTickIsFlushedNotKilled) {
  // A group commit holds the whole backlog, then releases it at once:
  // far more than the 1 KiB cap lands in one outbox in one tick. The
  // peer is reading, so each append over the cap flushes instead.
  EngineConfig engine_config;
  engine_config.queue_capacity = 1024;
  engine_config.journal_dir = fresh_dir("cap_within_one_tick");
  engine_config.fsync = FsyncPolicy::Batch;
  engine_config.group_commit_ms = 60000.0;
  AdmissionEngine engine(engine_config);
  engine.start();
  engine.pause();
  ServerConfig server_config;
  server_config.unix_path = fresh_dir("cap_within_one_tick") + ".sock";
  server_config.write_buffer_bytes = 1024;
  server_config.write_stall_ms = 60000.0;
  Server server(server_config, engine);
  server.start();

  const std::vector<Request> stream = stream_of("", 512);
  std::thread resumer([&engine, &stream] {
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (engine.queue_depth() < stream.size() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
    engine.resume();
  });
  const std::vector<std::string> replies =
      pipelined_session(server_config.unix_path, stream, stream.size());
  resumer.join();
  EXPECT_EQ(replies.size(), stream.size());
  EXPECT_EQ(server.stats().stalled, 0u) << "a reading peer was killed";
  const EngineStats stats = server.stop_and_drain();
  EXPECT_EQ(stats.processed, stream.size());
}

/// Opens a connection that submits thousands of requests and never reads
/// a reply, and waits (bounded) for the server to cut it loose. Returns
/// whether it did; the server must still serve a reading client after.
[[nodiscard]] bool non_reading_peer_is_killed(const std::string& name,
                                              std::size_t cap,
                                              double stall_ms) {
  AdmissionEngine engine(EngineConfig{});
  engine.start();
  ServerConfig server_config;
  server_config.unix_path = fresh_dir(name) + ".sock";
  server_config.write_buffer_bytes = cap;
  server_config.write_stall_ms = stall_ms;
  Server server(server_config, engine);
  server.start();
  const int fd = connect_unix(server_config.unix_path);
  EXPECT_GE(fd, 0);
  for (std::uint64_t id = 1; fd >= 0 && id <= 20000; ++id) {
    std::string line = encode_request(make_request(id, 0.0));
    line.push_back('\n');
    if (!send_all(fd, line)) break;  // already cut off
  }
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (server.stats().stalled == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(20ms);
  }
  if (fd >= 0) ::close(fd);
  const bool killed = server.stats().stalled >= 1;

  LoadgenConfig load;
  load.unix_path = server_config.unix_path;
  load.requests = 100;
  const LoadgenReport report = run_loadgen(load);
  EXPECT_EQ(report.responses, 100u);
  EXPECT_EQ(report.dropped, 0u);
  (void)server.stop_and_drain();
  return killed;
}

TEST(SocketServerTest, NonReadingPeerIsKilledByTheCap) {
  // The stall timeout is out of reach: only the cap can cut the peer.
  EXPECT_TRUE(non_reading_peer_is_killed("killed_by_cap", 2048, 600000.0));
}

TEST(SocketServerTest, NonReadingPeerIsKilledByTheWriteStall) {
  // The cap is out of reach: only the stall timeout can cut the peer.
  EXPECT_TRUE(
      non_reading_peer_is_killed("killed_by_stall", 64 << 20, 200.0));
}

}  // namespace
}  // namespace utilrisk::serve
