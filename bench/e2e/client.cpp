#include "client.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "serve/shard.hpp"

namespace utilrisk::e2e {

namespace {

/// Outstanding requests are given up on after this long without progress.
constexpr std::int64_t kIdleTimeoutNs = 10'000'000'000;

/// Per-request bookkeeping, indexed by slot: submits take slots 0..n-1
/// (wire id = slot + 1), advise queries the slots after them.
struct Slot {
  std::int64_t due_ns = 0;
  std::int64_t encode_start_ns = 0;
  std::int64_t encode_end_ns = 0;
  std::int64_t send_start_ns = 0;
  std::int64_t send_end_ns = 0;
  std::uint32_t connection = 0;
  bool advise = false;
  bool answered = false;
};

struct Connection {
  int fd = -1;
  bool open = true;
  std::string out;  ///< encoded, not yet written
  /// (slot, end offset in `out`) of requests whose bytes are in `out`.
  std::vector<std::pair<std::uint32_t, std::size_t>> unsent;
  std::string in;
  std::size_t in_offset = 0;
  std::vector<std::uint32_t> assigned;  ///< this connection's submit slots
  std::size_t next = 0;                 ///< window mode: next of `assigned`
  std::size_t outstanding = 0;
};

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error("socket: " + std::string(strerror(errno)));
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string why = strerror(errno);
    ::close(fd);
    throw std::runtime_error("connect " + path + ": " + why);
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

class Session {
 public:
  Session(const ClientConfig& config, std::span<const serve::Request> stream,
          Tracer& tracer)
      : config_(config), stream_(stream), tracer_(tracer) {
    const std::size_t n = stream.size();
    base_id_ = n == 0 ? 1 : stream.front().id;
    for (std::size_t i = 0; i < n; ++i) {
      if (stream[i].id != base_id_ + i) {
        throw std::invalid_argument("client stream ids must be consecutive");
      }
    }
    const std::size_t queries =
        config.advise_every == 0 ? 0 : n / config.advise_every;
    slots_.resize(n + queries);
    const std::size_t fanout = std::max<std::size_t>(1, config.connections);
    const serve::ShardRouter router(fanout);
    connections_.resize(fanout);
    try {
      for (Connection& connection : connections_) {
        connection.fd = connect_unix(config.unix_path);
      }
    } catch (...) {
      close_all();
      throw;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto c = static_cast<std::uint32_t>(
          router.shard_for(serve::routing_key(stream[i])));
      slots_[i].connection = c;
      connections_[c].assigned.push_back(static_cast<std::uint32_t>(i));
    }
    result_.latency_ms.reserve(n);
    if (config.window == 0) result_.lateness_ms.reserve(n);
    tracer_.reserve(5 * n);
  }

  ~Session() { close_all(); }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  ClientResult run() {
    // ppoll's timeout is honoured to within the thread's timer slack;
    // the default 50 us would show up as lateness.
    ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    const auto wall_start = Clock::now();
    start_ns_ = now_ns() + 1'000'000;  // first request due in 1 ms
    last_progress_ns_ = start_ns_;
    if (config_.window == 0) {
      open_loop();
    } else {
      window_loop();
    }
    finish();
    result_.wall_seconds = seconds_since(wall_start);
    return std::move(result_);
  }

 private:
  void close_all() {
    for (Connection& connection : connections_) {
      if (connection.fd >= 0) ::close(connection.fd);
      connection.fd = -1;
    }
  }

  [[nodiscard]] std::int64_t due_ns(std::size_t i) const {
    return start_ns_ + static_cast<std::int64_t>(static_cast<double>(i) /
                                                 config_.rate * 1e9);
  }

  void open_loop() {
    const std::size_t n = stream_.size();
    std::size_t next = 0;
    for (;;) {
      const std::int64_t now = now_ns();
      while (next < n && due_ns(next) <= now) {
        issue(next, due_ns(next));
        ++next;
      }
      flush_all();
      if (next == n && (answered_ == slots_.size() || idle_expired())) return;
      const std::int64_t wait_ns =
          next < n ? std::max<std::int64_t>(0, due_ns(next) - now_ns())
                   : 100'000'000;
      poll_and_read(wait_ns);
    }
  }

  void window_loop() {
    for (;;) {
      const std::int64_t now = now_ns();
      for (Connection& connection : connections_) {
        while (connection.open && connection.outstanding < config_.window &&
               connection.next < connection.assigned.size()) {
          issue(connection.assigned[connection.next++], now);
        }
      }
      flush_all();
      if (answered_ == slots_.size() || idle_expired()) return;
      bool sending = false;
      for (const Connection& connection : connections_) {
        sending |= connection.open &&
                   connection.next < connection.assigned.size();
      }
      if (!sending && answered_ + lost_slots() >= slots_.size()) return;
      poll_and_read(100'000'000);
    }
  }

  [[nodiscard]] bool idle_expired() const {
    return now_ns() - last_progress_ns_ > kIdleTimeoutNs;
  }

  /// Slots that can never be answered because their connection closed.
  [[nodiscard]] std::size_t lost_slots() const {
    std::size_t lost = 0;
    for (const Connection& connection : connections_) {
      if (!connection.open) lost += connection.outstanding;
    }
    return lost;
  }

  /// Encodes submit `i` (and, on its cadence, an advise query after it)
  /// into its connection's output buffer.
  void issue(std::size_t i, std::int64_t due) {
    const std::int64_t start = now_ns();
    Slot& slot = slots_[i];
    slot.due_ns = due;
    Connection& connection = connections_[slot.connection];
    if (!connection.open) return;
    if (config_.window == 0) {
      result_.lateness_ms.add(static_cast<double>(start - due) * 1e-6);
    }
    slot.encode_start_ns = start;
    serve::encode_request_to(connection.out, stream_[i]);
    connection.out.push_back('\n');
    slot.encode_end_ns = now_ns();
    connection.unsent.emplace_back(static_cast<std::uint32_t>(i),
                                   connection.out.size());
    ++connection.outstanding;
    ++result_.sent;
    if (config_.advise_every != 0 && (i + 1) % config_.advise_every == 0) {
      const std::size_t q = stream_.size() + (i + 1) / config_.advise_every - 1;
      Slot& query = slots_[q];
      query.advise = true;
      query.connection = slot.connection;
      query.due_ns = due;
      serve::Request request;
      request.kind = serve::RequestKind::Advise;
      request.id = base_id_ + q;
      request.tenant = stream_[i].tenant;
      request.scenario = stream_[i].scenario;
      query.encode_start_ns = now_ns();
      serve::encode_request_to(connection.out, request);
      connection.out.push_back('\n');
      query.encode_end_ns = now_ns();
      connection.unsent.emplace_back(static_cast<std::uint32_t>(q),
                                     connection.out.size());
      ++connection.outstanding;
      ++result_.advise_sent;
    }
  }

  void flush_all() {
    for (Connection& connection : connections_) flush(connection);
  }

  void flush(Connection& connection) {
    if (!connection.open || connection.out.empty()) return;
    const std::int64_t start = now_ns();
    std::size_t written = 0;
    while (written < connection.out.size()) {
      const ssize_t n =
          ::send(connection.fd, connection.out.data() + written,
                 connection.out.size() - written, MSG_NOSIGNAL);
      if (n > 0) {
        written += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      connection.open = false;
      return;
    }
    const std::int64_t end = now_ns();
    std::size_t done = 0;
    for (; done < connection.unsent.size() &&
           connection.unsent[done].second <= written;
         ++done) {
      Slot& slot = slots_[connection.unsent[done].first];
      slot.send_start_ns = start;
      slot.send_end_ns = end;
    }
    connection.unsent.erase(connection.unsent.begin(),
                            connection.unsent.begin() +
                                static_cast<std::ptrdiff_t>(done));
    for (auto& entry : connection.unsent) entry.second -= written;
    connection.out.erase(0, written);
  }

  void poll_and_read(std::int64_t wait_ns) {
    std::vector<pollfd>& fds = pollfds_;
    fds.resize(connections_.size());
    for (std::size_t c = 0; c < connections_.size(); ++c) {
      const Connection& connection = connections_[c];
      fds[c].fd = connection.open ? connection.fd : -1;
      fds[c].events = static_cast<short>(
          POLLIN | (connection.out.empty() ? 0 : POLLOUT));
    }
    timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                     static_cast<long>(wait_ns % 1'000'000'000)};
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready <= 0) return;
    for (std::size_t c = 0; c < connections_.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        read_connection(connections_[c]);
      }
    }
  }

  void read_connection(Connection& connection) {
    char chunk[64 * 1024];
    for (;;) {
      const ssize_t n = ::read(connection.fd, chunk, sizeof(chunk));
      if (n > 0) {
        const std::int64_t received = now_ns();
        connection.in.append(chunk, static_cast<std::size_t>(n));
        consume_lines(connection, received);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      connection.open = false;  // EOF or error: nothing more will arrive
      return;
    }
  }

  void consume_lines(Connection& connection, std::int64_t received) {
    for (;;) {
      const std::size_t nl = connection.in.find('\n', connection.in_offset);
      if (nl == std::string::npos) break;
      const std::string_view line(connection.in.data() + connection.in_offset,
                                  nl - connection.in_offset);
      connection.in_offset = nl + 1;
      const std::int64_t parse_start = now_ns();
      serve::Response response;
      try {
        response = serve::parse_response(line);
      } catch (const serve::ProtocolError&) {
        ++result_.errors;
        continue;
      }
      const std::int64_t parse_end = now_ns();
      settle(connection, response, received, parse_start, parse_end);
    }
    if (connection.in_offset > 0) {
      connection.in.erase(0, connection.in_offset);
      connection.in_offset = 0;
    }
  }

  void settle(Connection& connection, const serve::Response& response,
              std::int64_t received, std::int64_t parse_start,
              std::int64_t parse_end) {
    if (response.id < base_id_ || response.id - base_id_ >= slots_.size()) {
      ++result_.errors;  // unattributable error line
      return;
    }
    Slot& slot = slots_[response.id - base_id_];
    if (slot.answered) return;
    slot.answered = true;
    ++answered_;
    --connection.outstanding;
    last_progress_ns_ = parse_end;
    const double latency_ms =
        static_cast<double>(parse_end - slot.due_ns) * 1e-6;
    if (!slot.advise) {
      result_.wait_ms.add(static_cast<double>(received - slot.send_end_ns) *
                          1e-6);
    }
    switch (response.status) {
      case serve::Status::Accepted:
        ++result_.accepted;
        result_.digest.add(serve::decision_hash(response));
        result_.latency_ms.add(latency_ms);
        break;
      case serve::Status::Rejected:
        ++result_.rejected;
        result_.digest.add(serve::decision_hash(response));
        result_.latency_ms.add(latency_ms);
        break;
      case serve::Status::Advice:
        result_.advise_latency_ms.add(latency_ms);
        break;
      case serve::Status::Busy: ++result_.busy; break;
      case serve::Status::Shed: ++result_.shed; break;
      case serve::Status::Error: ++result_.errors; break;
    }
    if (tracer_.enabled()) {
      const std::uint32_t root =
          tracer_.record(slot.advise ? "client.advise" : "client.request",
                         slot.due_ns, parse_end, 0, response.id);
      tracer_.record("client.encode", slot.encode_start_ns,
                     slot.encode_end_ns, root, response.id);
      tracer_.record("client.send", slot.send_start_ns, slot.send_end_ns, root,
                     response.id);
      tracer_.record("client.wait", slot.send_end_ns, received, root,
                     response.id);
      tracer_.record("client.parse", parse_start, parse_end, root,
                     response.id);
    }
  }

  /// Books every request that never got an answer.
  void finish() {
    for (const Slot& slot : slots_) {
      if (slot.answered || slot.due_ns == 0) continue;
      if (slot.advise) {
        ++result_.errors;  // an unanswered query is a failed request too
      } else if (!connections_[slot.connection].open) {
        ++result_.dropped;
      } else {
        ++result_.timed_out;
      }
    }
    // Submits never issued (their connection died first) are dropped.
    for (std::size_t i = 0; i < stream_.size(); ++i) {
      if (slots_[i].due_ns == 0) ++result_.dropped;
    }
  }

  const ClientConfig& config_;
  std::span<const serve::Request> stream_;
  Tracer& tracer_;
  std::uint64_t base_id_ = 1;  ///< wire id of slot 0
  std::vector<Slot> slots_;
  std::vector<Connection> connections_;
  std::vector<pollfd> pollfds_;
  ClientResult result_;
  std::int64_t start_ns_ = 0;
  std::int64_t last_progress_ns_ = 0;
  std::size_t answered_ = 0;
};

}  // namespace

ClientResult run_client(const ClientConfig& config,
                        std::span<const serve::Request> stream,
                        Tracer& tracer) {
  Session session(config, stream, tracer);
  return session.run();
}

}  // namespace utilrisk::e2e
