#include "serve/server.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace utilrisk::serve {

namespace {

/// Poll granularity of the accept/read loops: the latency bound on
/// noticing a stop request.
constexpr int kPollMillis = 100;

[[nodiscard]] std::string errno_message(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

struct Server::Connection {
  /// Write-side state after a flush attempt.
  enum class WriteState {
    Idle,     ///< outbox empty — nothing buffered
    Pending,  ///< bytes buffered, peer socket full, still making progress
    Stalled,  ///< bytes buffered and no progress for stall_ms — wedged peer
  };

  int fd = -1;  ///< the socket; -1 in stdio mode
  std::ostream* stream = nullptr;  ///< where stdio mode writes instead
  std::size_t outbox_cap = 256 * 1024;
  double stall_ms = 5000.0;
  /// Server-wide slow-client kill counter (overflow kills happen on the
  /// engine thread, which has no other path to the server's stats).
  std::atomic<std::uint64_t>* stalled_counter = nullptr;
  std::mutex write_mutex;
  std::atomic<bool> open{true};
  /// Response bytes the peer has not taken (guarded by write_mutex).
  /// Writes are non-blocking: replies are encoded straight in here and
  /// flushed with one send(), and what the socket will not take waits for
  /// the connection's reader task to drain it via POLLOUT. Bounded — a
  /// peer that stops reading overflows the cap and is disconnected
  /// instead of wedging the engine thread inside send().
  std::string outbox;
  /// Last instant a flush moved bytes (guarded by write_mutex); the
  /// stall clock for the slow-loris timeout.
  std::chrono::steady_clock::time_point last_progress;
  /// On the server's flush list (guarded by write_mutex).
  bool flush_queued = false;

  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  /// Force-disconnect: wakes the peer (and our reader's poll) with a
  /// FIN/RST instead of leaving a half-dead socket lingering until
  /// server shutdown. Safe from any thread; the fd itself stays valid
  /// until the Connection is destroyed.
  void kill() {
    open.store(false, std::memory_order_relaxed);
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }

  /// Encodes one reply line into the outbox without writing it (caller
  /// holds write_mutex). An append that takes the outbox past the cap
  /// flushes first; only a peer still over the cap is killed. Returns
  /// false when the connection is (or just became) dead.
  bool append_locked(const Response& response) {
    if (!open.load(std::memory_order_relaxed)) return false;
    if (outbox.empty()) last_progress = std::chrono::steady_clock::now();
    encode_response_to(outbox, response);
    outbox.push_back('\n');
    if (outbox.size() > outbox_cap) {
      flush_locked();
      if (open.load(std::memory_order_relaxed) &&
          outbox.size() > outbox_cap) {
        kill();
        if (stalled_counter != nullptr) {
          stalled_counter->fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    return open.load(std::memory_order_relaxed);
  }

  /// Flushes buffered bytes and reports the write-side state; called by
  /// the reader task each poll tick. The caller kills Stalled peers.
  WriteState service_writes() {
    std::lock_guard lock(write_mutex);
    if (!open.load(std::memory_order_relaxed)) return WriteState::Idle;
    flush_locked();
    if (outbox.empty()) return WriteState::Idle;
    const double stalled_for =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - last_progress)
            .count();
    return stalled_for > stall_ms ? WriteState::Stalled : WriteState::Pending;
  }

  /// Writes what the peer will take right now (caller holds write_mutex):
  /// a non-blocking partial-send loop on a socket, where a vanished peer
  /// closes the connection instead of raising SIGPIPE; a write and flush
  /// of the whole outbox in stdio mode.
  void flush_locked() {
    if (!open.load(std::memory_order_relaxed)) return;
    if (stream != nullptr) {
      stream->write(outbox.data(),
                    static_cast<std::streamsize>(outbox.size()));
      stream->flush();
      outbox.clear();
      if (!*stream) open.store(false, std::memory_order_relaxed);
      return;
    }
    while (!outbox.empty()) {
      const ssize_t n = ::send(fd, outbox.data(), outbox.size(),
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        outbox.erase(0, static_cast<std::size_t>(n));
        last_progress = std::chrono::steady_clock::now();
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      open.store(false, std::memory_order_relaxed);
      return;
    }
  }
};

Server::Server(const ServerConfig& config, EngineApi& engine)
    : config_(config), engine_(engine), io_pool_(config.io_threads) {
  engine_.set_release_listener(this);
}

Server::~Server() {
  stop_and_drain();
  engine_.set_release_listener(nullptr);
}

void Server::start() {
  if (!config_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.unix_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("unix socket path too long: " +
                               config_.unix_path);
    }
    std::strncpy(addr.sun_path, config_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(config_.unix_path.c_str());  // stale socket from a crash
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw std::runtime_error(errno_message("socket"));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      throw std::runtime_error(
          errno_message(("bind " + config_.unix_path).c_str()));
    }
  } else if (config_.tcp_port >= 0) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw std::runtime_error(errno_message("socket"));
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(config_.tcp_port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      throw std::runtime_error(errno_message("bind"));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) == 0) {
      bound_port_ = ntohs(bound.sin_port);
    }
  } else {
    throw std::runtime_error(
        "Server: configure a unix socket path or a TCP port");
  }
  if (::listen(listen_fd_, 64) != 0) {
    throw std::runtime_error(errno_message("listen"));
  }
  acceptor_ = std::thread([this] { acceptor_loop(); });
}

void Server::request_stop() { stop_requested_.store(true); }

void Server::acceptor_loop() {
  pollfd pfd{listen_fd_, POLLIN, 0};
  while (!stop_requested_.load()) {
    const int ready = ::poll(&pfd, 1, kPollMillis);
    if (ready <= 0) continue;  // timeout or EINTR: re-check the stop flag
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    auto connection = std::make_shared<Connection>();
    connection->fd = fd;
    connection->outbox_cap = config_.write_buffer_bytes;
    connection->stall_ms = config_.write_stall_ms;
    connection->stalled_counter = &stalled_;
    {
      std::lock_guard lock(connections_mutex_);
      connections_.push_back(connection);
    }
    connections_total_.fetch_add(1, std::memory_order_relaxed);
    // ThreadPool tasks must not throw; the reader reports protocol
    // problems to the peer, anything else just ends the connection.
    io_pool_.submit([this, connection] {
      try {
        reader_loop(connection);
      } catch (...) {
        connection->open.store(false, std::memory_order_relaxed);
      }
    });
  }
}

void Server::reader_loop(const std::shared_ptr<Connection>& connection) {
  std::string buffer;
  bool discarding = false;  // inside an over-long line, until its newline
  char chunk[4096];
  pollfd pfd{connection->fd, POLLIN, 0};
  for (;;) {
    if (stop_requested_.load()) return;
    // Drain buffered responses first; a peer that buffers past the stall
    // timeout without accepting a byte is wedged — cut it loose so its
    // responses stop accumulating (slow-loris defense).
    const Connection::WriteState writes = connection->service_writes();
    if (writes == Connection::WriteState::Stalled) {
      stalled_.fetch_add(1, std::memory_order_relaxed);
      connection->kill();
      return;
    }
    if (!connection->open.load(std::memory_order_relaxed)) return;
    pfd.events = static_cast<short>(
        POLLIN |
        (writes == Connection::WriteState::Pending ? POLLOUT : 0));
    const int ready = ::poll(&pfd, 1, kPollMillis);
    if (ready < 0 && errno != EINTR) return;
    if (ready <= 0) continue;
    if ((pfd.revents & (POLLERR | POLLNVAL)) != 0) return;
    // Writable-only wakeup: loop back to service_writes(). POLLHUP falls
    // through to read(), which reports the EOF/RST properly.
    if ((pfd.revents & (POLLIN | POLLHUP)) == 0) continue;
    const ssize_t n = ::read(connection->fd, chunk, sizeof(chunk));
    if (n == 0) break;  // EOF: peer is done submitting
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    const std::string_view lines(buffer);
    std::size_t start = 0;
    for (std::size_t nl = lines.find('\n', start); nl != std::string::npos;
         nl = lines.find('\n', start)) {
      const std::string_view line = lines.substr(start, nl - start);
      start = nl + 1;
      if (discarding) {
        discarding = false;  // the tail of the oversized line
        continue;
      }
      if (!line.empty()) handle_line(*connection, line);
    }
    buffer.erase(0, start);
    // A line still has no newline: cap its growth. handle_line answers it
    // as oversized; the rest of it is discarded up to its newline.
    if (!discarding && buffer.size() > kMaxRequestBytes) {
      handle_line(*connection, buffer);
      buffer.clear();
      discarding = true;
    }
  }
  if (!discarding && !buffer.empty()) {
    handle_line(*connection, buffer);  // unterminated last line
  }
  // Half-close linger: the peer stopped submitting but responses already
  // queued in the outbox must still reach it. Drain under the same stall
  // timeout; responses that complete after this task exits go out with
  // their tick's flush.
  for (;;) {
    if (stop_requested_.load()) return;
    const Connection::WriteState writes = connection->service_writes();
    if (writes == Connection::WriteState::Idle) return;
    if (writes == Connection::WriteState::Stalled) {
      stalled_.fetch_add(1, std::memory_order_relaxed);
      connection->kill();
      return;
    }
    pollfd wp{connection->fd, POLLOUT, 0};
    (void)::poll(&wp, 1, kPollMillis);
  }
}

void Server::handle_line(Connection& connection, std::string_view line) {
  lines_.fetch_add(1, std::memory_order_relaxed);
  Response error;
  error.status = Status::Error;
  if (line.size() > kMaxRequestBytes) {
    oversized_.fetch_add(1, std::memory_order_relaxed);
    error.message =
        "request exceeds " + std::to_string(kMaxRequestBytes) + " bytes";
    reply_now(connection, error);
    return;
  }
  Request request;
  try {
    request = parse_request(line);
  } catch (const ProtocolError& e) {
    malformed_.fetch_add(1, std::memory_order_relaxed);
    error.message = e.what();
    reply_now(connection, error);
    return;
  }
  // Two pointers: the closure fits std::function's local buffer, so the
  // per-request completion allocates nothing.
  const bool queued = engine_.submit(
      request, [this, connection = &connection](const Response& response) {
        deliver(*connection, response);
      });
  if (!queued) {
    busy_.fetch_add(1, std::memory_order_relaxed);
    reply_now(connection, engine_.make_busy_response(request));
  }
}

void Server::reply_now(Connection& connection, const Response& response) {
  std::lock_guard lock(connection.write_mutex);
  if (!connection.append_locked(response)) return;
  responses_.fetch_add(1, std::memory_order_relaxed);
  connection.flush_locked();
}

void Server::deliver(Connection& connection, const Response& response) {
  {
    std::lock_guard lock(connection.write_mutex);
    if (!connection.append_locked(response)) return;
    responses_.fetch_add(1, std::memory_order_relaxed);
    if (connection.flush_queued) return;
    connection.flush_queued = true;
  }
  std::lock_guard lock(flush_mutex_);
  to_flush_.push_back(&connection);
}

void Server::completions_released() {
  // Each engine thread swaps the list into its own buffer, so shards
  // flush concurrently and the steady state allocates nothing.
  thread_local std::vector<Connection*> flushing;
  {
    std::lock_guard lock(flush_mutex_);
    flushing.swap(to_flush_);
  }
  for (Connection* connection : flushing) {
    std::lock_guard lock(connection->write_mutex);
    connection->flush_queued = false;
    connection->flush_locked();
  }
  flushing.clear();
}

EngineStats Server::stop_and_drain() {
  std::lock_guard lock(lifecycle_mutex_);
  if (drained_.load()) return engine_.drain();
  stop_requested_.store(true);
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  io_pool_.wait_idle();  // readers exit at the next poll tick
  // Every request that made it into the bounded queue is answered before
  // the connections close: zero dropped responses on shutdown.
  EngineStats stats = engine_.drain();
  {
    std::lock_guard connections_lock(connections_mutex_);
    connections_.clear();  // ~Connection closes the fds
  }
  if (!config_.unix_path.empty()) ::unlink(config_.unix_path.c_str());
  drained_.store(true);
  return stats;
}

ServerStats Server::stats() const {
  ServerStats stats;
  stats.connections = connections_total_.load(std::memory_order_relaxed);
  stats.lines = lines_.load(std::memory_order_relaxed);
  stats.malformed = malformed_.load(std::memory_order_relaxed);
  stats.oversized = oversized_.load(std::memory_order_relaxed);
  stats.busy = busy_.load(std::memory_order_relaxed);
  stats.responses = responses_.load(std::memory_order_relaxed);
  stats.stalled = stalled_.load(std::memory_order_relaxed);
  return stats;
}

ServerStats Server::run_stdio(std::istream& in, std::ostream& out) {
  Connection connection;
  connection.stream = &out;
  connection.outbox_cap = config_.write_buffer_bytes;
  connection.stalled_counter = &stalled_;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) handle_line(connection, line);
  }
  // EOF on stdin is the drain signal in stdio mode; the drain's last
  // release flushes the final replies.
  engine_.drain();
  return stats();
}

}  // namespace utilrisk::serve
