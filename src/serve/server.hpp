// Request-serving front end of `utilrisk serve`.
//
// Accepts newline-delimited-JSON admission requests over a Unix-domain or
// TCP-loopback socket (plus a stdio mode for tests and pipelines) and
// feeds them to the AdmissionEngine's bounded queue:
//
//   acceptor thread --> reader tasks (exp::ThreadPool) --> bounded queue
//        |                    |                                 |
//        |                    +-- parse errors / oversized      engine
//        |                        lines / `busy` backpressure   thread
//        |                        answered and flushed inline   |
//        +-- poll() with a stop flag               completions encode
//                                                 into the connection's
//                                                 outbox; once the tick's
//                                                 completions are out, one
//                                                 send() per connection
//
// Socket and stdin lines go through one handle_line, so the size cap,
// parse errors, `busy` and completions (and their counters) exist once;
// only where a connection's flush writes differs.
//
// Lifecycle: start() binds and launches the acceptor; stop_and_drain()
// stops accepting, lets readers wind down at the next poll tick, drains
// the engine (every queued request still gets its response — zero dropped
// responses on SIGTERM) and only then closes the connections. The CLI
// maps SIGTERM/SIGINT onto stop_and_drain via an atomic flag.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "exp/parallel.hpp"
#include "serve/engine.hpp"

namespace utilrisk::serve {

struct ServerConfig {
  /// Unix-domain socket path (takes precedence when non-empty).
  std::string unix_path;
  /// TCP loopback port; 0 = ephemeral (query bound_port()), -1 = off.
  int tcp_port = -1;
  /// Reader tasks run on an exp::ThreadPool of this size; it also caps
  /// the number of concurrently served connections.
  std::size_t io_threads = 4;
  /// Per-connection cap on response bytes the peer has not taken. A reply
  /// that takes the buffer past it flushes first; a client still over the
  /// cap (not reading its responses) is disconnected — the engine thread
  /// never blocks on a slow client's socket.
  std::size_t write_buffer_bytes = 256 * 1024;
  /// A connection with buffered responses that makes no write progress
  /// for this long is presumed wedged (slow-loris) and disconnected.
  double write_stall_ms = 5000.0;
};

/// Transport-level session counters (the engine owns the decision ones).
struct ServerStats {
  std::uint64_t connections = 0;
  std::uint64_t lines = 0;      ///< request lines read (any fate)
  std::uint64_t malformed = 0;  ///< parse/validation failures
  std::uint64_t oversized = 0;  ///< lines over kMaxRequestBytes
  std::uint64_t busy = 0;       ///< backpressure rejections sent
  std::uint64_t responses = 0;  ///< response lines written
  /// Connections force-closed by the slow-client defense (write buffer
  /// overflow or a write stall past write_stall_ms).
  std::uint64_t stalled = 0;
};

class Server : private ReleaseListener {
 public:
  /// The engine (single AdmissionEngine or a ShardedEngine fan-out —
  /// any EngineApi) must outlive the server and must be start()ed by the
  /// caller (the server never owns the decision lifecycle).
  Server(const ServerConfig& config, EngineApi& engine);
  /// Joins everything; calls stop_and_drain() if the caller did not.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket and launches the acceptor thread. Throws
  /// std::runtime_error on bind/listen failures.
  void start();

  /// Async stop request (safe from any thread; the signal path sets an
  /// atomic the CLI turns into this call).
  void request_stop();

  /// Graceful shutdown: stop accepting, wind readers down, drain the
  /// engine so every queued request is answered, then close connections.
  /// Returns the engine's session stats. Idempotent.
  EngineStats stop_and_drain();

  [[nodiscard]] ServerStats stats() const;

  /// Actual TCP port after start() (ephemeral binds resolve here).
  [[nodiscard]] int bound_port() const { return bound_port_; }

  /// Stdio mode, instead of start(): feeds each line of `in` to the
  /// socket path's handle_line until EOF, writes responses to `out` —
  /// flushed as a socket's are sent — then drains the engine. Returns the
  /// transport stats of the session.
  ServerStats run_stdio(std::istream& in, std::ostream& out);

 private:
  struct Connection;

  void acceptor_loop();
  void reader_loop(const std::shared_ptr<Connection>& connection);
  /// Parses/validates one line and routes it (engine, busy, or error).
  /// Completions hold the connection by address: connections_ keeps it
  /// alive until the engine has drained.
  void handle_line(Connection& connection, std::string_view line);
  /// An inline reply from the reading thread: buffered and flushed now.
  void reply_now(Connection& connection, const Response& response);
  /// A completion's reply, on an engine thread: buffered, and the
  /// connection queued for completions_released() to flush.
  void deliver(Connection& connection, const Response& response);
  /// Flushes every queued connection, one write each.
  void completions_released() override;

  ServerConfig config_;
  EngineApi& engine_;
  exp::ThreadPool io_pool_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> drained_{false};
  std::mutex lifecycle_mutex_;  ///< serialises stop_and_drain callers
  int listen_fd_ = -1;
  int bound_port_ = -1;
  std::thread acceptor_;

  mutable std::mutex connections_mutex_;
  std::vector<std::shared_ptr<Connection>> connections_;

  /// Connections holding replies that completions buffered and no flush
  /// has written yet.
  std::mutex flush_mutex_;
  std::vector<Connection*> to_flush_;

  // Transport counters; relaxed atomics (stats() reads are diagnostics).
  std::atomic<std::uint64_t> connections_total_{0};
  std::atomic<std::uint64_t> lines_{0};
  std::atomic<std::uint64_t> malformed_{0};
  std::atomic<std::uint64_t> oversized_{0};
  std::atomic<std::uint64_t> busy_{0};
  std::atomic<std::uint64_t> responses_{0};
  std::atomic<std::uint64_t> stalled_{0};
};

}  // namespace utilrisk::serve
