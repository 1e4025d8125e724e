// Leveled trace logger, one per Simulator.
//
// Per-simulator rather than process-wide: the parallel sweep executor
// runs one simulator per worker on a jthread pool, so a shared mutable
// singleton would be a data race. Each Simulator owns a Logger; entities
// reach it through simulator().logger() — usually via the UTILRISK_ELOG
// sugar — so every run's trace is independently levelled and sinked.
//
// Thread-safety: level/sink reads are relaxed atomics (the Off fast path
// is one load + compare), writes serialise on a mutex, so a Logger shared
// across threads (e.g. the CLI's top-level logger) emits whole lines.
#pragma once

#include <atomic>
#include <iostream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "sim/time.hpp"

namespace utilrisk::sim {

enum class LogLevel : int { Off = 0, Error = 1, Info = 2, Debug = 3 };

[[nodiscard]] constexpr const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::Error: return "error";
    case LogLevel::Info: return "info";
    case LogLevel::Debug: return "debug";
    default: return "off";
  }
}

/// Parses "off" | "error" | "info" | "debug" (the CLI's --log-level);
/// throws std::invalid_argument on anything else.
[[nodiscard]] inline LogLevel parse_log_level(const std::string& name) {
  if (name == "off") return LogLevel::Off;
  if (name == "error") return LogLevel::Error;
  if (name == "info") return LogLevel::Info;
  if (name == "debug") return LogLevel::Debug;
  throw std::invalid_argument("unknown log level '" + name +
                              "' (off|error|info|debug)");
}

class Logger {
 public:
  Logger() = default;
  explicit Logger(LogLevel level, std::ostream* sink = &std::cerr)
      : level_(static_cast<int>(level)), sink_(sink) {}

  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

  void set_level(LogLevel level) {
    level_.store(static_cast<int>(level), std::memory_order_relaxed);
  }
  [[nodiscard]] LogLevel level() const {
    return static_cast<LogLevel>(level_.load(std::memory_order_relaxed));
  }

  /// nullptr silences the logger regardless of level.
  void set_sink(std::ostream* sink) {
    sink_.store(sink, std::memory_order_relaxed);
  }

  [[nodiscard]] bool enabled(LogLevel level) const {
    return static_cast<int>(level) <= level_.load(std::memory_order_relaxed) &&
           sink_.load(std::memory_order_relaxed) != nullptr;
  }

  void write(LogLevel level, SimTime now, std::string_view who,
             std::string_view msg) {
    if (!enabled(level)) return;
    std::ostream* sink = sink_.load(std::memory_order_relaxed);
    // Compose off-lock, emit one atomic-ish line under the lock.
    std::ostringstream line;
    line << '[' << label(level) << "] t=" << now << ' ' << who << ": " << msg
         << '\n';
    std::lock_guard lock(mutex_);
    (*sink) << line.str();
  }

 private:
  static const char* label(LogLevel level) {
    switch (level) {
      case LogLevel::Error: return "ERR";
      case LogLevel::Info: return "INF";
      case LogLevel::Debug: return "DBG";
      default: return "OFF";
    }
  }

  std::atomic<int> level_{static_cast<int>(LogLevel::Off)};
  std::atomic<std::ostream*> sink_{&std::cerr};
  std::mutex mutex_;
};

/// Log to an explicit Logger with lazy message construction: the stream
/// expression only runs when the level is enabled.
#define UTILRISK_LOG_TO(logger, level, now, who, expr)                       \
  do {                                                                       \
    auto& utilrisk_log_ = (logger);                                          \
    if (utilrisk_log_.enabled(level)) {                                      \
      std::ostringstream utilrisk_oss_;                                      \
      utilrisk_oss_ << expr;                                                 \
      utilrisk_log_.write(level, (now), (who), utilrisk_oss_.str());         \
    }                                                                        \
  } while (0)

/// Entity/policy sugar: logs through the owning simulator's logger with
/// the caller's clock and name. Valid inside any class exposing
/// simulator(), now() and name() (sim::Entity subclasses).
#define UTILRISK_ELOG(level, expr)                                           \
  UTILRISK_LOG_TO(this->simulator().logger(), level, this->now(),            \
                  this->name(), expr)

}  // namespace utilrisk::sim
