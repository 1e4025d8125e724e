#include "serve/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "verify/digest.hpp"

namespace utilrisk::serve {

namespace {

constexpr const char* kSegmentPrefix = "journal-";
constexpr const char* kSegmentSuffix = ".ndjson";
/// Opens a request record; the request's wire encoding follows.
constexpr const char* kReqPrefix = "{\"type\":\"req\",\"req\":";
/// Splices the per-line integrity digest onto a record payload.
constexpr const char* kChkKey = ",\"chk\":\"";
/// Cap on buffered record bytes between explicit durability points.
constexpr std::size_t kFlushBytes = 256 * 1024;

[[nodiscard]] std::string errno_message(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

[[nodiscard]] std::string segment_name(std::uint64_t number) {
  char digits[16];
  std::snprintf(digits, sizeof(digits), "%08llu",
                static_cast<unsigned long long>(number));
  return std::string(kSegmentPrefix) + digits + kSegmentSuffix;
}

/// Segment number from a file name, 0 when the name is not a segment.
[[nodiscard]] std::uint64_t parse_segment_name(const std::string& name) {
  const std::size_t prefix = std::strlen(kSegmentPrefix);
  const std::size_t suffix = std::strlen(kSegmentSuffix);
  if (name.size() <= prefix + suffix) return 0;
  if (name.compare(0, prefix, kSegmentPrefix) != 0) return 0;
  if (name.compare(name.size() - suffix, suffix, kSegmentSuffix) != 0) {
    return 0;
  }
  std::uint64_t number = 0;
  for (std::size_t i = prefix; i < name.size() - suffix; ++i) {
    if (name[i] < '0' || name[i] > '9') return 0;
    number = number * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return number;
}

[[nodiscard]] std::uint64_t line_digest(std::string_view payload) {
  verify::DigestStream stream;
  stream.put_string(payload);
  return stream.value();
}

/// Closes `payload` (a record object missing its final brace) with the
/// per-line chk field.
[[nodiscard]] std::string with_chk(std::string payload) {
  const std::uint64_t chk = line_digest(payload);
  payload += kChkKey;
  payload += verify::to_hex(chk);
  payload += "\"}";
  return payload;
}

/// Verifies and strips a line's chk field. Returns false on a torn,
/// truncated or edited line.
[[nodiscard]] bool check_line(std::string_view line,
                              std::string_view* payload_out) {
  const std::size_t at = line.rfind(kChkKey);
  if (at == std::string_view::npos) return false;
  const std::string_view payload = line.substr(0, at);
  const std::string_view rest = line.substr(at + std::strlen(kChkKey));
  // rest must be exactly `<16 hex>"}`.
  if (rest.size() != 18 || rest.substr(16) != "\"}") return false;
  std::uint64_t recorded = 0;
  try {
    recorded = verify::parse_hex(rest.substr(0, 16));
  } catch (const std::invalid_argument&) {
    return false;
  }
  if (recorded != line_digest(payload)) return false;
  if (payload_out != nullptr) *payload_out = payload;
  return true;
}

/// One parsed journal line.
struct JournalLine {
  enum class Kind { Request, Tick, Seal, Switch } kind = Kind::Request;
  Request request;                   // Kind::Request
  std::uint64_t processed = 0;       // Kind::Tick
  std::string digest;                // Kind::Tick / Kind::Seal
  std::uint64_t seal_records = 0;    // Kind::Seal
  SwitchRecord sw;                   // Kind::Switch
};

/// Decodes one chk-verified record payload with the protocol's field
/// readers, parsing it once. Throws ProtocolError on a record that does
/// not decode.
[[nodiscard]] JournalLine decode_record(std::string_view payload) {
  if (!is_valid_utf8(payload)) {
    throw ProtocolError("record is not valid UTF-8");
  }
  obs::json::Value doc;
  try {
    doc = obs::json::parse(std::string(payload) + "}");
  } catch (const obs::json::ParseError& e) {
    throw ProtocolError(e.what());
  }
  JournalLine record;
  const std::string& kind = string_field(doc, "type");
  if (kind == "req") {
    record.kind = JournalLine::Kind::Request;
    // The request is embedded as its wire encoding, after the prefix the
    // writer puts first; it is held to the wire's size cap.
    if (payload.size() > std::strlen(kReqPrefix) + kMaxRequestBytes) {
      throw ProtocolError("request exceeds " +
                          std::to_string(kMaxRequestBytes) + " bytes");
    }
    const obs::json::Value* request = doc.find("req");
    if (request == nullptr) {
      throw ProtocolError("req record missing embedded request");
    }
    record.request = read_request(*request);
  } else if (kind == "tick") {
    record.kind = JournalLine::Kind::Tick;
    record.processed = integer_field(doc, "processed", 0, kMaxJsonInteger);
    record.digest = string_field(doc, "digest");
  } else if (kind == "sw") {
    record.kind = JournalLine::Kind::Switch;
    // Hex-encoded: routing keys use all 64 bits (scenario hashes), which
    // a JSON double cannot carry exactly.
    record.sw.key = hex_field(doc, "key");
    record.sw.at = integer_field(doc, "at", 0, kMaxJsonInteger);
    record.sw.from = string_field(doc, "from");
    record.sw.to = string_field(doc, "to");
  } else if (kind == "seal") {
    record.kind = JournalLine::Kind::Seal;
    record.seal_records = integer_field(doc, "records", 0, kMaxJsonInteger);
    record.digest = string_field(doc, "digest");
  } else {
    throw ProtocolError("unknown journal record type '" + kind + "'");
  }
  return record;
}

/// Parses one chk-verified record payload. Throws JournalError on an
/// envelope that verified its chk but does not decode — that is writer
/// corruption, not a torn tail.
[[nodiscard]] JournalLine parse_journal_line(std::string_view payload) {
  try {
    return decode_record(payload);
  } catch (const ProtocolError& e) {
    throw JournalError(std::string("undecodable journal record: ") +
                       e.what());
  }
}

[[nodiscard]] std::vector<std::pair<std::uint64_t, std::string>>
list_segments(const std::string& directory) {
  std::vector<std::pair<std::uint64_t, std::string>> segments;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(directory, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    const std::uint64_t number = parse_segment_name(name);
    if (number != 0) segments.emplace_back(number, entry.path().string());
  }
  if (ec) {
    throw JournalError("cannot scan journal directory " + directory + ": " +
                       ec.message());
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

}  // namespace

const char* to_string(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::None: return "none";
    case FsyncPolicy::Batch: return "batch";
    case FsyncPolicy::Always: return "always";
  }
  return "?";
}

FsyncPolicy parse_fsync_policy(const std::string& name) {
  if (name == "none") return FsyncPolicy::None;
  if (name == "batch") return FsyncPolicy::Batch;
  if (name == "always") return FsyncPolicy::Always;
  throw std::invalid_argument("unknown fsync policy '" + name +
                              "' (none|batch|always)");
}

// ------------------------------------------------------------------- load

RecoveredJournal load_journal(const std::string& directory) {
  RecoveredJournal result;
  if (!std::filesystem::exists(directory)) return result;
  const auto segments = list_segments(directory);
  result.segments = segments.size();

  for (std::size_t s = 0; s < segments.size(); ++s) {
    const auto& [number, path] = segments[s];
    const bool newest = s + 1 == segments.size();
    std::ifstream in(path, std::ios::binary);
    if (!in) throw JournalError("cannot open journal segment " + path);

    verify::DigestStream segment_digest;
    std::uint64_t segment_records = 0;
    bool sealed = false;
    std::uint64_t offset = 0;        // bytes consumed, incl. newline
    std::uint64_t valid_bytes = 0;   // offset after the last intact record
    std::size_t dropped = 0;
    std::string line;
    while (std::getline(in, line)) {
      const bool complete = !in.eof();  // getline at EOF = no newline
      const std::uint64_t line_bytes = line.size() + (complete ? 1 : 0);
      std::string_view payload;
      if (!complete || !check_line(line, &payload)) {
        // Torn or edited tail. Expected crash damage only on the newest
        // segment; anywhere else the journal lost sealed history.
        if (!newest) {
          throw JournalError("segment " + path +
                             " has a corrupt record before its seal");
        }
        ++dropped;
        // Count any further (unreachable-by-contract) lines as dropped.
        while (std::getline(in, line)) ++dropped;
        break;
      }
      offset += line_bytes;
      JournalLine record = parse_journal_line(payload);
      if (record.kind == JournalLine::Kind::Seal) {
        if (record.seal_records != segment_records ||
            record.digest != verify::to_hex(segment_digest.value())) {
          throw JournalError("segment " + path +
                             " fails its seal digest (tampered or "
                             "corrupted mid-journal)");
        }
        sealed = true;
        valid_bytes = offset;
        // A seal is the last record by construction; anything after it
        // is damage.
        if (std::getline(in, line)) {
          if (!newest) {
            throw JournalError("segment " + path +
                               " has records after its seal");
          }
          ++dropped;
          while (std::getline(in, line)) ++dropped;
        }
        break;
      }
      segment_digest.put_string(line);
      ++segment_records;
      valid_bytes = offset;
      if (record.kind == JournalLine::Kind::Request) {
        result.requests.push_back(std::move(record.request));
      } else if (record.kind == JournalLine::Kind::Switch) {
        result.switches.push_back(std::move(record.sw));
      } else {
        result.last_tick_digest = std::move(record.digest);
        result.last_tick_processed = record.processed;
      }
    }
    in.close();

    if (sealed) {
      ++result.sealed_segments;
    } else if (!newest) {
      throw JournalError("segment " + path +
                         " is unsealed but not the newest segment");
    }
    if (dropped > 0) {
      result.truncated_records += dropped;
      std::error_code ec;
      const std::uint64_t size = std::filesystem::file_size(path, ec);
      if (!ec && size > valid_bytes) {
        result.truncated_bytes += size - valid_bytes;
        std::filesystem::resize_file(path, valid_bytes, ec);
        if (ec) {
          result.warnings.push_back("could not truncate torn tail of " +
                                    path + ": " + ec.message());
        } else {
          result.warnings.push_back(
              "truncated " + std::to_string(dropped) +
              " torn record(s) off " + path);
        }
      }
    }
  }
  return result;
}

// ------------------------------------------------------------------ write

JournalWriter::JournalWriter(const JournalConfig& config) : config_(config) {
  if (config_.directory.empty()) {
    throw JournalError("journal directory must be non-empty");
  }
  if (config_.max_segment_records == 0) config_.max_segment_records = 1;
  std::error_code ec;
  std::filesystem::create_directories(config_.directory, ec);
  if (ec) {
    throw JournalError("cannot create journal directory " +
                       config_.directory + ": " + ec.message());
  }
  for (const auto& [number, path] : list_segments(config_.directory)) {
    next_segment_ = std::max(next_segment_, number + 1);
  }
  appends_metric_ =
      obs::counter_or_null(config_.metrics, "serve.journal_appends");
  fsyncs_metric_ =
      obs::counter_or_null(config_.metrics, "serve.journal_fsyncs");
  rotations_metric_ =
      obs::counter_or_null(config_.metrics, "serve.journal_rotations");
  bytes_metric_ =
      obs::counter_or_null(config_.metrics, "serve.journal_bytes");
  open_segment();
}

JournalWriter::~JournalWriter() { close(); }

void JournalWriter::open_segment() {
  const std::string path =
      (std::filesystem::path(config_.directory) /
       segment_name(next_segment_))
          .string();
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
               0644);
  if (fd_ < 0) {
    throw JournalError(errno_message("cannot open journal segment " + path));
  }
  ++next_segment_;
  segment_records_ = 0;
  seal_fold_ = verify::DigestStream();
  // Make the new directory entry itself durable: a journal whose segment
  // file vanishes with the directory block is no journal.
  if (config_.fsync != FsyncPolicy::None) {
    const int dir_fd =
        ::open(config_.directory.c_str(), O_RDONLY | O_DIRECTORY);
    if (dir_fd >= 0) {
      ::fsync(dir_fd);
      ::close(dir_fd);
    }
  }
}

void JournalWriter::append_line(std::string_view payload) {
  // Splice the chk suffix directly into the buffered line: this runs per
  // request on the engine thread, so no intermediate strings.
  const std::uint64_t chk = line_digest(payload);
  const std::size_t line_start = pending_.size();
  pending_ += payload;
  pending_ += kChkKey;
  pending_ += verify::to_hex(chk);
  pending_ += "\"}";
  const std::size_t line_size = pending_.size() - line_start;
  seal_fold_.put_string(
      std::string_view(pending_.data() + line_start, line_size));
  pending_.push_back('\n');
  ++segment_records_;
  stats_.bytes += line_size + 1;
  if (appends_metric_ != nullptr) appends_metric_->inc();
  if (bytes_metric_ != nullptr) bytes_metric_->inc(line_size + 1);
  // Durability points (ticks, seals, rotation) flush explicitly; a cap
  // bounds the buffer between them on tick-less streams.
  if (config_.fsync == FsyncPolicy::Always ||
      pending_.size() >= kFlushBytes) {
    flush();
    if (config_.fsync == FsyncPolicy::Always) fsync_now();
  }
}

void JournalWriter::flush() {
  if (pending_.empty() || fd_ < 0) return;
  std::size_t written = 0;
  while (written < pending_.size()) {
    const ssize_t n =
        ::write(fd_, pending_.data() + written, pending_.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw JournalError(errno_message("journal write failed"));
    }
    written += static_cast<std::size_t>(n);
  }
  written_bytes_ += written;
  pending_.clear();
}

void JournalWriter::fsync_now() {
  flush();
  if (fd_ < 0) return;
  if (::fsync(fd_) == 0) {
    ++stats_.fsyncs;
    if (fsyncs_metric_ != nullptr) fsyncs_metric_->inc();
    synced_bytes_.store(written_bytes_, std::memory_order_release);
  }
}

void JournalWriter::append_request(const Request& request) {
  scratch_.clear();
  scratch_ += kReqPrefix;
  encode_request_to(scratch_, request);
  append_line(scratch_);
  ++stats_.requests;
  if (segment_records_ >= config_.max_segment_records) rotate();
}

void JournalWriter::append_switch(const SwitchRecord& record) {
  scratch_.clear();
  scratch_ += "{\"type\":\"sw\",\"key\":";
  obs::json::append_escaped(scratch_, verify::to_hex(record.key));
  scratch_ += ",\"at\":";
  append_number(scratch_, record.at);
  scratch_ += ",\"from\":";
  obs::json::append_escaped(scratch_, record.from);
  scratch_ += ",\"to\":";
  obs::json::append_escaped(scratch_, record.to);
  append_line(scratch_);
  ++stats_.switches;
  if (segment_records_ >= config_.max_segment_records) rotate();
}

void JournalWriter::append_tick(std::uint64_t processed,
                                const std::string& digest_hex,
                                bool sync_now) {
  scratch_.clear();
  scratch_ += "{\"type\":\"tick\",\"processed\":";
  append_number(scratch_, processed);
  scratch_ += ",\"digest\":";
  obs::json::append_escaped(scratch_, digest_hex);
  append_line(scratch_);
  ++stats_.ticks;
  if (config_.fsync == FsyncPolicy::Batch && sync_now) {
    fsync_now();
  } else {
    // Even without (or ahead of) the fsync, hand the tick's records to
    // the kernel before the engine releases the batch's completions:
    // under None a process crash alone (page cache survives) must not
    // lose an answered batch.
    flush();
  }
  if (segment_records_ >= config_.max_segment_records) rotate();
}

void JournalWriter::sync() { fsync_now(); }

void JournalWriter::seal_segment() {
  if (fd_ < 0) return;
  if (segment_records_ > 0) {
    // Seal trailer: record count + digest over every record line, so the
    // segment is end-to-end verifiable on the next load.
    std::string payload = "{\"type\":\"seal\",\"records\":";
    append_number(payload, segment_records_);
    payload += ",\"digest\":";
    obs::json::append_escaped(payload, verify::to_hex(seal_fold_.value()));
    const std::string framed = with_chk(payload);
    pending_ += framed;
    pending_.push_back('\n');
    stats_.bytes += framed.size() + 1;
    if (bytes_metric_ != nullptr) bytes_metric_->inc(framed.size() + 1);
    ++stats_.rotations;
    if (rotations_metric_ != nullptr) rotations_metric_->inc();
  }
  try {
    flush();
  } catch (const JournalError&) {
    pending_.clear();  // best effort: an unsealed tail is chk-recoverable
  }
  if (config_.fsync != FsyncPolicy::None) fsync_now();
  ::close(fd_);
  fd_ = -1;
  seal_fold_ = verify::DigestStream();
}

void JournalWriter::rotate() {
  seal_segment();
  open_segment();
}

void JournalWriter::close() { seal_segment(); }

}  // namespace utilrisk::serve
