// Write-ahead admission journal: the durability layer of `utilrisk serve`.
//
// An admission decision is a financial commitment (paper §5.3): once the
// server answers "accepted", the provider is on the hook for the SLA.
// The journal makes that commitment crash-safe by logging the request
// *sequence* — which, by the engine's determinism contract
// (docs/SERVING.md), fully determines every decision — plus periodic
// tick records carrying the engine's running decision digest. After a
// crash, replaying the surviving records through a fresh engine must
// reproduce the pre-crash digest byte for byte; the tick records are the
// oracle that proves it did.
//
// On-disk format: append-only NDJSON segments in one directory,
//
//   journal-00000001.ndjson
//     {"type":"req","req":{...wire request...},"chk":"<16hex>"}
//     {"type":"sw","key":"<16hex>","at":64,"from":"Libra","to":"FCFS-BF",
//      "chk":"..."}                           (advise-auto policy switch)
//     {"type":"tick","processed":1,"digest":"<16hex>","chk":"..."}
//     ...
//     {"type":"seal","records":4096,"digest":"<16hex>"}   (rotation only)
//
// A record's position in its segment is its order; the parser ignores
// unknown keys, so segments whose records also carry the retired `seq`
// field still load.
//
// Integrity is layered (all FNV-1a via src/verify):
//  - per line: `chk` digests the line's own bytes up to the chk field, so
//    a torn (partially written) or edited tail line is detected and the
//    journal is truncated at the last intact record on load;
//  - per segment: the `seal` trailer digests every record line in the
//    segment, so a sealed (rotated) segment is tamper-evident end to end.
//    A sealed segment that fails its trailer is corruption *before* the
//    tail — recovery refuses to proceed rather than silently dropping
//    acknowledged requests.
//
// Fsync policy trades durability for throughput (docs/SERVING.md table):
//  - Always: fsync after every appended record;
//  - Batch (default): fsync once per tick record — the engine defers the
//    batch's completions until after this sync, so no response reaches a
//    client before the records that reproduce it are durable;
//  - None: never fsync (the OS flushes); a power loss may lose the tail,
//    a process crash alone does not.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "verify/digest.hpp"

namespace utilrisk::obs {
class MetricsRegistry;
class Counter;
}  // namespace utilrisk::obs

namespace utilrisk::serve {

enum class FsyncPolicy : std::uint8_t {
  None,    ///< never fsync; fastest, weakest
  Batch,   ///< fsync once per engine tick (default)
  Always,  ///< fsync after every record
};

[[nodiscard]] const char* to_string(FsyncPolicy policy);
/// Parses "none" | "batch" | "always"; throws std::invalid_argument.
[[nodiscard]] FsyncPolicy parse_fsync_policy(const std::string& name);

struct JournalConfig {
  /// Segment directory; created (one level) if absent.
  std::string directory;
  FsyncPolicy fsync = FsyncPolicy::Batch;
  /// Records per segment before rotation (a seal trailer is written and
  /// the next segment opened). Must be >= 1.
  std::size_t max_segment_records = 4096;
  /// Optional registry for the serve.journal_* counters (may be null).
  obs::MetricsRegistry* metrics = nullptr;
};

/// Writer-side session totals.
struct JournalStats {
  std::uint64_t requests = 0;  ///< req records appended
  std::uint64_t ticks = 0;     ///< tick records appended
  std::uint64_t switches = 0;  ///< sw (policy-switch) records appended
  std::uint64_t fsyncs = 0;
  std::uint64_t rotations = 0;  ///< segments sealed
  std::uint64_t bytes = 0;      ///< bytes appended (all records)
};

/// One journalled live policy switch ({"type":"sw",...}): routing key
/// `key` moved from policy `from` to `to` after its `at`-th decided
/// request. Purely an audit/verification record — replaying the request
/// sequence re-derives every switch deterministically; recovery checks
/// the journalled switches are a prefix of the replayed ones
/// (docs/ADVISOR.md, docs/DETERMINISM.md).
struct SwitchRecord {
  std::uint64_t key = 0;
  std::uint64_t at = 0;
  std::string from;
  std::string to;
};

/// What load_journal() recovered from a directory.
struct RecoveredJournal {
  /// Every surviving request, in append (= admission) order, across all
  /// segments. Replaying exactly this sequence reproduces the decisions.
  std::vector<Request> requests;
  /// Running decision digest recorded by the newest surviving tick
  /// record (empty when no tick survived).
  std::string last_tick_digest;
  /// How many requests that tick covered (the digest is over decisions
  /// for requests[0 .. last_tick_processed)).
  std::uint64_t last_tick_processed = 0;
  /// Journalled policy switches, in append order. A crash may lose a
  /// trailing sw record whose triggering request survived, so replay can
  /// legitimately produce *more* switches than were journalled — never
  /// different ones.
  std::vector<SwitchRecord> switches;
  std::size_t segments = 0;
  std::size_t sealed_segments = 0;
  /// Torn/invalid trailing records dropped from the newest segment.
  std::size_t truncated_records = 0;
  /// Bytes physically truncated off the newest segment's tail.
  std::uint64_t truncated_bytes = 0;
  std::vector<std::string> warnings;

  [[nodiscard]] bool empty() const { return requests.empty(); }
};

/// Thrown on unrecoverable journal damage: a *sealed* segment failing its
/// trailer digest, or an unreadable directory. (A torn tail on the open
/// segment is expected crash damage and is truncated, not thrown.)
class JournalError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Scans `directory` (no-op result when absent/empty), verifies segment
/// and line digests, physically truncates a torn tail off the newest
/// segment, and returns the surviving record stream. Throws JournalError
/// on mid-journal corruption.
[[nodiscard]] RecoveredJournal load_journal(const std::string& directory);

/// Appends records to a fresh segment numbered after every existing one
/// (recovery never rewrites history; each process writes its own
/// segments). Not thread-safe: the engine thread is the only writer.
class JournalWriter {
 public:
  explicit JournalWriter(const JournalConfig& config);
  /// Seals and closes the open segment (close() is the polite path).
  ~JournalWriter();

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Write-ahead: the engine appends the request *before* simulating it.
  void append_request(const Request& request);

  /// Records a live policy switch (advise-auto mode), after the req
  /// record that triggered it and before the covering tick record.
  void append_switch(const SwitchRecord& record);

  /// Tick boundary: `processed` requests decided so far (lifetime total,
  /// recovered replays included) and the engine's running decision
  /// digest. Under FsyncPolicy::Batch this is the record that fsyncs —
  /// unless the caller passes `sync_now = false` to group-commit several
  /// ticks under one later sync() (the engine then also holds the ticks'
  /// completions until that sync, so the durability contract is intact).
  /// The record bytes always reach the kernel here regardless.
  void append_tick(std::uint64_t processed, const std::string& digest_hex,
                   bool sync_now = true);

  /// Forces everything appended so far to disk (flush + fsync). The
  /// group-commit point for ticks appended with `sync_now = false`.
  void sync();

  /// Seals the open segment (trailer + fsync) and closes the fd.
  /// Idempotent; the destructor calls it.
  void close();

  [[nodiscard]] const JournalStats& stats() const { return stats_; }
  [[nodiscard]] const JournalConfig& config() const { return config_; }
  /// How many of the bytes appended this session (JournalStats::bytes,
  /// in append order across segments) the last fsync made durable. Safe
  /// to read from any thread.
  [[nodiscard]] std::uint64_t synced_bytes() const {
    return synced_bytes_.load(std::memory_order_acquire);
  }

 private:
  void open_segment();
  void rotate();
  void append_line(std::string_view payload);
  /// Writes the seal trailer + fsync and closes the segment fd.
  void seal_segment();
  /// Writes `pending_` through to the segment fd (one syscall per tick
  /// instead of one per record; durability is only ever promised at tick
  /// boundaries, where the engine holds completions until after this).
  void flush();
  void fsync_now();

  JournalConfig config_;
  int fd_ = -1;
  /// Records appended since the last flush(). Always drained before any
  /// fsync and at every tick/seal, so nothing a client was answered for
  /// can sit only here.
  std::string pending_;
  /// Reused per-record build buffer (append_request/append_tick are the
  /// engine loop's hot path; no per-record allocations).
  std::string scratch_;
  std::uint64_t next_segment_ = 1;
  std::size_t segment_records_ = 0;  ///< records in the open segment
  /// Running seal-trailer digest: put_string fold over the open
  /// segment's record lines, reset at rotation.
  verify::DigestStream seal_fold_;
  JournalStats stats_;
  /// Appended bytes flush() has handed to the kernel, and how many of
  /// them the last fsync covered.
  std::uint64_t written_bytes_ = 0;
  std::atomic<std::uint64_t> synced_bytes_{0};

  obs::Counter* appends_metric_ = nullptr;
  obs::Counter* fsyncs_metric_ = nullptr;
  obs::Counter* rotations_metric_ = nullptr;
  obs::Counter* bytes_metric_ = nullptr;
};

}  // namespace utilrisk::serve
