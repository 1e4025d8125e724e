// Wire protocol of the online admission service: newline-delimited JSON.
//
// One request per line, one response per line, matched by the
// client-assigned `id`. The protocol carries exactly the information a
// user hands the commercial computing service when negotiating an SLA
// (paper §5.3): resource demand, runtime estimate, deadline, budget and
// penalty rate — plus `runtime`, the ground-truth runtime the simulation
// backend needs to realise the job (a real deployment would observe it;
// the protocol makes the simulation's omniscience explicit instead of
// hiding it).
//
// Requests:
//   {"type":"submit","id":7,"t":123.0,"procs":8,"runtime":600,
//    "estimate":900,"deadline":3600,"budget":4800,"penalty":1.5,
//    "urgency":"high"}
//   {"type":"advise","id":8,"weights":[0.25,0.25,0.25,0.25],
//    "risk_aversion":0.5}                             (read-only query)
// Responses:
//   {"id":7,"status":"accepted","price":4800,"risk":0.12,"t":123.0}
//   {"id":7,"status":"rejected","price":0,"risk":0.87,"t":123.0}
//   {"id":7,"status":"busy","retry_after_ms":50}      (backpressure)
//   {"id":7,"status":"shed","message":"..."}          (deadline expired)
//   {"id":8,"status":"advice","active":"Libra","recommended":"FCFS-BF",
//    "ranked":[...],"digest":"..."}                   (docs/ADVISOR.md)
//   {"id":0,"status":"error","message":"parse error at offset 12"}
//
// Decoding parses with obs::json and reads every field through the typed
// readers below; encoding writes one line with append_number and
// obs::json::append_escaped. The journal (serve/journal.hpp) reads and
// writes its own records with the same helpers. Malformed input raises
// ProtocolError with a user-facing message that the server echoes back in
// an `error` response instead of dying.
#pragma once

#include <charconv>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/advisor.hpp"
#include "workload/job.hpp"

namespace utilrisk::obs::json {
class Value;
}  // namespace utilrisk::obs::json

namespace utilrisk::advise {
struct Snapshot;
}  // namespace utilrisk::advise

namespace utilrisk::serve {

/// Hard cap on one request line (bytes, newline excluded). Lines beyond
/// this are rejected with an `error` response before JSON parsing — a
/// mis-framed or hostile client must not balloon server memory.
inline constexpr std::size_t kMaxRequestBytes = 16 * 1024;

/// Upper bound on a request's time fields (`t`, `runtime`, `estimate`,
/// `deadline`): 2^32 s, about 136 years. Together with kMaxMoney it keeps
/// every sum and product the engine forms from a request finite.
inline constexpr double kMaxTimeSeconds = 4294967296.0;
/// Upper bound on a request's money fields (`budget`, `penalty`): 2^53.
inline constexpr double kMaxMoney = 9007199254740992.0;
/// 2^53: a JSON number, a double, holds every integer up to it exactly.
/// The cap on ids and counters.
inline constexpr std::uint64_t kMaxJsonInteger = std::uint64_t{1} << 53;

/// Thrown by the parse functions on malformed or invalid input; the
/// message is sent back to the client verbatim.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// What a request line asks for.
enum class RequestKind : std::uint8_t {
  Submit = 0,  ///< job submission (the SLA negotiation)
  /// Online advisor query ({"type":"advise",...}): ranked candidate
  /// policies for the caller's objective weights + risk aversion against
  /// the routing key's live workload mix. Strictly read-only — advise
  /// requests never touch the decision digest, the journal or the
  /// advisor's estimators (docs/ADVISOR.md).
  Advise = 1,
};

/// One SLA-annotated job-submission request.
struct Request {
  /// Client-assigned correlation id (echoed in the response).
  std::uint64_t id = 0;
  /// Virtual submission instant (seconds on the workload's arrival
  /// clock). The engine clamps it monotonically, so a client replaying a
  /// seeded arrival process gets bit-identical admission decisions
  /// (docs/SERVING.md "determinism").
  double submit_time = 0.0;
  std::uint32_t procs = 1;
  /// Ground-truth runtime (seconds) the backend realises the job with.
  double runtime = 0.0;
  /// User-visible runtime estimate the policy decides from.
  double estimate = 0.0;
  /// SLA terms, as durations/amounts from submission (§5.3).
  double deadline = 0.0;
  double budget = 0.0;
  double penalty_rate = 0.0;
  workload::Urgency urgency = workload::Urgency::Low;
  /// Optional wall-clock budget (milliseconds) for the *admission
  /// decision itself* — distinct from `deadline`, which is the job's SLA
  /// deadline on the virtual clock. A request still queued when this
  /// budget expires is shed (Status::Shed) instead of simulated: under
  /// overload the server spends its capacity on requests whose answers
  /// someone still wants. 0 = no decision deadline.
  double deadline_ms = 0.0;
  /// Owning tenant (0 = unattributed). The sharded server routes by it
  /// (serve/shard.hpp) and the engine stamps it on the simulated job, so
  /// tenant-attributed decisions digest distinctly (decision_hash).
  std::uint32_t tenant = 0;
  /// Routing fallback for tenantless traffic: requests sharing a scenario
  /// key land on the same shard (and the same isolated simulation state).
  /// Empty = the default shared state.
  std::string scenario;

  // --- advise-only fields (RequestKind::Advise) -------------------------
  RequestKind kind = RequestKind::Submit;
  /// The caller's preferences: objective weights (wait, SLA, reliability,
  /// profitability; an equal split when the line omits "weights") and
  /// risk aversion (0.5 when the line omits "risk_aversion").
  core::AdvisorConfig scoring;
};

enum class Status : std::uint8_t {
  Accepted,  ///< SLA admitted; `price` is the quoted charge
  Rejected,  ///< admission control refused the SLA
  Busy,      ///< bounded queue full — backpressure; retry after the hint
  Error,     ///< malformed/oversized request; `message` says why
  /// Dropped before simulation: the request's `deadline_ms` decision
  /// budget expired while it waited in the admission queue. Sheds are a
  /// wall-clock artefact and never enter the decision digest.
  Shed,
  /// Answer to an `advise` query; Response::advice carries the body.
  Advice,
};

[[nodiscard]] const char* to_string(Status status);

/// One response line.
struct Response {
  std::uint64_t id = 0;
  Status status = Status::Error;
  /// Quoted admission charge (commodity model quote; the job's budget
  /// under the bid model). Zero unless accepted.
  double price = 0.0;
  /// Load-based risk index in [0, 1]: the service's outstanding work
  /// backlog (plus this job) relative to what the machine can deliver
  /// within this job's deadline. 0 = idle service, 1 = saturated.
  double risk = 0.0;
  /// Engine virtual time at the decision.
  double virtual_time = 0.0;
  /// Backpressure hint (Status::Busy only), milliseconds.
  double retry_after_ms = 0.0;
  /// Tenant echo (0 = unattributed); folded into decision_hash when set.
  std::uint32_t tenant = 0;
  /// Which engine shard decided (sharded serving only; -1 = unsharded).
  /// Deliberately *not* part of decision_hash — the merged digest must be
  /// invariant under shard count and request routing.
  int shard = -1;
  /// Human-readable diagnostic (Status::Error only).
  std::string message;
  /// Advisor answer (Status::Advice only, null otherwise): the routing
  /// key's advisor state scored under the caller's preferences, exactly as
  /// advise::AdvisorEngine::query returned it. On the wire its digest is
  /// 16 lowercase hex chars. shared_ptr so Response stays cheap to copy
  /// through the queue/buffer plumbing.
  std::shared_ptr<const advise::Snapshot> advice;
};

/// Parses one request line. Throws ProtocolError — and only
/// ProtocolError, whatever the input bytes — on malformed JSON, invalid
/// UTF-8, over-deep nesting, wrong/missing/mis-typed fields, or values
/// that violate SLA preconditions: an id outside [0, 2^53], procs outside
/// [1, 2^32), non-positive runtime/estimate/deadline, negative
/// budget/penalty, or a time or money field above its bound. The error
/// message is safe to echo to a peer: input-derived fragments are
/// sanitised to printable ASCII and length-clamped.
[[nodiscard]] Request parse_request(std::string_view line);

/// The field checks of parse_request, on a document already parsed (the
/// journal's recovery reads the `req` member of a record it has parsed
/// whole). Throws ProtocolError as parse_request does, with the same
/// messages; `doc` must come from text that passed is_valid_utf8.
[[nodiscard]] Request read_request(const obs::json::Value& doc);

/// Strict UTF-8 well-formedness (RFC 3629: no overlongs, no surrogates,
/// nothing above U+10FFFF). JSON text is UTF-8, so every line serve reads
/// is checked with this before it is parsed.
[[nodiscard]] bool is_valid_utf8(std::string_view text);

/// Serialises a request to one line (no trailing newline).
[[nodiscard]] std::string encode_request(const Request& request);

/// Appends the one-line encoding to `out` (the allocation-free form the
/// journal's write-ahead hot path uses).
void encode_request_to(std::string& out, const Request& request);

/// Parses one response line (used by the load generator). Throws
/// ProtocolError on malformed input, including an advice body whose
/// digest is not hex or whose ranking names an unknown policy.
[[nodiscard]] Response parse_response(std::string_view line);

/// Serialises a response to one line (no trailing newline).
[[nodiscard]] std::string encode_response(const Response& response);

/// Appends the one-line encoding to `out` (the server encodes each reply
/// straight into its connection's outbox).
void encode_response_to(std::string& out, const Response& response);

// --- field codec ------------------------------------------------------------
// Every NDJSON line serve reads or writes — wire requests and responses,
// and the journal's records — goes through these. A reader throws
// ProtocolError naming the field when it is missing or mis-typed.

/// The number at `key`.
[[nodiscard]] double number_field(const obs::json::Value& object,
                                  std::string_view key);
/// The number at `key`, or `fallback` when the key is absent.
[[nodiscard]] double number_field_or(const obs::json::Value& object,
                                     std::string_view key, double fallback);
/// The integer at `key`, which must lie in [min, max] (max at most
/// kMaxJsonInteger); `fallback` when the key is absent, an error when
/// there is none.
[[nodiscard]] std::uint64_t integer_field(
    const obs::json::Value& object, std::string_view key, std::uint64_t min,
    std::uint64_t max, std::optional<std::uint64_t> fallback = std::nullopt);
/// The string at `key`.
[[nodiscard]] const std::string& string_field(const obs::json::Value& object,
                                              std::string_view key);
/// The 64-bit value at `key`, written as 1..16 hex chars (verify::to_hex).
[[nodiscard]] std::uint64_t hex_field(const obs::json::Value& object,
                                      std::string_view key);

/// Appends the shortest decimal that reads back as `value` (std::to_chars:
/// no locale, no allocation).
template <typename T>
void append_number(std::string& out, T value) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, result.ptr);
}

/// Converts a request to the job the simulation backend runs. `job_id` is
/// the engine-assigned internal id (client ids are 64-bit and may collide
/// across connections; the engine keeps its own dense sequence).
[[nodiscard]] workload::Job to_job(const Request& request,
                                   workload::JobId job_id,
                                   double submit_time);

/// Converts a workload job to a request (the load generator maps a seeded
/// trace straight onto the wire).
[[nodiscard]] Request from_job(const workload::Job& job, std::uint64_t id);

/// Element hash of one admission decision (id, status, price — plus the
/// tenant when attributed) for the order-independent session digest
/// (verify::UnorderedDigest). Server and load generator share this
/// encoding, so their digests are comparable: equal digests attest
/// identical decisions for the same request ids. The shard hint is
/// deliberately excluded: the merged digest must not depend on how
/// requests were partitioned across engines.
[[nodiscard]] std::uint64_t decision_hash(const Response& response);

/// The key the sharded router (and the per-key isolated engine state)
/// partitions on: the tenant when attributed, else a stable hash of the
/// scenario string, else 0 (the shared default state). Deterministic
/// across processes and platforms.
[[nodiscard]] std::uint64_t routing_key(const Request& request);

}  // namespace utilrisk::serve
