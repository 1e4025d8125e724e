#include "serve/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "advise/advisor_engine.hpp"
#include "obs/json.hpp"
#include "policy/factory.hpp"
#include "verify/digest.hpp"

namespace utilrisk::serve {

using obs::json::Value;

namespace {

/// The number `value` (the member at `key`, null when absent) holds.
[[nodiscard]] double number_at(const Value* value, std::string_view key) {
  if (value == nullptr) {
    throw ProtocolError("missing field '" + std::string(key) + "'");
  }
  if (!value->is_number()) {
    throw ProtocolError("field '" + std::string(key) + "' must be a number");
  }
  return value->as_number();
}

}  // namespace

double number_field(const Value& object, std::string_view key) {
  return number_at(object.find(key), key);
}

double number_field_or(const Value& object, std::string_view key,
                       double fallback) {
  const Value* value = object.find(key);
  return value == nullptr ? fallback : number_at(value, key);
}

std::uint64_t integer_field(const Value& object, std::string_view key,
                            std::uint64_t min, std::uint64_t max,
                            std::optional<std::uint64_t> fallback) {
  const Value* member = object.find(key);
  if (member == nullptr && fallback) return *fallback;
  const double value = number_at(member, key);
  // Compared as doubles: min and max are at most 2^53, so both convert
  // exactly, and NaN or an infinity fails the range test.
  if (!(value >= static_cast<double>(min) &&
        value <= static_cast<double>(max)) ||
      value != std::floor(value)) {
    throw ProtocolError("'" + std::string(key) + "' must be an integer in [" +
                        std::to_string(min) + ", " + std::to_string(max) +
                        "]");
  }
  return static_cast<std::uint64_t>(value);
}

const std::string& string_field(const Value& object, std::string_view key) {
  const Value* value = object.find(key);
  if (value == nullptr || !value->is_string()) {
    throw ProtocolError("missing string field '" + std::string(key) + "'");
  }
  return value->as_string();
}

std::uint64_t hex_field(const Value& object, std::string_view key) {
  try {
    return verify::parse_hex(string_field(object, key));
  } catch (const std::invalid_argument&) {
    throw ProtocolError("field '" + std::string(key) + "' must be hex");
  }
}

namespace {

/// `value` must lie in [0, max], or in (0, max] when `positive`; NaN and
/// the infinities fail both tests.
void require_range(double value, const char* what, bool positive,
                   double max) {
  if (!(positive ? value > 0.0 : value >= 0.0) || !(value <= max)) {
    std::string bound;
    append_number(bound, max);
    throw ProtocolError(std::string(what) + " must be in " +
                        (positive ? "(0, " : "[0, ") + bound + "]");
  }
}

/// Reads an optional array of 4 numbers into `into` (left as is when the
/// key is absent).
void read_array4(const Value& doc, std::string_view key,
                 std::array<double, 4>& into) {
  const Value* value = doc.find(key);
  if (value == nullptr) return;
  const auto refuse = [key] {
    return ProtocolError("field '" + std::string(key) +
                         "' must be an array of 4 numbers");
  };
  if (!value->is_array() || value->as_array().size() != 4) throw refuse();
  for (std::size_t o = 0; o < 4; ++o) {
    const Value& entry = value->as_array()[o];
    if (!entry.is_number()) throw refuse();
    into[o] = entry.as_number();
  }
}

void append_array4(std::string& out, const std::array<double, 4>& values) {
  out += '[';
  for (std::size_t o = 0; o < values.size(); ++o) {
    if (o != 0) out += ',';
    append_number(out, values[o]);
  }
  out += ']';
}

/// Input-derived text that gets echoed back in an error message: clamp
/// to printable ASCII and a short length so a hostile frame cannot smuggle
/// control bytes or megabytes into the server's response stream.
[[nodiscard]] std::string sanitize_echo(std::string_view text) {
  constexpr std::size_t kMaxEcho = 48;
  std::string out;
  out.reserve(std::min(text.size(), kMaxEcho) + 3);
  for (char c : text) {
    if (out.size() >= kMaxEcho) {
      out += "...";
      break;
    }
    const auto byte = static_cast<unsigned char>(c);
    out.push_back(byte >= 0x20 && byte < 0x7f ? c : '?');
  }
  return out;
}

}  // namespace

bool is_valid_utf8(std::string_view text) {
  std::size_t i = 0;
  while (i < text.size()) {
    const auto byte = static_cast<unsigned char>(text[i]);
    std::size_t length = 0;
    std::uint32_t code = 0;
    if (byte < 0x80) {
      ++i;
      continue;
    } else if ((byte & 0xE0) == 0xC0) {
      length = 2;
      code = byte & 0x1Fu;
    } else if ((byte & 0xF0) == 0xE0) {
      length = 3;
      code = byte & 0x0Fu;
    } else if ((byte & 0xF8) == 0xF0) {
      length = 4;
      code = byte & 0x07u;
    } else {
      return false;  // continuation byte or 0xFE/0xFF at sequence start
    }
    if (i + length > text.size()) return false;
    for (std::size_t k = 1; k < length; ++k) {
      const auto cont = static_cast<unsigned char>(text[i + k]);
      if ((cont & 0xC0) != 0x80) return false;
      code = (code << 6) | (cont & 0x3Fu);
    }
    static constexpr std::uint32_t kMinForLength[5] = {0, 0, 0x80, 0x800,
                                                       0x10000};
    if (code < kMinForLength[length]) return false;          // overlong
    if (code >= 0xD800 && code <= 0xDFFF) return false;      // surrogate
    if (code > 0x10FFFF) return false;                       // beyond range
    i += length;
  }
  return true;
}

const char* to_string(Status status) {
  switch (status) {
    case Status::Accepted: return "accepted";
    case Status::Rejected: return "rejected";
    case Status::Busy: return "busy";
    case Status::Error: return "error";
    case Status::Shed: return "shed";
    case Status::Advice: return "advice";
  }
  return "?";
}

namespace {

/// Shared parsing of the correlation id and the routing fields (tenant +
/// scenario) for both verbs.
void parse_id_and_routing(const Value& doc, Request& request) {
  request.id = integer_field(doc, "id", 0, kMaxJsonInteger);
  request.tenant = static_cast<std::uint32_t>(
      integer_field(doc, "tenant", 0, UINT32_MAX, 0));
  if (const Value* scenario = doc.find("scenario"); scenario != nullptr) {
    if (!scenario->is_string()) {
      throw ProtocolError("'scenario' must be a string");
    }
    constexpr std::size_t kMaxScenarioBytes = 128;
    if (scenario->as_string().size() > kMaxScenarioBytes) {
      throw ProtocolError("'scenario' exceeds " +
                          std::to_string(kMaxScenarioBytes) + " bytes");
    }
    request.scenario = scenario->as_string();
  }
}

/// {"type":"advise",...}: correlation id + routing + optional preferences.
[[nodiscard]] Request parse_advise(const Value& doc) {
  Request request;
  request.kind = RequestKind::Advise;
  parse_id_and_routing(doc, request);
  read_array4(doc, "weights", request.scoring.objective_weights);
  request.scoring.risk_aversion =
      number_field_or(doc, "risk_aversion", request.scoring.risk_aversion);
  // The structured advisor-config rules (finite weights in [0,1] summing
  // to 1, finite non-negative risk aversion) become protocol errors.
  try {
    request.scoring.validate();
  } catch (const std::invalid_argument& e) {
    throw ProtocolError(e.what());
  }
  return request;
}

}  // namespace

Request parse_request(std::string_view line) {
  if (line.size() > kMaxRequestBytes) {
    throw ProtocolError("request exceeds " +
                        std::to_string(kMaxRequestBytes) + " bytes");
  }
  if (!is_valid_utf8(line)) {
    throw ProtocolError("request is not valid UTF-8");
  }
  Value doc;
  try {
    doc = obs::json::parse(line);
  } catch (const obs::json::ParseError& e) {
    throw ProtocolError(std::string("malformed JSON: ") + e.what());
  }
  return read_request(doc);
}

Request read_request(const Value& doc) {
  if (!doc.is_object()) throw ProtocolError("request must be a JSON object");
  const std::string& type = string_field(doc, "type");
  if (type == "advise") return parse_advise(doc);
  if (type != "submit") {
    throw ProtocolError("unknown request type '" + sanitize_echo(type) +
                        "'");
  }

  Request request;
  parse_id_and_routing(doc, request);
  request.submit_time = number_field_or(doc, "t", 0.0);
  request.procs =
      static_cast<std::uint32_t>(integer_field(doc, "procs", 1, UINT32_MAX));
  request.runtime = number_field(doc, "runtime");
  request.estimate = number_field_or(doc, "estimate", request.runtime);
  request.deadline = number_field(doc, "deadline");
  request.budget = number_field(doc, "budget");
  request.penalty_rate = number_field_or(doc, "penalty", 0.0);
  request.deadline_ms = number_field_or(doc, "deadline_ms", 0.0);
  if (const Value* urgency = doc.find("urgency"); urgency != nullptr) {
    // is_string first: as_string() on a non-string throws a plain
    // runtime_error, which would escape the server's ProtocolError
    // firewall and kill the connection (or the stdio loop) instead of
    // producing an `error` response.
    if (!urgency->is_string()) {
      throw ProtocolError("'urgency' must be \"high\" or \"low\"");
    }
    const std::string& name = urgency->as_string();
    if (name == "high") {
      request.urgency = workload::Urgency::High;
    } else if (name == "low") {
      request.urgency = workload::Urgency::Low;
    } else {
      throw ProtocolError("'urgency' must be \"high\" or \"low\"");
    }
  }

  require_range(request.submit_time, "'t'", false, kMaxTimeSeconds);
  require_range(request.runtime, "'runtime'", true, kMaxTimeSeconds);
  require_range(request.estimate, "'estimate'", true, kMaxTimeSeconds);
  require_range(request.deadline, "'deadline'", true, kMaxTimeSeconds);
  require_range(request.budget, "'budget'", false, kMaxMoney);
  require_range(request.penalty_rate, "'penalty'", false, kMaxMoney);
  require_range(request.deadline_ms, "'deadline_ms'", false,
                std::numeric_limits<double>::max());
  return request;
}

std::string encode_request(const Request& request) {
  std::string out;
  out.reserve(192);
  encode_request_to(out, request);
  return out;
}

namespace {

/// Tenant/scenario tail shared by both request encodings; emitted only
/// when set so legacy encodings stay byte-identical.
void append_routing_fields(std::string& out, const Request& request) {
  if (request.tenant != 0) {
    out += ",\"tenant\":";
    append_number(out, request.tenant);
  }
  if (!request.scenario.empty()) {
    out += ",\"scenario\":";
    obs::json::append_escaped(out, request.scenario);
  }
}

}  // namespace

void encode_request_to(std::string& out, const Request& request) {
  if (request.kind == RequestKind::Advise) {
    out += "{\"type\":\"advise\",\"id\":";
    append_number(out, request.id);
    out += ",\"weights\":";
    append_array4(out, request.scoring.objective_weights);
    out += ",\"risk_aversion\":";
    append_number(out, request.scoring.risk_aversion);
    append_routing_fields(out, request);
    out += '}';
    return;
  }
  // Hand-rolled single line: obs::json::dump pretty-prints across lines,
  // and the protocol is strictly one document per line.
  out += "{\"type\":\"submit\",\"id\":";
  append_number(out, request.id);
  out += ",\"t\":";
  append_number(out, request.submit_time);
  out += ",\"procs\":";
  append_number(out, request.procs);
  out += ",\"runtime\":";
  append_number(out, request.runtime);
  out += ",\"estimate\":";
  append_number(out, request.estimate);
  out += ",\"deadline\":";
  append_number(out, request.deadline);
  out += ",\"budget\":";
  append_number(out, request.budget);
  out += ",\"penalty\":";
  append_number(out, request.penalty_rate);
  out += ",\"urgency\":\"";
  out += workload::to_string(request.urgency);
  out += '"';
  // Only when set, so pre-deadline encodings stay byte-identical.
  if (request.deadline_ms > 0.0) {
    out += ",\"deadline_ms\":";
    append_number(out, request.deadline_ms);
  }
  // Same conditional-emission rule for the routing fields: unattributed
  // single-tenant traffic — including every pre-shard journal — encodes
  // byte-identically to the legacy wire format.
  append_routing_fields(out, request);
  out += '}';
}

Response parse_response(std::string_view line) {
  Value doc;
  try {
    doc = obs::json::parse(line);
  } catch (const obs::json::ParseError& e) {
    throw ProtocolError(std::string("malformed JSON: ") + e.what());
  }
  if (!doc.is_object()) throw ProtocolError("response must be a JSON object");

  Response response;
  response.id = integer_field(doc, "id", 0, kMaxJsonInteger);
  const std::string& status = string_field(doc, "status");
  if (status == "accepted") {
    response.status = Status::Accepted;
  } else if (status == "rejected") {
    response.status = Status::Rejected;
  } else if (status == "busy") {
    response.status = Status::Busy;
  } else if (status == "error") {
    response.status = Status::Error;
  } else if (status == "shed") {
    response.status = Status::Shed;
  } else if (status == "advice") {
    response.status = Status::Advice;
  } else {
    throw ProtocolError("unknown response status '" + sanitize_echo(status) +
                        "'");
  }
  response.price = number_field_or(doc, "price", 0.0);
  response.risk = number_field_or(doc, "risk", 0.0);
  response.virtual_time = number_field_or(doc, "t", 0.0);
  response.retry_after_ms = number_field_or(doc, "retry_after_ms", 0.0);
  response.tenant = static_cast<std::uint32_t>(
      integer_field(doc, "tenant", 0, UINT32_MAX, 0));
  if (doc.find("shard") != nullptr) {
    response.shard = static_cast<int>(
        integer_field(doc, "shard", 0, std::numeric_limits<int>::max()));
  }
  if (const Value* message = doc.find("message");
      message != nullptr && message->is_string()) {
    response.message = message->as_string();
  }
  if (response.status == Status::Advice) {
    auto body = std::make_shared<advise::Snapshot>();
    body->active = string_field(doc, "active");
    body->recommended = string_field(doc, "recommended");
    body->decided = integer_field(doc, "decided", 0, kMaxJsonInteger, 0);
    body->evaluations =
        integer_field(doc, "evaluations", 0, kMaxJsonInteger, 0);
    body->switches = integer_field(doc, "switches", 0, kMaxJsonInteger, 0);
    body->samples = integer_field(doc, "samples", 0, kMaxJsonInteger, 0);
    read_array4(doc, "estimate_mean", body->estimate_mean);
    read_array4(doc, "estimate_stddev", body->estimate_stddev);
    if (const Value* ranked = doc.find("ranked"); ranked != nullptr) {
      if (!ranked->is_array()) {
        throw ProtocolError("field 'ranked' must be an array");
      }
      for (const Value& entry : ranked->as_array()) {
        if (!entry.is_object()) {
          throw ProtocolError("'ranked' entries must be objects");
        }
        advise::RankedPolicy& row = body->ranked.emplace_back();
        row.policy = string_field(entry, "policy");
        try {
          row.kind = policy::parse_policy_kind(row.policy);
        } catch (const std::invalid_argument&) {
          throw ProtocolError("'ranked' names an unknown policy '" +
                              sanitize_echo(row.policy) + "'");
        }
        row.score = number_field(entry, "score");
        row.performance = number_field(entry, "performance");
        row.volatility = number_field(entry, "volatility");
      }
    }
    body->digest = hex_field(doc, "digest");
    response.advice = std::move(body);
  }
  return response;
}

std::string encode_response(const Response& response) {
  std::string out;
  out.reserve(128);
  encode_response_to(out, response);
  return out;
}

void encode_response_to(std::string& out, const Response& response) {
  out += "{\"id\":";
  append_number(out, response.id);
  out += ",\"status\":\"";
  out += to_string(response.status);
  out += '"';
  switch (response.status) {
    case Status::Accepted:
    case Status::Rejected:
      out += ",\"price\":";
      append_number(out, response.price);
      out += ",\"risk\":";
      append_number(out, response.risk);
      out += ",\"t\":";
      append_number(out, response.virtual_time);
      // Conditional like the request side: unattributed/unsharded
      // responses stay byte-identical to the legacy encoding.
      if (response.tenant != 0) {
        out += ",\"tenant\":";
        append_number(out, response.tenant);
      }
      if (response.shard >= 0) {
        out += ",\"shard\":";
        append_number(out, response.shard);
      }
      break;
    case Status::Busy:
      out += ",\"retry_after_ms\":";
      append_number(out, response.retry_after_ms);
      break;
    case Status::Shed:
    case Status::Error:
      out += ",\"message\":";
      obs::json::append_escaped(out, response.message);
      break;
    case Status::Advice: {
      // A body-less advice response (which no engine path produces)
      // encodes as the empty snapshot.
      static const advise::Snapshot kEmptyAdvice;
      const advise::Snapshot& body =
          response.advice != nullptr ? *response.advice : kEmptyAdvice;
      out += ",\"active\":";
      obs::json::append_escaped(out, body.active);
      out += ",\"recommended\":";
      obs::json::append_escaped(out, body.recommended);
      out += ",\"decided\":";
      append_number(out, body.decided);
      out += ",\"evaluations\":";
      append_number(out, body.evaluations);
      out += ",\"switches\":";
      append_number(out, body.switches);
      out += ",\"samples\":";
      append_number(out, body.samples);
      out += ",\"estimate_mean\":";
      append_array4(out, body.estimate_mean);
      out += ",\"estimate_stddev\":";
      append_array4(out, body.estimate_stddev);
      out += ",\"ranked\":[";
      for (std::size_t r = 0; r < body.ranked.size(); ++r) {
        if (r != 0) out += ',';
        out += "{\"policy\":";
        obs::json::append_escaped(out, body.ranked[r].policy);
        out += ",\"score\":";
        append_number(out, body.ranked[r].score);
        out += ",\"performance\":";
        append_number(out, body.ranked[r].performance);
        out += ",\"volatility\":";
        append_number(out, body.ranked[r].volatility);
        out += '}';
      }
      out += "],\"digest\":\"";
      out += verify::to_hex(body.digest);
      out += '"';
      if (response.tenant != 0) {
        out += ",\"tenant\":";
        append_number(out, response.tenant);
      }
      if (response.shard >= 0) {
        out += ",\"shard\":";
        append_number(out, response.shard);
      }
      break;
    }
  }
  out += '}';
}

workload::Job to_job(const Request& request, workload::JobId job_id,
                     double submit_time) {
  workload::Job job;
  job.id = job_id;
  job.submit_time = submit_time;
  job.actual_runtime = request.runtime;
  job.estimated_runtime = request.estimate;
  job.procs = request.procs;
  job.deadline_duration = request.deadline;
  job.budget = request.budget;
  job.penalty_rate = request.penalty_rate;
  job.urgency = request.urgency;
  job.tenant = request.tenant;
  return job;
}

Request from_job(const workload::Job& job, std::uint64_t id) {
  Request request;
  request.id = id;
  request.submit_time = job.submit_time;
  request.procs = job.procs;
  request.runtime = job.actual_runtime;
  request.estimate = job.estimated_runtime;
  request.deadline = job.deadline_duration;
  request.budget = job.budget;
  request.penalty_rate = job.penalty_rate;
  request.urgency = job.urgency;
  request.tenant = job.tenant;
  return request;
}

std::uint64_t decision_hash(const Response& response) {
  verify::DigestStream stream;
  stream.put_u64(response.id);
  stream.put_byte(static_cast<std::uint8_t>(response.status));
  stream.put_double(response.price);
  // Tenant attribution, only when present: legacy single-tenant sessions
  // keep their historical digests, while two decision streams differing
  // only in tenant assignment now digest apart (the PR-8 `zipf` router
  // bug class). The shard hint is deliberately NOT folded — the merged
  // digest must be invariant under shard count and routing.
  if (response.tenant != 0) stream.put_u64(response.tenant);
  return stream.value();
}

std::uint64_t routing_key(const Request& request) {
  if (request.tenant != 0) return request.tenant;
  if (request.scenario.empty()) return 0;
  verify::DigestStream stream;
  stream.put_string(request.scenario);
  return stream.value();
}

}  // namespace utilrisk::serve
