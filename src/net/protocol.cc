#include "net/protocol.h"

#include <algorithm>
#include <utility>

#include "service/json.h"

namespace qlearn {
namespace net {

namespace {

using common::Result;
using common::Status;
using service::json::AppendEscaped;
using service::json::Arena;
using service::json::CheckAllKeysKnown;
using service::json::Find;
using service::json::ToBool;
using service::json::ToStringView;
using service::json::ToUInt;
using service::json::View;
using service::wire::QuestionPayload;

const char* OpName(Request::Op op) {
  switch (op) {
    case Request::Op::kOpen:
      return "open";
    case Request::Op::kAsk:
      return "ask";
    case Request::Op::kTell:
      return "tell";
    case Request::Op::kOracle:
      return "oracle";
    case Request::Op::kStatus:
      return "status";
    case Request::Op::kClose:
      return "close";
    case Request::Op::kCounters:
      return "counters";
    case Request::Op::kSessions:
      return "sessions";
    case Request::Op::kExport:
      return "export";
    case Request::Op::kImport:
      return "import";
  }
  return "unknown";
}

Status ShapeError(const std::string& message) {
  return Status::ParseError("protocol: " + message);
}

void AppendLabels(const std::vector<bool>& labels, std::string* out) {
  out->push_back('[');
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out->push_back(',');
    *out += labels[i] ? "true" : "false";
  }
  out->push_back(']');
}

/// Decodes the boolean array `value` (the "labels" member) into an
/// arena-allocated span.
Status LabelsFromJson(const View* value, Arena* arena, const bool** labels,
                      uint32_t* count) {
  if (value == nullptr || value->type != View::Type::kArray) {
    return ShapeError("missing or non-array \"labels\"");
  }
  bool* decoded = static_cast<bool*>(
      arena->Allocate(value->element_count * sizeof(bool), alignof(bool)));
  for (uint32_t i = 0; i < value->element_count; ++i) {
    if (value->elements[i].type != View::Type::kBool) {
      return ShapeError("non-boolean entry in \"labels\"");
    }
    decoded[i] = value->elements[i].bool_value;
  }
  *labels = decoded;
  *count = value->element_count;
  return Status::OK();
}

// Hex codec for the snapshot-handoff image: the canonical JSON subset has
// no binary strings, so export/import carry the QLSV bytes as lowercase
// hex.

void AppendHexQuoted(std::string_view bytes, std::string* out) {
  static constexpr char kDigits[] = "0123456789abcdef";
  out->push_back('"');
  for (const char byte : bytes) {
    const unsigned char c = static_cast<unsigned char>(byte);
    out->push_back(kDigits[c >> 4]);
    out->push_back(kDigits[c & 0xf]);
  }
  out->push_back('"');
}

int HexNibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;  // uppercase rejected: canonical bytes are lowercase
}

/// Decodes the hex string `value` (the "image" member) into
/// arena-allocated bytes.
Result<std::string_view> ImageFromJson(const View* value, Arena* arena) {
  QLEARN_ASSIGN_OR_RETURN(const std::string_view hex,
                          ToStringView(value, "image"));
  if (hex.size() % 2 != 0) {
    return ShapeError("\"image\" hex has odd length " +
                      std::to_string(hex.size()));
  }
  char* out = static_cast<char*>(
      arena->Allocate(hex.size() / 2 + 1, alignof(char)));
  for (size_t i = 0; i < hex.size(); i += 2) {
    const int hi = HexNibble(hex[i]);
    const int lo = HexNibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return ShapeError("\"image\" is not lowercase hex");
    }
    out[i / 2] = static_cast<char>((hi << 4) | lo);
  }
  return std::string_view(out, hex.size() / 2);
}

// ---------------------------------------------------------------------------
// Ok-frame writers, one appender per op. All reuse the canonical wire
// serializations for embedded payloads and append into the caller's
// (pooled, on the server) buffer.

void AppendUInt(uint64_t value, std::string* out) {
  service::json::AppendUInt(value, out);
}

void AppendOkOpen(std::string_view id, std::string* out) {
  *out += "{\"ok\":{\"id\":";
  AppendEscaped(id, out);
  *out += "}}";
}

void AppendOkAsk(const std::vector<QuestionPayload>& questions,
                 std::string* out) {
  *out += "{\"ok\":{\"questions\":[";
  for (size_t i = 0; i < questions.size(); ++i) {
    if (i > 0) out->push_back(',');
    service::wire::SerializeTo(questions[i], out);
  }
  *out += "]}}";
}

void AppendOkOracle(const std::vector<bool>& labels, std::string* out) {
  *out += "{\"ok\":{\"labels\":";
  AppendLabels(labels, out);
  *out += "}}";
}

void AppendOkStatus(const service::SessionStatus& status, std::string* out) {
  *out += "{\"ok\":{\"id\":";
  AppendEscaped(status.id, out);
  *out += ",\"scenario\":";
  AppendEscaped(status.scenario, out);
  *out += ",\"stats\":";
  service::wire::SerializeTo(status.stats, out);
  *out += ",\"pending\":";
  AppendUInt(status.pending, out);
  *out += ",\"budget_exhausted\":";
  *out += status.budget_exhausted ? "true" : "false";
  *out += ",\"hypothesis\":";
  AppendEscaped(status.hypothesis, out);
  *out += "}}";
}

void AppendOkClose(const service::CloseResult& result, std::string* out) {
  *out += "{\"ok\":{\"hypothesis\":";
  service::wire::SerializeTo(result.hypothesis, out);
  *out += ",\"stats\":";
  service::wire::SerializeTo(result.stats, out);
  *out += "}}";
}

/// Log2 bucket counts as a JSON array, trimmed after the last nonzero
/// bucket (so idle histograms serialize as `[]`, and trailing-zero
/// trimming keeps the writer deterministic for the round-trip property).
void AppendLatencyArray(const service::LatencySnapshot& snapshot,
                        std::string* out) {
  size_t limit = 0;
  for (size_t i = 0; i < service::LatencySnapshot::kBuckets; ++i) {
    if (snapshot.buckets[i] != 0) limit = i + 1;
  }
  out->push_back('[');
  for (size_t i = 0; i < limit; ++i) {
    if (i > 0) out->push_back(',');
    AppendUInt(snapshot.buckets[i], out);
  }
  out->push_back(']');
}

void AppendOkCounters(const service::ServiceCounters& counters,
                      uint64_t open_sessions, uint64_t resident_sessions,
                      uint64_t parked_sessions, std::string* out) {
  *out += "{\"ok\":{\"opens\":";
  AppendUInt(counters.opens, out);
  *out += ",\"asks\":";
  AppendUInt(counters.asks, out);
  *out += ",\"tells\":";
  AppendUInt(counters.tells, out);
  *out += ",\"oracles\":";
  AppendUInt(counters.oracles, out);
  *out += ",\"statuses\":";
  AppendUInt(counters.statuses, out);
  *out += ",\"closes\":";
  AppendUInt(counters.closes, out);
  *out += ",\"errors\":";
  AppendUInt(counters.errors, out);
  *out += ",\"questions_served\":";
  AppendUInt(counters.questions_served, out);
  *out += ",\"labels_accepted\":";
  AppendUInt(counters.labels_accepted, out);
  *out += ",\"hibernates\":";
  AppendUInt(counters.hibernates, out);
  *out += ",\"rehydrates\":";
  AppendUInt(counters.rehydrates, out);
  *out += ",\"hibernate_errors\":";
  AppendUInt(counters.hibernate_errors, out);
  *out += ",\"exports\":";
  AppendUInt(counters.exports, out);
  *out += ",\"imports\":";
  AppendUInt(counters.imports, out);
  *out += ",\"open_sessions\":";
  AppendUInt(open_sessions, out);
  *out += ",\"resident_sessions\":";
  AppendUInt(resident_sessions, out);
  *out += ",\"parked_sessions\":";
  AppendUInt(parked_sessions, out);
  *out += ",\"latency_us\":{\"open\":";
  AppendLatencyArray(counters.open_latency_us, out);
  *out += ",\"ask\":";
  AppendLatencyArray(counters.ask_latency_us, out);
  *out += ",\"tell\":";
  AppendLatencyArray(counters.tell_latency_us, out);
  *out += ",\"oracle\":";
  AppendLatencyArray(counters.oracle_latency_us, out);
  *out += ",\"status\":";
  AppendLatencyArray(counters.status_latency_us, out);
  *out += ",\"close\":";
  AppendLatencyArray(counters.close_latency_us, out);
  *out += "}}}";
}

void AppendOkSessions(const std::vector<std::string>& ids, std::string* out) {
  *out += "{\"ok\":{\"ids\":[";
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out->push_back(',');
    AppendEscaped(ids[i], out);
  }
  *out += "]}}";
}

void AppendOkExport(const service::ExportedSession& exported,
                    std::string* out) {
  *out += "{\"ok\":{\"scenario\":";
  AppendEscaped(exported.scenario, out);
  *out += ",\"image\":";
  AppendHexQuoted(exported.image, out);
  *out += "}}";
}

void AppendErrorFrame(const common::Status& status, std::string* out) {
  *out += "{\"error\":{\"code\":\"";
  *out += common::StatusCodeName(status.code());
  *out += "\",\"message\":";
  AppendEscaped(status.message(), out);
  *out += "}}";
}

/// The frame for a service call's outcome: `append_ok(value)` when it
/// succeeded, the error frame otherwise.
template <typename T, typename AppendOk>
void AppendResult(const Result<T>& result, AppendOk append_ok,
                  std::string* out) {
  if (result.ok()) {
    append_ok(result.value(), out);
  } else {
    AppendErrorFrame(result.status(), out);
  }
}

/// The frame for a call whose ok body is empty (tell, import).
void AppendEmptyResult(const Status& status, std::string* out) {
  if (status.ok()) {
    *out += "{\"ok\":{}}";
  } else {
    AppendErrorFrame(status, out);
  }
}

// ---------------------------------------------------------------------------
// Ok-frame body parsing, one reader per op (strict, like the wire parsers).

Status LatencyFromJson(const View* value, std::string_view what,
                       service::LatencySnapshot* out) {
  if (value == nullptr || value->type != View::Type::kArray) {
    return ShapeError("missing or non-array \"" + std::string(what) +
                      "\" latency histogram");
  }
  if (value->element_count > service::LatencySnapshot::kBuckets) {
    return ShapeError(
        "\"" + std::string(what) + "\" latency histogram has more than " +
        std::to_string(service::LatencySnapshot::kBuckets) + " buckets");
  }
  for (uint32_t i = 0; i < value->element_count; ++i) {
    if (value->elements[i].type != View::Type::kUInt) {
      return ShapeError("non-integer bucket in \"" + std::string(what) +
                        "\" latency histogram");
    }
    out->buckets[i] = value->elements[i].uint_value;
  }
  return Status::OK();
}

Status ParseOkBody(Request::Op op, const View& body, Arena* arena,
                   Response* response) {
  if (body.type != View::Type::kObject) {
    return ShapeError("\"ok\" body must be an object");
  }
  uint64_t seen = 0;
  const auto uint_field = [&](std::string_view key, uint64_t* out) {
    QLEARN_ASSIGN_OR_RETURN(*out, ToUInt(Find(body, key, &seen), key));
    return Status::OK();
  };
  const auto string_field = [&](std::string_view key, std::string* out) {
    QLEARN_ASSIGN_OR_RETURN(*out, ToStringView(Find(body, key, &seen), key));
    return Status::OK();
  };
  switch (op) {
    case Request::Op::kOpen:
      QLEARN_RETURN_IF_ERROR(string_field("id", &response->id));
      break;
    case Request::Op::kAsk: {
      const View* questions = Find(body, "questions", &seen);
      if (questions == nullptr || questions->type != View::Type::kArray) {
        return ShapeError("missing or non-array \"questions\"");
      }
      for (uint32_t i = 0; i < questions->element_count; ++i) {
        QLEARN_ASSIGN_OR_RETURN(
            QuestionPayload payload,
            service::wire::QuestionFromJson(questions->elements[i]));
        response->questions.push_back(std::move(payload));
      }
      break;
    }
    case Request::Op::kTell:
    case Request::Op::kImport:
      break;  // empty body
    case Request::Op::kOracle: {
      const bool* labels = nullptr;
      uint32_t count = 0;
      QLEARN_RETURN_IF_ERROR(LabelsFromJson(Find(body, "labels", &seen),
                                            arena, &labels, &count));
      response->labels.assign(labels, labels + count);
      break;
    }
    case Request::Op::kStatus: {
      service::SessionStatus& session = response->session;
      QLEARN_RETURN_IF_ERROR(string_field("id", &session.id));
      QLEARN_RETURN_IF_ERROR(string_field("scenario", &session.scenario));
      const View* stats = Find(body, "stats", &seen);
      if (stats == nullptr) return ShapeError("missing \"stats\"");
      QLEARN_ASSIGN_OR_RETURN(session.stats,
                              service::wire::StatsFromJson(*stats));
      uint64_t pending = 0;
      QLEARN_RETURN_IF_ERROR(uint_field("pending", &pending));
      session.pending = static_cast<size_t>(pending);
      QLEARN_ASSIGN_OR_RETURN(session.budget_exhausted,
                              ToBool(Find(body, "budget_exhausted", &seen),
                                     "budget_exhausted"));
      QLEARN_RETURN_IF_ERROR(string_field("hypothesis", &session.hypothesis));
      break;
    }
    case Request::Op::kClose: {
      const View* hypothesis = Find(body, "hypothesis", &seen);
      if (hypothesis == nullptr) return ShapeError("missing \"hypothesis\"");
      QLEARN_ASSIGN_OR_RETURN(response->hypothesis,
                              service::wire::HypothesisFromJson(*hypothesis));
      const View* stats = Find(body, "stats", &seen);
      if (stats == nullptr) return ShapeError("missing \"stats\"");
      QLEARN_ASSIGN_OR_RETURN(response->stats,
                              service::wire::StatsFromJson(*stats));
      break;
    }
    case Request::Op::kCounters: {
      service::ServiceCounters& c = response->counters;
      const std::pair<std::string_view, uint64_t*> kFields[] = {
          {"opens", &c.opens},
          {"asks", &c.asks},
          {"tells", &c.tells},
          {"oracles", &c.oracles},
          {"statuses", &c.statuses},
          {"closes", &c.closes},
          {"errors", &c.errors},
          {"questions_served", &c.questions_served},
          {"labels_accepted", &c.labels_accepted},
          {"hibernates", &c.hibernates},
          {"rehydrates", &c.rehydrates},
          {"hibernate_errors", &c.hibernate_errors},
          {"exports", &c.exports},
          {"imports", &c.imports},
          {"open_sessions", &response->open_sessions},
          {"resident_sessions", &response->resident_sessions},
          {"parked_sessions", &response->parked_sessions},
      };
      for (const auto& [key, out] : kFields) {
        QLEARN_RETURN_IF_ERROR(uint_field(key, out));
      }
      const View* latency = Find(body, "latency_us", &seen);
      if (latency == nullptr || latency->type != View::Type::kObject) {
        return ShapeError("missing or non-object \"latency_us\"");
      }
      const std::pair<std::string_view, service::LatencySnapshot*>
          kHistograms[] = {
              {"open", &c.open_latency_us},
              {"ask", &c.ask_latency_us},
              {"tell", &c.tell_latency_us},
              {"oracle", &c.oracle_latency_us},
              {"status", &c.status_latency_us},
              {"close", &c.close_latency_us},
          };
      uint64_t latency_seen = 0;
      for (const auto& [key, out] : kHistograms) {
        QLEARN_RETURN_IF_ERROR(
            LatencyFromJson(Find(*latency, key, &latency_seen), key, out));
      }
      QLEARN_RETURN_IF_ERROR(
          CheckAllKeysKnown(*latency, latency_seen, "\"latency_us\""));
      break;
    }
    case Request::Op::kSessions: {
      const View* ids = Find(body, "ids", &seen);
      if (ids == nullptr || ids->type != View::Type::kArray) {
        return ShapeError("missing or non-array \"ids\"");
      }
      for (uint32_t i = 0; i < ids->element_count; ++i) {
        if (ids->elements[i].type != View::Type::kString) {
          return ShapeError("non-string entry in \"ids\"");
        }
        response->session_ids.emplace_back(ids->elements[i].string_value);
      }
      break;
    }
    case Request::Op::kExport: {
      QLEARN_RETURN_IF_ERROR(string_field("scenario", &response->scenario));
      QLEARN_ASSIGN_OR_RETURN(response->image,
                              ImageFromJson(Find(body, "image", &seen), arena));
      break;
    }
  }
  return CheckAllKeysKnown(body, seen, std::string("\"") + OpName(op) +
                                           "\" ok body");
}

}  // namespace

std::string Serialize(const Request& request) {
  std::string out = "{\"op\":\"";
  out += OpName(request.op);
  out += '"';
  switch (request.op) {
    case Request::Op::kOpen:
      out += ",\"scenario\":";
      AppendEscaped(request.scenario, &out);
      out += ",\"seed\":" + std::to_string(request.seed);
      out += ",\"max_questions\":" + std::to_string(request.max_questions);
      out += ",\"max_pending\":" + std::to_string(request.max_pending);
      out += ",\"max_wall_micros\":" + std::to_string(request.max_wall_micros);
      if (!request.id.empty()) {
        out += ",\"id\":";
        AppendEscaped(request.id, &out);
      }
      break;
    case Request::Op::kAsk:
      out += ",\"id\":";
      AppendEscaped(request.id, &out);
      out += ",\"k\":" + std::to_string(request.k);
      break;
    case Request::Op::kTell:
      out += ",\"id\":";
      AppendEscaped(request.id, &out);
      out += ",\"labels\":";
      AppendLabels(request.labels, &out);
      break;
    case Request::Op::kOracle:
    case Request::Op::kStatus:
    case Request::Op::kClose:
    case Request::Op::kExport:
      out += ",\"id\":";
      AppendEscaped(request.id, &out);
      break;
    case Request::Op::kImport:
      out += ",\"id\":";
      AppendEscaped(request.id, &out);
      out += ",\"scenario\":";
      AppendEscaped(request.scenario, &out);
      out += ",\"image\":";
      AppendHexQuoted(request.image, &out);
      break;
    case Request::Op::kCounters:
    case Request::Op::kSessions:
      break;
  }
  out.push_back('}');
  return out;
}

std::string SerializeError(const common::Status& status) {
  std::string out;
  AppendErrorFrame(status, &out);
  return out;
}

common::Result<Response> ParseResponse(Request::Op op,
                                       const std::string& text) {
  Arena arena;
  QLEARN_ASSIGN_OR_RETURN(const View* value,
                          service::json::ParseInto(text, &arena));
  if (value->type != View::Type::kObject || value->member_count != 1) {
    return ShapeError("response must be an object with one key");
  }
  const std::string_view tag = value->members[0].key;
  const View& body = value->members[0].value;
  Response response;
  if (tag == "error") {
    if (body.type != View::Type::kObject) {
      return ShapeError("\"error\" body must be an object");
    }
    uint64_t seen = 0;
    QLEARN_ASSIGN_OR_RETURN(const std::string_view code_name,
                            ToStringView(Find(body, "code", &seen), "code"));
    QLEARN_ASSIGN_OR_RETURN(
        const std::string_view message,
        ToStringView(Find(body, "message", &seen), "message"));
    QLEARN_RETURN_IF_ERROR(CheckAllKeysKnown(body, seen, "error body"));
    common::StatusCode code;
    if (!common::StatusCodeFromName(std::string(code_name), &code) ||
        code == common::StatusCode::kOk) {
      return ShapeError("unknown error code \"" + std::string(code_name) +
                        "\"");
    }
    response.status = common::Status(code, std::string(message));
    return response;
  }
  if (tag != "ok") {
    return ShapeError("expected \"ok\" or \"error\", got \"" +
                      std::string(tag) + "\"");
  }
  QLEARN_RETURN_IF_ERROR(ParseOkBody(op, body, &arena, &response));
  return response;
}

std::string HandleFrame(service::SessionService* service,
                        const std::string& request_json) {
  Arena arena;
  std::string out;
  HandleFrameInto(service, request_json, &arena, &out);
  return out;
}

namespace {

/// A decoded request frame: field strings are views into the frame buffer
/// (or the arena), labels are an arena-allocated span. Valid while both
/// the frame bytes and the arena live. Open's knob fields default like
/// service::OpenOptions, so a request may omit them.
struct RequestView {
  Request::Op op = Request::Op::kCounters;

  // kOpen/kImport
  std::string_view scenario;

  // kOpen
  uint64_t seed = session::SessionDefaults::kSeed;
  uint64_t max_questions = service::SessionBudget{}.max_questions;
  uint64_t max_pending = service::SessionBudget{}.max_pending;
  uint64_t max_wall_micros = 0;

  // kAsk/kTell/kOracle/kStatus/kClose/kExport/kImport; optional for kOpen
  std::string_view id;

  // kAsk
  uint64_t k = 1;

  // kTell
  const bool* labels = nullptr;
  uint32_t label_count = 0;

  // kImport: raw image bytes, hex-decoded into the arena.
  std::string_view image;
};

/// Strict parse of a request frame into arena storage; unknown ops,
/// unknown keys, and shape violations are ParseError. With a recycled
/// arena a steady-state parse performs zero heap allocations.
Result<RequestView> ParseRequestView(std::string_view text, Arena* arena) {
  QLEARN_ASSIGN_OR_RETURN(const View* value,
                          service::json::ParseInto(text, arena));
  if (value->type != View::Type::kObject) {
    return ShapeError("request must be an object");
  }
  uint64_t seen = 0;
  QLEARN_ASSIGN_OR_RETURN(const std::string_view op,
                          ToStringView(Find(*value, "op", &seen), "op"));
  RequestView request;
  if (op == "open") {
    request.op = Request::Op::kOpen;
    QLEARN_ASSIGN_OR_RETURN(
        request.scenario,
        ToStringView(Find(*value, "scenario", &seen), "scenario"));
    const auto optional_uint = [&](std::string_view key,
                                   uint64_t* out) -> Status {
      const View* field = Find(*value, key, &seen);
      if (field == nullptr) return Status::OK();
      QLEARN_ASSIGN_OR_RETURN(*out, ToUInt(field, key));
      return Status::OK();
    };
    QLEARN_RETURN_IF_ERROR(optional_uint("seed", &request.seed));
    QLEARN_RETURN_IF_ERROR(
        optional_uint("max_questions", &request.max_questions));
    QLEARN_RETURN_IF_ERROR(optional_uint("max_pending", &request.max_pending));
    QLEARN_RETURN_IF_ERROR(
        optional_uint("max_wall_micros", &request.max_wall_micros));
    const View* id = Find(*value, "id", &seen);
    if (id != nullptr) {
      QLEARN_ASSIGN_OR_RETURN(request.id, ToStringView(id, "id"));
    }
  } else if (op == "ask") {
    request.op = Request::Op::kAsk;
    QLEARN_ASSIGN_OR_RETURN(request.id,
                            ToStringView(Find(*value, "id", &seen), "id"));
    QLEARN_ASSIGN_OR_RETURN(request.k, ToUInt(Find(*value, "k", &seen), "k"));
  } else if (op == "tell") {
    request.op = Request::Op::kTell;
    QLEARN_ASSIGN_OR_RETURN(request.id,
                            ToStringView(Find(*value, "id", &seen), "id"));
    QLEARN_RETURN_IF_ERROR(LabelsFromJson(Find(*value, "labels", &seen),
                                          arena, &request.labels,
                                          &request.label_count));
  } else if (op == "oracle" || op == "status" || op == "close" ||
             op == "export") {
    request.op = op == "oracle"   ? Request::Op::kOracle
                 : op == "status" ? Request::Op::kStatus
                 : op == "close"  ? Request::Op::kClose
                                  : Request::Op::kExport;
    QLEARN_ASSIGN_OR_RETURN(request.id,
                            ToStringView(Find(*value, "id", &seen), "id"));
  } else if (op == "import") {
    request.op = Request::Op::kImport;
    QLEARN_ASSIGN_OR_RETURN(request.id,
                            ToStringView(Find(*value, "id", &seen), "id"));
    QLEARN_ASSIGN_OR_RETURN(
        request.scenario,
        ToStringView(Find(*value, "scenario", &seen), "scenario"));
    QLEARN_ASSIGN_OR_RETURN(request.image,
                            ImageFromJson(Find(*value, "image", &seen), arena));
  } else if (op == "counters") {
    request.op = Request::Op::kCounters;
  } else if (op == "sessions") {
    request.op = Request::Op::kSessions;
  } else {
    return ShapeError("unknown op \"" + std::string(op) + "\"");
  }
  QLEARN_RETURN_IF_ERROR(CheckAllKeysKnown(
      *value, seen, "\"" + std::string(op) + "\" request"));
  return request;
}

}  // namespace

void HandleFrameInto(service::SessionService* service,
                     std::string_view request_json,
                     service::json::Arena* arena, std::string* out) {
  auto request_or = ParseRequestView(request_json, arena);
  if (!request_or.ok()) {
    AppendErrorFrame(request_or.status(), out);
    return;
  }
  const RequestView& request = request_or.value();
  switch (request.op) {
    case Request::Op::kOpen: {
      service::OpenOptions options;
      options.seed = request.seed;
      options.budget.max_questions = request.max_questions;
      options.budget.max_pending = static_cast<size_t>(request.max_pending);
      options.budget.max_wall_seconds =
          static_cast<double>(request.max_wall_micros) / 1e6;
      options.id = std::string(request.id);
      AppendResult(service->Open(std::string(request.scenario), options),
                   AppendOkOpen, out);
      return;
    }
    case Request::Op::kAsk:
      AppendResult(service->Ask(request.id, static_cast<size_t>(request.k)),
                   AppendOkAsk, out);
      return;
    case Request::Op::kTell:
      AppendEmptyResult(
          service->Tell(request.id, request.labels, request.label_count),
          out);
      return;
    case Request::Op::kOracle:
      AppendResult(service->OracleLabels(request.id), AppendOkOracle, out);
      return;
    case Request::Op::kStatus:
      AppendResult(service->Status(request.id), AppendOkStatus, out);
      return;
    case Request::Op::kClose:
      AppendResult(service->Close(request.id), AppendOkClose, out);
      return;
    case Request::Op::kCounters:
      AppendOkCounters(service->Counters(), service->OpenCount(),
                       service->ResidentCount(), service->ParkedCount(), out);
      return;
    case Request::Op::kSessions:
      AppendOkSessions(service->ListOpen(), out);
      return;
    case Request::Op::kExport:
      AppendResult(service->ExportSession(request.id), AppendOkExport, out);
      return;
    case Request::Op::kImport:
      AppendEmptyResult(service->ImportSession(request.id,
                                               std::string(request.scenario),
                                               request.image),
                        out);
      return;
  }
  AppendErrorFrame(common::Status::Internal("unhandled op in HandleFrame"),
                   out);
}

common::Result<RequestPeek> PeekRequest(std::string_view frame,
                                        service::json::Arena* arena) {
  QLEARN_ASSIGN_OR_RETURN(const View* value,
                          service::json::ParseInto(frame, arena));
  if (value->type != View::Type::kObject) {
    return ShapeError("request must be an object");
  }
  uint64_t seen = 0;
  RequestPeek peek;
  peek.root = value;
  QLEARN_ASSIGN_OR_RETURN(peek.op,
                          ToStringView(Find(*value, "op", &seen), "op"));
  const View* id = Find(*value, "id", &seen);
  if (id != nullptr) {
    QLEARN_ASSIGN_OR_RETURN(peek.id, ToStringView(id, "id"));
    peek.has_id = true;
  }
  return peek;
}

void AppendOpenWithId(const View& root, std::string_view id,
                      std::string* out) {
  out->push_back('{');
  for (uint32_t i = 0; i < root.member_count; ++i) {
    AppendEscaped(root.members[i].key, out);
    out->push_back(':');
    service::json::AppendView(root.members[i].value, out);
    out->push_back(',');
  }
  *out += "\"id\":";
  AppendEscaped(id, out);
  out->push_back('}');
}

common::Result<std::string> MergeCountersFrames(
    const std::vector<std::string>& frames) {
  if (frames.empty()) {
    return ShapeError("counters merge needs at least one frame");
  }
  service::ServiceCounters total;
  uint64_t open_sessions = 0;
  uint64_t resident_sessions = 0;
  uint64_t parked_sessions = 0;
  const auto add_latency = [](const service::LatencySnapshot& in,
                              service::LatencySnapshot* out) {
    for (size_t i = 0; i < service::LatencySnapshot::kBuckets; ++i) {
      out->buckets[i] += in.buckets[i];
    }
  };
  for (const std::string& frame : frames) {
    QLEARN_ASSIGN_OR_RETURN(const Response response,
                            ParseResponse(Request::Op::kCounters, frame));
    if (!response.status.ok()) return frame;  // error frame wins, verbatim
    const service::ServiceCounters& c = response.counters;
    total.opens += c.opens;
    total.asks += c.asks;
    total.tells += c.tells;
    total.oracles += c.oracles;
    total.statuses += c.statuses;
    total.closes += c.closes;
    total.errors += c.errors;
    total.questions_served += c.questions_served;
    total.labels_accepted += c.labels_accepted;
    total.hibernates += c.hibernates;
    total.rehydrates += c.rehydrates;
    total.hibernate_errors += c.hibernate_errors;
    total.exports += c.exports;
    total.imports += c.imports;
    add_latency(c.open_latency_us, &total.open_latency_us);
    add_latency(c.ask_latency_us, &total.ask_latency_us);
    add_latency(c.tell_latency_us, &total.tell_latency_us);
    add_latency(c.oracle_latency_us, &total.oracle_latency_us);
    add_latency(c.status_latency_us, &total.status_latency_us);
    add_latency(c.close_latency_us, &total.close_latency_us);
    open_sessions += response.open_sessions;
    resident_sessions += response.resident_sessions;
    parked_sessions += response.parked_sessions;
  }
  std::string out;
  AppendOkCounters(total, open_sessions, resident_sessions, parked_sessions,
                   &out);
  return out;
}

common::Result<std::string> MergeSessionsFrames(
    const std::vector<std::string>& frames) {
  std::vector<std::string> ids;
  for (const std::string& frame : frames) {
    QLEARN_ASSIGN_OR_RETURN(Response response,
                            ParseResponse(Request::Op::kSessions, frame));
    if (!response.status.ok()) return frame;  // error frame wins, verbatim
    for (std::string& id : response.session_ids) ids.push_back(std::move(id));
  }
  std::sort(ids.begin(), ids.end());
  std::string out;
  AppendOkSessions(ids, &out);
  return out;
}

}  // namespace net
}  // namespace qlearn
